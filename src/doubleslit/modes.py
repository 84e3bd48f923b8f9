"""Eigenmode expansion of the wavefunction inside a rectangular slit.

Each transverse mode is a product of sine eigenfunctions (odd orders
p = 2m+1 across the width a, q = 2n+1 along the length b) with a complex
axial wavenumber: real for propagating modes, purely imaginary (decaying
branch) once the transverse momentum exceeds the free wavenumber.
"""

from __future__ import annotations

import cmath
import math
import operator
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .config import HBAR, SimConfig, wavenumber


class TruncationWarning(UserWarning):
    """Index caps were reached while terms above the drop tolerance remain."""


@dataclass(frozen=True)
class ModeIndex:
    """Mode counter; the physical sine orders are 2m+1 (y) and 2n+1 (x)."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise ValueError("mode indices must be non-negative")


@dataclass(frozen=True)
class ModeTerm:
    """One enumerated mode: expansion coefficient and axial wavenumber.

    enumerate_modes returns a ModeTable, which builds these as views of
    its columns.
    """

    index: ModeIndex
    coefficient: float
    k_z: complex
    propagating: bool


def mode_coefficient(index: ModeIndex, amplitude: float) -> float:
    """Fourier coefficient 16*A / ((2m+1)(2n+1)*pi^2) of the flat aperture field.

    Even sine orders project to zero and are not represented; ModeIndex
    only enumerates the odd orders.
    """
    return 16.0 * amplitude / ((2 * index.m + 1) * (2 * index.n + 1) * math.pi**2)


def axial_wavenumber(index: ModeIndex, slits, k: float) -> complex:
    """Axial wavenumber sqrt(k^2 - ky^2 - kx^2), decaying branch when evanescent."""
    ky = (2 * index.m + 1) * math.pi / slits.width_a
    kx = (2 * index.n + 1) * math.pi / slits.length_b
    r = k * k - kx * kx - ky * ky
    if r >= 0.0:
        return complex(math.sqrt(r), 0.0)
    return complex(0.0, math.sqrt(-r))


def thickness_attenuation(k_z: complex, c: float) -> complex:
    """Propagation factor exp(i*k_z*c) across the slit thickness c."""
    if c < 0:
        raise ValueError("thickness must be >= 0")
    return cmath.exp(1j * k_z * c)


def complex_product(a, b) -> np.ndarray:
    """Elementwise a*b, rounded exactly as Python's complex * complex.

    NumPy's SIMD complex multiply fuses multiply-adds (FMA) on some hosts,
    which moves the last bit of some products away from the scalar
    arithmetic's.  Separate real operations round each product on its own.
    A real operand counts as complex with imaginary part +0.0, as in Python.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    real = a.real * b.real - a.imag * b.imag
    out = np.empty(real.shape, dtype=np.complex128)
    out.real = real
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def thickness_attenuations(k_z: np.ndarray, c: float) -> np.ndarray:
    """thickness_attenuation over an array of axial wavenumbers, bit for bit.

    NumPy's complex exp calls the C library as cmath.exp does; its real
    exp does not, so the exponent stays complex.
    """
    if c < 0:
        raise ValueError("thickness must be >= 0")
    return np.exp(complex_product(complex_product(1j, k_z), c))


class ModeTable(Sequence):
    """Kept modes as five read-only columns of one length, m-major then n.

    It is also a sequence of ModeTerm views, built from the columns on
    each access, for callers that read modes one at a time.  A plain
    class rather than a dataclass: creating a dataclass costs about half
    a millisecond at import, which every CLI run pays.
    """

    __slots__ = ("m", "n", "coefficient", "k_z", "propagating")
    _DTYPES = (np.int64, np.int64, np.float64, np.complex128, np.bool_)

    def __init__(self, m, n, coefficient, k_z, propagating) -> None:
        values = (m, n, coefficient, k_z, propagating)
        for name, value, dtype in zip(self.__slots__, values, self._DTYPES):
            # A view, so that the caller's own array stays writeable.
            column = np.asarray(value, dtype=dtype).view()
            if column.ndim != 1 or column.shape != np.shape(m):
                raise ValueError("mode columns must be 1-D and of one length")
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __setattr__(self, name, value) -> None:
        raise AttributeError("ModeTable is read-only")

    def __len__(self) -> int:
        return self.m.size

    def __getitem__(self, i: int) -> ModeTerm:
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError("mode index out of range")
        return ModeTerm(
            ModeIndex(int(self.m[i]), int(self.n[i])),
            float(self.coefficient[i]),
            complex(self.k_z[i]),
            bool(self.propagating[i]),
        )

    def __iter__(self) -> Iterator[ModeTerm]:
        columns = (getattr(self, name).tolist() for name in self.__slots__)
        for m, n, coefficient, k_z, propagating in zip(*columns):
            yield ModeTerm(ModeIndex(m, n), coefficient, k_z, propagating)


# Modes evaluated per step along one m row, so that enumeration holds the
# kept modes plus one block whatever the index caps.
ENUMERATION_BLOCK = 1024


def _row_block(m: int, n: np.ndarray, slits, k: float, amp: float):
    """mode_coefficient, axial_wavenumber and the post-thickness weight
    for modes (m, n[i]), in the scalar functions' operation order."""
    coefficient = 16.0 * amp / ((2 * m + 1) * (2 * n + 1) * math.pi**2)
    ky = (2 * m + 1) * math.pi / slits.width_a
    kx = (2 * n + 1) * math.pi / slits.length_b
    r = k * k - kx * kx - ky * ky
    propagating = r >= 0.0
    root = np.sqrt(np.abs(r))
    k_z = np.empty(n.shape, dtype=np.complex128)
    k_z.real = np.where(propagating, root, 0.0)
    k_z.imag = np.where(propagating, 0.0, root)
    # Only evanescent weights are compared, and their attenuation is real:
    # a product with a real factor rounds alike, fused or not.
    weight = np.abs(coefficient * thickness_attenuations(k_z, slits.thickness_c))
    return coefficient, k_z, propagating, weight


def enumerate_modes(config: SimConfig) -> ModeTable:
    """All modes within the index caps that survive truncation.

    A mode is kept when it is propagating, or when its post-thickness
    weight |D * exp(i k_z c)| is at least evanescent_drop_tol times the
    fundamental's. Order is deterministic: m-major, then n.  A row of
    fixed m ends at its first dropped n, and enumeration ends at the first
    row that keeps nothing.  Emits TruncationWarning when the corner mode
    (m_max, n_max) still exceeds the drop tolerance.
    """
    k = wavenumber(config.beam)
    slits = config.slits
    trunc = config.truncation
    amp = config.beam.amplitude

    def weight(index: ModeIndex) -> float:
        kz = axial_wavenumber(index, slits, k)
        return abs(mode_coefficient(index, amp) * thickness_attenuation(kz, slits.thickness_c))

    cutoff = trunc.evanescent_drop_tol * weight(ModeIndex(0, 0))

    kept: list[tuple] = []  # per block: (m, n, coefficient, k_z, propagating)
    for m in range(trunc.m_max + 1):
        kept_any = False
        for start in range(0, trunc.n_max + 1, ENUMERATION_BLOCK):
            n = np.arange(start, min(start + ENUMERATION_BLOCK, trunc.n_max + 1))
            coefficient, k_z, propagating, w = _row_block(m, n, slits, k, amp)
            dropped = np.flatnonzero(~(propagating | (w >= cutoff)))
            count = int(dropped[0]) if dropped.size else n.size
            if count:
                # Copies, so that the block itself is not kept alive.
                block = (np.full(count, m), n, coefficient, k_z, propagating)
                kept.append(tuple(col[:count].copy() for col in block))
                kept_any = True
            if dropped.size:
                # Weight decreases monotonically in n for fixed m.
                break
        if not kept_any:
            # Weight decreases monotonically in m as well.
            break

    if weight(ModeIndex(trunc.m_max, trunc.n_max)) >= cutoff:
        warnings.warn(
            "mode sums truncated at the index caps while terms above the drop "
            f"tolerance remain (m_max={trunc.m_max}, n_max={trunc.n_max})",
            TruncationWarning,
            stacklevel=2,
        )
    columns = [np.concatenate(col) for col in zip(*kept)] if kept else [()] * 5
    return ModeTable(*columns)


def in_slit_wavefunction(
    x: float, y: float, z: float, t: float, config: SimConfig
) -> complex:
    """Truncated mode-sum wavefunction inside the first slit."""
    slits = config.slits
    if not (0 <= x <= slits.length_b and 0 <= y <= slits.width_a and 0 <= z <= slits.thickness_c):
        raise ValueError("point outside the first slit volume")
    b = slits.length_b
    a = slits.width_a
    if x in (0.0, b) or y in (0.0, a):
        # every eigenfunction vanishes on the slit walls
        return 0j
    total = 0j
    for term in enumerate_modes(config):
        p = 2 * term.index.m + 1
        q = 2 * term.index.n + 1
        total += (
            term.coefficient
            * math.sin(q * math.pi * x / b)
            * math.sin(p * math.pi * y / a)
            * cmath.exp(1j * term.k_z * z)
        )
    return total * cmath.exp(-1j * config.beam.energy * t / HBAR)


def second_slit_wavefunction(
    x: float, y: float, z: float, t: float, config: SimConfig
) -> complex:
    """Wavefunction inside the second slit (first slit translated by a+d)."""
    shift = config.slits.width_a + config.slits.separation_d
    if not (shift <= y <= shift + config.slits.width_a):
        raise ValueError("point outside the second slit volume")
    return in_slit_wavefunction(x, y - shift, z, t, config)
