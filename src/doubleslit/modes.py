"""Eigenmode expansion of the wavefunction inside a rectangular slit.

Each transverse mode is a product of sine eigenfunctions (odd orders
p = 2m+1 across the width a, q = 2n+1 along the length b) with a complex
axial wavenumber: real for propagating modes, purely imaginary (decaying
branch) once the transverse momentum exceeds the free wavenumber.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

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
    """One enumerated mode: expansion coefficient and axial wavenumber."""

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


def enumerate_modes(config: SimConfig) -> tuple[ModeTerm, ...]:
    """All modes within the index caps that survive truncation.

    A mode is kept when it is propagating, or when its post-thickness
    weight |D * exp(i k_z c)| is at least evanescent_drop_tol times the
    fundamental's. Order is deterministic: m-major, then n.  Emits
    TruncationWarning when the corner mode (m_max, n_max) still exceeds
    the drop tolerance.
    """
    k = wavenumber(config.beam)
    slits = config.slits
    trunc = config.truncation
    amp = config.beam.amplitude
    c = slits.thickness_c

    idx0 = ModeIndex(0, 0)
    ref = abs(
        mode_coefficient(idx0, amp)
        * thickness_attenuation(axial_wavenumber(idx0, slits, k), c)
    )
    cutoff = trunc.evanescent_drop_tol * ref

    terms: list[ModeTerm] = []
    for m in range(trunc.m_max + 1):
        kept_any = False
        for n in range(trunc.n_max + 1):
            idx = ModeIndex(m, n)
            kz = axial_wavenumber(idx, slits, k)
            propagating = kz.imag == 0.0
            coeff = mode_coefficient(idx, amp)
            weight = abs(coeff * thickness_attenuation(kz, c))
            if propagating or weight >= cutoff:
                terms.append(ModeTerm(idx, coeff, kz, propagating))
                kept_any = True
            else:
                # Weight decreases monotonically in n for fixed m.
                break
        if not kept_any:
            # Weight decreases monotonically in m as well.
            break

    idx_corner = ModeIndex(trunc.m_max, trunc.n_max)
    kz_corner = axial_wavenumber(idx_corner, slits, k)
    w_corner = abs(
        mode_coefficient(idx_corner, amp) * thickness_attenuation(kz_corner, c)
    )
    if w_corner >= cutoff:
        warnings.warn(
            "mode sums truncated at the index caps while terms above the drop "
            f"tolerance remain (m_max={trunc.m_max}, n_max={trunc.n_max})",
            TruncationWarning,
            stacklevel=2,
        )
    return tuple(terms)


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
