"""Closed-form far-field amplitudes and intensity scans.

The per-slit amplitude is a mode sum: each mode contributes its
coefficient, the thickness propagation factor, an obliquity prefactor
combining the axial wavenumber with the observation direction cosine, and
two 1D sine Fourier integrals (one along the slit length at fixed alpha,
one across the width as a function of beta).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .config import HBAR, SimConfig, direction_cosine, wavenumber
from .modes import ModeTerm, complex_product, enumerate_modes, thickness_attenuations

SINGULAR_EPS = kernels.SINGULAR_EPS


@dataclass(frozen=True)
class DirectionAngles:
    """Observation direction; alpha out of plane, beta the scan angle."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        direction_cosine(self.alpha, math.sin(self.beta))


@dataclass(frozen=True)
class ScanRow:
    beta: float
    intensity_total: float
    intensity_slit1: float
    two_slit_factor: float
    intensity_normalized: float


SCAN_COLUMNS = (
    "beta",
    "intensity_total",
    "intensity_slit1",
    "two_slit_factor",
    "intensity_normalized",
)


@dataclass(frozen=True, eq=False)
class DiffractionScan:
    """A scan as five read-only float64 columns of one length, one per angle."""

    config_echo: SimConfig
    beta: np.ndarray
    intensity_total: np.ndarray
    intensity_slit1: np.ndarray
    two_slit_factor: np.ndarray
    intensity_normalized: np.ndarray

    def __post_init__(self) -> None:
        for name in SCAN_COLUMNS:
            # A view, so that the caller's own array stays writeable.
            column = np.asarray(getattr(self, name), dtype=np.float64).view()
            if column.ndim != 1 or column.shape != np.shape(self.beta):
                raise ValueError("scan columns must be 1-D and of one length")
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def rows(self) -> tuple[ScanRow, ...]:
        """Per-angle row view, built from the columns on each access.

        Kept for callers that read rows by attribute; the library reads
        the columns.
        """
        columns = (getattr(self, name).tolist() for name in SCAN_COLUMNS)
        return tuple(ScanRow(*values) for values in zip(*columns))


def sine_fourier_integral(p: int, q: float, L: float) -> complex:
    """Closed form of integral_0^L exp(-i q y) sin(p pi y / L) dy, p odd.

    Switches to the analytic limit -iL/2 (+iL/2 at q = -p*pi/L) inside the
    removable-singularity window |q -/+ p*pi/L|*L < 1e-8.
    """
    if p <= 0 or p % 2 == 0:
        raise ValueError("p must be a positive odd integer")
    if L <= 0:
        raise ValueError("L must be > 0")
    w = p * math.pi / L
    if abs(q - w) * L < SINGULAR_EPS:
        return complex(0.0, -0.5 * L)
    if abs(q + w) * L < SINGULAR_EPS:
        return complex(0.0, 0.5 * L)
    return w * (1.0 + cmath.exp(-1j * q * L)) / (w * w - q * q)


def obliquity_prefactor(
    term: ModeTerm, angles: DirectionAngles, k: float, R: float
) -> complex:
    """Bracket factor i*k_z + (i*k - 1/R) * sqrt(cos^2(alpha) - sin^2(beta))."""
    g = direction_cosine(angles.alpha, math.sin(angles.beta))
    return 1j * term.k_z + (1j * k - 1.0 / R) * g


@dataclass(frozen=True)
class _ScanPlan:
    """Per-scan precomputation shared by the slit-1 and slit-2 paths."""

    w_y: np.ndarray  # distinct (2m+1)*pi/a, one entry per surviving m
    amp_grad: np.ndarray  # per-m sums including i*k_z (gradient term)
    amp_field: np.ndarray  # per-m sums of coefficient*attenuation*X_n
    envelope: complex  # -exp(ikR)/(4 pi R) * exp(-iEt/hbar)
    cterm: complex  # i*k - 1/R
    k: float


def _row_sums(m: np.ndarray, n: np.ndarray, terms: np.ndarray, rows: int) -> np.ndarray:
    """Sum of terms over each row m < rows, added left to right in n from 0j.

    That is the order of a scalar loop; np.sum and np.add.reduceat add
    pairwise and round differently.  Gaps and the padding past a row's end
    add 0j, which leaves a sum unchanged.
    """
    padded = np.zeros((rows, n.max(initial=-1) + 2), dtype=np.complex128)
    padded[m, n + 1] = terms
    # A contiguous copy: the kernel's matrix product rounds differently
    # on a strided vector.
    return np.ascontiguousarray(np.cumsum(padded, axis=1)[:, -1])


def _build_plan(config: SimConfig) -> _ScanPlan:
    k = wavenumber(config.beam)
    slits = config.slits
    R = config.detector.distance_R
    alpha = config.beam.alpha
    q_x = k * math.sin(alpha)

    modes = enumerate_modes(config)
    # Rows m = 0, 1, ... each hold n = 0, 1, ...; the table may be empty.
    m_count = modes.m.max(initial=-1) + 1
    n_count = modes.n.max(initial=-1) + 1
    # The x' integrals depend only on n; compute each once per scan.
    x_n = np.array(
        [sine_fourier_integral(2 * n + 1, q_x, slits.length_b) for n in range(n_count)],
        dtype=np.complex128,
    )
    attenuation = thickness_attenuations(modes.k_z, slits.thickness_c)
    base = complex_product(complex_product(modes.coefficient, attenuation), x_n[modes.n])
    grad = complex_product(base, complex_product(1j, modes.k_z))

    w_y = (2 * np.arange(m_count) + 1) * math.pi / slits.width_a
    envelope = (
        -cmath.exp(1j * k * R)
        / (4.0 * math.pi * R)
        * cmath.exp(-1j * config.beam.energy * config.evaluation_time / HBAR)
    )
    return _ScanPlan(
        w_y=w_y,
        amp_grad=_row_sums(modes.m, modes.n, grad, m_count),
        amp_field=_row_sums(modes.m, modes.n, base, m_count),
        envelope=envelope,
        cterm=1j * k - 1.0 / R,
        k=k,
    )


def amplitudes(config: SimConfig, betas) -> tuple[np.ndarray, np.ndarray]:
    """Far-field amplitudes (psi1, psi2) of the two slits at each beta of a 1-D array.

    Slit 1 integrates y' over [0, a], slit 2 over [a+d, 2a+d].  The mode
    plan is built once per call.
    """
    plan = _build_plan(config)
    sinb = np.sin(np.asarray(betas, dtype=np.float64))
    q = plan.k * sinb
    g = direction_cosine(config.beam.alpha, sinb)
    a = config.slits.width_a
    shift = a + config.slits.separation_d
    # Each kernel result is bound to a name before the envelope multiplies
    # it: on a temporary, numpy reuses the buffer and multiplies with the
    # operands swapped, which changes last-bit rounding.
    psi1 = kernels.mode_sum(plan.w_y, plan.amp_grad, plan.amp_field, q, g, a, 0.0, plan.cterm)
    psi2 = kernels.mode_sum(plan.w_y, plan.amp_grad, plan.amp_field, q, g, a, shift, plan.cterm)
    return plan.envelope * psi1, plan.envelope * psi2


def scan(config: SimConfig) -> DiffractionScan:
    """Intensity scan over the detector's uniform beta grid."""
    betas = config.detector.grid()
    psi1, psi2 = amplitudes(config, betas)
    i_total = np.abs(psi1 + psi2) ** 2
    i_slit1 = np.abs(psi1) ** 2
    spacing = config.slits.width_a + config.slits.separation_d
    factor = 4.0 * np.cos(0.5 * wavenumber(config.beam) * np.sin(betas) * spacing) ** 2
    peak = float(i_total.max())
    norm = i_total / peak if peak > 0.0 else np.zeros_like(i_total)
    return DiffractionScan(
        config_echo=config,
        beta=betas,
        intensity_total=i_total,
        intensity_slit1=i_slit1,
        two_slit_factor=factor,
        intensity_normalized=norm,
    )
