"""Pattern analytics: interference orders, missing-order detection.

The numeric missing-order criterion compares an order's intensity against
the neighboring order peaks rather than the global maximum, since the
single-slit envelope decays with angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import SimConfig, de_broglie_wavelength, wavenumber
from .farfield import DiffractionScan

# Integer test tolerance on the geometry ratio (d+a)/a.
RATIO_INT_TOL = 1e-9
# Orders whose sine exceeds the scanned range by at most this much are
# evaluated at the scan edge (grazing orders).
GRAZING_SINE_TOL = 1e-3
DEFAULT_SUPPRESSION_THRESHOLD = 0.05


@dataclass(frozen=True)
class MissingOrderReport:
    ratio: float
    analytic_missing: tuple[int, ...]
    numeric_missing: tuple[int, ...]
    suppression_threshold: float


def _candidate_orders(spacing_s: float, s_scan_max: float) -> list[int]:
    """Orders j >= 1 with sin(beta_j) = j*spacing_s <= 1 inside the scan.

    Orders past the scan edge by at most GRAZING_SINE_TOL are included.
    """
    out = []
    j = 1
    while True:
        s_j = j * spacing_s
        if s_j > 1.0 or s_j > s_scan_max + GRAZING_SINE_TOL:
            return out
        out.append(j)
        j += 1


def _ascending_sines(scan: DiffractionScan) -> np.ndarray:
    """sin(beta) of the scan rows, which the order lookups need ascending."""
    sin_beta = np.sin(scan.beta)
    if np.any(sin_beta[1:] < sin_beta[:-1]):
        raise ValueError("scan angles must be in ascending order")
    return sin_beta


def _nearest_row(sin_beta: np.ndarray, s_center: float) -> int:
    """First row of least |sin_beta - s_center|, as np.argmin would pick.

    sin_beta is ascending, so the distance falls up to s_center and rises
    after it: only the rows either side of s_center compete, and a rounded
    distance can tie a row below with the rows before it.
    """
    i = int(np.searchsorted(sin_beta, s_center))
    if i == 0:
        return 0
    j = i - 1
    d = abs(sin_beta[j] - s_center)
    while j > 0 and abs(sin_beta[j - 1] - s_center) == d:
        j -= 1
    if i < sin_beta.size and abs(sin_beta[i] - s_center) < d:
        return i
    return j


def _peak_within(
    sin_beta: np.ndarray, inten: np.ndarray, s_center: float, s_half_window: float, near: int
) -> Optional[float]:
    """Peak intensity over the rows with |sin_beta - s_center| <= s_half_window.

    Those rows are one run holding the nearest row near, or none.  The
    searchsorted ends are off by the rounding of s_center -/+ s_half_window,
    so each end is walked onto the exact test.
    """

    def inside(i: int) -> bool:
        return bool(abs(sin_beta[i] - s_center) <= s_half_window)

    if not inside(near):
        return None
    lo = min(int(np.searchsorted(sin_beta, s_center - s_half_window)), near)
    while not inside(lo):
        lo += 1
    while lo > 0 and inside(lo - 1):
        lo -= 1
    hi = max(int(np.searchsorted(sin_beta, s_center + s_half_window, "right")), near + 1)
    while not inside(hi - 1):
        hi -= 1
    while hi < sin_beta.size and inside(hi):
        hi += 1
    return float(inten[lo:hi].max())


def missing_orders(
    config: SimConfig,
    scan: DiffractionScan,
    threshold: float = DEFAULT_SUPPRESSION_THRESHOLD,
) -> MissingOrderReport:
    """Analytic (ratio rule) and numeric (suppression) missing orders.

    Analytic: multiples of n when (d+a)/a is the integer n (the classical
    rule n, 2n, 3n, ...).  Numeric: the intensity at the order position
    beta_j falls below threshold times the median of the neighboring
    (j-1, j+1) order peak intensities.  Both are restricted to orders inside
    the scanned range; an order grazing the scan edge is evaluated at the
    edge row.  An order at sin(beta_j) >= cos(alpha) lies outside the
    forward hemisphere (sin^2(alpha) + sin^2(beta) < 1) that every scan is
    confined to, so it gets the analytic verdict only: it is neither judged
    numerically nor used as a neighbor.
    """
    if not 0 < threshold < 1:
        raise ValueError("threshold must be in (0, 1)")
    if scan.config_echo != config:
        raise ValueError("scan was produced from a different configuration")

    lam = de_broglie_wavelength(config.beam)
    a = config.slits.width_a
    d = config.slits.separation_d
    ratio = (d + a) / a
    spacing_s = lam / (a + d)

    inten = scan.intensity_total
    sin_beta = _ascending_sines(scan)
    s_scan_max = float(sin_beta.max())

    candidates = _candidate_orders(spacing_s, s_scan_max)
    s_observable = math.cos(config.beam.alpha)
    observable = [j for j in candidates if j * spacing_s < s_observable]

    n_int = round(ratio)
    is_integer_ratio = n_int >= 1 and abs(ratio - n_int) <= RATIO_INT_TOL * ratio
    analytic = (
        tuple(j for j in candidates if j % n_int == 0) if is_integer_ratio else ()
    )

    # The candidate is sampled at the order position (clamped to the scan
    # edge for grazing orders); neighbors use the fringe peak near their
    # position, since the suppressed order is compared against what its
    # neighbors actually reach.
    at_position: dict[int, float] = {}
    peak_near: dict[int, float] = {}
    for j in observable:
        s_j = min(j * spacing_s, s_scan_max)
        near = _nearest_row(sin_beta, s_j)
        at_position[j] = float(inten[near])
        value = _peak_within(sin_beta, inten, s_j, 0.4 * spacing_s, near)
        if value is not None:
            peak_near[j] = value

    numeric = []
    for j in observable:
        neighbors = [peak_near[i] for i in (j - 1, j + 1) if i in peak_near]
        if not neighbors:
            continue
        # The median of one or two peaks is their mean; np.median gives the
        # same bits at many times the cost.
        if at_position[j] < threshold * (sum(neighbors) / len(neighbors)):
            numeric.append(j)

    return MissingOrderReport(
        ratio=ratio,
        analytic_missing=analytic,
        numeric_missing=tuple(numeric),
        suppression_threshold=threshold,
    )


def factorization_audit(config: SimConfig, scan: DiffractionScan) -> float:
    """Max relative residual of I_total = I_slit1 * 4 cos^2(k sin(beta) (a+d)/2)."""
    if scan.beta.size == 0:
        raise ValueError("scan is empty")
    k = wavenumber(config.beam)
    spacing = config.slits.width_a + config.slits.separation_d
    total = scan.intensity_total
    predicted = scan.intensity_slit1 * 4.0 * np.cos(0.5 * k * np.sin(scan.beta) * spacing) ** 2
    residual = np.abs(total - predicted) / np.maximum(total, np.finfo(float).tiny)
    return float(residual.max())


def report_rows(
    config: SimConfig,
    scan: DiffractionScan,
    report: MissingOrderReport,
) -> tuple[tuple[int, float, float, bool, bool], ...]:
    """Machine-readable order rows (order, beta_rad, intensity, analytic, numeric)."""
    lam = de_broglie_wavelength(config.beam)
    spacing_s = lam / (config.slits.width_a + config.slits.separation_d)
    inten = scan.intensity_total
    sin_beta = _ascending_sines(scan)
    s_scan_max = float(sin_beta.max())

    out = []
    for j in _candidate_orders(spacing_s, s_scan_max):
        s_j = j * spacing_s
        value = float(inten[_nearest_row(sin_beta, min(s_j, s_scan_max))])
        out.append(
            (
                j,
                math.asin(min(s_j, 1.0)),
                value,
                j in report.analytic_missing,
                j in report.numeric_missing,
            )
        )
    return tuple(out)


def report_text(
    report: MissingOrderReport, rows: tuple[tuple[int, float, float, bool, bool], ...]
) -> str:
    """Plain-text missing-order report block; rows come from report_rows."""
    lines = [
        "missing-order report",
        f"  ratio (d+a)/a       : {report.ratio:.12g}",
        f"  suppression thresh  : {report.suppression_threshold:g}",
        f"  analytic missing    : {list(report.analytic_missing) or 'none'}",
        f"  numeric missing     : {list(report.numeric_missing) or 'none'}",
        "  order  beta_rad      intensity      analytic numeric",
    ]
    for j, b, value, ana, num in rows:
        lines.append(
            f"  {j:>5d}  {b:<12.6g}  {value:<13.6g}  {str(ana):<8s} {num}"
        )
    return "\n".join(lines) + "\n"
