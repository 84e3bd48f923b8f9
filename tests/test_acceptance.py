"""Acceptance suite: one pass/fail verdict per criterion.

Each criterion prints a [ACCEPTANCE] verdict line before asserting, so a
plain pytest run yields a readable scorecard.  Criterion 1 is parametrized
per figure and asks for exactly the claimed orders to be suppressed.

Figures 5 and 7 (a = 5 lambda, c = lambda) are expected to read FAIL.  The
per-mode thickness phase e^(i k_z c) moves the single-slit envelope zeros
to sin(beta) ~ 1.11 lambda/a and ~ 2.24 lambda/a: the zeros stay deep but
land a third of a fringe past order n and two-thirds of a fringe past
order 2n, so those orders keep 13-82% of their neighbors' intensity.  At
c = 0 the same orders drop to 2-23%; swapping the per-mode gradient i k_z
for i k, or dropping the obliquity, moves the ratios by under 2%, and
larger index caps by under 0.003.  Whether the model or the claimed orders
are at fault needs the paper's slit-field equations and figures.  The
abstract names the missing orders 2n, 3n, 4n, ...; the cases below use the
classical n, 2n, 3n, ..., and which one the paper means is unsettled.
"""

import math
import time

import numpy as np
import pytest

from doubleslit import output
from doubleslit.analysis import factorization_audit, missing_orders
from doubleslit.config import (
    ELECTRON_MASS,
    EV_TO_J,
    de_broglie_wavelength,
    parse_config,
    with_detector,
    with_truncation,
)
from doubleslit.config import BeamSpec
from doubleslit.farfield import (
    DirectionAngles,
    amplitudes,
    scan,
    sine_fourier_integral,
)
from doubleslit.figures import FIGURE_GEOMETRY, figure_config
from doubleslit.modes import (
    ModeIndex,
    axial_wavenumber,
    enumerate_modes,
    in_slit_wavefunction,
    thickness_attenuation,
)
from doubleslit.quadrature import oracle_sine_fourier, oracle_surface_amplitude

THRESHOLD = 0.05


def verdict(label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] {label}: {status}{suffix}")
    return ok


def capped_truncation(config):
    """Largest caps covering all propagating widths within a 300-mode budget."""
    lam = de_broglie_wavelength(config.beam)
    m_cap = max(int(math.ceil(config.slits.width_a / lam)), 9)
    n_cap = 300 // (m_cap + 1) - 1
    return with_truncation(config, m_max=m_cap, n_max=n_cap)


def figure_scan(figure_id, beta_max, steps=2001):
    cfg = with_detector(
        figure_config(figure_id), beta_min=-beta_max, beta_max=beta_max, steps=steps
    )
    return capped_truncation(cfg)


# figure id -> (scan half-range covering the claimed orders plus a neighbor,
#               orders the paper claims missing)
# Figure 3 (a = lambda, d = 5 lambda) claims none: its first missing order,
# 6 under n, 2n, ... or 12 under 2n, 3n, ..., sits at sin(beta) >= 1, outside
# the forward hemisphere sin^2(alpha) + sin^2(beta) < 1 that any scan can
# sample.  Its scan runs to the hemisphere edge, so orders 1-5 must survive.
MISSING_ORDER_CASES = {
    3: (1.55, ()),
    5: (math.asin(7.4 / 15), (3, 6)),
    7: (math.asin(13.4 / 30), (6, 12)),
    8: (math.asin(7.4 / 60), (3, 6)),
    9: (math.asin(7.4 / 90), (3, 6)),
    10: (math.asin(7.4 / 150), (3, 6)),
}


@pytest.mark.parametrize("figure_id", sorted(MISSING_ORDER_CASES))
def test_criterion_1_missing_order_reproduction(figure_id):
    beta_max, claimed = MISSING_ORDER_CASES[figure_id]
    cfg = figure_scan(figure_id, beta_max)
    assert len(enumerate_modes(cfg)) <= 300
    start = time.perf_counter()
    result = scan(cfg)
    elapsed = time.perf_counter() - start
    report = missing_orders(cfg, result, THRESHOLD)
    ok = report.numeric_missing == claimed and elapsed < 10.0
    assert verdict(
        f"1 missing orders, figure {figure_id}",
        ok,
        f"claimed={list(claimed)} numeric={list(report.numeric_missing)} "
        f"scan={elapsed:.2f}s",
    )


def test_criterion_2_no_false_missing():
    results = {}
    for figure_id in (4, 6):
        cfg = capped_truncation(figure_config(figure_id))
        report = missing_orders(cfg, scan(cfg), THRESHOLD)
        results[figure_id] = report
    ok = all(
        r.numeric_missing == () and r.analytic_missing == () for r in results.values()
    )
    assert verdict(
        "2 no false missing orders (figures 4, 6)",
        ok,
        "; ".join(
            f"fig{f}: numeric={list(r.numeric_missing)}" for f, r in results.items()
        ),
    )


def test_criterion_3_factorization_identity():
    worst = 0.0
    for figure_id in sorted(FIGURE_GEOMETRY):
        cfg = with_detector(figure_config(figure_id), steps=501)
        worst = max(worst, factorization_audit(cfg, scan(cfg)))
    assert verdict(
        "3 factorization identity on all presets", worst < 1e-10, f"max residual {worst:.2e}"
    )


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(20250823)
    cases = []
    for _ in range(500):
        p = 2 * int(rng.integers(0, 20)) + 1
        L = float(rng.uniform(0.5, 2.0))
        cases.append((p, float(rng.uniform(-100.0, 100.0)) / L, L))
    refs = oracle_sine_fourier(*zip(*cases), tol=1e-12)
    worst_sine = 0.0
    sine_ok = True
    for (p, q, L), ref in zip(cases, refs):
        w = p * math.pi / L
        in_window = min(abs(q - w), abs(q + w)) * L < 1e-6
        closed = sine_fourier_integral(p, q, L)
        residual = abs(closed - ref) / abs(ref)
        sine_ok &= residual < (1e-6 if in_window else 1e-9)
        worst_sine = max(worst_sine, residual)

    worst_surface = 0.0
    surface_ok = True
    betas = (0.0, 0.002, 0.005, 0.011, 0.02)
    for figure_id in sorted(FIGURE_GEOMETRY):
        cfg = with_truncation(figure_config(figure_id), m_max=3, n_max=3)
        psi1, _ = amplitudes(cfg, np.array(betas))
        for beta, closed in zip(betas, psi1):
            angles = DirectionAngles(cfg.beam.alpha, beta)
            ref = oracle_surface_amplitude(angles, cfg, tol=1e-8)
            residual = abs(closed - ref) / abs(ref)
            surface_ok &= residual < 1e-6
            worst_surface = max(worst_surface, residual)

    assert verdict(
        "4 oracle equivalence",
        sine_ok and surface_ok,
        f"sine worst {worst_sine:.2e} (500 cases), "
        f"surface worst {worst_surface:.2e} (5 angles x 12 presets)",
    )


def test_criterion_5_wavelength():
    beam = BeamSpec(mass=ELECTRON_MASS, energy=0.001 * EV_TO_J)
    lam = de_broglie_wavelength(beam)
    rel = abs(lam - 3.88e-8) / 3.88e-8
    assert verdict("5 wavelength at 0.001 eV", rel < 0.005, f"{lam:.4e} m, off by {rel:.2%}")


def test_criterion_6_classical_limit():
    cfg = parse_config(
        "a = 50 lambda\nb = 1000 lambda\nc = 0 lambda\nd = 100 lambda\n"
        "m_max = 63\nn_max = 4\n"
        "beta_min_rad = 0.001\nbeta_max_rad = 0.075\nbeta_steps = 3001\n"
    )
    result = scan(cfg)
    sines = np.sin(result.beta)
    envelope = result.intensity_slit1
    minima = [
        i
        for i in range(1, len(envelope) - 1)
        if envelope[i] < envelope[i - 1] and envelope[i] <= envelope[i + 1]
    ]
    found = [float(sines[i]) for i in minima[:3]]
    expected = [j / 50.0 for j in (1, 2, 3)]
    ok = len(found) == 3 and all(
        abs(f - e) / e < 0.02 for f, e in zip(found, expected)
    )
    assert verdict(
        "6 classical single-slit zeros (c=0, a=50 wavelengths)",
        ok,
        f"found sin(beta) {['%.5f' % f for f in found]} vs {expected}",
    )


def test_criterion_7_thickness_behavior():
    base = figure_config(11)  # a = 10 wavelengths
    lam = de_broglie_wavelength(base.beam)
    thicknesses = [0.0, 10 * lam, 100 * lam, 1000 * lam]

    # per-mode attenuation laws over a fixed representative mode set
    k = 2 * math.pi / lam
    mono_ok = True
    for m in range(0, 32):
        for n in (0, 5, 50):
            kz = axial_wavenumber(ModeIndex(m, n), base.slits, k)
            mags = [abs(thickness_attenuation(kz, c)) for c in thicknesses]
            if kz.imag == 0.0:
                # unit modulus up to one ulp of cos^2 + sin^2 rounding
                mono_ok &= all(abs(v - 1.0) <= 1e-15 for v in mags)
            else:
                # strictly decreasing until the exponential underflows to 0
                mono_ok &= all(
                    x > y or (y == 0.0 and x == 0.0) for x, y in zip(mags, mags[1:])
                )

    # peak-vs-thickness report (emitted, not asserted: the underlying claim
    # of growing peaks is qualitative)
    peaks = {}
    for figure_id, c in zip((11, 12, 13, 14), thicknesses):
        cfg = capped_truncation(figure_config(figure_id))
        peaks[c / lam] = float(scan(cfg).intensity_total.max())
    values = list(peaks.values())
    growth = "observed" if all(x < y for x, y in zip(values, values[1:])) else "not-observed"
    report = ", ".join(f"c={c:g}lam peak={p:.3e}" for c, p in peaks.items())
    print(f"[ACCEPTANCE] 7 peak-vs-thickness report: {report}; growth {growth}")
    assert verdict("7 thickness attenuation laws", mono_ok)


def test_criterion_8_invariant_suites():
    rng = np.random.default_rng(11)
    conj_ok = True
    for _ in range(1000):
        p = 2 * int(rng.integers(0, 20)) + 1
        q = float(rng.uniform(-80, 80))
        L = float(rng.uniform(0.5, 2.0))
        lhs = sine_fourier_integral(p, -q, L)
        rhs = sine_fourier_integral(p, q, L).conjugate()
        conj_ok &= abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)

    cfg = parse_config("")
    k = 2 * math.pi / de_broglie_wavelength(cfg.beam)
    disp_ok = True
    for t in enumerate_modes(cfg):
        ky = (2 * t.index.m + 1) * math.pi / cfg.slits.width_a
        kx = (2 * t.index.n + 1) * math.pi / cfg.slits.length_b
        closure = t.k_z.real**2 - t.k_z.imag**2 + kx * kx + ky * ky
        disp_ok &= abs(closure - k * k) <= 1e-10 * k * k

    entrance = with_truncation(parse_config("c = 0 lambda\n"), m_max=63, n_max=63)
    center = in_slit_wavefunction(
        entrance.slits.length_b / 2, entrance.slits.width_a / 2, 0.0, 0.0, entrance
    )
    fourier_ok = abs(abs(center) - entrance.beam.amplitude) < 0.02 * entrance.beam.amplitude

    fast = with_detector(with_truncation(cfg, m_max=3, n_max=3), steps=101)
    first, second = scan(fast), scan(fast)
    deterministic = (
        output.scan_csv(first) == output.scan_csv(second)
        and output.scan_svg(first) == output.scan_svg(second)
    )

    assert verdict(
        "8 invariant suites",
        conj_ok and disp_ok and fourier_ok and deterministic,
        f"conjugation={conj_ok} dispersion={disp_ok} "
        f"fourier={fourier_ok} determinism={deterministic}",
    )
