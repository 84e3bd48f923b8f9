"""Pattern analytics: interference orders, missing-order reports."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleslit.analysis import (
    MissingOrderReport,
    _candidate_orders,
    _nearest_row,
    _peak_within,
    factorization_audit,
    missing_orders,
    report_rows,
    report_text,
)
from doubleslit.config import de_broglie_wavelength, parse_config
from doubleslit.farfield import SCAN_COLUMNS, DiffractionScan, scan
from doubleslit.figures import FIGURE_GEOMETRY, figure_config


def synthetic_scan(config, betas, intensities):
    """Scan columns built from an analytic intensity profile (slit1 = total/4)."""
    intensities = np.asarray(intensities, dtype=float)
    return DiffractionScan(
        config_echo=config,
        beta=betas,
        intensity_total=intensities,
        intensity_slit1=intensities / 4.0,
        two_slit_factor=np.full_like(intensities, 4.0),
        intensity_normalized=intensities / intensities.max(),
    )


class TestMissingOrders:
    def run_report(self, text, threshold=0.05):
        cfg = parse_config(text)
        return cfg, missing_orders(cfg, scan(cfg), threshold)

    def test_analytic_ratio_six(self):
        _, report = self.run_report(
            "a = 5 lambda\nd = 25 lambda\nm_max = 9\nn_max = 29\n"
            "beta_min_rad = -0.45\nbeta_max_rad = 0.45\n"
        )
        assert report.ratio == pytest.approx(6.0, rel=1e-12)
        assert set(report.analytic_missing) >= {6, 12}

    def test_analytic_empty_for_non_integer_ratio(self):
        _, report = self.run_report("a = 5 lambda\nd = 12 lambda\nm_max = 9\nn_max = 29\n")
        assert report.ratio == pytest.approx(3.4, rel=1e-12)
        assert report.analytic_missing == ()

    NARROW_RATIO_SIX = (
        "a = 1 lambda\nd = 5 lambda\nm_max = 9\nn_max = 29\n"
        "beta_min_rad = -1.55\nbeta_max_rad = 1.55\nbeta_steps = 801\n"
    )

    def test_narrow_slit_ratio_six_includes_order_six(self):
        # a = lambda, d = 5*lambda: order 6 sits at sin(beta) = 1, within the
        # grazing tolerance of the scan edge, so the ratio rule lists it.
        _, report = self.run_report(self.NARROW_RATIO_SIX)
        assert 6 in report.analytic_missing

    def test_order_outside_forward_hemisphere_gets_no_numeric_verdict(self):
        # Order 6 at sin(beta) = 1 >= cos(alpha) cannot be sampled: the
        # edge row sits 0.02 rad short of it, where the lone propagating
        # mode's envelope has no zero (ratio ~0.18).  A loose threshold
        # would flag that edge row, so the order must not be judged at all.
        _, report = self.run_report(self.NARROW_RATIO_SIX, threshold=0.5)
        assert 6 in report.analytic_missing
        assert 6 not in report.numeric_missing

    def test_numeric_detection_wide_slits(self):
        # a = 20*lambda, d = 40*lambda: classical missing orders 3 and 6.
        _, report = self.run_report(
            "a = 20 lambda\nd = 40 lambda\nm_max = 21\nn_max = 12\n"
            f"beta_min_rad = {-math.asin(7.4 / 60)!r}\n"
            f"beta_max_rad = {math.asin(7.4 / 60)!r}\n"
        )
        assert set(report.numeric_missing) >= {3, 6}

    def test_no_false_missing_for_non_integer_ratio(self):
        for d in ("5.5", "12"):
            a = "1" if d == "5.5" else "5"
            _, report = self.run_report(
                f"a = {a} lambda\nd = {d} lambda\nm_max = 9\nn_max = 29\n"
                "beta_min_rad = -0.45\nbeta_max_rad = 0.45\n"
            )
            assert report.numeric_missing == ()
            assert report.analytic_missing == ()

    def test_threshold_validation(self, coarse_detector_config):
        result = scan(coarse_detector_config)
        with pytest.raises(ValueError):
            missing_orders(coarse_detector_config, result, threshold=0.0)
        with pytest.raises(ValueError):
            missing_orders(coarse_detector_config, result, threshold=1.0)

    def test_config_scan_mismatch_rejected(self, coarse_detector_config, default_config):
        result = scan(coarse_detector_config)
        with pytest.raises(ValueError):
            missing_orders(default_config, result)

    def test_report_type(self, coarse_detector_config):
        report = missing_orders(coarse_detector_config, scan(coarse_detector_config))
        assert isinstance(report, MissingOrderReport)
        assert report.suppression_threshold == 0.05


def reference_intensity_at(sin_beta, inten, s_center):
    """The former lookup: the first row of least |sin_beta - s|, over all rows."""
    return float(inten[np.argmin(np.abs(sin_beta - s_center))])


def reference_peak_intensity(sin_beta, inten, s_center, s_half_window):
    """The former window: a mask over all rows."""
    mask = np.abs(sin_beta - s_center) <= s_half_window
    if not mask.any():
        return None
    return float(inten[mask].max())


def reference_numeric_missing(config, result, threshold):
    """The former numeric verdicts, from the full-scan lookups and np.median."""
    lam = de_broglie_wavelength(config.beam)
    spacing_s = lam / (config.slits.width_a + config.slits.separation_d)
    inten = result.intensity_total
    sin_beta = np.sin(result.beta)
    s_scan_max = float(sin_beta.max())
    observable = [
        j
        for j in _candidate_orders(spacing_s, s_scan_max)
        if j * spacing_s < math.cos(config.beam.alpha)
    ]
    at_position, peak_near = {}, {}
    for j in observable:
        s_j = min(j * spacing_s, s_scan_max)
        at_position[j] = reference_intensity_at(sin_beta, inten, s_j)
        value = reference_peak_intensity(sin_beta, inten, s_j, 0.4 * spacing_s)
        if value is not None:
            peak_near[j] = value
    numeric = []
    for j in observable:
        neighbors = [peak_near[i] for i in (j - 1, j + 1) if i in peak_near]
        if neighbors and at_position[j] < threshold * float(np.median(neighbors)):
            numeric.append(j)
    return tuple(numeric)


# Gaps between sorted sines: repeats, gaps at and below one ulp of 1.0 that
# rounding can turn into ties, and ordinary grid steps.
SINE_GAPS = [0.0, 1e-17, 1.1e-16, 2.3e-16, 1e-12, 1e-4, 0.05]
OFFSETS = [0.0, 1e-17, -1e-17, 1.2e-16, -1.2e-16, 3e-4, -3e-4]


def floats_around(value, count=3):
    """value and the count floats either side of it."""
    out = [value]
    below = above = value
    for _ in range(count):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [below, above]
    return out


@st.composite
def order_lookup(draw):
    """Ascending sines, a centre near or between them, and a half-window.

    Half the cases also hold the floats next to s - h and s + h, where the
    rounding of the window ends decides which rows pass the exact test;
    that takes cancellation, so h is also drawn near |s|.
    """
    base = draw(st.floats(-1.0, 1.0))
    gaps = draw(st.lists(st.sampled_from(SINE_GAPS), max_size=60))
    sin_beta = base + np.concatenate([[0.0], np.cumsum(gaps)])
    k = draw(st.integers(0, sin_beta.size - 1))
    if draw(st.booleans()):
        s_center = float(sin_beta[k]) + draw(st.sampled_from(OFFSETS))
    else:
        s_center = draw(st.floats(float(sin_beta[0]) - 0.1, float(sin_beta[-1]) + 0.1))
    edge = abs(float(sin_beta[draw(st.integers(0, sin_beta.size - 1))]) - s_center)
    h = draw(
        st.sampled_from([edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0), 0.0])
        | st.floats(0.0, 0.2)
        | st.floats(0.5, 2.0).map(lambda f: f * abs(s_center))
    )
    if draw(st.booleans()):
        ends = floats_around(s_center - h) + floats_around(s_center + h)
        sin_beta = np.sort(np.concatenate([sin_beta, ends]))
    return sin_beta, s_center, float(h)


class TestOrderLookups:
    @settings(max_examples=300, deadline=None)
    @given(case=order_lookup())
    def test_windowed_lookups_pick_the_full_scan_rows(self, case):
        sin_beta, s_center, h = case
        near = _nearest_row(sin_beta, s_center)
        assert near == int(np.argmin(np.abs(sin_beta - s_center)))
        # Row numbers as intensities: the peak names the window's last row,
        # and with the sign flipped its first.
        rows = np.arange(sin_beta.size, dtype=float)
        for inten in (rows, -rows):
            assert _peak_within(sin_beta, inten, s_center, h, near) == (
                reference_peak_intensity(sin_beta, inten, s_center, h)
            )

    @pytest.mark.parametrize("figure_id", sorted(FIGURE_GEOMETRY))
    def test_presets_keep_every_row_and_verdict(self, figure_id):
        cfg = figure_config(figure_id)
        result = scan(cfg)
        lam = de_broglie_wavelength(cfg.beam)
        spacing_s = lam / (cfg.slits.width_a + cfg.slits.separation_d)
        inten = result.intensity_total
        sin_beta = np.sin(result.beta)
        s_scan_max = float(sin_beta.max())
        orders = _candidate_orders(spacing_s, s_scan_max)
        assert orders
        for j in orders:
            s_j = min(j * spacing_s, s_scan_max)
            near = _nearest_row(sin_beta, s_j)
            assert near == int(np.argmin(np.abs(sin_beta - s_j)))
            assert _peak_within(sin_beta, inten, s_j, 0.4 * spacing_s, near) == (
                reference_peak_intensity(sin_beta, inten, s_j, 0.4 * spacing_s)
            )
        for threshold in (0.05, 0.3, 0.6):
            report = missing_orders(cfg, result, threshold)
            assert report.numeric_missing == reference_numeric_missing(cfg, result, threshold)
        rows = report_rows(cfg, result, report)
        assert [value for _, _, value, _, _ in rows] == [
            reference_intensity_at(sin_beta, inten, min(j * spacing_s, s_scan_max))
            for j in orders
        ]

    def test_descending_scan_rejected(self, coarse_detector_config):
        result = scan(coarse_detector_config)
        flipped = synthetic_scan(
            coarse_detector_config, result.beta[::-1], result.intensity_total[::-1]
        )
        with pytest.raises(ValueError, match="ascending"):
            missing_orders(coarse_detector_config, flipped)


class TestFactorizationAudit:
    def test_audit_below_tolerance(self, coarse_detector_config):
        value = factorization_audit(coarse_detector_config, scan(coarse_detector_config))
        assert value < 1e-10

    def test_corrupted_scan_flagged(self, coarse_detector_config):
        good = scan(coarse_detector_config)
        corrupted = replace(good, intensity_slit1=np.zeros_like(good.intensity_slit1))
        assert factorization_audit(coarse_detector_config, corrupted) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_empty_scan_rejected(self, coarse_detector_config):
        empty = DiffractionScan(
            coarse_detector_config, **{name: np.empty(0) for name in SCAN_COLUMNS}
        )
        with pytest.raises(ValueError):
            factorization_audit(coarse_detector_config, empty)


class TestReports:
    def test_rows_and_text_consistent(self):
        cfg = parse_config(
            "a = 5 lambda\nd = 10 lambda\nm_max = 9\nn_max = 9\n"
            "beta_min_rad = -0.45\nbeta_max_rad = 0.45\n"
        )
        result = scan(cfg)
        report = missing_orders(cfg, result)
        rows = report_rows(cfg, result, report)
        assert rows
        for j, beta, intensity, analytic, numeric in rows:
            assert j >= 1 and beta >= 0.0 and intensity >= 0.0
            assert analytic == (j in report.analytic_missing)
            assert numeric == (j in report.numeric_missing)
        text = report_text(report, rows)
        assert "missing-order report" in text
        assert f"{report.ratio:.12g}" in text
