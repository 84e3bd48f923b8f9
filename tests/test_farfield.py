"""Closed-form far-field amplitudes, scans, and their invariants."""

import cmath
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doubleslit.config import (
    ConfigError,
    direction_cosine,
    parse_config,
    with_detector,
    with_truncation,
    wavenumber,
)
from doubleslit.farfield import (
    SCAN_COLUMNS,
    DirectionAngles,
    DiffractionScan,
    ScanRow,
    amplitudes,
    obliquity_prefactor,
    scan,
    sine_fourier_integral,
)
from doubleslit.modes import ModeIndex, ModeTerm
from doubleslit.quadrature import integrate_1d, oracle_sine_fourier, oracle_surface_amplitude


class TestSineFourierIntegral:
    def test_zero_frequency(self):
        a = 3.7e-8
        assert sine_fourier_integral(1, 0.0, a) == pytest.approx(2 * a / math.pi, rel=1e-14)

    def test_removable_singularity_limit(self):
        L = 2.5e-8
        got = sine_fourier_integral(1, math.pi / L, L)
        assert got == pytest.approx(complex(0.0, -L / 2), rel=1e-12)
        # The oracle integrates straight through (only the closed form is 0/0).
        ref = oracle_sine_fourier(1, math.pi / L, L, tol=1e-14)
        assert got == pytest.approx(ref, rel=1e-8)

    def test_mirror_singularity_limit(self):
        L = 1.0
        assert sine_fourier_integral(1, -math.pi / L, L) == pytest.approx(
            complex(0.0, L / 2), rel=1e-12
        )

    def test_unit_case_against_oracle(self):
        got = sine_fourier_integral(1, 1.0, 1.0)
        assert got == pytest.approx(0.5456 - 0.2981j, abs=1e-4)
        assert got == pytest.approx(oracle_sine_fourier(1, 1.0, 1.0, 1e-13), rel=1e-10)

    def test_continuous_across_window_boundary(self):
        L = 1.0
        w = math.pi / L
        eps = 1e-8 / L
        inside = sine_fourier_integral(1, w + 0.99 * eps, L)
        outside = sine_fourier_integral(1, w + 1.01 * eps, L)
        assert inside == pytest.approx(outside, rel=1e-8)

    def test_even_order_rejected(self):
        with pytest.raises(ValueError):
            sine_fourier_integral(2, 0.0, 1.0)
        with pytest.raises(ValueError):
            sine_fourier_integral(1, 0.0, -1.0)

    @given(
        m=st.integers(0, 19),
        q=st.floats(-100.0, 100.0),
        L=st.floats(0.5, 2.0),
    )
    def test_conjugation_symmetry(self, m, q, L):
        p = 2 * m + 1
        lhs = sine_fourier_integral(p, -q, L)
        rhs = sine_fourier_integral(p, q, L).conjugate()
        assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(0, 19),
        ql=st.floats(-100.0, 100.0),
        L=st.floats(0.5, 2.0),
    )
    def test_matches_quadrature_oracle(self, m, ql, L):
        p = 2 * m + 1
        q = ql / L
        if min(abs(q - p * math.pi / L), abs(q + p * math.pi / L)) * L < 1e-6:
            return  # singular window handled by the dedicated limit tests
        got = sine_fourier_integral(p, q, L)
        ref = oracle_sine_fourier(p, q, L, tol=1e-13)
        # 1e-9 relative, floored at the oracle's own absolute tolerance
        # (near zeros of 1 + e^(-iqL) the integral itself vanishes).
        assert abs(got - ref) <= max(1e-9 * abs(ref), 1e-12 * L)


class TestObliquityPrefactor:
    def propagating_term(self, k):
        return ModeTerm(ModeIndex(0, 0), 1.0, complex(k, 0.0), True)

    def test_axial_limit(self, default_config):
        k = wavenumber(default_config.beam)
        got = obliquity_prefactor(
            self.propagating_term(k), DirectionAngles(0.0, 0.0), k, R=1e12
        )
        assert got == pytest.approx(2j * k, rel=1e-10)

    def test_direction_cosine_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            alpha, beta = rng.uniform(-0.7, 0.7, 2)
            if math.sin(alpha) ** 2 + math.sin(beta) ** 2 >= 1:
                continue
            lhs = math.sqrt(math.cos(alpha) ** 2 - math.sin(beta) ** 2)
            rhs = math.sqrt(1 - math.sin(alpha) ** 2 - math.sin(beta) ** 2)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_evanescent_mode_gives_negative_real_first_term(self, default_config):
        k = wavenumber(default_config.beam)
        kappa = 0.5 * k
        term = ModeTerm(ModeIndex(1, 0), 1.0, complex(0.0, kappa), False)
        got = obliquity_prefactor(term, DirectionAngles(0.0, 0.0), k, R=1.0)
        # i * (i kappa) = -kappa lands in the real part
        assert got.real == pytest.approx(-kappa - 1.0, rel=1e-12)

    def test_outside_forward_hemisphere_rejected(self, default_config):
        # A valid DirectionAngles always satisfies cos^2(alpha) > sin^2(beta),
        # so the guard is probed with an unvalidated angle object.
        class RawAngles:
            alpha = 0.2
            beta = 1.5

        k = wavenumber(default_config.beam)
        with pytest.raises(ValueError, match="forward hemisphere"):
            obliquity_prefactor(self.propagating_term(k), RawAngles(), k, 1.0)


class TestDirectionAngles:
    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError):
            DirectionAngles(alpha=1.0, beta=0.9)

    def test_valid_direction_accepted(self):
        DirectionAngles(alpha=0.01, beta=0.3)


class TestSlitAmplitudes:
    def test_linearity_in_beam_amplitude(self, small_config):
        doubled = parse_config("amplitude = 2e8\n")
        doubled = replace(doubled, truncation=small_config.truncation)
        betas = np.array([0.0, 0.01, 0.05])
        one, _ = amplitudes(small_config, betas)
        two, _ = amplitudes(doubled, betas)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_slit2_equals_slit1_at_zero_separation_and_beta(self):
        cfg = parse_config("d = 0 lambda\nm_max = 3\nn_max = 3\n")
        (psi1,), (psi2,) = amplitudes(cfg, np.array([0.0]))
        # q = k sin(beta) = 0, so the translation phase is exactly 1... up to
        # the closed form evaluating the same expression with shift folded in.
        assert psi2 == pytest.approx(psi1, rel=1e-13)

    def test_translation_identity_across_grid(self, small_config):
        k = wavenumber(small_config.beam)
        shift = small_config.slits.width_a + small_config.slits.separation_d
        betas = np.linspace(-0.3, 0.3, 501)
        for beta, psi1, psi2 in zip(betas.tolist(), *amplitudes(small_config, betas)):
            phase = cmath.exp(-1j * k * math.sin(beta) * shift)
            assert abs(psi2 - phase * psi1) <= 1e-12 * abs(psi1)

    def test_slit2_shifted_integral_matches_quadrature(self, small_config):
        # Re-derive the slit-2 y' integral for each surviving mode by direct
        # quadrature over [a+d, 2a+d] and compare the assembled amplitude.
        from doubleslit.modes import enumerate_modes, thickness_attenuation

        cfg = small_config
        k = wavenumber(cfg.beam)
        a, b, c = cfg.slits.width_a, cfg.slits.length_b, cfg.slits.thickness_c
        R = cfg.detector.distance_R
        shift = a + cfg.slits.separation_d
        betas = (0.0, 0.003, 0.011)
        _, psi2 = amplitudes(cfg, np.array(betas))
        for beta, got in zip(betas, psi2):
            ang = DirectionAngles(cfg.beam.alpha, beta)
            q_x = k * math.sin(ang.alpha)
            q_y = k * math.sin(beta)
            g = math.sqrt(math.cos(ang.alpha) ** 2 - math.sin(beta) ** 2)
            total = 0j
            for t in enumerate_modes(cfg):
                w_m = (2 * t.index.m + 1) * math.pi / a
                x_n = sine_fourier_integral(2 * t.index.n + 1, q_x, b)
                y_m = integrate_1d(
                    lambda y: np.exp(-1j * q_y * y) * np.sin(w_m * (y - shift)),
                    shift,
                    shift + a,
                    1e-16,
                    panels=8,
                ).value
                bracket = 1j * t.k_z + (1j * k - 1.0 / R) * g
                total += t.coefficient * thickness_attenuation(t.k_z, c) * bracket * x_n * y_m
            envelope = -cmath.exp(1j * k * R) / (4 * math.pi * R)
            ref = envelope * total
            assert got == pytest.approx(ref, rel=1e-6)


class TestTotalIntensity:
    def test_axis_value_is_four_times_single_slit(self, small_config):
        (psi1,), (psi2,) = amplitudes(small_config, np.array([0.0]))
        total = abs(psi1 + psi2) ** 2
        single = abs(psi1) ** 2
        assert total == pytest.approx(4 * single, rel=1e-12)

    def test_first_interference_zero(self, small_config):
        lam = 2 * math.pi / wavenumber(small_config.beam)
        spacing = small_config.slits.width_a + small_config.slits.separation_d
        beta_zero = math.asin(lam / (2 * spacing))
        psi1, psi2 = amplitudes(small_config, np.array([beta_zero, 0.0]))
        at_zero, at_peak = (np.abs(psi1 + psi2) ** 2).tolist()
        assert at_zero < 1e-6 * at_peak

    def test_two_slit_factor_range(self, small_config):
        cfg = with_detector(small_config, beta_min=-0.3, beta_max=0.3, steps=101)
        f = scan(cfg).two_slit_factor
        assert np.all((0.0 <= f) & (f <= 4.0 + 1e-12))


# The hemisphere edge sin(beta) = cos(alpha) at alpha = 0.01 rad.
HEMISPHERE_ALPHA = 0.01
HEMISPHERE_EDGE = math.pi / 2 - HEMISPHERE_ALPHA


def _sim_config_site(beta):
    with_detector(parse_config(""), beta_max=beta)


def _direction_angles_site(beta):
    DirectionAngles(HEMISPHERE_ALPHA, beta)


def _obliquity_prefactor_site(beta):
    # An unvalidated angle object, so that the prefactor's own check runs.
    angles = SimpleNamespace(alpha=HEMISPHERE_ALPHA, beta=beta)
    term = ModeTerm(ModeIndex(0, 0), 1.0, complex(1e8, 0.0), True)
    obliquity_prefactor(term, angles, 1.6e8, 1.0)


def _amplitudes_site(beta):
    cfg = with_truncation(parse_config(""), m_max=1, n_max=1)
    amplitudes(cfg, np.array([0.0, beta]))


def _oracle_surface_amplitude_site(beta):
    cfg = with_truncation(parse_config(""), m_max=0, n_max=0)
    angles = SimpleNamespace(alpha=HEMISPHERE_ALPHA, beta=beta)
    oracle_surface_amplitude(angles, cfg, tol=1e-6)


@pytest.mark.parametrize(
    "call",
    [
        _sim_config_site,
        _direction_angles_site,
        _obliquity_prefactor_site,
        _amplitudes_site,
        _oracle_surface_amplitude_site,
    ],
    ids=lambda call: call.__name__.strip("_").removesuffix("_site"),
)
def test_forward_hemisphere_checked_at_each_call_site(call):
    assert parse_config("").beam.alpha == HEMISPHERE_ALPHA
    call(HEMISPHERE_EDGE - 1e-6)
    with pytest.raises(ConfigError, match="invalid direction.*forward hemisphere"):
        call(HEMISPHERE_EDGE + 1e-6)


def test_direction_cosine_of_float_and_array():
    sines = np.array([0.0, 0.3, -0.6])
    got = direction_cosine(0.2, sines)
    np.testing.assert_array_equal(got, np.sqrt(math.cos(0.2) ** 2 - sines * sines))
    assert direction_cosine(0.2, 0.3) == got[1] and isinstance(direction_cosine(0.2, 0.3), float)


class TestScan:
    def test_two_step_grid_endpoints(self, small_config):
        cfg = with_detector(small_config, steps=2)
        result = scan(cfg)
        assert result.beta.size == 2
        assert result.beta[0] == cfg.detector.beta_min
        assert result.beta[1] == cfg.detector.beta_max

    def test_row_count_and_monotone_beta(self, coarse_detector_config):
        result = scan(coarse_detector_config)
        assert result.beta.size == coarse_detector_config.detector.steps
        betas = result.beta.tolist()
        assert betas == sorted(betas)

    def test_two_slit_factor_symmetric_on_symmetric_grid(self, coarse_detector_config):
        # Dyadic grid bounds make the beta points bit-symmetric about zero.
        cfg = with_detector(coarse_detector_config, beta_min=-0.25, beta_max=0.25, steps=257)
        result = scan(cfg)
        factors = result.two_slit_factor.tolist()
        assert factors == factors[::-1]

    def test_normalized_column(self, coarse_detector_config):
        result = scan(coarse_detector_config)
        norms = result.intensity_normalized
        assert norms.max() == 1.0
        assert np.all((0.0 <= norms) & (norms <= 1.0))

    def test_intensities_finite_and_nonnegative(self, coarse_detector_config):
        result = scan(coarse_detector_config)
        for column in (result.intensity_total, result.intensity_slit1):
            assert np.all(np.isfinite(column)) and np.all(column >= 0.0)

    def test_factorization_identity_per_row(self, coarse_detector_config):
        cfg = coarse_detector_config
        k = wavenumber(cfg.beam)
        spacing = cfg.slits.width_a + cfg.slits.separation_d
        result = scan(cfg)
        for beta, total, slit1 in zip(
            result.beta.tolist(), result.intensity_total.tolist(), result.intensity_slit1.tolist()
        ):
            predicted = slit1 * 4 * math.cos(0.5 * k * math.sin(beta) * spacing) ** 2
            assert abs(total - predicted) <= 1e-10 * max(total, 1e-300)

    def test_amplitude_scaling_squares_intensity(self, coarse_detector_config):
        cfg = coarse_detector_config
        scaled = parse_config("amplitude = 3e8\n")
        scaled = replace(
            scaled, truncation=cfg.truncation, detector=cfg.detector
        )
        base = scan(cfg).intensity_total
        big = scan(scaled).intensity_total
        np.testing.assert_allclose(big, 9.0 * base, rtol=1e-11)
        assert int(np.argmax(base)) == int(np.argmax(big))

    def test_scan_row_types(self, coarse_detector_config):
        result = scan(coarse_detector_config)
        assert isinstance(result, DiffractionScan)
        for name in SCAN_COLUMNS:
            column = getattr(result, name)
            assert isinstance(column, np.ndarray) and column.dtype == np.float64
            assert column.shape == (coarse_detector_config.detector.steps,)
        assert result.config_echo == coarse_detector_config

    def test_rows_view_matches_columns_and_columns_are_read_only(self, coarse_detector_config):
        result = scan(coarse_detector_config)
        rows = result.rows
        assert len(rows) == coarse_detector_config.detector.steps
        assert all(isinstance(r, ScanRow) for r in rows)
        for name in SCAN_COLUMNS:
            column = getattr(result, name)
            assert [getattr(r, name) for r in rows] == column.tolist()
            with pytest.raises(ValueError):
                column[0] = 0.0

    def test_columns_must_share_one_length(self, coarse_detector_config):
        result = scan(coarse_detector_config)
        with pytest.raises(ValueError):
            replace(result, intensity_slit1=result.intensity_slit1[1:])
        with pytest.raises(ValueError):
            replace(result, beta=result.beta.reshape(1, -1))
