"""Adaptive-quadrature oracle: 1D integrator and Kirchhoff surface checks."""

import ast
import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleslit import quadrature
from doubleslit.config import direction_cosine, parse_config, with_truncation, wavenumber
from doubleslit.farfield import DirectionAngles, amplitudes, sine_fourier_integral
from doubleslit.figures import FIGURE_GEOMETRY, figure_config
from doubleslit.modes import TruncationWarning, enumerate_modes, thickness_attenuation
from doubleslit.quadrature import (
    GAUSS_NODES,
    MAX_POINTS,
    QuadratureDepthError,
    QuadratureResult,
    integrate_1d,
    oracle_sine_fourier,
    oracle_surface_amplitude,
)


class TestIntegrate1D:
    def test_complex_exponential(self):
        got = integrate_1d(lambda x: np.exp(1j * x), 0.0, 1.0, 1e-12)
        expected = complex(math.sin(1.0), 1.0 - math.cos(1.0))
        assert got.value == pytest.approx(expected, abs=1e-12)
        assert got.abs_error_estimate >= 0.0

    def test_constant_is_exact(self):
        got = integrate_1d(np.ones_like, 0.0, 1.0, 1e-12)
        assert got.value == 1.0 + 0j
        assert got.evaluations >= 3

    def test_half_sine_antiderivative(self):
        a = 2.9e-8
        got = integrate_1d(lambda y: np.sin(math.pi * y / a), 0.0, a, 1e-14 * a)
        assert got.value.real == pytest.approx(2 * a / math.pi, rel=1e-12)

    def test_result_type(self):
        got = integrate_1d(lambda x: x * x, 0.0, 2.0, 1e-12)
        assert isinstance(got, QuadratureResult)
        assert got.value.real == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_invalid_bounds_and_tolerance(self):
        with pytest.raises(ValueError):
            integrate_1d(lambda x: x, 1.0, 1.0, 1e-9)
        with pytest.raises(ValueError):
            integrate_1d(lambda x: x, 0.0, 1.0, 0.0)

    def test_depth_exhaustion_reports_subinterval(self):
        step = lambda x: np.where(x < 0.3, 1.0, 0.0)  # noqa: E731
        with pytest.raises(QuadratureDepthError) as exc:
            integrate_1d(step, 0.0, 1.0, 1e-15, max_depth=6)
        lo, hi = exc.value.subinterval
        assert 0.0 <= lo < hi <= 1.0
        # The panel that cannot converge is the one holding the step.
        assert lo <= 0.3 <= hi
        assert f"[{lo}, {hi}]" in str(exc.value)

    def test_panel_without_interior_midpoint_keeps_its_whole_panel_value(self):
        hi = np.nextafter(1.0, 2.0)
        got = integrate_1d(np.ones_like, 1.0, hi, 1e-300)
        assert got.value == pytest.approx(hi - 1.0, rel=1e-15)
        assert got.abs_error_estimate == 0.0
        assert got.evaluations == GAUSS_NODES

    def test_rule_degree_and_node_count(self):
        # An n-point Gauss-Legendre rule is exact for degree 2n - 1: one
        # panel converges in its first bisection pass, after n points for
        # the whole panel and 2n for its halves.
        rng = np.random.default_rng(5)
        coeffs = rng.normal(size=2 * GAUSS_NODES) + 1j * rng.normal(size=2 * GAUSS_NODES)
        lo, hi = -0.7, 1.3
        powers = np.arange(1, 2 * GAUSS_NODES + 1)
        exact = np.sum(coeffs * (hi**powers - lo**powers) / powers)
        # A few units of roundoff on sum |c_k| integral |x|^k dx.
        bound = 8 * np.finfo(float).eps * np.sum(np.abs(coeffs) * 2 * 1.3**powers / powers)
        got = integrate_1d(lambda x: np.polynomial.polynomial.polyval(x, coeffs), lo, hi, 1e-12)
        assert got.evaluations == GAUSS_NODES + 2 * GAUSS_NODES
        assert abs(got.value - exact) <= bound
        # Degree 2n is no longer exact, so a tight tolerance needs more passes.
        got = integrate_1d(lambda x: x ** (2 * GAUSS_NODES), 0.0, 1.0, 1e-14)
        assert got.evaluations > GAUSS_NODES + 2 * GAUSS_NODES
        assert got.value.real == pytest.approx(1.0 / (2 * GAUSS_NODES + 1), rel=1e-14)

    def test_converged_panel_keeps_its_halves(self):
        # x^2n misses on the whole panel by ~3e-11 relative, and on the two
        # halves by 2^-2n of that; a loose tol accepts the first pass, whose
        # value must be the halves' sum.
        got = integrate_1d(lambda x: x ** (2 * GAUSS_NODES), 0.0, 1.0, 1e-10)
        exact = 1.0 / (2 * GAUSS_NODES + 1)
        assert got.evaluations == GAUSS_NODES + 2 * GAUSS_NODES
        assert got.value.real == pytest.approx(exact, rel=1e-14)
        assert got.abs_error_estimate > 1e3 * abs(got.value - exact)

    def test_self_consistency_under_tolerance_halving(self):
        f = lambda x: np.exp(-1j * 40 * x) * np.sin(3 * x)  # noqa: E731
        first = integrate_1d(f, 0.0, 1.0, 1e-8, panels=16)
        second = integrate_1d(f, 0.0, 1.0, 5e-9, panels=16)
        assert abs(first.value - second.value) <= max(first.abs_error_estimate, 1e-15)


def _spy(f, calls):
    """Wrap f so that the size of each call's point array is recorded."""

    def spied(x, *rest):
        calls.append(x.size)
        return f(x, *rest)

    return spied


class TestBatchesAndPointCap:
    FREQS = np.array([0.0, 3.0, 17.0, 55.0])

    def integrand(self, x, j):
        return np.exp(1j * self.FREQS[j] * x) * np.sin(2.5 * x + self.FREQS[j])

    def test_batch_matches_each_integrand_alone(self):
        tol = 1e-11
        batch = integrate_1d(self.integrand, 0.0, 2.0, tol, panels=20, batch=len(self.FREQS))

        def integrate_alone(i):
            return integrate_1d(
                lambda x: self.integrand(x, np.full(x.size, i)), 0.0, 2.0, tol, panels=20
            )

        alone = [integrate_alone(i) for i in range(len(self.FREQS))]
        assert batch.value.shape == batch.abs_error_estimate.shape == (len(self.FREQS),)
        # Each integrand is refined on its own panels to its own full tol,
        # so the batch evaluates exactly the points the lone runs evaluate.
        assert batch.evaluations == sum(r.evaluations for r in alone)
        for got, ref in zip(batch.value, alone):
            assert got == pytest.approx(ref.value, rel=1e-14, abs=1e-16)
        for got, ref in zip(batch.abs_error_estimate, alone):
            assert got == pytest.approx(ref.abs_error_estimate, rel=1e-12, abs=1e-30)

    def test_mixed_panels_batch_matches_each_integrand_alone(self):
        tol = 1e-11
        panels = np.array([1, 5, 12, 30])
        batch = integrate_1d(self.integrand, 0.0, 2.0, tol, panels=panels, batch=len(self.FREQS))

        def integrate_alone(i):
            return integrate_1d(
                lambda x: self.integrand(x, np.full(x.size, i)),
                0.0,
                2.0,
                tol,
                panels=int(panels[i]),
            )

        alone = [integrate_alone(i) for i in range(len(self.FREQS))]
        # Each integrand keeps its own panels and its own share of tol.
        assert batch.evaluations == sum(r.evaluations for r in alone)
        for got, ref in zip(batch.value, alone):
            assert got == pytest.approx(ref.value, rel=1e-14, abs=1e-16)
        for got, ref in zip(batch.abs_error_estimate, alone):
            assert got == pytest.approx(ref.abs_error_estimate, rel=1e-12, abs=1e-30)

    @pytest.mark.parametrize(
        "panels", [0, [4, 4, 4], [4, 4, 4, 4, 4], [[4, 4, 4, 4]], [4, 0, 4, 4]]
    )
    def test_panel_counts_are_validated(self, panels):
        with pytest.raises(ValueError):
            integrate_1d(self.integrand, 0.0, 2.0, 1e-9, panels=panels, batch=len(self.FREQS))

    def test_integrand_never_receives_more_than_the_cap(self):
        calls = []
        # With panels > MAX_POINTS even the first evaluation exceeds the cap,
        # and the oscillating integrand then needs many more panels.
        f = _spy(lambda x: np.exp(-1j * 300.0 * x) * np.sin(7.0 * x), calls)
        got = integrate_1d(f, 0.0, 3.0, 1e-10, panels=MAX_POINTS + 7)
        assert got.evaluations > 4 * MAX_POINTS
        assert got.evaluations == sum(calls)
        assert max(calls) == MAX_POINTS
        assert all(0 < n <= MAX_POINTS for n in calls)

        calls.clear()
        got = integrate_1d(
            _spy(self.integrand, calls), 0.0, 10.0, 1e-10, panels=100, batch=len(self.FREQS)
        )
        assert got.evaluations == sum(calls) > 4 * MAX_POINTS
        assert all(0 < n <= MAX_POINTS for n in calls)

    @settings(max_examples=40, deadline=None)
    @given(
        coeffs=st.lists(
            st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.integers(-30, 30)),
            min_size=1,
            max_size=5,
        ),
        lo=st.floats(-3.0, 3.0),
        width=st.floats(0.1, 4.0),
        tol=st.sampled_from([1e-6, 1e-9, 1e-11]),
    )
    def test_trig_polynomial_matches_antiderivative(self, coeffs, lo, width, tol):
        # f(x) = sum c_k exp(i w_k x); its antiderivative is elementary.
        c = np.array([complex(re, im) for re, im, _ in coeffs])
        w = np.array([float(k) for _, _, k in coeffs])
        hi = lo + width

        def antiderivative(x):
            return sum(
                ck * x if wk == 0.0 else ck * cmath.exp(1j * wk * x) / (1j * wk)
                for ck, wk in zip(c, w)
            )

        # One panel per half oscillation at least, as the oracles choose.
        panels = math.ceil(float(np.abs(w).max()) * width / math.pi) + 1
        got = integrate_1d(
            lambda x: np.exp(1j * np.outer(x, w)) @ c, lo, hi, tol, panels=panels
        )
        exact = antiderivative(hi) - antiderivative(lo)
        assert abs(got.value - exact) <= tol + got.abs_error_estimate


def test_oracle_imports_nothing_from_the_closed_forms():
    # The oracle checks farfield and kernels, so it must not use them.
    tree = ast.parse(Path(quadrature.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported.add(module.rsplit(".", 1)[-1])
            if module in ("", "doubleslit"):
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    assert {"config", "modes"} <= imported
    assert not imported & {"farfield", "kernels"}


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # The rule's nodes come from numpy.polynomial on first use, so that the
    # scan modes do not pay for its import.
    code = (
        "import sys\n"
        "import doubleslit.cli\n"
        "print('numpy.polynomial' in sys.modules)\n"
        "doubleslit.quadrature.oracle_sine_fourier(1, 0.5, 1.0)\n"
        "print('numpy.polynomial' in sys.modules)\n"
    )
    src = str(Path(quadrature.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.split() == ["False", "True"]


class TestOracleSineFourier:
    def test_zero_frequency(self):
        a = 3.1e-8
        assert oracle_sine_fourier(1, 0.0, a, tol=1e-13) == pytest.approx(
            2 * a / math.pi, rel=1e-10
        )

    def test_smooth_through_the_closed_forms_singularity(self):
        L = 1.0
        got = oracle_sine_fourier(1, math.pi / L, L, tol=1e-13)
        assert got == pytest.approx(complex(0.0, -L / 2), abs=1e-10)

    def test_cross_validation_pair(self):
        L = 0.8
        got = oracle_sine_fourier(3, 2 * math.pi / L, L, tol=1e-13)
        ref = sine_fourier_integral(3, 2 * math.pi / L, L)
        assert abs(got - ref) <= 1e-9 * abs(ref)

    def test_even_order_rejected(self):
        with pytest.raises(ValueError):
            oracle_sine_fourier(4, 0.0, 1.0)

    def test_cases_match_lone_calls(self):
        p = (1, 7, 39, 3)
        q = (0.0, -55.0, 97.5, 3 * math.pi / 0.8)
        L = (3.1e-8, 1.7, 0.5, 0.8)
        got = oracle_sine_fourier(p, q, L)
        assert isinstance(got, np.ndarray) and got.shape == (4,)
        for value, case in zip(got, zip(p, q, L)):
            alone = oracle_sine_fourier(*case)
            assert isinstance(alone, complex)
            # Only the order in which each case's panel values are summed
            # differs: a few hundred panels, each rounding within eps of
            # integral |f| = 2 L / pi.
            assert abs(value - alone) <= 1e3 * np.finfo(float).eps * 2 * case[2] / math.pi

    def test_scalars_broadcast_against_sequences(self):
        got = oracle_sine_fourier([1, 3, 5], 2.0, 1.0)
        assert got.shape == (3,)
        assert got[1] == pytest.approx(sine_fourier_integral(3, 2.0, 1.0), rel=1e-9)

    @pytest.mark.parametrize(
        "p, q, L, named",
        [
            ((1, 4, 3), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), "case 1"),
            ((1, 3, 0), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), "case 2"),
            ((1, -3), (0.0, 0.0), (1.0, 1.0), "case 1"),
            ((1, 2.5), (0.0, 0.0), (1.0, 1.0), "case 1"),
            ((1, 3), (0.0, 0.0), (1.0, 0.0), "case 1"),
            ((1, 3), (0.0, 0.0), (-1.0, 1.0), "case 0"),
            ((1, 3), (0.0, 0.0), (1.0, math.inf), "case 1"),
            ((1, 3), (math.nan, 0.0), (1.0, 1.0), "case 0"),
            ((1, 3), (0.0, -math.inf), (1.0, 1.0), "case 1"),
        ],
    )
    def test_invalid_case_is_named(self, p, q, L, named):
        with pytest.raises(ValueError, match=named):
            oracle_sine_fourier(p, q, L)


class TestOracleSurfaceAmplitude:
    def test_single_mode_axial_analytic_value(self):
        # With alpha = beta = 0 and one mode both integrals are elementary:
        # psi = envelope * D00 * e^(i kz c) * bracket * (2b/pi) * (2a/pi).
        cfg = parse_config("alpha_rad = 0\nm_max = 0\nn_max = 0\n")
        cfg = with_truncation(cfg, m_max=0, n_max=0)
        ang = DirectionAngles(0.0, 0.0)
        with pytest.warns(TruncationWarning):
            got = oracle_surface_amplitude(ang, cfg, tol=1e-11)
        with pytest.warns(TruncationWarning):
            (term,) = enumerate_modes(cfg)
        k = wavenumber(cfg.beam)
        a, b, c = cfg.slits.width_a, cfg.slits.length_b, cfg.slits.thickness_c
        R = cfg.detector.distance_R
        bracket = 1j * term.k_z + (1j * k - 1.0 / R)
        expected = (
            -cmath.exp(1j * k * R)
            / (4 * math.pi * R)
            * term.coefficient
            * thickness_attenuation(term.k_z, c)
            * bracket
            * (2 * b / math.pi)
            * (2 * a / math.pi)
        )
        assert got == pytest.approx(expected, rel=1e-9)

    def test_matches_closed_form_at_spot_angle(self, small_config):
        ang = DirectionAngles(small_config.beam.alpha, 0.005)
        ref = oracle_surface_amplitude(ang, small_config, tol=1e-9)
        (got,), _ = amplitudes(small_config, np.array([ang.beta]))
        assert abs(got - ref) <= 1e-6 * abs(ref)

    def test_linear_in_beam_amplitude(self):
        base = parse_config("amplitude = 1e8\nm_max = 1\nn_max = 1\n")
        base = with_truncation(base, m_max=1, n_max=1)
        doubled = parse_config("amplitude = 2e8\nm_max = 1\nn_max = 1\n")
        doubled = with_truncation(doubled, m_max=1, n_max=1)
        ang = DirectionAngles(base.beam.alpha, 0.002)
        one = oracle_surface_amplitude(ang, base, tol=1e-9)
        two = oracle_surface_amplitude(ang, doubled, tol=1e-9)
        assert two == pytest.approx(2 * one, rel=1e-9)

    @staticmethod
    def magnitude_scale(angles, cfg):
        """The oracle's magnitude scale S: sum |weights| (2b/pi)(2a/pi)/(4 pi R)."""
        table = enumerate_modes(cfg)
        k = wavenumber(cfg.beam)
        a, b, c = cfg.slits.width_a, cfg.slits.length_b, cfg.slits.thickness_c
        R = cfg.detector.distance_R
        g = direction_cosine(angles.alpha, math.sin(angles.beta))
        bracket = 1j * table.k_z + (1j * k - 1.0 / R) * g
        weights = table.coefficient * np.exp(1j * table.k_z * c) * bracket
        return np.abs(weights).sum() * (2 * b / math.pi) * (2 * a / math.pi) / (4 * math.pi * R)

    def test_coarse_start_does_not_alias(self):
        # Each run holds the outer integral's error to tol * S and the inner
        # integrals' errors, summed over y' in [0, a], to a * (tol * S / a):
        # a run is within 2 tol S of the integral, and two runs are within
        # 2 (tol_1 + tol_2) S of each other.  A start too coarse for the
        # rule would alias to an O(1) error instead.
        loose, tight = 1e-8, 1e-11
        for figure_id in sorted(FIGURE_GEOMETRY):
            cfg = with_truncation(figure_config(figure_id), m_max=3, n_max=3)
            for beta in (0.0, 0.002, 0.005, 0.011, 0.02):
                ang = DirectionAngles(cfg.beam.alpha, beta)
                gap = abs(
                    oracle_surface_amplitude(ang, cfg, tol=loose)
                    - oracle_surface_amplitude(ang, cfg, tol=tight)
                )
                assert gap <= 2 * (loose + tight) * self.magnitude_scale(ang, cfg)

    def test_invalid_direction_rejected(self, small_config):
        class FakeAngles:
            alpha = 1.2
            beta = 0.9

        with pytest.raises(ValueError):
            oracle_surface_amplitude(FakeAngles(), small_config, tol=1e-9)
