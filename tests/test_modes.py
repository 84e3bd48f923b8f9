"""In-slit eigenmode expansion: coefficients, dispersion, truncation."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doubleslit import farfield, modes
from doubleslit.config import (
    SlitGeometry,
    parse_config,
    with_truncation,
    wavenumber,
)
from doubleslit.figures import FIGURE_GEOMETRY, figure_config
from doubleslit.modes import (
    ModeIndex,
    ModeTable,
    ModeTerm,
    TruncationWarning,
    axial_wavenumber,
    enumerate_modes,
    in_slit_wavefunction,
    mode_coefficient,
    second_slit_wavefunction,
    thickness_attenuation,
)
from doubleslit.quadrature import integrate_1d


def fourier_projection_oracle(m: int, n: int, amplitude: float) -> float:
    """(4/ab) * double integral of A sin((2n+1)pi x/b) sin((2m+1)pi y/a).

    The integrand is separable, so the 2D projection reduces to a product
    of two 1D quadratures.
    """
    a, b = 1.0, 1.0  # the coefficient is scale-free in a and b
    ix = integrate_1d(lambda x: np.sin((2 * n + 1) * math.pi * x / b), 0, b, 1e-14)
    iy = integrate_1d(lambda y: np.sin((2 * m + 1) * math.pi * y / a), 0, a, 1e-14)
    return 4.0 / (a * b) * amplitude * ix.value.real * iy.value.real


class TestModeCoefficient:
    @pytest.mark.parametrize("m,n", [(0, 0), (1, 0), (0, 2), (3, 4)])
    def test_matches_fourier_projection_oracle(self, m, n):
        got = mode_coefficient(ModeIndex(m, n), amplitude=1.0)
        assert got == pytest.approx(fourier_projection_oracle(m, n, 1.0), rel=1e-12)

    def test_fundamental_value(self):
        assert mode_coefficient(ModeIndex(0, 0), 1.0) == pytest.approx(
            16 / math.pi**2, rel=1e-15
        )
        assert mode_coefficient(ModeIndex(1, 0), 1.0) == pytest.approx(
            16 / (3 * math.pi**2), rel=1e-15
        )

    @given(m=st.integers(0, 50), n=st.integers(0, 50), amp=st.floats(1e-3, 1e12))
    def test_linear_in_amplitude(self, m, n, amp):
        idx = ModeIndex(m, n)
        assert mode_coefficient(idx, amp) == pytest.approx(
            amp * mode_coefficient(idx, 1.0), rel=1e-14
        )

    @given(m=st.integers(0, 30), n=st.integers(0, 30))
    def test_strict_decay_in_each_index(self, m, n):
        idx = ModeIndex(m, n)
        value = mode_coefficient(idx, 1.0)
        assert value > 0
        assert mode_coefficient(ModeIndex(m + 1, n), 1.0) < value
        assert mode_coefficient(ModeIndex(m, n + 1), 1.0) < value

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            ModeIndex(-1, 0)


class TestAxialWavenumber:
    def lam_geometry(self, a_lam, b_lam):
        beam = parse_config("").beam
        k = wavenumber(beam)
        lam = 2 * math.pi / k
        return SlitGeometry(a_lam * lam, b_lam * lam, 0.0, lam), k

    def test_propagating_fundamental(self):
        slits, k = self.lam_geometry(1.0, 1000.0)
        kz = axial_wavenumber(ModeIndex(0, 0), slits, k)
        assert kz.imag == 0.0
        assert kz.real == pytest.approx(0.86602 * k, rel=1e-4)

    def test_evanescent_first_order(self):
        slits, k = self.lam_geometry(1.0, 1000.0)
        kz = axial_wavenumber(ModeIndex(1, 0), slits, k)
        assert kz.real == 0.0
        assert kz.imag == pytest.approx(1.11803 * k, rel=1e-4)

    def test_wide_aperture_limit(self):
        slits, k = self.lam_geometry(1e9, 1e9)
        kz = axial_wavenumber(ModeIndex(0, 0), slits, k)
        assert kz.real == pytest.approx(k, rel=1e-12)

    @given(
        m=st.integers(0, 40),
        n=st.integers(0, 40),
        a_lam=st.floats(0.5, 100),
        b_lam=st.floats(0.5, 2000),
    )
    def test_dispersion_closure(self, m, n, a_lam, b_lam):
        slits, k = self.lam_geometry(a_lam, b_lam)
        kz = axial_wavenumber(ModeIndex(m, n), slits, k)
        ky = (2 * m + 1) * math.pi / slits.width_a
        kx = (2 * n + 1) * math.pi / slits.length_b
        closure = kz.real**2 - kz.imag**2 + kx**2 + ky**2
        assert closure == pytest.approx(k * k, rel=1e-10)
        assert kz.real * kz.imag == 0.0
        assert kz.imag >= 0.0  # decaying branch


class TestThicknessAttenuation:
    def test_propagating_unit_modulus(self):
        for c in (0.0, 1e-9, 1e-3):
            assert abs(thickness_attenuation(complex(1e8, 0.0), c)) == pytest.approx(
                1.0, abs=1e-15
            )

    def test_evanescent_decay_value(self):
        kappa, c = 2.0e8, 3.0e-8
        assert thickness_attenuation(complex(0.0, kappa), c) == pytest.approx(
            math.exp(-kappa * c), rel=1e-14
        )

    def test_zero_thickness_is_identity(self):
        assert thickness_attenuation(complex(0.0, 5e8), 0.0) == 1.0

    def test_negative_thickness_rejected(self):
        with pytest.raises(ValueError):
            thickness_attenuation(1.0 + 0j, -1.0)

    @given(
        kappa=st.floats(1e3, 1e8),
        c1=st.floats(0.0, 1e-6),
        dc=st.floats(1e-12, 1e-6),
    )
    def test_evanescent_strictly_decreasing_in_c(self, kappa, c1, dc):
        kz = complex(0.0, kappa)
        assert abs(thickness_attenuation(kz, c1 + dc)) < abs(
            thickness_attenuation(kz, c1)
        )


class TestEnumerateModes:
    def test_thick_narrow_slit_keeps_only_fundamental_row(self):
        cfg = parse_config("a = 1 lambda\nb = 1000 lambda\nc = 100 lambda\n")
        terms = enumerate_modes(cfg)
        assert terms and all(t.index.m == 0 for t in terms)

    def test_propagating_cutoff_at_ten_wavelengths(self):
        cfg = parse_config("a = 10 lambda\nb = 1000 lambda\nc = 1 lambda\n")
        prop_m = {t.index.m for t in enumerate_modes(cfg) if t.propagating}
        assert max(prop_m) == 9  # (2m+1) < 2a/lambda = 20

    def test_caps_bind_to_single_mode(self):
        cfg = with_truncation(
            parse_config("c = 0 lambda\n"), m_max=0, n_max=0
        )
        with pytest.warns(TruncationWarning):
            terms = enumerate_modes(cfg)
        assert len(terms) == 1
        assert terms[0].index == ModeIndex(0, 0)

    def test_deterministic_m_major_order(self, default_config):
        terms = enumerate_modes(default_config)
        keys = [(t.index.m, t.index.n) for t in terms]
        assert keys == sorted(keys)

    def test_every_propagating_mode_within_caps_included(self, default_config):
        k = wavenumber(default_config.beam)
        slits = default_config.slits
        terms = {(t.index.m, t.index.n) for t in enumerate_modes(default_config)}
        trunc = default_config.truncation
        for m in range(trunc.m_max + 1):
            for n in range(trunc.n_max + 1):
                if axial_wavenumber(ModeIndex(m, n), slits, k).imag == 0.0:
                    assert (m, n) in terms

    def test_no_warning_when_caps_ample(self):
        import warnings

        cfg = parse_config("a = 1 lambda\nb = 2 lambda\nc = 10 lambda\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            enumerate_modes(cfg)


class TestInSlitWavefunction:
    def test_boundary_zeros(self, small_config):
        a = small_config.slits.width_a
        b = small_config.slits.length_b
        for x, y in [(0.0, a / 3), (b, a / 3), (b / 3, 0.0), (b / 3, a)]:
            assert in_slit_wavefunction(x, y, 0.0, 0.0, small_config) == 0j

    def test_out_of_domain_rejected(self, small_config):
        with pytest.raises(ValueError):
            in_slit_wavefunction(-1e-12, 0.0, 0.0, 0.0, small_config)

    def test_global_phase_preserves_modulus(self, small_config):
        b = small_config.slits.length_b
        a = small_config.slits.width_a
        v0 = in_slit_wavefunction(b / 2, a / 2, 0.0, 0.0, small_config)
        for t in (1e-12, 3.7e-9):
            vt = in_slit_wavefunction(b / 2, a / 2, 0.0, t, small_config)
            assert abs(vt) == pytest.approx(abs(v0), rel=1e-12)

    def test_center_converges_to_amplitude(self):
        # 64 odd orders per axis at the entrance face reproduce the flat
        # profile at the slit center to 2% (square-wave Fourier limit).
        cfg = with_truncation(
            parse_config("c = 0 lambda\n"), m_max=63, n_max=63
        )
        with pytest.warns(TruncationWarning):
            value = in_slit_wavefunction(
                cfg.slits.length_b / 2, cfg.slits.width_a / 2, 0.0, 0.0, cfg
            )
        assert abs(value) == pytest.approx(cfg.beam.amplitude, rel=0.02)

    def test_mean_square_error_decreases_with_caps(self):
        # L2 distance to the flat profile over an interior sample grid
        # shrinks monotonically as the truncation caps grow.
        base = parse_config("c = 0 lambda\n")
        xs = np.linspace(0.05, 0.95, 17) * base.slits.length_b
        ys = np.linspace(0.05, 0.95, 17) * base.slits.width_a
        errors = []
        for cap in (4, 8, 16, 32):
            cfg = with_truncation(base, m_max=cap, n_max=cap)
            with pytest.warns(TruncationWarning):
                terms = enumerate_modes(cfg)
            sx = np.array(
                [np.sin((2 * t.index.n + 1) * np.pi * xs / base.slits.length_b) for t in terms]
            )
            sy = np.array(
                [np.sin((2 * t.index.m + 1) * np.pi * ys / base.slits.width_a) for t in terms]
            )
            coeff = np.array([t.coefficient for t in terms])
            field = np.einsum("k,ki,kj->ij", coeff, sx, sy)
            errors.append(float(np.mean((field - base.beam.amplitude) ** 2)))
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < errors[0]


class TestSecondSlit:
    def test_left_edge_zero(self, small_config):
        shift = small_config.slits.width_a + small_config.slits.separation_d
        value = second_slit_wavefunction(
            small_config.slits.length_b / 2, shift, 0.0, 0.0, small_config
        )
        assert value == 0j

    def test_translation_identity_on_grid(self, small_config):
        slits = small_config.slits
        shift = slits.width_a + slits.separation_d
        for fx in (0.1, 0.5, 0.9):
            for fy in (0.1, 0.5, 0.9):
                x = fx * slits.length_b
                y2 = shift + fy * slits.width_a
                lhs = second_slit_wavefunction(x, y2, 0.0, 0.0, small_config)
                rhs = in_slit_wavefunction(x, y2 - shift, 0.0, 0.0, small_config)
                assert lhs == rhs

    def test_out_of_domain_rejected(self, small_config):
        with pytest.raises(ValueError):
            second_slit_wavefunction(0.0, 0.0, 0.0, 0.0, small_config)


class TestModeTermContract:
    def test_enumerated_terms_satisfy_type_invariants(self, default_config):
        k = wavenumber(default_config.beam)
        for t in enumerate_modes(default_config):
            assert t.coefficient == pytest.approx(
                mode_coefficient(t.index, default_config.beam.amplitude), rel=1e-15
            )
            if t.propagating:
                assert t.k_z.imag == 0.0 and 0.0 <= t.k_z.real <= k
            else:
                assert t.k_z.real == 0.0 and t.k_z.imag > 0.0


# --- the mode table and the plan against scalar references ----------------


def reference_modes(config):
    """The scalar enumeration loop: (m, n, coefficient, k_z, propagating) rows."""
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

    rows = []
    for m in range(trunc.m_max + 1):
        kept_any = False
        for n in range(trunc.n_max + 1):
            idx = ModeIndex(m, n)
            kz = axial_wavenumber(idx, slits, k)
            propagating = kz.imag == 0.0
            coeff = mode_coefficient(idx, amp)
            weight = abs(coeff * thickness_attenuation(kz, c))
            if propagating or weight >= cutoff:
                rows.append((m, n, coeff, kz, propagating))
                kept_any = True
            else:
                break
        if not kept_any:
            break

    idx_corner = ModeIndex(trunc.m_max, trunc.n_max)
    kz_corner = axial_wavenumber(idx_corner, slits, k)
    w_corner = abs(mode_coefficient(idx_corner, amp) * thickness_attenuation(kz_corner, c))
    if w_corner >= cutoff:
        warnings.warn("reference: corner mode above the drop tolerance", TruncationWarning)
    return rows


def reference_plan(config, rows):
    """The scalar plan loop: per-m sums in a dict, in enumeration order.

    Returns w_y and, for amp_grad and amp_field, each row's sum and the sum
    of its terms' moduli, which scales row_sum_bound.
    """
    k = wavenumber(config.beam)
    slits = config.slits
    q_x = k * math.sin(config.beam.alpha)
    x_cache = {}
    sums = {"amp_grad": {}, "amp_field": {}}
    moduli = {"amp_grad": {}, "amp_field": {}}
    for m, n, coeff, kz, _ in rows:
        x_n = x_cache.get(n)
        if x_n is None:
            x_n = x_cache[n] = farfield.sine_fourier_integral(2 * n + 1, q_x, slits.length_b)
        base = coeff * thickness_attenuation(kz, slits.thickness_c) * x_n
        for name, term in (("amp_grad", base * (1j * kz)), ("amp_field", base)):
            sums[name][m] = sums[name].get(m, 0j) + term
            moduli[name][m] = moduli[name].get(m, 0.0) + abs(term)
    ms = sorted(sums["amp_field"])
    w_y = np.array([(2 * m + 1) * math.pi / slits.width_a for m in ms])
    row_sums = {name: np.array([sums[name][m] for m in ms]) for name in sums}
    row_moduli = {name: np.array([moduli[name][m] for m in ms]) for name in moduli}
    return w_y, row_sums, row_moduli


# Unit roundoff of float64, and Higham's gamma_j = j*u / (1 - j*u).
U = np.finfo(np.float64).eps / 2


def gamma(j):
    return j * U / (1 - j * U)


# Relative rounding error of one term, on either side.  D*A is a real times
# a complex: each part rounds once (u).  Each complex product adds at most
# sqrt(2)*gamma_2 (Higham, Lemma 3.5; a fused multiply-add only tightens
# it).  The field term is D*A*X_n; the gradient term is one more product,
# by i*k_z, which is exact because k_z is real or imaginary.
PRODUCT = math.sqrt(2) * gamma(2)
TERM_ERROR = {
    "amp_field": (1 + U) * (1 + PRODUCT) - 1,
    "amp_grad": (1 + U) * (1 + PRODUCT) ** 2 - 1,
}


def row_sum_bound(name, counts, moduli):
    """Bound on |plan row sum - reference row sum| from standard error bounds.

    Both sides form the same terms t_i from the same inputs, each within
    rho = TERM_ERROR[name] of exact, and add a row's n_m terms one by one,
    which errs by at most gamma_(n_m - 1) * sum |t_i| (Higham, section 4.2) per
    part and so in modulus.  Each side is then within
    (gamma_(n_m - 1) * (1 + rho) + rho) * sum |t_i| of the exact sum, and
    sum |t_i| <= moduli / (1 - rho), with moduli the reference's sum of its
    rounded |t_i|.  To first order that is 2 * (n_m + 6) * u * moduli.
    """
    rho = TERM_ERROR[name]
    return 2 * (gamma(counts - 1) * (1 + rho) + rho) / (1 - rho) * moduli


def assert_plan_within_bound(plan, rows, reference):
    w_y, sums, moduli = reference
    assert plan.w_y.tobytes() == w_y.tobytes()
    counts = np.bincount([m for m, *_ in rows], minlength=w_y.size)
    for name in ("amp_grad", "amp_field"):
        got = getattr(plan, name)
        assert got.shape == sums[name].shape, name
        bound = row_sum_bound(name, counts, moduli[name])
        assert np.all(np.abs(got - sums[name]) <= bound), name


def reference_columns(rows):
    m, n, coeff, kz, prop = zip(*rows)
    return {
        "m": np.array(m, dtype=np.int64),
        "n": np.array(n, dtype=np.int64),
        "coefficient": np.array(coeff, dtype=np.float64),
        "k_z": np.array(kz, dtype=np.complex128),
        "propagating": np.array(prop, dtype=np.bool_),
    }


def quiet(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return fn(*args)


@pytest.mark.parametrize("figure_id", sorted(FIGURE_GEOMETRY))
def test_table_and_plan_match_scalar_loops(figure_id):
    # The table's columns keep the scalar functions' bits; the plan's row
    # sums round differently and must stay within the derived bound.
    config = figure_config(figure_id)
    rows = quiet(reference_modes, config)
    table = quiet(enumerate_modes, config)
    for name, expected in reference_columns(rows).items():
        got = getattr(table, name)
        assert got.dtype == expected.dtype, name
        assert got.tobytes() == expected.tobytes(), name
    plan = quiet(farfield._build_plan, config)
    assert_plan_within_bound(plan, rows, reference_plan(config, rows))
    assert plan.amp_grad.flags.c_contiguous and plan.amp_field.flags.c_contiguous


@settings(max_examples=60, deadline=None)
@given(
    a_lam=st.floats(0.5, 60.0),
    b_lam=st.floats(0.5, 60.0),
    c_lam=st.floats(0.0, 50.0),
    m_max=st.integers(0, 64),
    n_max=st.integers(0, 64),
    tol=st.floats(1e-9, 1e-2),
    block=st.sampled_from((1, 5, modes.ENUMERATION_BLOCK)),
)
def test_kept_set_and_plan_match_scalar_loops(a_lam, b_lam, c_lam, m_max, n_max, tol, block):
    # b is drawn too, so that rows also end before the n cap; small blocks
    # make rows span several of them.
    config = parse_config(
        f"a = {a_lam!r} lambda\nb = {b_lam!r} lambda\nc = {c_lam!r} lambda\n"
        f"m_max = {m_max}\nn_max = {n_max}\nevanescent_drop_tol = {tol!r}\n"
    )
    with warnings.catch_warnings(record=True) as ref_caught:
        warnings.simplefilter("always")
        rows = reference_modes(config)
    with mock.patch.object(modes, "ENUMERATION_BLOCK", block):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = enumerate_modes(config)
        plan = quiet(farfield._build_plan, config)
    assert list(zip(table.m.tolist(), table.n.tolist())) == [(m, n) for m, n, *_ in rows]
    # Same warning condition, attributed to the caller of enumerate_modes.
    assert len(caught) == len(ref_caught) <= 1
    assert all(w.category is TruncationWarning and w.filename == __file__ for w in caught)
    assert_plan_within_bound(plan, rows, reference_plan(config, rows))


def test_enumeration_memory_is_bounded_at_huge_caps():
    # Row m = 0 keeps 866 modes and row m = 1 keeps none, so the scalar loop
    # ends at once; an enumeration sized by the caps would not.
    config = with_truncation(
        parse_config("a = 1 lambda\nb = 1000 lambda\nc = 100 lambda\n"),
        m_max=10**9,
        n_max=10**9,
    )
    rows = reference_modes(config)
    tracemalloc.start()
    try:
        table = enumerate_modes(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == len(rows) == 866
    for name, expected in reference_columns(rows).items():
        assert getattr(table, name).tobytes() == expected.tobytes(), name
    assert peak < 4 * 1024 * 1024


class TestModeTable:
    def test_sequence_of_mode_term_views(self, small_config):
        table = enumerate_modes(small_config)
        terms = list(table)
        assert isinstance(table, ModeTable) and len(terms) == len(table) > 1
        assert all(isinstance(t, ModeTerm) for t in terms)
        assert [table[i] for i in range(len(table))] == terms
        assert table[-1] == terms[-1]
        first, *_ = table
        assert first == ModeTerm(
            ModeIndex(0, 0), float(table.coefficient[0]), complex(table.k_z[0]), True
        )
        assert type(first.coefficient) is float and type(first.k_z) is complex
        with pytest.raises(IndexError):
            table[len(table)]

    def test_columns_are_read_only(self, small_config):
        table = enumerate_modes(small_config)
        for name in ("m", "n", "coefficient", "k_z", "propagating"):
            with pytest.raises(ValueError):
                getattr(table, name)[0] = 0
            with pytest.raises(AttributeError):
                setattr(table, name, getattr(table, name).copy())

    def test_empty_table_scans_to_zero(self):
        # Valid input always keeps (0, 0), so the empty table is patched in:
        # the plan and the kernel must still handle zero modes.
        empty = ModeTable([], [], [], [], [])
        config = parse_config("beta_steps = 5\n")
        with mock.patch.object(farfield, "enumerate_modes", return_value=empty):
            result = farfield.scan(config)
        assert result.intensity_total.tolist() == [0.0] * 5

    def test_columns_must_share_one_length(self):
        with pytest.raises(ValueError):
            ModeTable([0, 0], [0], [1.0], [1j], [False])
