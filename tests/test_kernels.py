"""The mode-sum kernel against a scalar sum of the closed-form integrals
and against the complex M x N kernel it replaced."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doubleslit import farfield, kernels
from doubleslit.config import direction_cosine
from doubleslit.farfield import sine_fourier_integral
from doubleslit.figures import FIGURE_GEOMETRY, figure_config

BLOCK = kernels.KERNEL_BLOCK
UNIT_ROUNDOFF = 2.0**-53


def random_kernel_inputs(seed, n_modes=7, n_angles=64):
    rng = np.random.default_rng(seed)
    L = 1.9e-7
    w = (2 * rng.choice(max(50, n_modes), size=n_modes, replace=False) + 1) * math.pi / L
    amp_grad = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
    amp_field = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
    q = rng.uniform(-2e8, 2e8, size=n_angles)
    g = rng.uniform(0.5, 1.0, size=n_angles)
    shift = float(rng.uniform(0.0, 5e-7))
    cterm = complex(1j * 1.6e8 - 1.0)
    return w, amp_grad, amp_field, q, g, L, shift, cterm


def scalar_mode_sum(w, amp_grad, amp_field, q, g, L, shift, cterm):
    """The kernel's sum, one angle and one mode at a time.

    Y_i(q) = exp(-i q shift) * integral_0^L exp(-i q y) sin(w_i y) dy, the
    shifted y' integral written with the scalar closed form.
    """
    out = []
    for qj, gj in zip(q.tolist(), g.tolist()):
        s_grad = s_field = 0j
        for wi, ag, af in zip(w.tolist(), amp_grad.tolist(), amp_field.tolist()):
            p = round(wi * L / math.pi)
            y = sine_fourier_integral(p, qj, L) * cmath.exp(-1j * qj * shift)
            s_grad += ag * y
            s_field += af * y
        out.append(s_grad + cterm * gj * s_field)
    return np.array(out)


def reference_mode_sum(w, amp_grad, amp_field, q, g, L, shift, cterm) -> np.ndarray:
    """The complex M x N kernel that the factored, blocked kernel replaced."""
    L, shift = float(L), float(shift)
    q = np.asarray(q, dtype=np.float64)
    wc = np.asarray(w, dtype=np.float64)[:, None]
    ph0 = np.exp(-1j * q * shift)[None, :]
    ph1 = np.exp(-1j * q * (shift + L))[None, :]
    denom = wc * wc - q[None, :] ** 2
    near_plus = np.abs(q[None, :] - wc) * L < kernels.SINGULAR_EPS
    near_minus = np.abs(q[None, :] + wc) * L < kernels.SINGULAR_EPS
    singular = near_plus | near_minus
    safe = np.where(singular, 1.0, denom)
    y = wc * (ph1 + ph0) / safe
    y = np.where(near_plus, ph0 * (-0.5j * L), y)
    y = np.where(near_minus, ph0 * (0.5j * L), y)
    s_grad = np.asarray(amp_grad, dtype=np.complex128) @ y
    s_field = np.asarray(amp_field, dtype=np.complex128) @ y
    return s_grad + complex(cterm) * np.asarray(g, dtype=np.float64) * s_field


def reference_phase_error(w, amp_grad, amp_field, q, g, L, shift, cterm) -> np.ndarray:
    """Bound, per angle, on the rounding of reference_mode_sum's shifted phases.

    The reference forms exp(-i q (shift+L)) + exp(-i q shift) from arguments
    of up to |q|(shift+L) radians, each rounded once, so that factor is off
    by a few units in the last place of |q|(shift+L).  Beside a singular
    cell R_i = w_i/(w_i^2 - q^2) is large and multiplies that error; the
    kernel factors exp(-i q shift) out and rounds only |q|L there.  At
    shift 0 both form the same 1 + exp(-i q L), so the bound is 0.
    """
    if shift == 0.0:
        return np.zeros(len(q))
    wc = w[:, None]
    singular = (np.abs(q - wc) * L < kernels.SINGULAR_EPS) | (
        np.abs(q + wc) * L < kernels.SINGULAR_EPS
    )
    r = np.abs(np.where(singular, 0.0, wc / np.where(singular, 1.0, wc * wc - q * q)))
    weights = np.abs(amp_grad) @ r + abs(cterm) * g * (np.abs(amp_field) @ r)
    return 4 * UNIT_ROUNDOFF * (np.abs(q) * (abs(shift) + L) + 1.0) * weights


def assert_matches_references(args, scalar_every=1):
    """The kernel within 1e-12 of the peak of the reference and of the scalar sum.

    The scalar sum runs on every scalar_every-th angle only, to bound its
    Python loop; the kernel itself always runs on every angle.
    """
    got = kernels.mode_sum(*args)
    ref = reference_mode_sum(*args)
    tol = 1e-12 * np.abs(ref).max()
    assert np.all(np.abs(got - ref) <= tol + reference_phase_error(*args))
    w, amp_grad, amp_field, q, g, L, shift, cterm = args
    sample = slice(None, None, scalar_every)
    scalar = scalar_mode_sum(w, amp_grad, amp_field, q[sample], g[sample], L, shift, cterm)
    assert np.all(np.abs(got[sample] - scalar) <= tol)


def preset_kernel_inputs(figure_id, slit):
    config = figure_config(figure_id)
    plan = farfield._build_plan(config)
    sinb = np.sin(config.detector.grid())
    g = direction_cosine(config.beam.alpha, sinb)
    a = config.slits.width_a
    shift = 0.0 if slit == 1 else a + config.slits.separation_d
    return plan.w_y, plan.amp_grad, plan.amp_field, plan.k * sinb, g, a, shift, plan.cterm


class TestModeSum:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_inputs_agree(self, seed):
        args = random_kernel_inputs(seed)
        got = kernels.mode_sum(*args)
        ref = scalar_mode_sum(*args)
        scale = np.abs(ref).max()
        np.testing.assert_allclose(got, ref, atol=1e-12 * scale, rtol=1e-12)

    def test_singular_window_agrees(self):
        # Hit the removable singularity q = +w and q = -w exactly, and a
        # regular q.
        L = 1.0
        w = np.array([math.pi / L, 3 * math.pi / L])
        amp_grad = np.array([1.0 + 0.5j, -0.25j])
        amp_field = np.array([0.5, 1.0 + 0j])
        q = np.array([math.pi / L, -3 * math.pi / L, 1.0])
        g = np.ones(3)
        args = (w, amp_grad, amp_field, q, g, L, 0.7, complex(2j))
        np.testing.assert_allclose(
            kernels.mode_sum(*args), scalar_mode_sum(*args), rtol=1e-13, atol=1e-16
        )

    @pytest.mark.parametrize("slit", [1, 2])
    @pytest.mark.parametrize("figure_id", sorted(FIGURE_GEOMETRY))
    def test_preset_plans_match_references(self, figure_id, slit):
        assert_matches_references(preset_kernel_inputs(figure_id, slit), scalar_every=7)

    @pytest.mark.parametrize("n_angles", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_angle_counts_around_the_block(self, n_angles):
        assert_matches_references(random_kernel_inputs(n_angles, n_angles=n_angles))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_modes=st.integers(1, 12),
    extra=st.integers(1, BLOCK),
    hits=st.lists(
        st.tuples(st.integers(0, 2 * BLOCK), st.integers(0, 11), st.booleans()),
        min_size=1,
        max_size=8,
    ),
    slit2=st.booleans(),
)
def test_exact_singular_hits_past_the_first_block(seed, n_modes, extra, hits, slit2):
    w, amp_grad, amp_field, q, g, L, shift, cterm = random_kernel_inputs(
        seed, n_modes=n_modes, n_angles=BLOCK + extra
    )
    shift = shift if slit2 else 0.0
    # Every hit lands at index >= BLOCK; the rest of q stays random.
    cols = [BLOCK + j % extra for j, _, _ in hits]
    for col, (_, i, negative) in zip(cols, hits):
        q[col] = -w[i % n_modes] if negative else w[i % n_modes]
    args = (w, amp_grad, amp_field, q, g, L, shift, cterm)
    got = kernels.mode_sum(*args)
    ref = reference_mode_sum(*args)
    tol = 1e-12 * np.abs(ref).max()
    assert np.all(np.abs(got - ref) <= tol + reference_phase_error(*args))
    # The scalar sum on the hit angles and on the first angle of each block.
    sample = sorted(set(cols) | {0, BLOCK})
    scalar = scalar_mode_sum(w, amp_grad, amp_field, q[sample], g[sample], L, shift, cterm)
    assert np.all(np.abs(got[sample] - scalar) <= tol)


def test_memory_is_bounded_by_the_block():
    # The widest wide-slit geometry has M = 85 distinct m; 200 001 angles.
    n_modes, n_angles = 85, 200_001
    _, amp_grad, amp_field, _, _, L, shift, cterm = random_kernel_inputs(
        3, n_modes=n_modes, n_angles=1
    )
    w = (2 * np.arange(n_modes) + 1) * math.pi / L
    q = np.linspace(-w[-1], w[-1], n_angles)
    g = np.ones(n_angles)
    tracemalloc.start()
    try:
        out = kernels.mode_sum(w, amp_grad, amp_field, q, g, L, shift, cterm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (n_angles,)
    # The complex result, one real M x block matrix, and 1 MB for the
    # block's length-block vectors (measured: 0.6 MB).
    bound = 16 * n_angles + 8 * n_modes * BLOCK + 2**20
    assert peak < bound
    # The complex kernel it replaced held two complex M x N arrays, two real
    # ones and three masks at once: 51 bytes per cell, about 870 MB here.
    assert bound < 51 * n_modes * n_angles / 100
