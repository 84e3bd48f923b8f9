"""The mode-sum kernel against a scalar sum of the closed-form integrals."""

import cmath
import math

import numpy as np
import pytest

from doubleslit import kernels
from doubleslit.farfield import sine_fourier_integral


def random_kernel_inputs(seed, n_modes=7, n_angles=64):
    rng = np.random.default_rng(seed)
    L = 1.9e-7
    w = (2 * rng.choice(50, size=n_modes, replace=False) + 1) * math.pi / L
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
