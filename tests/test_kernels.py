"""Backend selection and numba/numpy kernel equivalence."""

import math

import numpy as np
import pytest

from doubleslit import kernels
from doubleslit.config import with_detector
from doubleslit.farfield import scan


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


class TestBackendSelection:
    def test_auto_prefers_numba(self, monkeypatch):
        monkeypatch.delenv("DOUBLESLIT_BACKEND", raising=False)
        expected = "numba" if kernels.HAVE_NUMBA else "numpy"
        assert kernels.active_backend() == expected
        monkeypatch.setenv("DOUBLESLIT_BACKEND", "auto")
        assert kernels.active_backend() == expected

    def test_explicit_numpy(self, monkeypatch):
        monkeypatch.setenv("DOUBLESLIT_BACKEND", "numpy")
        assert kernels.active_backend() == "numpy"

    def test_unknown_backend_rejected(self, monkeypatch):
        monkeypatch.setenv("DOUBLESLIT_BACKEND", "cuda")
        with pytest.raises(RuntimeError):
            kernels.active_backend()


@pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba unavailable")
class TestBackendEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_inputs_agree(self, monkeypatch, seed):
        args = random_kernel_inputs(seed)
        monkeypatch.setenv("DOUBLESLIT_BACKEND", "numba")
        via_numba = kernels.mode_sum(*args)
        monkeypatch.setenv("DOUBLESLIT_BACKEND", "numpy")
        via_numpy = kernels.mode_sum(*args)
        scale = np.abs(via_numpy).max()
        np.testing.assert_allclose(via_numba, via_numpy, atol=1e-12 * scale, rtol=1e-12)

    def test_singular_window_agrees(self, monkeypatch):
        # Hit the removable singularity q = w exactly on both backends.
        L = 1.0
        w = np.array([math.pi / L, 3 * math.pi / L])
        amp_grad = np.array([1.0 + 0.5j, -0.25j])
        amp_field = np.array([0.5, 1.0 + 0j])
        q = np.array([math.pi / L, -3 * math.pi / L, 1.0])
        g = np.ones(3)
        args = (w, amp_grad, amp_field, q, g, L, 0.7, complex(2j))
        monkeypatch.setenv("DOUBLESLIT_BACKEND", "numba")
        via_numba = kernels.mode_sum(*args)
        monkeypatch.setenv("DOUBLESLIT_BACKEND", "numpy")
        via_numpy = kernels.mode_sum(*args)
        np.testing.assert_allclose(via_numba, via_numpy, rtol=1e-13, atol=1e-16)

    def test_full_scan_backend_independent(self, monkeypatch, coarse_detector_config):
        cfg = with_detector(coarse_detector_config, steps=101)
        monkeypatch.setenv("DOUBLESLIT_BACKEND", "numba")
        a = scan(cfg).intensity_total
        monkeypatch.setenv("DOUBLESLIT_BACKEND", "numpy")
        b = scan(cfg).intensity_total
        np.testing.assert_allclose(a, b, rtol=1e-12)
