"""Hot inner loop of the far-field evaluation.

The amplitude at every scan angle is a weighted sum over slit modes of the
closed-form sine Fourier integral, evaluated in numpy over a modes x
angles array.
"""

from __future__ import annotations

import numpy as np

# Half-width of the removable-singularity window in |q -/+ w|*L.
SINGULAR_EPS = 1e-8


def active_backend() -> str:
    """Name of the kernel implementation (there is one, in numpy)."""
    return "numpy"


def mode_sum(w, amp_grad, amp_field, q, g, L, shift, cterm) -> np.ndarray:
    """Per-angle amplitude sums over modes.

    For each angle j returns
        sum_i amp_grad[i]*Y_i(q_j) + cterm*g[j]*sum_i amp_field[i]*Y_i(q_j)
    where Y_i(q) = integral_shift^{shift+L} exp(-i q y) sin(w_i (y-shift)) dy
    in closed form (w_i an odd multiple of pi/L), with the removable
    singularity at |q| = w_i replaced by its analytic limit.
    """
    L, shift = float(L), float(shift)
    q = np.asarray(q, dtype=np.float64)
    wc = np.asarray(w, dtype=np.float64)[:, None]
    ph0 = np.exp(-1j * q * shift)[None, :]
    ph1 = np.exp(-1j * q * (shift + L))[None, :]
    denom = wc * wc - q[None, :] ** 2
    near_plus = np.abs(q[None, :] - wc) * L < SINGULAR_EPS
    near_minus = np.abs(q[None, :] + wc) * L < SINGULAR_EPS
    singular = near_plus | near_minus
    safe = np.where(singular, 1.0, denom)
    y = wc * (ph1 + ph0) / safe
    y = np.where(near_plus, ph0 * (-0.5j * L), y)
    y = np.where(near_minus, ph0 * (0.5j * L), y)
    s_grad = np.asarray(amp_grad, dtype=np.complex128) @ y
    s_field = np.asarray(amp_field, dtype=np.complex128) @ y
    return s_grad + complex(cterm) * np.asarray(g, dtype=np.float64) * s_field
