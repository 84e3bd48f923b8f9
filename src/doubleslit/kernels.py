"""Hot inner loop of the far-field evaluation.

The amplitude at every scan angle is a weighted sum over slit modes of the
closed-form sine Fourier integral.  For a mode w_i, an odd multiple of
pi/L, that integral factors into an angle part and a real mode-by-angle
part:

    Y_i(q) = exp(-i q shift) * (1 + exp(-i q L)) * w_i / (w_i^2 - q^2).

So the kernel forms the real matrix R = w / (w^2 - q^2), takes one real
matrix product of the four real rows (Re, Im of amp_grad and of
cterm*amp_field) with R, and applies g, the (1 + exp(-i q L)) factor and
the phase exp(-i q shift) on length-N vectors only.  With the phase
factored out, only |q|L is rounded in the factor that R amplifies beside a
singular cell, not |q|(shift+L).

At the removable singularity |q -/+ w_i|*L < SINGULAR_EPS the factored form
is 0/0.  R is set to 0 in those cells, and each one is added back as the
sparse correction amp_i * exp(-i q shift) * (-/+ i L/2), the analytic limit.
Angles run in blocks of KERNEL_BLOCK, so the mode-by-angle temporaries stay
at M x KERNEL_BLOCK however many angles a scan has.
"""

from __future__ import annotations

import numpy as np

# Half-width of the removable-singularity window in |q -/+ w|*L.
SINGULAR_EPS = 1e-8
# Angles per block: bounds the real M x block matrix R and its temporaries.
KERNEL_BLOCK = 4096


def active_backend() -> str:
    """Name of the kernel implementation (there is one, in numpy)."""
    return "numpy"


def mode_sum(w, amp_grad, amp_field, q, g, L, shift, cterm) -> np.ndarray:
    """Per-angle amplitude sums over modes.

    For each angle j returns
        sum_i amp_grad[i]*Y_i(q_j) + cterm*g[j]*sum_i amp_field[i]*Y_i(q_j)
    where Y_i(q) = integral_shift^{shift+L} exp(-i q y) sin(w_i (y-shift)) dy
    in closed form (w distinct, each a positive odd multiple of pi/L), with
    the removable singularity at |q| = w_i replaced by its analytic limit.
    """
    L, shift = float(L), float(shift)
    q = np.asarray(q, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    amp_grad = np.asarray(amp_grad, dtype=np.complex128)
    # cterm is one number, so it moves into the field amplitudes.
    amp_field = complex(cterm) * np.asarray(amp_field, dtype=np.complex128)
    out = np.zeros(q.shape, dtype=np.complex128)
    if not len(w):
        return out
    # The four real rows whose product with R gives the grad and field sums.
    amps = np.stack([amp_grad.real, amp_grad.imag, amp_field.real, amp_field.imag])
    w_col = w[:, None]
    w2_col = w_col * w_col
    order = np.argsort(w)
    w_sorted = w[order]
    midpoints = 0.5 * (w_sorted[1:] + w_sorted[:-1])
    buffer = np.empty(len(w) * min(KERNEL_BLOCK, len(q)))
    for start in range(0, len(q), KERNEL_BLOCK):
        qb = q[start : start + KERNEL_BLOCK]
        gb = g[start : start + KERNEL_BLOCK]
        r = buffer[: len(w) * len(qb)].reshape(len(w), len(qb))
        np.subtract(w2_col, qb * qb, out=r)
        # w > 0, so q = +w_i and q = -w_i are both hits of |q|; and only the
        # w nearest |q| can be one, as odd multiples of pi/L lie 2*pi/L apart.
        x = np.abs(qb)
        nearest = np.searchsorted(midpoints, x)
        cols = np.flatnonzero(np.abs(x - w_sorted[nearest]) * L < SINGULAR_EPS)
        rows = order[nearest[cols]]
        r[rows, cols] = np.inf  # w/inf = 0: the cell drops out of the product
        np.divide(w_col, r, out=r)
        re_grad, im_grad, re_field, im_field = amps @ r
        inner = (1.0 + np.exp(-1j * qb * L)) * (
            (re_grad + gb * re_field) + 1j * (im_grad + gb * im_field)
        )
        limit = np.where(qb[cols] > 0.0, -0.5j * L, 0.5j * L)
        inner[cols] += limit * (amp_grad[rows] + gb[cols] * amp_field[rows])
        if shift:
            inner *= np.exp(-1j * qb * shift)
        out[start : start + KERNEL_BLOCK] = inner
    return out
