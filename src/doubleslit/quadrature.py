"""Independent adaptive-quadrature reference for the closed forms.

Adaptive Gauss-Legendre quadrature with interval bisection, applied to
complex integrands.  Each panel gets an n = GAUSS_NODES point rule G; a
bisected panel is accepted when |G(left) + G(right) - G(whole)| meets its
share of the tolerance, and contributes G(left) + G(right).  The oracles
start each integrand from initial panels that span up to
HALF_OSCILLATIONS_PER_PANEL half oscillations (two full oscillations), so
an initial panel's rule value may straddle several oscillations; the
convergence test, not the start, decides how finely a panel ends up cut.

The integrator is level-synchronous: each pass bisects up to
MAX_POINTS // (2 n) pending panels, taken from a LIFO stack, with a single
array call of the integrand, and retires the panels that converged.  The
stack keeps the working set of a pass bounded however many panels an
integral needs.

Accuracy floor: the rule's own error falls far below the tolerances used
here; what remains is rounding in the integrand itself, about
eps * integral |f| / |integral f| relative.  For the oscillating sine
integrals that reaches ~1e-11 where the integral nearly cancels; a
compensated sum of the panel values does not lower it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .config import SimConfig, direction_cosine, wavenumber
from .modes import enumerate_modes

MAX_DEPTH = 60
# Points of the Gauss-Legendre rule on each panel.
GAUSS_NODES = 10
# Half oscillations of the integrand an oracle's initial panel spans.  Two
# full oscillations put 5 of the GAUSS_NODES points on each, and 10 on each
# after the first bisection, which the rule resolves.
HALF_OSCILLATIONS_PER_PANEL = 4
# Most points the integrand receives in one call.
MAX_POINTS = 2048
# Inner x' integrals the surface oracle runs as one batch.
SURFACE_Y_CHUNK = 16


class QuadratureDepthError(RuntimeError):
    """Bisection-depth cap reached before convergence."""

    def __init__(self, lo: float, hi: float):
        super().__init__(f"adaptive quadrature depth exhausted on subinterval [{lo}, {hi}]")
        self.subinterval = (lo, hi)


def _initial_panels(half_oscillations):
    """Initial panel count for an integrand of that many half oscillations."""
    return -(-half_oscillations // HALF_OSCILLATIONS_PER_PANEL)


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the GAUSS_NODES-point rule on [-1, 1].

    Imported on first use: numpy.polynomial is not loaded by the other modes.
    """
    from numpy.polynomial.legendre import leggauss

    rule = leggauss(GAUSS_NODES)
    for column in rule:
        column.flags.writeable = False  # shared by every call
    return rule


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value and error estimate (arrays of length batch for a batch)."""

    value: complex | np.ndarray
    abs_error_estimate: float | np.ndarray
    evaluations: int


def integrate_1d(
    f: Callable[..., np.ndarray],
    lo: float,
    hi: float,
    tol: float,
    max_depth: int = MAX_DEPTH,
    panels: int | np.ndarray = 1,
    batch: int | None = None,
) -> QuadratureResult:
    """Adaptive Gauss-Legendre integral of a complex-valued f over [lo, hi].

    f maps a 1-D array of points to the array of its values.  With batch =
    B, f(x, j) evaluates integrand j[i] at x[i] for B integrands over the
    same [lo, hi]; each is refined on its own panels to its own full tol,
    so it gets the value it would get alone (up to the order of summation),
    and value and abs_error_estimate are arrays of length B.  Each
    integrand starts from `panels` equal panels, which share its tol; with
    a batch, `panels` may also be an array of one count per integrand.  f
    never receives more than MAX_POINTS points per call; evaluations counts
    the points evaluated.
    """
    if not lo < hi:
        raise ValueError("integration bounds must satisfy lo < hi")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    size = 1 if batch is None else int(batch)
    counts = np.asarray(panels, dtype=int)
    if counts.ndim == 0:
        counts = np.full(size, counts)
    if counts.shape != (size,):
        raise ValueError(f"panels must hold one count per integrand ({size}), not {counts.shape}")
    if (counts < 1).any():
        raise ValueError("panel counts must be >= 1")
    share = tol / counts
    g = f if batch is not None else (lambda x, j: f(x))
    nodes, weights = _gauss_legendre()
    evaluations = 0

    def gauss(a: np.ndarray, b: np.ndarray, which: np.ndarray):
        """Rule value and sum of |w f| per panel [a, b] of integrand which."""
        nonlocal evaluations
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        total = a.size * GAUSS_NODES
        evaluations += total
        rule = np.empty(a.size, dtype=complex)
        mag = np.empty(a.size)
        # Panels are summed as each call of g completes them, carrying a
        # split panel's first points over, so that memory stays within a
        # call however many panels there are.
        carry = np.empty(0, dtype=complex)
        done = 0
        for s in range(0, total, MAX_POINTS):
            panel, node = np.divmod(np.arange(s, min(s + MAX_POINTS, total)), GAUSS_NODES)
            fx = np.concatenate([carry, g(mid[panel] + half[panel] * nodes[node], which[panel])])
            full = fx.size // GAUSS_NODES
            rows = fx[: full * GAUSS_NODES].reshape(full, GAUSS_NODES)
            rule[done : done + full] = rows @ weights
            mag[done : done + full] = np.abs(rows) @ weights
            carry = fx[full * GAUSS_NODES :]
            done += full
        return half * rule, half * mag

    # Integrand j's panels are those of np.linspace(lo, hi, counts[j] + 1).
    which = np.repeat(np.arange(size), counts)
    count = counts[which]
    k = np.arange(which.size) - (np.cumsum(counts) - counts)[which]
    step = (hi - lo) / count
    a = k * step + lo
    b = np.where(k + 1 == count, hi, (k + 1) * step + lo)
    whole, _ = gauss(a, b, which)
    # LIFO stack of pending panels, as blocks of columns (a, b, whole, depth, which).
    stack = [(a, b, whole, np.zeros(a.size, dtype=int), which)]

    value = np.zeros(size, dtype=complex)
    err = np.zeros(size)

    def retire(j: np.ndarray, v: np.ndarray, e: np.ndarray) -> None:
        nonlocal value, err
        value = value + np.bincount(j, v.real, size) + 1j * np.bincount(j, v.imag, size)
        err = err + np.bincount(j, e, size)

    while stack:
        # Pop up to MAX_POINTS // (2 n) panels; each needs 2 n new points.
        taken = []
        room = MAX_POINTS // (2 * GAUSS_NODES)
        while stack and room:
            block = stack.pop()
            cut = block[0].size - room
            if cut > 0:
                # A copy, so that the block's buffers go with this pass.
                stack.append(tuple(col[:cut].copy() for col in block))
                block = tuple(col[cut:] for col in block)
            taken.append(block)
            room -= block[0].size
        columns = taken[0] if len(taken) == 1 else map(np.concatenate, zip(*taken))
        a, b, whole, depth, which = columns
        m = 0.5 * (a + b)
        split = (a < m) & (m < b)
        if not split.all():
            # No representable midpoint left; the panel cannot be refined.
            flat = ~split
            retire(which[flat], whole[flat], np.zeros(int(flat.sum())))
            a, b, m, whole, depth, which = (
                col[split] for col in (a, b, m, whole, depth, which)
            )
        halves, scale = gauss(
            np.concatenate([a, m]), np.concatenate([m, b]), np.concatenate([which, which])
        )
        left, right = halves[: a.size], halves[a.size :]
        est = np.abs(left + right - whole)
        # Roundoff floor: once the estimate falls below machine noise on the
        # panel's quadrature sum, further bisection cannot improve it.
        scale = scale[: a.size] + scale[a.size :]
        done = est <= np.maximum(share[which] * 0.5**depth, 4e-15 * scale)
        retire(which[done], (left + right)[done], est[done])
        go = ~done
        if not go.any():
            continue
        deep = np.flatnonzero(go & (depth >= max_depth))
        if deep.size:
            raise QuadratureDepthError(float(a[deep[0]]), float(b[deep[0]]))
        children = ((a, m), (m, b), (left, right), (depth + 1, depth + 1), (which, which))
        stack.append(tuple(np.concatenate([one[go], two[go]]) for one, two in children))

    if batch is None:
        return QuadratureResult(complex(value[0]), float(err[0]), evaluations)
    return QuadratureResult(value, err, evaluations)


def oracle_sine_fourier(p, q, L, tol: float = 1e-12) -> complex | np.ndarray:
    """Quadrature of integral_0^L exp(-i q y) sin(p pi y / L) dy.

    p, q and L are scalars, giving a complex, or broadcastable sequences of
    cases, giving an array of their shape; all cases run as one batched
    quadrature.  Each is integrated as L * integral_0^1 exp(-i q L t)
    sin(p pi t) dt, to an absolute tol * L.
    """
    p, q, L = np.broadcast_arrays(p, np.asarray(q, dtype=float), np.asarray(L, dtype=float))
    shape = p.shape
    p, q, L = p.ravel(), q.ravel(), L.ravel()
    for valid, rule in (
        ((p > 0) & (p % 2 == 1), "p must be a positive odd integer"),
        (np.isfinite(q), "q must be finite"),
        (np.isfinite(L) & (L > 0), "L must be finite and > 0"),
    ):
        bad = np.flatnonzero(~valid)
        if bad.size:
            i = bad[0]
            raise ValueError(f"sine oracle case {i} (p={p[i]}, q={q[i]}, L={L[i]}): {rule}")
    qL = q * L
    p_pi = p * math.pi
    half_oscillations = p + np.ceil(np.abs(qL) / math.pi).astype(int) + 1

    def f(t: np.ndarray, j: np.ndarray) -> np.ndarray:
        return np.exp(-1j * qL[j] * t) * np.sin(p_pi[j] * t)

    unit = integrate_1d(
        f, 0.0, 1.0, tol, panels=_initial_panels(half_oscillations), batch=p.size
    )
    value = (L * unit.value).reshape(shape)
    return complex(value) if value.ndim == 0 else value


def oracle_surface_amplitude(
    angles, config: SimConfig, tol: float = 1e-9
) -> complex:
    """Nested 1D quadrature of the exit-face Kirchhoff surface integral.

    The mode sum stays inside the integrand; only the x' and y' integrals
    are evaluated numerically.  tol is relative to a crude magnitude scale
    of the result, S = sum |weights| * (2 b / pi) * (2 a / pi) / (4 pi R)
    over the modes' weights D e^(i k_z c) (i k_z + (i k - 1/R) g): the
    outer integral's error estimate, and the inner integrals' estimates
    summed over y', are each held to tol * S.
    """
    k = wavenumber(config.beam)
    slits = config.slits
    a, b, c = slits.width_a, slits.length_b, slits.thickness_c
    R = config.detector.distance_R
    q_x = k * math.sin(angles.alpha)
    q_y = k * math.sin(angles.beta)
    g = direction_cosine(angles.alpha, math.sin(angles.beta))
    cterm = 1j * k - 1.0 / R

    table = enumerate_modes(config)
    m_orders, row = np.unique(table.m, return_inverse=True)
    n_orders, col = np.unique(table.n, return_inverse=True)
    weight = np.zeros((m_orders.size, n_orders.size), dtype=complex)
    k_z = table.k_z
    weight[row, col] = table.coefficient * np.exp(1j * k_z * c) * (1j * k_z + cterm * g)

    w_m = (2 * m_orders + 1) * math.pi / a
    w_n = (2 * n_orders + 1) * math.pi / b
    scale = float(np.abs(weight).sum()) * (2 * b / math.pi) * (2 * a / math.pi)
    outer_tol = tol * scale
    inner_tol = outer_tol / a

    inner_panels = _initial_panels(
        int(2 * n_orders[-1] + 1) + math.ceil(abs(q_x) * b / math.pi) + 1
    )
    outer_panels = _initial_panels(
        int(2 * m_orders[-1] + 1) + math.ceil(abs(q_y) * a / math.pi) + 1
    )

    def inner_f(coeff_n: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        def f(xp: np.ndarray, j: np.ndarray) -> np.ndarray:
            modes = np.einsum("ij,ij->i", coeff_n[j], np.sin(np.outer(xp, w_n)))
            return np.exp(-1j * q_x * xp) * modes

        return f

    def outer_f(yp: np.ndarray) -> np.ndarray:
        # The inner x' integrals run as batches of SURFACE_Y_CHUNK y' values.
        out = np.empty(yp.size, dtype=complex)
        for s in range(0, yp.size, SURFACE_Y_CHUNK):
            chunk = yp[s : s + SURFACE_Y_CHUNK]
            coeff_n = np.sin(np.outer(chunk, w_m)) @ weight
            inner = integrate_1d(
                inner_f(coeff_n), 0.0, b, inner_tol, panels=inner_panels, batch=chunk.size
            )
            out[s : s + SURFACE_Y_CHUNK] = np.exp(-1j * q_y * chunk) * inner.value
        return out

    outer = integrate_1d(outer_f, 0.0, a, outer_tol, panels=outer_panels)
    return -cmath.exp(1j * k * R) / (4.0 * math.pi * R) * outer.value
