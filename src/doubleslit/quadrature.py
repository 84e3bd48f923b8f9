"""Independent adaptive-quadrature reference for the closed forms.

Adaptive Gauss-Legendre quadrature with interval bisection, applied to
complex integrands.  Each panel gets an n = GAUSS_NODES point rule G; a
bisected panel is accepted when |G(left) + G(right) - G(whole)| meets its
share of the tolerance, and contributes G(left) + G(right).  The initial
panel count scales with the oscillation count of the integrand so no
oscillation is straddled by a single panel.

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

from .config import HBAR, SimConfig, direction_cosine, wavenumber
from .modes import enumerate_modes, thickness_attenuation

MAX_DEPTH = 60
# Points of the Gauss-Legendre rule on each panel.
GAUSS_NODES = 10
# Most points the integrand receives in one call.
MAX_POINTS = 2048
# Inner x' integrals the surface oracle runs as one batch.
SURFACE_Y_CHUNK = 16


class QuadratureDepthError(RuntimeError):
    """Bisection-depth cap reached before convergence."""

    def __init__(self, lo: float, hi: float):
        super().__init__(f"adaptive quadrature depth exhausted on subinterval [{lo}, {hi}]")
        self.subinterval = (lo, hi)


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
    panels: int = 1,
    batch: int | None = None,
) -> QuadratureResult:
    """Adaptive Gauss-Legendre integral of a complex-valued f over [lo, hi].

    f maps a 1-D array of points to the array of its values.  With batch =
    B, f(x, j) evaluates integrand j[i] at x[i] for B integrands over the
    same [lo, hi]; each is refined on its own panels to its own full tol,
    so it gets the value it would get alone (up to the order of summation),
    and value and abs_error_estimate are arrays of length B.  f never
    receives more than MAX_POINTS points per call; evaluations counts the
    points evaluated.
    """
    if not lo < hi:
        raise ValueError("integration bounds must satisfy lo < hi")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    panels = max(1, int(panels))
    size = 1 if batch is None else int(batch)
    g = f if batch is not None else (lambda x, j: f(x))
    nodes, weights = _gauss_legendre()
    evaluations = 0

    def gauss(a: np.ndarray, b: np.ndarray, which: np.ndarray):
        """Rule value and sum of |w f| per panel [a, b] of integrand which."""
        nonlocal evaluations
        half = 0.5 * (b - a)
        x = ((0.5 * (a + b))[:, None] + half[:, None] * nodes).ravel()
        j = np.repeat(which, GAUSS_NODES)
        evaluations += x.size
        fx = np.empty(x.size, dtype=complex)
        for s in range(0, x.size, MAX_POINTS):
            fx[s : s + MAX_POINTS] = g(x[s : s + MAX_POINTS], j[s : s + MAX_POINTS])
        fx = fx.reshape(a.size, GAUSS_NODES)
        return half * (fx @ weights), half * (np.abs(fx) @ weights)

    edges = np.linspace(lo, hi, panels + 1)
    a, b = np.tile(edges[:-1], size), np.tile(edges[1:], size)
    which = np.repeat(np.arange(size), panels)
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
        done = est <= np.maximum(tol / panels * 0.5**depth, 4e-15 * scale)
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


def oracle_sine_fourier(p: int, q: float, L: float, tol: float = 1e-12) -> complex:
    """Quadrature of integral_0^L exp(-i q y) sin(p pi y / L) dy."""
    if p <= 0 or p % 2 == 0:
        raise ValueError("p must be a positive odd integer")
    panels = p + math.ceil(abs(q) * L / math.pi) + 1

    def f(y: np.ndarray) -> np.ndarray:
        return np.exp(-1j * q * y) * np.sin(p * math.pi * y / L)

    return integrate_1d(f, 0.0, L, tol * L, panels=panels).value


def oracle_surface_amplitude(
    angles, config: SimConfig, tol: float = 1e-9
) -> complex:
    """Nested 1D quadrature of the exit-face Kirchhoff surface integral.

    The mode sum stays inside the integrand; only the x' and y' integrals
    are evaluated numerically.  tol is relative to a crude magnitude scale
    of the integrand sum.
    """
    k = wavenumber(config.beam)
    slits = config.slits
    a, b, c = slits.width_a, slits.length_b, slits.thickness_c
    R = config.detector.distance_R
    q_x = k * math.sin(angles.alpha)
    q_y = k * math.sin(angles.beta)
    g = direction_cosine(angles.alpha, math.sin(angles.beta))
    cterm = 1j * k - 1.0 / R

    terms = enumerate_modes(config)
    m_orders = sorted({t.index.m for t in terms})
    n_orders = sorted({t.index.n for t in terms})
    m_pos = {m: i for i, m in enumerate(m_orders)}
    n_pos = {n: i for i, n in enumerate(n_orders)}
    weight = np.zeros((len(m_orders), len(n_orders)), dtype=complex)
    for t in terms:
        bracket = 1j * t.k_z + cterm * g
        weight[m_pos[t.index.m], n_pos[t.index.n]] = (
            t.coefficient * thickness_attenuation(t.k_z, c) * bracket
        )

    w_m = np.array([(2 * m + 1) * math.pi / a for m in m_orders])
    w_n = np.array([(2 * n + 1) * math.pi / b for n in n_orders])
    scale = float(np.abs(weight).sum()) * (2 * b / math.pi) * (2 * a / math.pi)
    outer_tol = tol * scale
    inner_tol = outer_tol / a

    inner_panels = (2 * max(n_orders) + 1) + math.ceil(abs(q_x) * b / math.pi) + 1
    outer_panels = (2 * max(m_orders) + 1) + math.ceil(abs(q_y) * a / math.pi) + 1

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
    envelope = (
        -cmath.exp(1j * k * R)
        / (4.0 * math.pi * R)
        * cmath.exp(-1j * config.beam.energy * config.evaluation_time / HBAR)
    )
    return envelope * outer.value
