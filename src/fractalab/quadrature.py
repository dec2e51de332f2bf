"""Quadrature rules: a-priori Gauss-Legendre panels, and Simpson doubling.

`gauss_legendre_panels`, for integrands of known exponential type, never
refines and checks its node budget before any evaluation: the smoothed-energy
Fourier side (also the angular majorant's moment) and the solid average.
Only the Mattila t-grid refines: `converge`, the one refinement loop, takes
`simpson_doubling` refinements until |new - old| <= max(rel_tol |new|,
abs_tol) or a node cap and returns the converged flag its report carries;
`simpson_cumulative` is the running integral. Callers fix their tolerance,
cap or budget; none is an option.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import pairwise

import numpy as np

from .errors import BudgetError, ValidationError

PANEL_NODES = 24  # Gauss-Legendre nodes per panel; 2**22 nodes per integral at most


@lru_cache(maxsize=None)
def _panel_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss-Legendre nodes and weights on [0, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    rule = (x + 1.0) / 2.0, w / 2.0
    for a in rule:
        a.setflags(write=False)
    return rule


def gauss_legendre_panels(a: float, b: float, tau: float, what: str):
    """Panels for int_a^b f, f entire of exponential type tau times at most
    a linear factor: P = ceil((b - a) tau / 24) panels of width H <= 24/tau,
    24 nodes each. Mapped to [-1, 1] a panel has type <= 12, so on the
    Bernstein ellipse E_rho, |f| <= M = exp(6 (rho - 1/rho)) (1 + rho/2)
    sup|f|, and n = 24 nodes err by at most (64/15) M rho**(-2n) / (rho**2 -
    1) H/2 (Trefethen, ATAP, Thm 19.3): 5e-24 sup|f| H/2 at rho = 4 +
    sqrt(15). BudgetError naming `what` past 2**22 nodes, before the caller
    evaluates anything. Returns (coarse, fine, w, H): nodes coarse[:, None] +
    fine, coarse = a + H arange(P); the integral is H * sum(f * w)."""
    panels = max(1, math.ceil((b - a) * tau / PANEL_NODES))
    if panels * PANEL_NODES > 1 << 22:
        raise BudgetError(f"{what} needs {panels * PANEL_NODES} Gauss-Legendre nodes, "
                          "past its 2**22 budget; lower t")
    x, w = _panel_rule(PANEL_NODES)
    width = (b - a) / panels
    return a + width * np.arange(panels), width * x, w, width


def converge(refinements, rel_tol: float, max_nodes: float, abs_tol: float = 0.0):
    """Take refinements while nodes < max_nodes until the stopping test
    passes. Returns (value, nodes, converged); when the cap comes first,
    converged is False and value is the last refinement."""
    value, nodes = next(refinements)
    while nodes < max_nodes:
        new_value, nodes = next(refinements)
        if abs(new_value - value) <= max(rel_tol * abs(new_value), abs_tol):
            return new_value, nodes, True
        value = new_value
    return value, nodes, False


def trapezoid_refinements(f, a: float, b: float, intervals: int):
    """Endless trapezoid sums on [a, b] over intervals, 2 intervals, ...;
    each refinement evaluates f only at the new midpoints. Yields
    (value, nodes evaluated so far)."""
    n = int(intervals)
    h = (b - a) / n
    fx = np.asarray(f(np.linspace(a, b, n + 1)), dtype=float)
    total = 0.5 * float(fx[0] + fx[-1]) + float(np.sum(fx[1:-1]))
    yield h * total, n + 1
    while True:
        total += float(np.sum(f(a + (np.arange(n) + 0.5) * h)))
        n *= 2
        h /= 2.0
        yield h * total, n + 1


def simpson_doubling(
    f,
    a: float,
    b: float,
    initial_intervals: int = 16,
    rel_tol: float = 1e-8,
    max_intervals: int = 1 << 22,
    abs_tol: float = 0.0,
) -> tuple[float, int, bool]:
    """Composite Simpson on [a, b] with interval doubling and node reuse.

    Simpson on 2n intervals is (4 T_2n - T_n) / 3 of the trapezoid sums, so
    it rides on trapezoid_refinements; abs_tol is the absolute floor of the
    stopping test. An initial grid finer than max_intervals is clamped to its
    even part (at least 4), so at most max_intervals + 1 nodes are evaluated
    before the result is reported unconverged. Returns (value, node_count,
    converged).
    """
    if not b > a:
        raise ValidationError(f"empty interval [{a}, {b}]")
    n = max(4, int(initial_intervals))
    n += n % 2
    if n > max_intervals:
        n = max(4, int(max_intervals) - int(max_intervals) % 2)
    simpsons = (
        ((4.0 * fine - coarse) / 3.0, nodes)
        for (coarse, _), (fine, nodes) in pairwise(trapezoid_refinements(f, a, b, n // 2))
    )
    return converge(simpsons, rel_tol, max_intervals + 1, abs_tol)


def simpson_cumulative(fx: np.ndarray, h: float) -> np.ndarray:
    """Running composite Simpson integral at every node of a uniform grid
    with an even number of intervals of width h. It is the Simpson sum at
    the end of each interval pair; at the odd node between, it adds
    h/12 (5 f0 + 8 f1 - f2), the pair's quadratic over its first half."""
    f0, f1, f2 = fx[:-2:2], fx[1:-1:2], fx[2::2]
    out = np.empty(fx.size)
    out[0::2] = np.concatenate(([0.0], np.cumsum(h / 3.0 * (f0 + 4.0 * f1 + f2))))
    out[1::2] = out[:-2:2] + h / 12.0 * (5.0 * f0 + 8.0 * f1 - f2)
    return out
