"""Quadrature rules: a-priori Gauss-Legendre panels, and Simpson doubling.

`gauss_legendre_panels`, for integrands of known exponential type, never
refines and checks its node budget before any evaluation. It is the library's
one rule for band-limited integrals: the smoothed-energy Fourier side (also
the angular majorant's moment), the solid average and the Mattila t
integral. `converge`, `trapezoid_refinements` and `simpson_doubling` (Simpson
doubling to |new - old| <= max(rel_tol |new|, abs_tol) or a node cap) have no
caller in the library: they stay as the tests' refining oracles. Callers fix
their tolerance, cap or budget; none is an option.
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
    """Panels for int_a^b f, f = g p with g entire of exponential type tau
    and p a polynomial of degree k (the cutoff's linear factor, or t**(d - 1)
    in the Mattila integral): P = ceil((b - a) tau / 24) panels of width
    H <= 24/tau, 24 nodes each. Mapped to [-1, 1] a panel has type <= 12, so
    on the Bernstein ellipse E_rho, |g| <= exp(6 (rho - 1/rho)) sup|g| and
    |p| <= rho**k sup|p| (Bernstein's lemma), and n = 24 nodes err by at
    most (64/15) M rho**(-2n) / (rho**2 - 1) H/2 for M the product of the two
    (Trefethen, ATAP, Thm 19.3): 1.1e-24 rho**k sup|g| sup|p| H/2 at rho =
    4 + sqrt(15), under 7e-23 of it for k <= 2. BudgetError naming `what`
    past 2**22 nodes, before the caller evaluates anything. Returns (coarse,
    fine, w, H): nodes coarse[:, None] + fine, coarse = a + H arange(P); the
    integral is H * sum(f * w)."""
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
