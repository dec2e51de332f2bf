"""Self-converging quadrature rules.

`converge` is the package's one refinement loop. It consumes a rule's
(value, nodes) refinements, each reusing the earlier evaluations, until
|new - old| <= max(rel_tol |new|, abs_tol) or a node cap. Every refining
quadrature of the package is composite Simpson (`simpson_doubling`), the
Richardson extrapolation of the trapezoid sums of `trapezoid_refinements`;
only this module drives `converge`. The sphere averages never refine: the
d = 2 circle integrals are exact band-limited sums and d >= 3 is a fixed
product rule over them (fourier._sigma_many). Nor does the smoothed-energy
Fourier side: Gauss-Legendre panels sized a priori from the integrand's
exponential type (energy._fourth_moment_quadrature). `simpson_cumulative` gives
the running integral on a converged grid. Non-convergence is never silent:
a bare-number result goes through `require_converged`, which raises
BudgetError (CLI exit 3) naming the rule, the tolerance and the cap; a
report carries the flag instead (Mattila's t_grid_converged). Each caller
fixes its tolerance and node cap in its own module; none is an option.
"""
from __future__ import annotations

from itertools import pairwise

import numpy as np

from .errors import BudgetError, ValidationError


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


def require_converged(result: tuple[float, int, bool], rule: str, rel_tol: float) -> float:
    """The non-convergence policy for callers that return a bare number:
    the value of a converged result, else BudgetError."""
    value, nodes, converged = result
    if not converged:
        raise BudgetError(
            f"{rule} did not converge to rel_tol {rel_tol:g} before its node cap ({nodes} nodes)")
    return value


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
