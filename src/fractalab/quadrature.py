"""Quadrature rules: a-priori Gauss-Legendre panels, and Simpson doubling.

`gauss_legendre_panels`, for integrands of known exponential type, never
refines and checks its node budget before any evaluation. It is the library's
one rule for band-limited integrals: the smoothed-energy Fourier side (also
the angular majorant's moment), the solid average and the Mattila t
integral. Its nodes and weights (and the d >= 3 sphere rule's polar ones)
come from Newton's method on the Legendre three-term recurrence.
`simpson_doubling` (Simpson doubling to |new - old| <= max(rel_tol |new|,
abs_tol) or a node cap) has no caller in the library: it stays as the
tests' refining oracle. Callers fix their tolerance, cap or budget; none is
an option.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ValidationError, over_budget

PANEL_NODES = 24  # Gauss-Legendre nodes per panel
_MAX_NODES = 1 << 22  # Gauss-Legendre nodes of one integral


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=None)
def _panel_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss-Legendre nodes and weights on [0, 1], read-only. Newton's
    method on P_n from x_k = -cos(pi (k + 3/4) / (n + 1/2)) runs until no
    node moves by 1e-14 (quadratic convergence leaves it at rounding); the
    nodes are then made odd-symmetric, and the weights 2 / ((1 - x**2)
    P_n'(x)**2) taken at them."""
    x = -np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(100):
        step = np.divide(*_legendre(n, x))
        x = x - step
        if np.max(np.abs(step)) <= 1e-14:
            break
    x = (x - x[::-1]) / 2.0
    dp = _legendre(n, x)[1]
    rule = (x + 1.0) / 2.0, 1.0 / ((1.0 - x * x) * dp * dp)
    for a in rule:
        a.setflags(write=False)
    return rule


def gauss_legendre_panels(a: float, b: float, tau: float, what: str, remedy: str):
    """Panels for int_a^b f, f = g p with g entire of exponential type tau
    and p a polynomial of degree k (the cutoff's linear factor, or t**(d - 1)
    in the Mattila integral): P = ceil((b - a) tau / 24) panels of width
    H <= 24/tau, 24 nodes each. Mapped to [-1, 1] a panel has type <= 12, so
    on the Bernstein ellipse E_rho, |g| <= exp(6 (rho - 1/rho)) sup|g| and
    |p| <= rho**k sup|p| (Bernstein's lemma), and n = 24 nodes err by at
    most (64/15) M rho**(-2n) / (rho**2 - 1) H/2 for M the product of the two
    (Trefethen, ATAP, Thm 19.3): 1.1e-24 rho**k sup|g| sup|p| H/2 at rho =
    4 + sqrt(15), under 7e-23 of it for k <= 2. Past _MAX_NODES (an
    infinite or NaN count included), over_budget names `what` and the
    caller's `remedy` before the caller evaluates anything. Returns (coarse,
    fine, w, H): nodes coarse[:, None] + fine, coarse = a + H arange(P); the
    integral is H * sum(f * w)."""
    panels = (b - a) * tau / PANEL_NODES
    need = PANEL_NODES * math.ceil(panels) if panels < 2**53 else panels * PANEL_NODES  # or inf, NaN
    over_budget(f"{what} needs {need} Gauss-Legendre nodes", need, _MAX_NODES, remedy)
    panels = max(1, need // PANEL_NODES)
    x, w = _panel_rule(PANEL_NODES)
    width = (b - a) / panels
    return a + width * np.arange(panels), width * x, w, width


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

    Simpson on 2m intervals is (4 T_2m - T_m) / 3 of the trapezoid sums, and
    each doubling evaluates f only at the new midpoints, on one uniform grid
    per call. The run stops once |new - old| <= max(rel_tol |new|, abs_tol)
    for successive Simpson sums, or at the first grid of at least
    max_intervals + 1 nodes, where the last sum is reported unconverged. An
    initial grid finer than max_intervals is clamped to its even part (at
    least 4). Returns (value, node_count, converged).
    """
    if not b > a:
        raise ValidationError(f"empty interval [{a}, {b}]")
    n = max(4, int(initial_intervals))
    n += n % 2
    if n > max_intervals:
        n = max(4, int(max_intervals) - int(max_intervals) % 2)
    m = n // 2
    h = (b - a) / m
    fx = np.asarray(f(np.linspace(a, b, m + 1)), dtype=float)
    total = 0.5 * float(fx[0] + fx[-1]) + float(np.sum(fx[1:-1]))
    coarse, value = h * total, math.nan  # NaN: the first Simpson sum passes no test
    while True:
        total += float(np.sum(f(a + (np.arange(m) + 0.5) * h)))
        m, h = 2 * m, h / 2.0
        fine = h * total
        new_value = (4.0 * fine - coarse) / 3.0
        if abs(new_value - value) <= max(rel_tol * abs(new_value), abs_tol):
            return new_value, m + 1, True
        if m >= max_intervals:
            return new_value, m + 1, False
        coarse, value = fine, new_value
