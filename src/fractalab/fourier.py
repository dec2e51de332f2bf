"""Fourier transforms of grid and product measures, circular and solid
averages, the stationary-phase main term, and the angular decomposition of
the weighted circular average.

Conventions
-----------
Transform sign is exp(-2 pi i x xi). Every quantity consumed downstream is a
magnitude, so the sign choice is observationally irrelevant but fixed for
reproducibility; the circular, sector and solid averages read
GridMeasure.power_spectrum, |nu_hat|^2 itself, which a Cantor factor gives as
a real Riesz product without forming the complex transform.

A level-k grid only emulates the continuum transform for frequencies well
below the grid scale, so angular averages refuse t above 0.1/delta (taken
over the coarsest factor); past it, discretization artifacts dominate.

Every d = 2 circle integral is one band-limited Fourier sum (the modes of
one real FFT of equispaced samples of [0, pi), exact to rounding, capped at
2**24 samples; it never refines): the circular average sigma(t) under each
weight, the stationary-phase circle integral, and the three angular
sectors, each an exact integral of the same modes as sigma's. sigma for
d >= 3 is one product rule: Gauss-Legendre in the polar angle of the last
axis over sigma of the first d - 1 factors, which ends in the d = 2 circle
sum; it is exact to rounding too and never refines. sigma is evaluated on
arrays of t (_sigma_many: one t, a sweep, or every node of a Mattila
integral) in row blocks of at most energy._BLOCK samples or polar nodes. The
solid average and the majorant's smoothed moments take a-priori
Gauss-Legendre panels (quadrature.gauss_legendre_panels); nothing here
refines.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cutoff import CutoffFunction
from .energy import _BLOCK, _fourth_moment_quadrature
from .errors import BudgetError, ValidationError, ValidityCapError
from .fitting import loglog_fit
from .measures import GridMeasure, ProductMeasure
from .quadrature import _panel_rule, gauss_legendre_panels

# the angular weights: 1, and |sin theta| (|omega_d| for d >= 3)
_WEIGHTS = ("none", "sin_theta")


def validity_cap(mu: ProductMeasure | GridMeasure) -> float:
    """Largest trustworthy frequency, 0.1/delta minimized over factors.

    Single-atom factors are exempt: their transform is a single exponential,
    exact at every frequency, so they carry no discretization artifact.
    """
    factors = (mu,) if isinstance(mu, GridMeasure) else mu.factors
    caps = [0.1 / f.delta for f in factors if f.atom_count > 1]
    return min(caps) if caps else math.inf


def require_under_cap(mu: ProductMeasure | GridMeasure, x: float, what: str) -> None:
    """ValidityCapError naming `what` when frequency x passes validity_cap."""
    cap = validity_cap(mu)
    if x > cap:
        raise ValidityCapError(f"{what} exceeds the discretization validity cap {cap:.6g} "
                               "(0.1/delta over the coarsest factor); deepen the level", cap)


# ---------------------------------------------------------------------------
# Circle integrals (d = 2) and spherical averages
# ---------------------------------------------------------------------------

def _circle_samples(x):
    """The smallest power of two >= x + 10 x^(1/3) + 40 (so at least 64):
    past that mode, |J_2k(x)| < 1e-17 and the samples alias nothing that
    shows. Elementwise on an array of x."""
    need = x + 10.0 * x ** (1.0 / 3.0) + 40.0
    over = np.ravel(x)[~(np.ravel(need) <= 1 << 24)]  # t|g| above about 2.6e6
    if over.size:
        raise BudgetError(f"circle integral at 2 pi t|gap| = {over[0]:.6g} needs over 2**24 samples; lower t")
    # frexp's exponent of an integer m >= 1 is m.bit_length()
    return 1 << np.frexp(np.ceil(need) - 1.0)[1].astype(int)


def _circle_modes(f: np.ndarray) -> np.ndarray:
    """Modes c_k, k = 0..n/2, of F from f = F(pi m / n), m = 0..n-1, along
    the last axis, for F pi-periodic and even with no mode past n/2 that
    shows: the trapezoid rule, one real FFT, gives them exactly up to
    rounding (Trefethen-Weideman 2014)."""
    return np.fft.rfft(f).real / f.shape[-1]


def _quadrant_modes(fa: GridMeasure, fb: GridMeasure, tr: np.ndarray, n: int) -> np.ndarray:
    """_circle_modes of |nu_a_hat(t cos theta)|^2 |nu_b_hat(t sin theta)|^2,
    a row per t of the column tr; even about pi/2, so [0, pi/2] mirrored."""
    half = np.pi * np.arange(n // 2 + 1) / n
    f = fa.power_spectrum(tr * np.cos(half)) * fb.power_spectrum(tr * np.sin(half))
    return _circle_modes(np.concatenate((f, f[:, -2:0:-1]), axis=1))


def _circle_sum(c: np.ndarray, weight: str) -> np.ndarray:
    """int_0^{2pi} F(theta) w(theta) dtheta from the modes c of F along the
    last axis. Weight 'none' gives 2 pi c_0; |sin theta| = 2/pi - (4/pi)
    sum_k cos(2k theta)/(4k^2 - 1) gives 4 c_0 - 8 sum_k c_k/(4k^2 - 1): one
    dot per row (a stack of 1 x k by k x 1 products)."""
    if weight == "none":
        return 2.0 * np.pi * c[..., 0]
    k = np.arange(1, c.shape[-1], dtype=float)
    coef = 1.0 / (4.0 * k * k - 1.0)
    return 4.0 * c[..., 0] - 8.0 * (c[..., None, 1:] @ coef[:, None])[..., 0, 0]


@functools.lru_cache(maxsize=None)
def _theta_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n Gauss-Legendre nodes of [0, pi/2]: (cos theta, sin theta, weights),
    read-only. n is 2**k + 1 under the sample cap, so the cache stays small."""
    x, w = _panel_rule(n)
    theta = np.pi / 2.0 * x
    rule = np.cos(theta), np.sin(theta), np.pi / 2.0 * w
    for a in rule:
        a.setflags(write=False)
    return rule


def _sigma_many(mu: ProductMeasure, ts, weight: str) -> tuple[np.ndarray, np.ndarray]:
    """sigma_w at every t of ts, checked before any is evaluated: (values,
    node counts), each t's value the same to the bit in any batch. Every t
    has a band limit R = 2 pi t |diam|, |diam| the hypot of the factor
    diameters, and n = _circle_samples(R).
    d = 2: F(theta) = |nu_a_hat(t cos theta)|^2 |nu_b_hat(t sin theta)|^2 is
    a sum of cos(2 pi t g . omega) over gap vectors g, so it is pi-periodic,
    even, symmetric about pi/2 and band-limited at R; the t sharing n go in
    blocks, one _circle_sum per block, on 2n nodes.
    d >= 3: omega = (cos theta omega', sin theta) and evenness in omega_d give
    sigma_d(t) = 2 int_0^{pi/2} cos^(d-2) theta |nu_d_hat(t sin theta)|^2
    sigma_{d-1}(t cos theta) dtheta, times sin theta = |omega_d| under
    'sin_theta', with sigma_{d-1} the unweighted sigma of the first d - 1
    factors (Atkinson-Han 2012, a product rule on the sphere). The t sharing
    n take n // 2 + 1 Gauss-Legendre nodes in theta, in blocks, each block's
    inner sigma one call on all its t cos theta; the node count is the sum of
    the inner ones. A t past n_theta^(d-2) n = 2**24 raises BudgetError, and
    then so does a batch whose sum of that work (n on d = 2) passes 2**27."""
    if weight not in _WEIGHTS:
        raise ValidationError(f"unknown weight {weight!r}; expected one of {_WEIGHTS}")
    d = mu.dimension
    t = np.array(ts, dtype=float, ndmin=1)
    finite = (t >= 0.0) & (t < math.inf)
    if not finite.all():
        raise ValidationError(f"t must be nonnegative and finite, got {t[~finite][0]}")
    if t.size:
        require_under_cap(mu, t.max(), f"t={t.max()}")
    diam = math.hypot(*(f.diameter for f in mu.factors))
    counts = _circle_samples(2.0 * np.pi * t * diam)
    polar = counts // 2 + 1
    work = polar.astype(float) ** (d - 2) * counts
    over = work > 1 << 24
    if over.any():
        raise BudgetError(f"sphere rule at t={t[over][0]} needs over 2**24 nodes in d = {d}; lower t")
    if work.sum() > 1 << 27:
        raise BudgetError(f"sigma at {t.size} values of t needs {work.sum():.3g} circle samples, "
                          "past its 2**27 budget; lower t")
    values, nodes = np.empty(t.size), np.empty(t.size, dtype=int)
    if d == 2:
        fa, fb = mu.factors
        for n in np.unique(counts).tolist():
            group, rows = np.flatnonzero(counts == n), max(1, _BLOCK // (n // 2 + 1))
            for idx in np.split(group, range(rows, group.size, rows)):
                values[idx] = _circle_sum(_quadrant_modes(fa, fb, t[idx, None], n), weight)
        return values, 2 * counts
    head, last = ProductMeasure(mu.factors[:-1], mu.dims[:-1]), mu.factors[-1]
    for n in np.unique(polar).tolist():
        cos_t, sin_t, w = _theta_rule(n)
        kernel = 2.0 * w * cos_t ** (d - 2) * (sin_t if weight == "sin_theta" else 1.0)
        group, rows = np.flatnonzero(polar == n), max(1, _BLOCK // n)
        for idx in np.split(group, range(rows, group.size, rows)):
            tr = t[idx, None]
            inner, inner_nodes = _sigma_many(head, (tr * cos_t).ravel(), "none")
            f = inner.reshape(idx.size, n) * last.power_spectrum(tr * sin_t)
            values[idx] = np.einsum("ij,j->i", f, kernel)  # a fixed order per row
            nodes[idx] = inner_nodes.reshape(idx.size, n).sum(axis=1)
    return values, nodes


def spherical_average_detailed(
    mu: ProductMeasure,
    t: float,
    weight: str = "none",
) -> tuple[float, int]:
    """sigma(t) = int_{S^(d-1)} |mu_hat(t omega)|^2 w(omega) domega.

    Weight 'sin_theta' multiplies by |sin theta| (d = 2) or by the distance
    of omega from the hyperplane x_d = 0, i.e. |omega_d| (d >= 3); 'none'
    by 1. Returns (value, node_count) of _sigma_many on the one t: d = 2 is
    the exact band-limited sum, 2n nodes for n samples of [0, pi); d >= 3
    the product rule over it, whose node count is the points it evaluates.
    Past its node cap either raises BudgetError.
    """
    values, nodes = _sigma_many(mu, [t], weight)
    return float(values[0]), int(nodes[0])


def spherical_average(
    mu: ProductMeasure,
    t: float,
    weight: str = "none",
) -> float:
    value, _ = spherical_average_detailed(mu, t, weight)
    return value


@dataclass(frozen=True)
class SphericalAverageSeries:
    """sigma(t) over a geometric t sweep plus the fitted log-log decay."""

    t_values: tuple[float, ...]
    values: tuple[float, ...]
    weight: str
    node_counts: tuple[int, ...]
    fitted_decay: float
    fit_stderr: float


def spherical_average_series(
    mu: ProductMeasure,
    t_values,
    weight: str = "none",
) -> SphericalAverageSeries:
    ts = [float(t) for t in t_values]
    if len(ts) < 3:
        raise ValidationError("need at least 3 t values for a decay fit")
    values, nodes = (a.tolist() for a in _sigma_many(mu, ts, weight))
    fit = loglog_fit(ts, values)
    return SphericalAverageSeries(
        t_values=tuple(ts),
        values=tuple(values),
        weight=weight,
        node_counts=tuple(nodes),
        fitted_decay=fit.slope,
        fit_stderr=fit.stderr,
    )


def solid_average(nu: GridMeasure, t: float, interval: tuple[float, float] = (-1.0, 1.0)) -> float:
    """int_a^b |nu_hat(t u)|^2 du on quadrature.gauss_legendre_panels, no
    refinement: |nu_hat(t u)|^2 = sum_g p(g) cos(2 pi t u g) over the gap
    pmf p has type 2 pi t diam in u and sup 1, so P = ceil((b - a) 2 pi t
    diam / 24) panels err by at most 5e-24 (b - a) / 2. Measured, within
    4.4e-15 of the exact gap sum. Past 2**22 nodes (t diam (b - a) about
    6.7e5), BudgetError before any evaluation."""
    a, b = float(interval[0]), float(interval[1])
    if not 1.0 <= t < math.inf:
        raise ValidationError(f"t must be >= 1 and finite, got {t}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError(f"interval must be finite, got {interval}")
    if not b > a:
        raise ValidationError(f"empty interval [{a}, {b}]")
    coarse, fine, w, width = gauss_legendre_panels(a, b, 2.0 * np.pi * t * nu.diameter, "solid average")
    return width * float(np.sum(nu.power_spectrum(t * (coarse[:, None] + fine)) * w))


# ---------------------------------------------------------------------------
# Stationary phase on the circle
# ---------------------------------------------------------------------------

def _circle_phase_integral(gap: np.ndarray, t: float) -> complex:
    """int_0^{2pi} exp(2 pi i t (gap . omega)) |sin theta| dtheta, within
    1e-12 absolute (the imaginary part is 0): _circle_sum of
    F = cos(2 pi t gap . omega), which is pi-periodic and band-limited at
    x = 2 pi t|gap|, on _circle_samples(x) points of [0, pi)."""
    x = 2.0 * np.pi * t * float(np.hypot(gap[0], gap[1]))
    n = _circle_samples(x)
    # [0, pi/2] mirrored: half the trigonometry, and reflected gaps permute the samples
    half = np.pi * np.arange(n // 2 + 1) / n
    cos_h, sin_h = np.cos(half), np.sin(half)
    cos_t = np.concatenate((cos_h, -cos_h[-2:0:-1]))
    sin_t = np.concatenate((sin_h, sin_h[-2:0:-1]))
    f = np.cos(2.0 * np.pi * t * (gap[0] * cos_t + gap[1] * sin_t))
    return complex(_circle_sum(_circle_modes(f), "sin_theta"))


def _check_gap(gap) -> tuple[np.ndarray, float]:
    g = np.asarray(gap, dtype=float)
    if g.shape != (2,):
        raise ValidationError("gap must be a 2-vector (the check is d = 2 only)")
    norm = float(np.hypot(g[0], g[1]))
    if not 0.0 < norm < math.inf:
        raise ValidationError("gap must be nonzero and finite")
    return g, norm


def stationary_phase_main_term(gap, t):
    """Leading term 2 (t|g|)^(-1/2) cos(2 pi (t|g| - 1/8)) |sin theta_g|,
    where theta_g is the angle between the gap vector and the x-axis.
    Vectorized in t, every t positive and finite."""
    g, norm = _check_gap(gap)
    t = np.asarray(t, dtype=float)
    if not ((t > 0.0) & (t < math.inf)).all():
        raise ValidationError("t values must be positive and finite")
    x = t * norm
    sin_gap = abs(g[1]) / norm
    return 2.0 * x ** (-0.5) * np.cos(2.0 * np.pi * (x - 0.125)) * sin_gap


FIT_WINDOW = (1.0e2, 1.0e4)  # in t*|gap|; below ~10 is pre-asymptotic


@dataclass(frozen=True)
class StationaryPhaseReport:
    gap: tuple[float, float]
    t_values: tuple[float, ...]
    exact: tuple[complex, ...]
    main: tuple[float, ...]
    residuals: tuple[complex, ...]
    fit_window: tuple[float, float]
    residual_slope: float | None
    residual_stderr: float | None


def stationary_phase_check(gap, t_values) -> StationaryPhaseReport:
    """Compare the oscillatory circle integral with its main term across a
    t sweep and fit the residual decay inside the declared window. The
    circle integral is exact to 1e-12; t|g| past ~2.6e6 raises BudgetError."""
    g, norm = _check_gap(gap)
    ts = [float(t) for t in t_values]
    main = [float(stationary_phase_main_term(g, t)) for t in ts]  # checks each t first
    exact = [_circle_phase_integral(g, t) for t in ts]
    resid = [e - m for e, m in zip(exact, main)]
    xs = [t * norm for t in ts]
    lo, hi = FIT_WINDOW
    pts = [(x, abs(r)) for x, r in zip(xs, resid) if lo <= x <= hi and abs(r) > 0]
    slope = stderr = None
    if len(pts) >= 3:
        fit = loglog_fit(*zip(*pts))
        slope, stderr = fit.slope, fit.stderr
    return StationaryPhaseReport(
        gap=(float(g[0]), float(g[1])),
        t_values=tuple(ts),
        exact=tuple(exact),
        main=tuple(main),
        residuals=tuple(resid),
        fit_window=FIT_WINDOW,
        residual_slope=slope,
        residual_stderr=stderr,
    )


# ---------------------------------------------------------------------------
# Angular decomposition of the quadrant average
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngularDecomposition:
    """Split of int_0^{pi/2} |nu_A_hat(t cos)|^2 |nu_B_hat(t sin)|^2 dtheta
    into the sectors [0, eps], [eps, pi/2 - eps], [pi/2 - eps, pi/2] with
    eps = t^(-gamma0), plus the Cauchy-Schwarz majorant of the middle sector
    through the smoothed fourth moments of the factors."""

    t: float
    gamma0: float
    eps: float
    near_zero: float
    near_half_pi: float
    middle: float
    smoothed_moment_a: float  # quantity I
    smoothed_moment_b: float  # quantity II
    cs_constant: float
    cs_bound: float

    @property
    def quadrant_total(self) -> float:
        return self.near_zero + self.near_half_pi + self.middle


def angular_decomposition(
    mu: ProductMeasure, t: float, gamma0: float, cutoff: CutoffFunction
) -> AngularDecomposition:
    """Decompose the quadrant average at angular cut eps = t^(-gamma0).

    Each sector is exact from the modes of sigma's circle sum
    (_quadrant_modes): int_a^b F = c_0 (b - a) + sum_k c'_k (sin 2kb -
    sin 2ka) / (2k).

    The middle sector obeys middle <= C t^gamma0 sqrt(I * II) with
    C = (pi/2) / min_{[-1,1]} psi_hat: Cauchy-Schwarz in theta, then the
    substitutions u = cos theta / u = sin theta (whose Jacobians are bounded
    by (pi/2) t^gamma0 away from the poles), then domination of the
    restricted u-integrals by the psi_hat-smoothed ones. The cutoff scale
    must exceed 1 so psi_hat is bounded below on [-1, 1]. I and II are the
    Fourier side of smoothed_energy (energy._fourth_moment_quadrature: about
    8 pi t diam nodes, no gap table), within 3.4e-15 of its space side.
    Checked before any power_spectrum, past either cap BudgetError: 2**24
    circle samples (t hypot(diam_a, diam_b) about 2.6e6) and 2**22 panel
    nodes (t diam about 1.7e5 at Fejer scale 2, where the space side refused
    any level whose sumset grid passed 2**24).
    """
    if mu.dimension != 2:
        raise ValidationError("angular decomposition is defined for d = 2 products")
    if not 0.0 < gamma0 < 0.5:
        raise ValidationError(f"gamma0 must lie in (0, 1/2), got {gamma0}")
    if not 1.0 <= t < math.inf:
        raise ValidationError(f"t must be >= 1 and finite, got {t}")
    require_under_cap(mu, t, f"t={t}")
    eps = t ** (-gamma0)
    if not eps < np.pi / 4:
        t_min = (4.0 / np.pi) ** (1.0 / gamma0)
        raise ValidationError(
            f"t^(-gamma0) = {eps:.4f} >= pi/4; the three sectors are not "
            f"disjoint (need t > {t_min:.4g} for gamma0 = {gamma0})"
        )
    psi_hat_min = cutoff.transform_min_on_unit_interval()
    if psi_hat_min <= 0.0:
        raise ValidationError(
            "cutoff transform must be positive on [-1, 1]: use a scale > 1"
        )
    fa, fb = mu.factors
    n = _circle_samples(2.0 * np.pi * t * math.hypot(fa.diameter, fb.diameter))
    # wider factor first: its panel budget bounds the other's; A x A shares one
    factors = {id(f): f for f in sorted((fa, fb), key=lambda f: -f.diameter)}
    moments = {key: _fourth_moment_quadrature(f, t, cutoff) for key, f in factors.items()}
    moment_a, moment_b = moments[id(fa)], moments[id(fb)]
    c = _quadrant_modes(fa, fb, np.array([[t]]), n)[0]
    # F = c_0 + sum_k c'_k cos(2k theta), c'_k = 2 c_k with the Nyquist mode once
    cp, k2 = 2.0 * c[1:], 2.0 * np.arange(1, c.size)
    cp[-1] = c[-1]
    a, b = np.array([[0.0, eps], [np.pi / 2.0 - eps, np.pi / 2.0], [eps, np.pi / 2.0 - eps]]).T
    sines = (np.sin(k2 * b[:, None]) - np.sin(k2 * a[:, None])) / k2
    near_zero, near_half_pi, middle = (c[0] * (b - a) + np.einsum("ij,j->i", sines, cp)).tolist()
    cs_constant = (np.pi / 2.0) / psi_hat_min
    cs_bound = cs_constant * t**gamma0 * math.sqrt(moment_a * moment_b)
    return AngularDecomposition(
        t=float(t),
        gamma0=float(gamma0),
        eps=float(eps),
        near_zero=near_zero,
        near_half_pi=near_half_pi,
        middle=middle,
        smoothed_moment_a=moment_a,
        smoothed_moment_b=moment_b,
        cs_constant=float(cs_constant),
        cs_bound=float(cs_bound),
    )
