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

Every d = 2 circle integral is a band-limited sum of n equispaced samples of
[0, pi), exact to rounding, never refined, refused past _MAX_SAMPLES: sigma(t)
under each weight, the stationary-phase integral and the three angular
sectors are each one dot of samples on [0, pi/2] with a weight vector, built
once per n of a call: folded from the weight's cosine moments (_fold), but w =
1 in closed form; no FFT of the samples is taken. sigma for d >= 3 is one
product rule, Gauss-Legendre in the polar angle of the last axis over sigma
of the first d - 1 factors, ending in the d = 2 sum.
sigma is evaluated on arrays of t (_sigma_many: one t, a sweep, or every node
of a Mattila integral) in row blocks of at most energy._BLOCK samples or
polar nodes. The solid average and the majorant's smoothed moments take
a-priori Gauss-Legendre panels (quadrature.gauss_legendre_panels); nothing
here refines.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cutoff import CutoffFunction
from .energy import _BLOCK, _fourth_moment_quadrature
from .errors import ValidationError, ValidityCapError, over_budget
from .fitting import loglog_fit
from .measures import GridMeasure, ProductMeasure
from .quadrature import _panel_rule, gauss_legendre_panels

# the angular weights: 1, and |sin theta| (|omega_d| for d >= 3)
_WEIGHTS = ("none", "sin_theta")
_MAX_SAMPLES = 1 << 24  # circle samples (d = 2) or sphere nodes (d >= 3) of one t
_MAX_BATCH = 1 << 27  # that work summed over the t of one _sigma_many call


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
    need = x + 10.0 * x ** (1.0 / 3.0) + 40.0  # past the cap at t|g| above about 2.6e6
    first = np.append(np.ravel(need)[~(np.ravel(need) <= _MAX_SAMPLES)], 0.0)[0]  # the first past it, or 0
    over_budget(f"a circle sum needs {first:.6g} samples", first, _MAX_SAMPLES, "lower t")
    # frexp's exponent of an integer m >= 1 is m.bit_length()
    return 1 << np.frexp(np.ceil(need) - 1.0)[1].astype(int)


def _share_key(f: GridMeasure) -> object:
    """Factors with one key have one transform: their CantorSpec, else their id."""
    return f.spec if f.spec is not None else id(f)


def _quadrant_samples(fa: GridMeasure, fb: GridMeasure, tr: np.ndarray, n: int) -> np.ndarray:
    """F(theta) = |nu_a_hat(t cos theta)|^2 |nu_b_hat(t sin theta)|^2 at
    theta_m = pi m / n, m = 0..n/2, a row per t of the column tr. sin theta_m
    is read as cos theta_(n/2 - m), so one cosine table serves both factors;
    factors of one _share_key run one Riesz product, fb's values fa's reversed."""
    cos_h = np.cos(np.pi * np.arange(n // 2 + 1) / n)
    fa_values = fa.power_spectrum(tr * cos_h)
    if _share_key(fb) == _share_key(fa):
        return fa_values * fa_values[:, ::-1]
    return fa_values * fb.power_spectrum(tr * cos_h[::-1])


def _fold(moments: np.ndarray) -> np.ndarray:
    """H_m, m = 0..n/2 with n = 2 (moments.size - 1): int_0^{2pi} F w =
    sum_m H_m F(pi m / n) for F pi-periodic, even and with no mode past n/2
    that shows, from w's cosine moments W_k = int_0^{2pi} cos(2k theta) w,
    k = 0..n/2. Over all n samples the weights are K = irfft(W); F(pi -
    theta) = F(theta) folds them onto H_m = 2 K_m between the ends."""
    n = 2 * (moments.size - 1)
    h = np.fft.irfft(moments, n)[: n // 2 + 1]
    h[1:-1] *= 2.0
    return h


def _half_weights(n: int, weight: str) -> np.ndarray:
    """_fold of |sin theta| (W_k = -4/(4k^2 - 1)), or w = 1 in closed form
    (H_0 = H_(n/2) = 2 pi/n, H_m = 4 pi/n, bitwise _fold of W_0 = 2 pi), for
    n samples, built once per distinct n of a call; nothing is kept."""
    if weight == "none":
        h = np.full(n // 2 + 1, 4.0 * np.pi / n)
        h[0] = h[-1] = 2.0 * np.pi / n
        return h
    k = np.arange(n // 2 + 1, dtype=float)
    return _fold(-4.0 / (4.0 * k * k - 1.0))


def _sector_weights(n: int, eps: float) -> np.ndarray:
    """Half-grid weights of [0, eps], [pi/2 - eps, pi/2], [eps, pi/2 - eps]:
    h = _fold of W_0 = eps, W_k = sin(2k eps)/(2k); h reversed, theta_m ->
    theta_(n/2 - m) being theta -> pi/2 - theta; _half_weights(n, 'none') / 4 less both."""
    k2 = 2.0 * np.arange(1, n // 2 + 1)
    h = _fold(np.concatenate(([eps], np.sin(k2 * eps) / k2)))
    return np.stack((h, h[::-1], _half_weights(n, "none") / 4.0 - h - h[::-1]))


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


def _sigma_many(mu: ProductMeasure, ts, weight: str, remedy: str) -> tuple[np.ndarray, np.ndarray]:
    """sigma_w at every t of ts, checked before any is evaluated: (values,
    node counts), each t's value the same to the bit in any batch. Every t
    has a band limit R = 2 pi t |diam|, |diam| the hypot of the factor
    diameters, and n = _circle_samples(R).
    d = 2: F(theta) = |nu_a_hat(t cos theta)|^2 |nu_b_hat(t sin theta)|^2 is
    a sum of cos(2 pi t g . omega) over gap vectors g, so it is pi-periodic,
    even, symmetric about pi/2 and band-limited at R; the t sharing n go in
    blocks, one _quadrant_samples per block, each row's value one dot in a
    fixed order with _half_weights(n), built once per n, on 2n nodes.
    d >= 3: omega = (cos theta omega', sin theta) and evenness in omega_d give
    sigma_d(t) = 2 int_0^{pi/2} cos^(d-2) theta |nu_d_hat(t sin theta)|^2
    sigma_{d-1}(t cos theta) dtheta, times sin theta = |omega_d| under
    'sin_theta', with sigma_{d-1} the unweighted sigma of the first d - 1
    factors (Atkinson-Han 2012, a product rule on the sphere). The t sharing
    n take n // 2 + 1 Gauss-Legendre nodes in theta, in blocks, each block's
    inner sigma one call on all its t cos theta; the node count is the sum of
    the inner ones. over_budget refuses a t whose work n_theta^(d-2) n
    passes _MAX_SAMPLES, then a batch whose summed work passes _MAX_BATCH,
    each with the caller's remedy (the knob that sets its t)."""
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
    work = polar.astype(float) ** (d - 2) * counts  # nondecreasing in t: the largest t works most
    over_budget(f"sphere rule at t={t.max(initial=0.0)} needs {work.max(initial=0.0):.3g} nodes in d = {d}",
                work.max(initial=0.0), _MAX_SAMPLES, remedy)
    over_budget(f"sigma at {t.size} values of t needs {work.sum():.3g} circle samples", work.sum(),
                _MAX_BATCH, remedy)
    values, nodes = np.empty(t.size), np.empty(t.size, dtype=int)
    if d == 2:
        fa, fb = mu.factors
        for n in np.unique(counts).tolist():
            h = _half_weights(n, weight)
            group, rows = np.flatnonzero(counts == n), max(1, _BLOCK // (n // 2 + 1))
            for idx in np.split(group, range(rows, group.size, rows)):
                values[idx] = np.einsum("ij,j->i", _quadrant_samples(fa, fb, t[idx, None], n), h)
        return values, 2 * counts
    head, last = ProductMeasure(mu.factors[:-1], mu.dims[:-1]), mu.factors[-1]
    for n in np.unique(polar).tolist():
        cos_t, sin_t, w = _theta_rule(n)
        kernel = 2.0 * w * cos_t ** (d - 2) * (sin_t if weight == "sin_theta" else 1.0)
        group, rows = np.flatnonzero(polar == n), max(1, _BLOCK // n)
        for idx in np.split(group, range(rows, group.size, rows)):
            tr = t[idx, None]
            inner, inner_nodes = _sigma_many(head, (tr * cos_t).ravel(), "none", remedy)
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
    Past either budget of _sigma_many, BudgetError.
    """
    values, nodes = _sigma_many(mu, [t], weight, "lower t")
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
    values, nodes = (a.tolist() for a in _sigma_many(mu, ts, weight, "lower t"))
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
    4.4e-15 of the exact gap sum. Past the panels' node budget (t diam (b -
    a) about 6.7e5), BudgetError before any evaluation."""
    a, b = float(interval[0]), float(interval[1])
    if not 1.0 <= t < math.inf:
        raise ValidationError(f"t must be >= 1 and finite, got {t}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError(f"interval must be finite, got {interval}")
    if not b > a:
        raise ValidationError(f"empty interval [{a}, {b}]")
    coarse, fine, w, width = gauss_legendre_panels(
        a, b, 2.0 * np.pi * t * nu.diameter, "solid average", "lower t or narrow --interval")
    return width * float(np.sum(nu.power_spectrum(t * (coarse[:, None] + fine)) * w))


# ---------------------------------------------------------------------------
# Stationary phase on the circle
# ---------------------------------------------------------------------------

def _turns(u: np.ndarray) -> np.ndarray:
    """2 pi (u - rint(u)): the angle of u cycles, reduced mod 1 exactly."""
    return (2.0 * np.pi) * (u - np.rint(u))


def _circle_phase_integral(gap: np.ndarray, t: float, cos_h: np.ndarray, h: np.ndarray) -> complex:
    """int_0^{2pi} exp(2 pi i t (gap . omega)) |sin theta| dtheta, within
    1e-12 absolute (the imaginary part is 0), for h = _half_weights(n,
    'sin_theta') and cos_h = cos(pi m / n), m = 0..n/2, n = _circle_samples(2
    pi t|gap|). F_g = cos(2 pi t g . omega) is pi-periodic, band-limited at 2
    pi t|g|, and F_g(pi - theta) = F_g'(theta), g' = (-g_x, g_y): the integral
    is (1/2) sum_m H_m (F_g + F_g')(theta_m), F_g + F_g' = 2 cos(2 pi t g_x cos
    theta) cos(2 pi t g_y sin theta), each phase reduced mod 1 exactly before
    its cosine; when g_x = 0 or |g_x| = |g_y| one cosine per sample serves."""
    cx = np.cos(_turns((t * gap[0]) * cos_h)) if gap[0] else 1.0
    if abs(gap[0]) == abs(gap[1]):
        cy = cx[::-1]
    else:
        cy = np.cos(_turns((t * gap[1]) * cos_h[::-1])) if gap[1] else 1.0
    return complex(np.dot(cx * cy, h))


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
    circle integral is exact to 1e-12, refused past t|g| ~2.6e6 (_MAX_SAMPLES)."""
    g, norm = _check_gap(gap)
    ts = [float(t) for t in t_values]
    main = [float(stationary_phase_main_term(g, t)) for t in ts]  # checks each t first
    counts = _circle_samples(2.0 * np.pi * np.array(ts) * norm).tolist()
    weights = {n: _half_weights(n, "sin_theta") for n in set(counts)}
    # one cosine table at the largest n; its stride top // n is n's, bitwise
    top = max(counts, default=2)
    cos_h = np.cos(np.pi * np.arange(top // 2 + 1) / top)
    exact = [_circle_phase_integral(g, t, cos_h[:: top // n], weights[n]) for t, n in zip(ts, counts)]
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


def angular_cut(gamma0: float) -> float:
    """t_min = (4/pi)^(1/gamma0), in logs so that one past the floats is inf:
    the three sectors are disjoint, t^(-gamma0) < pi/4, just when t > t_min."""
    try:
        return math.exp(math.log(4.0 / math.pi) / gamma0)
    except OverflowError:
        return math.inf


def angular_decomposition(
    mu: ProductMeasure, t: float, gamma0: float, cutoff: CutoffFunction
) -> AngularDecomposition:
    """Decompose the quadrant average at angular cut eps = t^(-gamma0).

    Each sector is one dot of sigma's half-grid samples (_quadrant_samples)
    with a row of _sector_weights, exact to rounding.

    The middle sector obeys middle <= C t^gamma0 sqrt(I * II) with
    C = (pi/2) / min_{[-1,1]} psi_hat: Cauchy-Schwarz in theta, then the
    substitutions u = cos theta / u = sin theta (whose Jacobians are bounded
    by (pi/2) t^gamma0 away from the poles), then domination of the
    restricted u-integrals by the psi_hat-smoothed ones. The cutoff scale
    must exceed 1 so psi_hat is bounded below on [-1, 1]. I and II are the
    Fourier side of smoothed_energy (energy._fourth_moment_quadrature: about
    8 pi t diam nodes, no gap table), within 3.4e-15 of its space side.
    Both budgets are checked before any power_spectrum: _MAX_SAMPLES (t
    hypot(diam_a, diam_b) about 2.6e6) and the panels' nodes (t diam about
    1.7e5 at Fejer scale 2).
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
        raise ValidationError(
            f"t^(-gamma0) = {eps:.4f} >= pi/4; the three sectors are not "
            f"disjoint (need t > {angular_cut(gamma0):.4g} for gamma0 = {gamma0})"
        )
    psi_hat_min = cutoff.transform_min_on_unit_interval()
    if psi_hat_min <= 0.0:
        raise ValidationError(
            "cutoff transform must be positive on [-1, 1]: use a scale > 1"
        )
    fa, fb = mu.factors
    n = _circle_samples(2.0 * np.pi * t * math.hypot(fa.diameter, fb.diameter))
    # wider factor first: its panel budget bounds the other's; A x A shares one
    factors = {_share_key(f): f for f in sorted((fa, fb), key=lambda f: -f.diameter)}
    moments = {key: _fourth_moment_quadrature(f, t, cutoff) for key, f in factors.items()}
    moment_a, moment_b = moments[_share_key(fa)], moments[_share_key(fb)]
    f = _quadrant_samples(fa, fb, np.array([[t]]), n)[0]
    near_zero, near_half_pi, middle = np.einsum("ij,j->i", _sector_weights(n, eps), f).tolist()
    cs_constant = (np.pi / 2.0) / psi_hat_min
    cs_bound = cs_constant * t**gamma0 * math.sqrt(moment_a * moment_b)
    return AngularDecomposition(
        t=float(t), gamma0=float(gamma0), eps=float(eps),
        near_zero=near_zero, near_half_pi=near_half_pi, middle=middle,
        smoothed_moment_a=moment_a, smoothed_moment_b=moment_b,
        cs_constant=float(cs_constant), cs_bound=float(cs_bound),
    )
