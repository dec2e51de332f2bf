"""Distance measures, truncated Mattila integrals, energy integrals, and the
dimension-threshold arithmetic for product sets.

Conventions that matter here: pairs with x = y are excluded from the energy
integral I_s (it diverges on atoms otherwise) and carry zero weight in the
weighted distance measure; they are included, and reported separately, in
the unweighted distance measure. Threshold arithmetic is carried out in exact
rationals whenever the inputs are rational.

Pair functionals sum over the product of the factors' folded gap pmfs, never
over pairs of product atoms. Every route and oracle bins a pair the same way:
c_j = |gap index| * delta_j on each axis, then sqrt(sum_j c_j**2), then / h,
floored (left-closed bins), in chunks of >= _BLOCK cells, each built by rows
(head cells broadcast against the last axis). pair_budget bounds three
counts, each checked before the work or memory it bounds: distance_measure's
bins int(max distance / h) + 2, every factor's atom pairs N_j**2, the gap cells.

The truncated Mattila integral takes sigma from fourier._sigma_many, an exact
rule in every dimension (the circle sum for d = 2, a product rule over it for
d >= 3), and its t integral a-priori Gauss-Legendre panels: nothing refines.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import pairwise
from typing import Sequence

import numpy as np

from .energy import _BLOCK, dz_beta
from .errors import BudgetError, ValidationError
from .fitting import loglog_fit
from .fourier import _sigma_many, require_under_cap
from .measures import GridMeasure, ProductMeasure
from .quadrature import gauss_legendre_panels

DEFAULT_PAIR_BUDGET = 400_000_000


def product_atoms(mu: ProductMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Expand a product measure into explicit atoms: positions (N, d) and
    weights (N,), in C order over the factor grids."""
    pos_axes = [f.positions for f in mu.factors]
    w_axes = [f.weights for f in mu.factors]
    grids = np.meshgrid(*pos_axes, indexing="ij")
    positions = np.stack([g.ravel() for g in grids], axis=-1)
    weights = w_axes[0]
    for wa in w_axes[1:]:
        weights = np.multiply.outer(weights, wa)
    return positions, weights.ravel()


def _check_budget(what: str, count: int, pair_budget: int,
                  remedy: str = "coarsen the factor levels") -> None:
    if count > pair_budget:
        raise BudgetError(f"{what}, over the budget {pair_budget:.3g}; {remedy}")


@dataclass(frozen=True, eq=False)
class DistanceMeasure:
    """Histogram of pairwise distances of a product measure.

    masses[k] is the mass of the bin [k*h, (k+1)*h). When weighted, each
    pair carries the factor |x_2 - y_2| / |x - y| (zero on the diagonal by
    convention), so the total mass is at most 1.
    """

    bin_width: float
    masses: np.ndarray
    weighted: bool
    total_mass: float
    diagonal_mass: float

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.masses, dtype=float))
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)

    @property
    def bins(self) -> dict[int, float]:
        nz = np.nonzero(self.masses)[0]
        return {int(k): float(self.masses[k]) for k in nz}

    def bin_left(self, k: int) -> float:
        return k * self.bin_width


def _gap_pmf(nu: GridMeasure, pair_budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Folded gap pmf of one factor: its distinct |i - j| over ordered atom
    pairs, times delta, with masses sum w_i w_j. Row blocks merge as they
    come, so memory is the distinct gaps plus one block, not the grid."""
    n = nu.atom_count
    _check_budget(f"{n} atoms give {n * n:.3g} pairs on one axis", n * n, pair_budget)
    idx, w = nu.indices, nu.weights
    rows = max(1, (1 << 21) // n)
    gaps, masses = np.zeros(0, dtype=np.int64), np.zeros(0)
    for start in range(0, n, rows):
        block = np.abs(idx[start : start + rows, None] - idx[None, :]).ravel()
        gaps, inverse = np.unique(np.concatenate((gaps, block)), return_inverse=True)
        wpair = (w[start : start + rows, None] * w[None, :]).ravel()
        masses = np.bincount(inverse, weights=np.concatenate((masses, wpair)))
    return gaps * nu.delta, masses


def _gap_cells(factors: Sequence[GridMeasure], pair_budget: int, block: int):
    """Chunks of `block` cells of the product of the factors' gap pmfs, in C
    order: a function forming the last axis's coordinates (only the weighted
    distance measure reads them), distances sqrt(sum_j c_j**2) and masses.
    Head cells (over the first d - 1 axes) get their sums of squares and
    mass products once per chunk, broadcast against the last axis, so each
    sum and product runs left to right over the axes, as cell by cell. The
    first cell is the diagonal."""
    pmfs = [_gap_pmf(f, pair_budget) for f in factors]
    shape = tuple(gaps.size for gaps, _ in pmfs)
    cells = math.prod(shape)
    _check_budget(f"the per-axis gap pmfs give {cells:.3g} cells", cells, pair_budget)
    last_gaps, last_masses = pmfs[-1]
    last_sq = last_gaps * last_gaps
    width = last_gaps.size
    for start in range(0, cells, block):
        stop = min(start + block, cells)
        rows = np.arange(start // width, -(-stop // width))
        ids = np.unravel_index(rows, shape[:-1]) if len(shape) > 1 else ()
        head_sq = sum((gaps[i] * gaps[i] for (gaps, _), i in zip(pmfs, ids)), np.zeros(rows.size))
        head_mass = math.prod((masses[i] for (_, masses), i in zip(pmfs, ids)),
                              start=np.ones(rows.size))
        cut = (start % width, stop - start)
        dist = np.sqrt(_by_rows(np.add, head_sq, last_sq, *cut))
        mass = _by_rows(np.multiply, head_mass, last_masses, *cut)
        yield partial(_by_rows, _take_last, head_sq, last_gaps, *cut), dist, mass


def _take_last(head, last, out):
    np.copyto(out, last)


def _by_rows(fill, head, last, skip, n):
    """n cells of the row-major table fill(head[:, None], last), from column
    `skip` of row 0: the rest of row 0, then whole rows, then the start of
    one more, each one broadcast fill into its stretch of the output."""
    out = np.empty(n)
    width = last.size
    first = min(width - skip, n)
    full, rest = divmod(n - first, width)
    fill(head[0], last[skip : skip + first], out=out[:first])
    fill(head[1 : full + 1, None], last, out=out[first : n - rest].reshape(full, width))
    fill(head[full + 1 :], last[:rest], out=out[n - rest :])
    return out


def distance_measure(
    mu: ProductMeasure,
    h: float,
    weighted: bool = False,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> DistanceMeasure:
    """Exhaustive pairwise distance histogram with bin width h."""
    if not 0 < h < math.inf:
        raise ValidationError(f"bin width must be positive and finite, got {h}")
    if weighted and mu.dimension != 2:
        raise ValidationError("the weighted distance measure is defined for d = 2")
    # a factor's diameter is its largest gap, by the cells' own expression
    max_dist = float(np.sqrt(sum(f.diameter * f.diameter for f in mu.factors)))
    bins = int(min(max_dist / h, pair_budget)) + 2  # min first: a subnormal h gives inf
    _check_budget(f"bin width {h:g} gives {max_dist / h + 2:.3g} bins", bins, pair_budget,
                  "widen the bin width")
    acc = np.zeros(bins)
    # chunks of at least the bin count keep each bincount's cost within its cells
    cells = _gap_cells(mu.factors, pair_budget, max(_BLOCK, acc.size))
    for k, (last, dist, mass) in enumerate(cells):
        if weighted:  # d = 2: the last axis is the second
            mass = mass * np.divide(last(), dist, out=np.zeros_like(dist), where=dist > 0.0)
        if k == 0:
            diagonal = float(mass[0])  # the first cell; zero once weighted
        acc += np.bincount((dist / h).astype(np.int64), weights=mass, minlength=acc.size)
    return DistanceMeasure(
        bin_width=float(h),
        masses=acc,
        weighted=bool(weighted),
        total_mass=float(np.sum(acc)),
        diagonal_mass=diagonal,
    )


def weighted_mass(mu: ProductMeasure, pair_budget: int = DEFAULT_PAIR_BUDGET) -> float:
    """iint |x_2 - y_2| / |x - y| dmu dmu, the total mass of the weighted
    distance measure; strictly positive exactly when the second coordinate
    of the product is non-degenerate."""
    return distance_measure(mu, 1.0, weighted=True, pair_budget=pair_budget).total_mass


def energy_integral(
    mu: GridMeasure | ProductMeasure, s: float, pair_budget: int = DEFAULT_PAIR_BUDGET
) -> float:
    """I_s = sum over pairs x != y of w_x w_y |x - y|^(-s); the diagonal is
    excluded by convention (it diverges on atoms otherwise). A grid measure
    is the one-factor case."""
    if not 0 <= s < math.inf:
        raise ValidationError(f"s must be nonnegative and finite, got {s}")
    factors = (mu,) if isinstance(mu, GridMeasure) else mu.factors
    total = 0.0
    for k, (_, dist, mass) in enumerate(_gap_cells(factors, pair_budget, _BLOCK)):
        off = slice(1 if k == 0 else 0, None)  # the first cell is the diagonal
        total += float(np.sum(mass[off] * dist[off] ** (-s)))
    return total


# ---------------------------------------------------------------------------
# Truncated Mattila integral
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MattilaEstimate:
    """value = int_1^T sigma_w(t)^2 t^(d-1) dt; t_values are the quadrature
    nodes, increasing, and partial_values the running weighted sum there.

    Convergence of the full integral is diagnosed, never asserted: the
    integrand slope must drop below -1 and the doubling ratios
    value(T/4)/value(T/8), ..., value(T)/value(T/2) must approach 1.
    """

    truncation: float
    value: float
    weighted: bool
    dimension: int
    t_values: np.ndarray
    sigma: np.ndarray
    integrand: np.ndarray
    partial_values: np.ndarray
    integrand_slope: float
    slope_stderr: float
    doubling_ratios: tuple[float, ...]
    t_nodes: int

    @property
    def t_grid_converged(self) -> bool:
        """Always True: the t rule is a-priori and refines nothing. Kept
        read-only for the bench harness, which reads it."""
        return True


def mattila_truncated(
    mu: ProductMeasure,
    truncation: float,
    weighted: bool = True,
) -> MattilaEstimate:
    """Evaluate the truncated Mattila integral, under the |sin theta| weight
    (|omega_d| for d >= 3) when weighted, else unweighted.

    sigma_w(t) is entire of exponential type 2 pi |diam| (|diam| the hypot
    of the factor diameters), so the integrand has type 4 pi |diam| times
    t^(d-1). Each of [1, T/8], [T/8, T/4], [T/4, T/2], [T/2, T] (ends <= 1
    dropped) takes quadrature.gauss_legendre_panels of that type, all of
    them budget-checked before one fourier._sigma_many call on every node
    (which checks every t first and gives each t its value alone). No
    refinement: the doubling ratios are ratios of the running sum at each
    sub-interval's last node.
    """
    T = float(truncation)
    if not 1.0 < T < math.inf:
        raise ValidationError(f"truncation must be > 1 and finite, got {T}")
    require_under_cap(mu, T, f"truncation {T}")
    d = mu.dimension
    tau = 4.0 * math.pi * math.hypot(*(f.diameter for f in mu.factors))
    ends = [1.0, *(c for c in (T / 8.0, T / 4.0, T / 2.0) if c > 1.0), T]
    rules = [gauss_legendre_panels(a, b, tau, "Mattila t integral") for a, b in pairwise(ends)]
    nodes = [(coarse[:, None] + fine).ravel() for coarse, fine, _, _ in rules]
    hw = np.concatenate([np.tile(width * w, coarse.size) for coarse, _, w, width in rules])
    ts = np.concatenate(nodes)
    sig = _sigma_many(mu, ts, "sin_theta" if weighted else "none")[0]
    integ = sig**2 * ts ** (d - 1)
    partials = np.cumsum(hw * integ)
    at_ends = partials[np.cumsum([n.size for n in nodes]) - 1].tolist()
    ratios = [cur / prev for prev, cur in pairwise(at_ends) if prev > 0.0]
    fit = loglog_fit(ts[integ > 0], integ[integ > 0])
    return MattilaEstimate(
        truncation=T,
        value=float(partials[-1]),
        weighted=bool(weighted),
        dimension=d,
        t_values=ts,
        sigma=sig,
        integrand=integ,
        partial_values=partials,
        integrand_slope=fit.slope,
        slope_stderr=fit.stderr,
        doubling_ratios=tuple(ratios),
        t_nodes=int(ts.size),
    )


# ---------------------------------------------------------------------------
# Distance-set coverage proxy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverageReport:
    """Covered length and density L2 norm of a distance histogram across
    coarsening widths: stabilizing covered length is the positive-measure
    signature, decay toward zero the measure-zero signature."""

    widths: tuple[float, ...]
    covered_lengths: tuple[float, ...]
    density_l2: tuple[float, ...]


def coverage_report(dm: DistanceMeasure, widths: Sequence[float]) -> CoverageReport:
    ws = [float(w) for w in widths]
    if not ws:
        raise ValidationError("need at least one width")
    for w in ws:
        if not math.isfinite(w):
            raise ValidationError(f"widths must be finite, got {w}")
        if w < dm.bin_width:
            raise ValidationError(
                f"width {w} is below the native bin width {dm.bin_width}"
            )
    nz = np.nonzero(dm.masses)[0]
    masses = dm.masses[nz]
    lefts = nz * dm.bin_width
    covered, l2 = [], []
    for w in ws:
        coarse = np.floor(lefts / w).astype(np.int64)
        agg = np.bincount(coarse, weights=masses)
        covered.append(float(np.count_nonzero(agg) * w))
        l2.append(float(np.sum((agg / w) ** 2 * w)))
    return CoverageReport(
        widths=tuple(ws), covered_lengths=tuple(covered), density_l2=tuple(l2)
    )


# ---------------------------------------------------------------------------
# Dimension thresholds
# ---------------------------------------------------------------------------

Number = float | Fraction


def _as_number(x) -> Number:
    """ints, Fractions and 'p/q' strings stay exact; floats stay floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    return float(x)


def product_sum_threshold(d: int) -> Fraction:
    """The critical total dimension d^2/(2d - 1) for d-fold products."""
    if d < 2:
        raise ValidationError(f"need d >= 2, got {d}")
    return Fraction(d * d, 2 * d - 1)


def derive_delta(alpha: float, beta: float) -> tuple[float, float]:
    """Balance the two decay branches of the angular split.

    With gamma = beta/2, the competing exponent gains are gamma0*(1 - alpha)
    (small-angle sector) and gamma - gamma0/2 (Cauchy-Schwarz sector); the
    best cut is gamma0 = gamma / (3/2 - alpha), giving the decay improvement
    delta = gamma0 * (1 - alpha). Returns (gamma0, delta).
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    if not beta > 0.0:
        raise ValidationError(f"beta must be positive, got {beta}")
    gamma = beta / 2.0
    gamma0 = gamma / (1.5 - alpha)
    return gamma0, gamma0 * (1.0 - alpha)


@dataclass(frozen=True)
class ThresholdReport:
    """Margins of the dimension thresholds for distance sets of products.

    mixed_margin: s_A + s_B + max(s_A, s_B) - 2 (two factors; positive means
    the mixed-dimension criterion applies). product_sum_margin:
    sum s_j - d^2/(2d-1). regular_delta: the derived improvement for the
    equal-dimension Ahlfors-David regular route (requires alpha, C_nu, K),
    applying when alpha > 2/3 - delta. Exact rationals are preserved
    wherever the inputs are rational.
    """

    dims: tuple[Number, ...]
    d: int
    sum_threshold: Fraction
    product_sum_margin: Number
    mixed_margin: Number | None
    alpha: float | None
    c_nu: float | None
    k: float | None
    dz_beta: float | None
    gamma0: float | None
    regular_delta: float | None
    regular_threshold: float | None
    applicable: tuple[str, ...]


def threshold_report(
    dims: Sequence, alpha=None, c_nu=None, k: float = 1.0
) -> ThresholdReport:
    """Evaluate every threshold margin for the given per-factor dimensions.

    dims entries may be floats, ints, Fractions, or 'p/q' strings; exact
    inputs produce exact margins. alpha/c_nu/k feed the equal-dimension
    regular route via the energy-improvement exponent.
    """
    vals = []
    for j, x in enumerate(dims):
        try:
            vals.append(_as_number(x))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValidationError(
                f"dims[{j}] must be a number or a fraction p/q, got {x!r}") from exc
    d = len(vals)
    if d < 2:
        raise ValidationError(f"need at least 2 factor dimensions, got {d}")
    for j, v in enumerate(vals):
        if not 0 <= v <= 1:
            raise ValidationError(f"dims[{j}] must lie in [0, 1], got {v}")
    threshold = product_sum_threshold(d)
    total = sum(vals, start=Fraction(0)) if all(
        isinstance(v, Fraction) for v in vals
    ) else float(sum(float(v) for v in vals))
    product_sum_margin = total - threshold if isinstance(total, Fraction) else total - float(threshold)

    mixed_margin = None
    if d == 2:
        sa, sb = vals
        mixed_margin = sa + sb + max(sa, sb) - 2

    beta = gamma0 = delta = regular_threshold = None
    if alpha is not None and c_nu is not None:
        params = dz_beta(float(alpha), float(c_nu), float(k))
        beta = params.beta
        gamma0, delta = derive_delta(float(alpha), beta)
        regular_threshold = 2.0 / 3.0 - delta

    applicable = []
    if mixed_margin is not None and mixed_margin > 0:
        applicable.append("two_factor_mixed")
    if product_sum_margin > 0:
        applicable.append("product_sum")
    if delta is not None and alpha is not None and float(alpha) > regular_threshold:
        applicable.append("regular_equal_dim")
    return ThresholdReport(
        dims=tuple(vals),
        d=d,
        sum_threshold=threshold,
        product_sum_margin=product_sum_margin,
        mixed_margin=mixed_margin,
        alpha=None if alpha is None else float(alpha),
        c_nu=None if c_nu is None else float(c_nu),
        k=None if alpha is None or c_nu is None else float(k),
        dz_beta=beta,
        gamma0=gamma0,
        regular_delta=delta,
        regular_threshold=regular_threshold,
        applicable=tuple(applicable),
    )
