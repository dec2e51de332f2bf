"""Scale-r additive energy of a grid measure, by brute force and by sumset
autocorrelation.

The energy at scale r is the nu^4-mass of quadruples (u1, u2, u3, u4) whose
pair sums differ by strictly less than r:

    E(r) = nu^4 { |(u1 + u2) - (u3 + u4)| < r }.

Two routes compute it:

* bruteforce: a direct enumeration of all quadruples, grouped as ordered
  pair-sums. Exact by construction; guarded by an atom-count limit because
  the work is O(N^4).
* autocorrelation: exact up to product rounding, with no transform. A
  build_cantor measure takes the digit DP (_cantor_energies): no grid, no
  grid cap. Any other measure factors the quadruple integral through the
  sumset q = nu * nu on the integer index grid, np.add.at over the
  unordered atom pairs i <= j in tiles of about _BLOCK pairs, and E(r) is a
  window sum of q against one prefix sum of q, in blocks of _BLOCK entries,
  all scales per block. On build_cantor measures this route, over their
  level-by-level q, is the DP's oracle. The digit pmfs of the DP, that q and
  the gap correlation below come from measures, beside CantorSpec.

Every route decides the strict window on the same float expression
(integer gap) * delta < r, so they agree to machine precision and the
1e-10 oracle gate in the tests is meaningful.

Smoothed fourth moments replace the sharp window by a Fejer cutoff:
space side  iiii psi(t(u1 - u2 + u3 - u4)) dnu^4, computed through the gap
autocorrelation c of q (from D + D - D - D for build_cantor measures, by an
FFT for any other; cached as its nonzero gaps); Fourier side (1/t) int
psi_hat(eta/t) |nu_hat(eta)|^4 deta on a-priori Gauss-Legendre panels. The
two agree by Parseval to rounding; the space side is the oracle of the
Fourier side, which the angular majorant takes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cutoff import CutoffFunction
from .errors import ValidationError, over_budget
from .fitting import loglog_fit
from .measures import CantorSpec, GridMeasure, _digit_expansion_pmf, _digit_pmf
from .quadrature import gauss_legendre_panels

BRUTEFORCE_ATOM_LIMIT = 200
_MAX_GRID = 1 << 24  # dense sumset arrays beyond this are refused
_MAX_DP_KEYS = 1 << 53  # magnitudes 0..bound of the digit DP keys, exact in floats below it
_BLOCK = 1 << 15  # entries per streamed block: 256 KiB of floats, well inside L2


@dataclass(frozen=True, eq=False)
class SumsetDistribution:
    """Distribution q = nu * nu over integer sum-indices 0 .. 2 * (base**level - 1)."""

    base: int
    level: int
    values: np.ndarray  # dense, index s -> q(s), length 2 * base**level - 1

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def delta(self) -> float:
        return float(self.base) ** (-self.level)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.values))


@lru_cache(maxsize=16)
def _upper_triangle(width: int) -> np.ndarray:
    """Row-major flat indices of the entries i <= j of a width x width tile,
    read-only, in the smallest dtype that holds them: at width 181, np.take
    of this 32 KiB uint16 table beats building and compressing by a boolean
    mask, and an int64 one held in the cache raised the pairs workload's
    peak RSS by 0.9 MB."""
    i, j = np.triu_indices(width)
    flat = (i * width + j).astype(np.min_scalar_type(width * width - 1))
    flat.setflags(write=False)
    return flat


def sumset_autocorrelation(nu: GridMeasure) -> SumsetDistribution:
    """Exact discrete self-convolution q(s) = sum_{i+j=s} w_i w_j.

    A build_cantor measure builds q level by level from the pmf of D + D;
    any other measure scatter-adds each unordered atom pair i <= j once, as
    (2 w_i) w_j off the diagonal and w_i w_i on it, in square tiles of side
    isqrt(_BLOCK) whose sums hit a stretch of q that stays in cache: row
    tiles ascending; in each, the column tiles right of the diagonal
    descending, each one row-major np.add.at, then the diagonal tile's upper
    triangle (diagonal included) as one row-major np.add.at. Indices
    increase, so along a fixed sum the column falls as the row rises, and
    each q(s) gets its pairs in ascending row order, the order (and so the
    bytes) of one scatter over the upper triangle in row-major order.
    Neither route uses transform arithmetic: repeated runs are bitwise equal.
    """
    over_budget(f"sumset grid of {nu.grid_size} points", nu.grid_size, _MAX_GRID, "lower the level")
    if nu.spec is not None:
        q = _digit_expansion_pmf(nu.spec, (1, 1))
        return SumsetDistribution(base=nu.base, level=nu.level, values=q)
    idx = nu.indices
    w = nu.weights
    n = idx.size
    side = math.isqrt(_BLOCK)
    width = min(side, n)
    # the diagonal tiles' index tables, fetched before q and the tile
    # buffers: a table first cached between them pinned the freed buffers on
    # the heap (1.3 MB more peak RSS on the pairs workload)
    upper = {rows: _upper_triangle(rows) for rows in (width, (n - 1) % side + 1)}
    q = np.zeros(2 * nu.grid_size - 1)
    sums_buf = np.empty(width * width, dtype=idx.dtype)
    prods_buf = np.empty(width * width)
    for start in range(0, n, side):
        stop = min(start + side, n)
        # numpy buffers a broadcast op over short rows (about 3x slower), so
        # a tile is filled with its columns and then adds this band in place
        band_idx = np.repeat(idx[start:stop, None], width, axis=1)
        band_w = np.repeat(2.0 * w[start:stop, None], width, axis=1)
        for col in reversed(range(start, n, side)):
            shape = (stop - start, min(side, n - col))
            sums = sums_buf[: shape[0] * shape[1]].reshape(shape)
            prods = prods_buf[: sums.size].reshape(shape)
            sums[...] = idx[col : col + side]
            sums += band_idx[:, : shape[1]]
            prods[...] = w[col : col + side]
            prods *= band_w[:, : shape[1]]
            if col > start:
                np.add.at(q, sums.ravel(), prods.ravel())
            else:  # the diagonal tile: w_i w_i on its diagonal, its upper triangle only
                prods.ravel()[:: shape[0] + 1] = w[start:stop] * w[start:stop]
                keep = upper[shape[0]]
                np.add.at(q, np.take(sums, keep), np.take(prods, keep))
    return SumsetDistribution(base=nu.base, level=nu.level, values=q)


def _strict_window_gap(delta: float, r: float, max_gap: int) -> int:
    """Largest integer k in [0, max_gap] with float(k * delta) < r."""
    k = min(int(math.ceil(r / delta)) + 1, max_gap)
    while k > 0 and k * delta >= r:
        k -= 1
    return k


def _energy_from_sumset(q: np.ndarray, delta: float, rs) -> list[float]:
    """E(r) = sum_s q(s) q([s - k, s + k]) for each r, with k its strict
    window gap. Blocks of the window cum[min(s + k + 1, m)] - cum[max(s - k, 0)]
    of one prefix sum fill one reused buffer, every radius per block, so q's
    block stays in cache; each radius adds its block sums (np.sum, not BLAS,
    so no thread count changes the order) in block order to its own total."""
    m = q.size
    cum = np.empty(m + 1)
    cum[0] = 0.0
    np.cumsum(q, out=cum[1:])
    buf = np.empty(min(m, _BLOCK))
    ks = [_strict_window_gap(delta, r, m - 1) for r in rs]
    totals = [0.0] * len(ks)
    for start in range(0, m, _BLOCK):
        stop = min(start + _BLOCK, m)
        window = buf[: stop - start]
        for i, k in enumerate(ks):
            top = min(max(m - k, start), stop)  # s < top: s + k + 1 <= m
            low = min(max(k, start), stop)  # s >= low: s - k >= 0
            if top == stop and low == start:
                np.subtract(cum[start + k + 1 : stop + k + 1], cum[start - k : stop - k], out=window)
            else:
                window[: top - start] = cum[start + k + 1 : top + k + 1]
                window[top - start :] = cum[m]
                window[low - start :] -= cum[low - k : stop - k]
            totals[i] += float(np.sum(np.multiply(q[start:stop], window, out=window)))
    return [min(total, 1.0) for total in totals]


def _cantor_energies(spec: CantorSpec, rs) -> list[float]:
    """E(r) = P(|N_L| <= k) for each r of a build_cantor measure, with no
    grid: (u1 + u2) - (u3 + u4) = N_L delta, N_L = sum_j e_j b**(L-j) with
    e_j iid from the D + D - D - D digit pmf p, and k the strict window gap
    of the grid route. As N_m = b N_{m-1} + e_m, on intervals (no CDFs to
    cancel) P(lo <= N_m <= hi) = sum_e p(e) P(ceil((lo - e)/b) <= N_{m-1}
    <= floor((hi - e)/b)). |N_m| <= M_m = e_max (b**m - 1)/(b - 1), so an
    interval holding [-M_m, M_m] is 1, one missing it is 0, and the live
    rest are clamped to it. The descent keeps each level's distinct live
    intervals, every radius at once; the ascent sums over e in ascending
    order, one numpy pass per level. Bitwise the grid route where both are
    exact (two digits to level 13: multiples of 16**-level)."""
    base = spec.base
    pmf = _digit_pmf(spec, (1, 1, -1, -1))
    e = np.flatnonzero(pmf)
    p, e = pmf[e], e - 2 * (base - 1)
    bounds = [int(e[-1]) * (base**m - 1) // (base - 1) for m in range(spec.level + 1)]
    over_budget(f"energy digit DP bound {bounds[-1]}", bounds[-1] + 1, _MAX_DP_KEYS, "lower the level")
    k = np.array([_strict_window_gap(float(base) ** -spec.level, r, bounds[-1]) for r in rs])
    lo, hi, steps = -k, k, []
    for bound in reversed(bounds):
        full = (lo <= -bound) & (hi >= bound)
        live = ~full & (lo <= hi) & (hi >= -bound) & (lo <= bound)
        # (lo, hi) as one complex key, exact below 2**53, sorted lexicographically
        keys, inverse = np.unique(np.maximum(lo[live], -bound) + 1j * np.minimum(hi[live], bound),
                                  return_inverse=True)
        steps.append((full, live, inverse))
        lo = -((e - keys.real.astype(np.int64)[:, None]) // base)
        hi = (keys.imag.astype(np.int64)[:, None] - e) // base
    values = np.empty(0)  # of the live intervals one level down: none below level 0
    for full, live, inverse in reversed(steps):
        child = full.astype(float)
        child[live] = values[inverse]
        values = child if child.ndim == 1 else sum(p[j] * child[:, j] for j in range(p.size))
    return values.tolist()


def _energies(nu: GridMeasure, rs) -> list[float]:
    """E(r) for each r: the digit DP for a build_cantor measure, the sumset
    window for any other."""
    if not nu.delta > 0.0:
        raise ValidationError(f"factors: the grid step {nu.base}**-{nu.level} underflows to 0; lower the level")
    if nu.spec is not None:
        return _cantor_energies(nu.spec, rs)
    return _energy_from_sumset(sumset_autocorrelation(nu).values, nu.delta, rs)


def _energy_bruteforce(nu: GridMeasure, r: float) -> float:
    n = nu.atom_count
    over_budget(f"bruteforce energy is O(N^4) on {n} atoms", n, BRUTEFORCE_ATOM_LIMIT, "lower the level")
    idx = nu.indices
    w = nu.weights
    sums = (idx[:, None] + idx[None, :]).ravel()
    ww = (w[:, None] * w[None, :]).ravel()
    delta = nu.delta
    m = sums.size
    total = 0.0
    chunk = max(1, (1 << 22) // m)
    for start in range(0, m, chunk):
        stop = min(start + chunk, m)
        gaps = np.abs(sums[start:stop, None] - sums[None, :]).astype(float) * delta
        inner = (gaps < r) @ ww
        total += float(ww[start:stop] @ inner)
    return min(total, 1.0)


def additive_energy(nu: GridMeasure, r: float, algorithm: str = "autocorrelation") -> float:
    """E(r) = nu^4 { |(u1+u2) - (u3+u4)| < r } with positions u = index * delta.

    The window inequality is strict; grid gaps landing exactly on r are
    excluded. `algorithm` is 'bruteforce' (O(N^4) oracle, atom count capped)
    or 'autocorrelation' (the digit DP on a build_cantor measure, else the
    exact convolution and its prefix-sum window).
    """
    if not 0 < r < math.inf:
        raise ValidationError(f"window r must be positive and finite, got {r}")
    if algorithm == "bruteforce":
        return _energy_bruteforce(nu, r)
    if algorithm == "autocorrelation":
        return _energies(nu, [r])[0]
    raise ValidationError(f"unknown algorithm {algorithm!r}")


@dataclass(frozen=True)
class EnergyProfile:
    """Additive energy sampled across scales, with the fitted decay exponent
    and the reference dimension it is compared against."""

    r_values: tuple[float, ...]
    energies: tuple[float, ...]
    fitted_exponent: float
    stderr: float
    alpha_ref: float

    @property
    def excess_over_alpha(self) -> float:
        """Fitted exponent minus the reference dimension (the margin the
        Dyatlov-Zahl bound predicts to be positive for regular sets)."""
        return self.fitted_exponent - self.alpha_ref


def dyadic_r_sweep(nu: GridMeasure) -> list[float]:
    """The 12 largest dyadic scales between 4*delta and the sumset support
    diameter; below 4*delta the discretization dominates."""
    diam = 2.0 * nu.diameter
    if diam <= 0.0:
        raise ValidationError("point mass has no scale sweep")
    floor_r = 4.0 * nu.delta
    rs = []
    r = diam / 2.0
    while r >= floor_r and len(rs) < 12:
        rs.append(r)
        r /= 2.0
    if len(rs) < 3:
        raise ValidationError("fewer than 3 usable dyadic scales; deepen the level")
    return sorted(rs)


def energy_profile(nu: GridMeasure, r_values, alpha: float) -> EnergyProfile:
    """Sample E(r) over a geometric sweep (autocorrelation route, every
    scale in one pass) and fit the decay exponent of E against r on log-log
    axes."""
    rs = [float(r) for r in r_values]
    if len(rs) < 3:
        raise ValidationError(f"need at least 3 scales, got {len(rs)}")
    if not math.isfinite(alpha):
        raise ValidationError(f"alpha must be finite, got {alpha}")
    delta = nu.delta
    for r in rs:
        if not 0 < r < math.inf:
            raise ValidationError(f"r_values must be positive and finite, got {r}")
        if r < delta:
            raise ValidationError(f"scale {r} is below the grid resolution {delta}")
    ratios = [rs[i + 1] / rs[i] for i in range(len(rs) - 1)]
    if max(ratios) - min(ratios) > 1e-6 * max(ratios):
        raise ValidationError("r_values must form a geometric sweep")
    energies = _energies(nu, rs)
    fit = loglog_fit(rs, energies)
    return EnergyProfile(
        r_values=tuple(rs),
        energies=tuple(energies),
        fitted_exponent=fit.slope,
        stderr=fit.stderr,
        alpha_ref=float(alpha),
    )


# ---------------------------------------------------------------------------
# Smoothed fourth moments (Fejer window instead of the sharp scale-r cut)
# ---------------------------------------------------------------------------

def _gap_correlation(nu: GridMeasure) -> tuple[np.ndarray, int]:
    """Autocorrelation c(g) = sum_a q(a) q(a+g) of the sumset distribution,
    returned as a dense array over g in [-(L-1), L-1] plus the offset L-1.

    A build_cantor measure builds c level by level from the pmf of
    D + D - D - D, exactly as its sumset. Any other measure correlates its
    sumset by an FFT (the smoothed moments tolerate 1e-12 rounding; the
    scale-r energy path never touches this)."""
    if nu.spec is not None:
        over_budget(f"sumset grid of {nu.grid_size} points", nu.grid_size, _MAX_GRID, "lower the level")
        c = _digit_expansion_pmf(nu.spec, (1, 1, -1, -1))
        return c, c.size // 2
    q = sumset_autocorrelation(nu).values
    m = q.size
    size = 1
    while size < 2 * m - 1:
        size <<= 1
    fq = np.fft.rfft(q, size)
    circ = np.fft.irfft(fq * np.conj(fq), size)
    c = np.empty(2 * m - 1)
    c[m - 1 :] = circ[:m]
    c[: m - 1] = circ[size - (m - 1) :]
    return np.maximum((c + c[::-1]) / 2.0, 0.0), m - 1


@lru_cache(maxsize=8)
def _gap_table(nu: GridMeasure) -> tuple[float, np.ndarray, np.ndarray]:
    """(c(0), c(g) at the gaps g > 0 where it is nonzero, their positions
    g * delta), read-only: the cache keeps no dense c."""
    c, offset = _gap_correlation(nu)
    nz = np.flatnonzero(c[offset + 1 :])
    table = c[offset + 1 :][nz], (nz + 1) * nu.delta
    for a in table:
        a.setflags(write=False)
    return float(c[offset]), *table


def smoothed_fourth_moment(nu: GridMeasure, t: float, cutoff: CutoffFunction) -> float:
    """Space-side moment iiii psi(t(u1 - u2 + u3 - u4)) dnu^4, evaluated
    exactly through the sumset gap correlation. c is even and psi(0) = 1,
    so the sum runs over g >= 0 as c(0) + 2 sum_{g>0} c(g) psi(t g delta),
    one psi evaluation and one dot over the cached nonzero gaps."""
    if not 0 < t < math.inf:
        raise ValidationError(f"t must be positive and finite, got {t}")
    c0, cg, positions = _gap_table(nu)
    return float(c0 + 2.0 * np.dot(cg, cutoff(t * positions)))


def _fourth_moment_quadrature(nu: GridMeasure, t: float, cutoff: CutoffFunction) -> float:
    """Fourier side (2/t) int_0^span psi_hat(eta/t) |nu_hat(eta)|^4 deta,
    span = t * transform_support, on quadrature.gauss_legendre_panels of
    type 4 pi diam (psi_hat(eta/t) is linear on [0, span]), no refinement:
    within 1.6e-15 of the exact space side, measured. It is also the angular
    Cauchy-Schwarz majorant's moment. On the node lattice, power_spectrum **
    2 for a build_cantor measure, one transform_on_grid for any other."""
    coarse, fine, w, width = gauss_legendre_panels(
        0.0, cutoff.transform_support * t, 4.0 * math.pi * nu.diameter,
        "smoothed-energy Fourier side", "lower t")
    eta = coarse[:, None] + fine
    if nu.spec is not None:
        power = nu.power_spectrum(eta) ** 2
    else:
        power = np.abs(nu.transform_on_grid(coarse, fine)) ** 4
    return (2.0 / t) * width * float(np.sum(power * cutoff.transform(eta / t) * w))


def smoothed_energy(nu: GridMeasure, t: float, cutoff: CutoffFunction) -> tuple[float, float]:
    """Evaluate the smoothed fourth moment on both sides of Parseval.

    Returns (space_side, fourier_side): the quadruple sum against
    psi(t * gap), and the quadrature of (1/t) psi_hat(eta/t) |nu_hat(eta)|^4
    over the compact support of psi_hat(./t). The two agree to rounding.
    """
    if not 1.0 <= t < math.inf:
        raise ValidationError(f"t must be >= 1 and finite, got {t}")
    space = smoothed_fourth_moment(nu, t, cutoff)
    fourier = _fourth_moment_quadrature(nu, t, cutoff)
    return space, fourier


# ---------------------------------------------------------------------------
# Dyatlov-Zahl improvement exponent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DZParams:
    """Inputs and output of the Dyatlov-Zahl energy bound
    E(X, nu, r) <= C~ r^(alpha + beta).

    K is a configurable absolute constant (the bound's statement fixes no
    value; it defaults to 1 here and is always reported).
    """

    alpha: float
    c_nu: float
    k: float
    beta: float


def dz_beta(alpha: float, c_nu: float, k: float = 1.0) -> DZParams:
    """Closed form beta = alpha * exp(-exp(K sqrt(1 + log C_nu) / sqrt(1 - alpha))).

    Strictly positive in exact arithmetic, strictly decreasing in C_nu and
    in K; singular as alpha -> 1, hence the open-interval requirement. The
    double exponential underflows float64 to 0.0 once the inner argument
    exceeds ~6.57 (it is clamped at 709 before the inner exp, which would
    overflow past ~709.8; beta is 0.0 either way); callers feeding the
    result onward (derive_delta) reject beta = 0, so underflow surfaces as a
    validation error, not as a wrong number.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    if not 1.0 <= c_nu < math.inf:
        raise ValidationError(f"C_nu must be >= 1 and finite, got {c_nu}")
    if not 0 < k < math.inf:
        raise ValidationError(f"K must be positive and finite, got {k}")
    inner = k * math.sqrt(1.0 + math.log(c_nu)) / math.sqrt(1.0 - alpha)
    beta = alpha * math.exp(-math.exp(min(inner, 709.0)))
    return DZParams(alpha=float(alpha), c_nu=float(c_nu), k=float(k), beta=beta)
