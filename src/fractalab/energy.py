"""Scale-r additive energy of a grid measure, by brute force and by sumset
autocorrelation.

The energy at scale r is the nu^4-mass of quadruples (u1, u2, u3, u4) whose
pair sums differ by strictly less than r:

    E(r) = nu^4 { |(u1 + u2) - (u3 + u4)| < r }.

Two routes compute it:

* bruteforce: a direct enumeration of all quadruples, grouped as ordered
  pair-sums. Exact by construction; guarded by an atom-count limit because
  the work is O(N^4).
* autocorrelation: the quadruple integral factors through the sumset
  distribution q = nu * nu on the integer index grid, and E(r) is a sliding
  window sum of q against one prefix sum of q, O(M) per scale, in blocks of
  _BLOCK entries, all scales per block. q is exact up to product rounding
  (no transform, fixed order): level by level from the digit pmf of D + D
  for a build_cantor measure, otherwise by np.add.at over the unordered atom
  pairs i <= j (2 w_i w_j off the diagonal) in square tiles of about _BLOCK
  pairs, in the order of one scatter over the upper triangle.

Both routes decide the strict window on the same float expression
(integer gap) * delta < r, so they agree to machine precision and the
1e-10 oracle gate in the tests is meaningful.

Smoothed fourth moments replace the sharp window by a Fejer cutoff:
space side  iiii psi(t(u1 - u2 + u3 - u4)) dnu^4, computed through the gap
autocorrelation c of q (from D + D - D - D for build_cantor measures, by an
FFT for any other; cached as its nonzero gaps); Fourier side (1/t) int
psi_hat(eta/t) |nu_hat(eta)|^4 deta by Simpson over the compact transform
support, |nu_hat|^4 taken as GridMeasure.power_spectrum squared (the real
Riesz product) for build_cantor measures and from
GridMeasure.transform_on_grid (one factored phase-table product per uniform
node grid) for any other. The two agree by Parseval and are tested against
each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cutoff import CutoffFunction
from .errors import BudgetError, ValidationError
from .fitting import loglog_fit
from .measures import CantorSpec, GridMeasure
from .quadrature import require_converged, simpson_doubling

BRUTEFORCE_ATOM_LIMIT = 200
_MAX_GRID = 1 << 24  # dense sumset arrays beyond this are refused
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
    def entries(self) -> dict[int, float]:
        nz = np.nonzero(self.values)[0]
        return {int(s): float(self.values[s]) for s in nz}

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.values))

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.values))


def _check_grid(nu: GridMeasure) -> None:
    if nu.grid_size > _MAX_GRID:
        raise BudgetError(
            f"sumset grid 2*{nu.grid_size} too large for a dense convolution; coarsen the level"
        )


def _digit_expansion_pmf(spec: CantorSpec, signs: tuple[int, ...]) -> np.ndarray:
    """pmf of sum_{k=1..level} e_k base**(level-k), e_k iid copies of
    sum_j signs[j] D_j with D_j uniform on the kept digits, shifted to start
    at index 0. Built level by level, polyphase: entry base*m + r of the next
    level is the pmf convolved with phase r of the digit pmf, [r::base]
    trimmed of zero end taps (one tap: a scaled strided copy); no FFT."""
    base = spec.base
    d = np.zeros(base)
    d[list(spec.digits)] = 1.0 / len(spec.digits)
    digit_pmf = np.ones(1)
    for sign in signs:
        digit_pmf = np.convolve(digit_pmf, d if sign > 0 else d[::-1])
    nonzero = [(r, np.flatnonzero(digit_pmf[r::base])) for r in range(base)]
    phases = [(r + base * nz[0], digit_pmf[r::base][nz[0] : nz[-1] + 1])  # (first index, taps)
              for r, nz in nonzero if nz.size]
    pmf = np.ones(1)
    for _ in range(spec.level):
        out = np.zeros(base * (pmf.size - 1) + digit_pmf.size)
        for start, taps in phases:
            if taps.size == 1:
                np.multiply(pmf, taps[0], out=out[start::base][: pmf.size])
            else:
                out[start::base][: pmf.size + taps.size - 1] = np.convolve(pmf, taps)
        pmf = out
    return pmf


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
    _check_grid(nu)
    if nu.spec is not None:
        q = _digit_expansion_pmf(nu.spec, (1, 1))
        return SumsetDistribution(base=nu.base, level=nu.level, values=q)
    q = np.zeros(2 * nu.grid_size - 1)
    idx = nu.indices
    w = nu.weights
    n = idx.size
    side = math.isqrt(_BLOCK)
    width = min(side, n)
    sums_buf = np.empty(width * width, dtype=idx.dtype)
    prods_buf = np.empty(width * width)
    upper = np.tri(width, dtype=bool).T  # i <= j
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
                keep = upper[: shape[0], : shape[0]]
                np.add.at(q, sums[keep], prods[keep])
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


def _energy_bruteforce(nu: GridMeasure, r: float) -> float:
    n = nu.atom_count
    if n > BRUTEFORCE_ATOM_LIMIT:
        raise BudgetError(
            f"bruteforce energy is O(N^4); refusing {n} atoms (limit {BRUTEFORCE_ATOM_LIMIT})"
        )
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
    or 'autocorrelation' (exact convolution + prefix-sum window).
    """
    if not 0 < r < math.inf:
        raise ValidationError(f"window r must be positive and finite, got {r}")
    if algorithm == "bruteforce":
        return _energy_bruteforce(nu, r)
    if algorithm == "autocorrelation":
        return _energy_from_sumset(sumset_autocorrelation(nu).values, nu.delta, [r])[0]
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
    def samples(self) -> list[tuple[float, float]]:
        return list(zip(self.r_values, self.energies))

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
    """Sample E(r) over a geometric sweep (autocorrelation route) and fit
    the decay exponent of E against r on log-log axes."""
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
    energies = _energy_from_sumset(sumset_autocorrelation(nu).values, delta, rs)
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
        _check_grid(nu)
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
    span = cutoff.transform_support * t
    def integrand(eta):
        if nu.spec is not None:
            return nu.power_spectrum(eta) ** 2 * cutoff.transform(eta / t)
        step = (eta[-1] - eta[0]) / (eta.size - 1)
        vals = nu.transform_on_grid(eta[0], step, eta.size)
        return (np.abs(vals) ** 4) * cutoff.transform(eta / t)
    initial = max(64, 2 * int(8.0 * span))
    result = simpson_doubling(integrand, 0.0, span, initial_intervals=initial, rel_tol=1e-9)
    return (2.0 / t) * require_converged(result, "smoothed-energy Simpson", 1e-9)


def smoothed_energy(nu: GridMeasure, t: float, cutoff: CutoffFunction) -> tuple[float, float]:
    """Evaluate the smoothed fourth moment on both sides of Parseval.

    Returns (space_side, fourier_side): the quadruple sum against
    psi(t * gap), and the quadrature of (1/t) psi_hat(eta/t) |nu_hat(eta)|^4
    over the compact support of psi_hat(./t). The two agree within
    quadrature tolerance.
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
    exceeds ~6.57; callers feeding the result onward (derive_delta) reject
    beta = 0, so underflow surfaces as a validation error, not as a wrong
    number.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    if not 1.0 <= c_nu < math.inf:
        raise ValidationError(f"C_nu must be >= 1 and finite, got {c_nu}")
    if not 0 < k < math.inf:
        raise ValidationError(f"K must be positive and finite, got {k}")
    inner = k * math.sqrt(1.0 + math.log(c_nu)) / math.sqrt(1.0 - alpha)
    beta = alpha * math.exp(-math.exp(inner))
    return DZParams(alpha=float(alpha), c_nu=float(c_nu), k=float(k), beta=beta)
