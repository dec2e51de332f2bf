"""Discretized Cantor-type measures on the unit interval, and their products.

Grid convention
---------------
A measure at construction depth ``level`` over subdivision ``base`` lives on
the uniform grid of resolution ``delta = base**-level``; an atom with integer
index ``i`` sits at position ``i * delta`` in [0, 1). Indices are kept exact
so sums and gaps of positions can be computed in integer arithmetic.

Balls are closed, ``B(x, r) = [x - r, x + r]``, and regularity scans evaluate
ball mass only at atom centers (points of the support). Both choices are part
of the contract: the exhaustive oracles in the test suite use the same
conventions.

A CantorSpec's digit pmfs live beside it (_digit_pmf, _digit_expansion_pmf):
power_spectrum's Riesz product and the digit routes of ``energy`` read them.
"""
from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError, over_budget
from .fitting import loglog_fit

_MASS_TOL = 1e-12
_CHUNK = 1 << 22  # complex entries per phase table or product block
_MAX_ATOMS = 1 << 24  # atoms of one build_cantor measure
_MAX_INDICES = 1 << 63  # int64 atom indices 0 .. 2**63 - 1


@dataclass(frozen=True)
class CantorSpec:
    """Digit-restricted Cantor construction: keep ``digits`` out of ``base``
    at every one of ``level`` subdivision rounds."""

    base: int
    digits: tuple[int, ...]
    level: int

    def __post_init__(self):
        if int(self.base) != self.base or self.base < 2:
            raise ValidationError(f"base must be an integer >= 2, got {self.base!r}")
        digits = tuple(int(d) for d in self.digits)
        object.__setattr__(self, "digits", digits)
        if len(digits) == 0:
            raise ValidationError("digits must be nonempty")
        if any(d < 0 or d >= self.base for d in digits):
            raise ValidationError(
                f"digits must lie in [0, base), got {digits} for base {self.base}"
            )
        if any(b <= a for a, b in zip(digits, digits[1:])):
            raise ValidationError(f"digits must be strictly increasing, got {digits}")
        if int(self.level) != self.level or self.level < 0:
            raise ValidationError(f"level must be an integer >= 0, got {self.level!r}")

    @property
    def dimension(self) -> float:
        """Nominal dimension log |digits| / log base, in [0, 1]."""
        return math.log(len(self.digits)) / math.log(self.base)


def _digit_pmf(spec: CantorSpec, signs: tuple[int, ...]) -> np.ndarray:
    """pmf of e = sum_j signs[j] D_j, D_j iid uniform on the kept digits, at
    index e + (base - 1) * (number of negative signs): the integer tuple
    counts of one convolution, each divided once by |D|**len(signs), so
    every entry is its exact value correctly rounded."""
    d = np.zeros(spec.base)
    d[list(spec.digits)] = 1.0
    counts = np.ones(1)
    for sign in signs:
        counts = np.convolve(counts, d if sign > 0 else d[::-1])
    return counts / len(spec.digits) ** len(signs)


def _digit_expansion_pmf(spec: CantorSpec, signs: tuple[int, ...]) -> np.ndarray:
    """pmf of sum_{k=1..level} e_k base**(level-k), e_k iid draws from
    _digit_pmf, shifted to start at index 0. Built level by level,
    polyphase: entry base*m + r of the next level is the pmf convolved with
    phase r of the digit pmf, [r::base] trimmed of zero end taps (one tap: a
    scaled strided copy); no FFT."""
    base = spec.base
    digit_pmf = _digit_pmf(spec, signs)
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


def middle_thirds(level: int) -> CantorSpec:
    """The classical base-3 construction keeping digits {0, 2}."""
    return CantorSpec(base=3, digits=(0, 2), level=level)


@dataclass(frozen=True, eq=False)
class GridMeasure:
    """Probability measure on the uniform grid of [0, 1).

    ``indices`` are strictly increasing int64 grid indices in
    [0, base**level); ``weights`` are finite, nonnegative and sum to 1 within
    1e-12.
    Instances are immutable (arrays are marked read-only) and hash by
    identity, which lets expensive per-measure precomputations be cached.
    ``spec`` is the CantorSpec the atoms were built from; only build_cantor
    sets it, so it always agrees with the atoms.
    """

    base: int
    level: int
    indices: np.ndarray
    weights: np.ndarray
    dimension_hint: float | None = None
    spec: CantorSpec | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if int(self.base) != self.base or self.base < 2:
            raise ValidationError(f"base must be an integer >= 2, got {self.base!r}")
        if int(self.level) != self.level or self.level < 0:
            raise ValidationError(f"level must be an integer >= 0, got {self.level!r}")
        idx = np.ascontiguousarray(np.asarray(self.indices, dtype=np.int64))
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        if idx.ndim != 1 or w.ndim != 1 or idx.size != w.size:
            raise ValidationError("indices and weights must be 1-d arrays of equal length")
        if idx.size == 0:
            raise ValidationError("a measure needs at least one atom")
        if np.any(np.diff(idx) <= 0):
            raise ValidationError("indices must be strictly increasing (no duplicates)")
        grid = self.grid_size
        if idx[0] < 0 or idx[-1] >= grid:
            raise ValidationError(
                f"indices must lie in [0, {grid}) for base {self.base}, level {self.level}"
            )
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite")
        if np.any(w < 0):
            raise ValidationError("weights must be nonnegative")
        total = float(np.sum(w))
        if abs(total - 1.0) > _MASS_TOL:
            raise ValidationError(f"weights must sum to 1 within {_MASS_TOL}, got {total!r}")
        idx.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "weights", w)
        if self.dimension_hint is not None:
            h = float(self.dimension_hint)
            if not 0.0 <= h <= 1.0:
                raise ValidationError(f"dimension_hint must be in [0, 1], got {h}")
            object.__setattr__(self, "dimension_hint", h)

    @property
    def grid_size(self) -> int:
        return self.base**self.level

    @property
    def delta(self) -> float:
        """Grid resolution base**-level."""
        return float(self.base) ** (-self.level)

    @property
    def positions(self) -> np.ndarray:
        return self.indices * self.delta

    @property
    def atom_count(self) -> int:
        return int(self.indices.size)

    @property
    def diameter(self) -> float:
        return float((self.indices[-1] - self.indices[0]) * self.delta)

    def ball_mass(self, centers, r: float) -> np.ndarray:
        """Mass of the closed balls [c - r, c + r] for each center c."""
        pos = self.positions
        cum = np.concatenate(([0.0], np.cumsum(self.weights)))
        c = np.atleast_1d(np.asarray(centers, dtype=float))
        lo = np.searchsorted(pos, c - r, side="left")
        hi = np.searchsorted(pos, c + r, side="right")
        return cum[hi] - cum[lo]

    def transform(self, xi) -> np.ndarray | complex:
        """Fourier transform nu_hat(xi) = sum_j w_j exp(-2 pi i x_j xi).

        Vectorized over ``xi`` of any shape; a scalar gives a complex. The
        exact dense sum over the atoms for every measure, O(atoms) per
        frequency in a fixed order with no FFT, so a frequency gets the same
        bits alone and in any batch; its float phases round to about 1e-15
        |xi|. It is the oracle of power_spectrum and transform_on_grid, and
        power_spectrum of a measure without a spec is abs(transform)**2.
        """
        xi_arr = np.asarray(xi, dtype=float)
        flat = xi_arr.ravel()
        x = self.positions
        out = np.empty(flat.shape, dtype=complex)
        # chunked so the phase matrix stays within a few tens of MB
        chunk = max(1, _CHUNK // x.size)
        for start in range(0, flat.size, chunk):
            block = flat[start : start + chunk]
            phases = np.exp((-2j * np.pi) * np.outer(block, x))
            # per row in a fixed order: a BLAS product rounds a row by its position
            out[start : start + block.size] = np.einsum("ij,j->i", phases, self.weights)
        if xi_arr.ndim == 0:
            return complex(out[0])
        return out.reshape(xi_arr.shape)

    def power_spectrum(self, xi) -> np.ndarray | float:
        """|nu_hat(xi)|^2, vectorized like transform; a scalar gives a float.

        A measure from build_cantor takes the real Riesz product
        prod_{k=1..level} P(xi base**-k) with P(x) = |mean_d e(-d x)|^2 =
        p_0 + 2 sum_{g>0} p_g cos(2 pi g x), p the D - D digit pmf
        _digit_pmf(spec, (1, -1)) at gaps g >= 0: one cosine per distinct
        digit gap and level, levels multiplied in order k = 1..level, no FFT;
        each cycle count xi g base**-k is reduced mod 1 exactly before its
        cosine. Each level factor is clamped at 0 against rounding (a no-op
        for two digits), so the result is never negative. Every other
        measure returns abs(transform(xi))**2. Oracle: abs(transform)**2,
        the dense sum over the same atoms, within 2e-11 for |xi| up to 1e4.
        """
        xi_arr = np.asarray(xi, dtype=float)
        spec = self.spec
        if spec is None:
            out = np.square(np.abs(self.transform(xi_arr)))  # x * x: a scalar's ** 2 is pow
        else:
            p = _digit_pmf(spec, (1, -1))[spec.base - 1 :]  # c_g / |D|^2 at index g >= 0
            gaps = (np.flatnonzero(p[1:]) + 1).tolist()
            out = np.ones(xi_arr.shape)
            phase, whole = np.empty(xi_arr.shape), np.empty(xi_arr.shape)
            for k in range(1, spec.level + 1):
                level = np.full(xi_arr.shape, p[0])
                for g in gaps:
                    np.multiply(xi_arr, g / spec.base**k, out=phase)
                    phase -= np.rint(phase, out=whole)
                    phase *= 2.0 * np.pi
                    np.cos(phase, out=phase)
                    phase *= 2.0 * p[g]
                    level += phase
                out *= np.maximum(level, 0.0, out=level)
        return float(out) if xi_arr.ndim == 0 else out

    def transform_on_grid(self, coarse, fine) -> np.ndarray:
        """nu_hat at the lattice of frequencies coarse_r + fine_k, as an array
        of shape (coarse.size, fine.size).

        e(-(c + f) x) = e(-c x) e(-f x), so the lattice is one complex
        product of two phase tables, (w_j e(-coarse_r x_j)) @ e(-fine_k x_j):
        (coarse + fine) * atoms exponentials instead of their product, for
        every measure. Tables and product blocks keep to the dense route's
        2**22-entry chunks, in a fixed order, with no FFT. Both tables reduce
        their phases mod 1 exactly, so the route keeps ~1e-15 of the exact
        sum at the real nodes coarse_r + fine_k. Oracle: the dense sum with
        its phases reduced mod 1 exactly at the float nodes, within 1e-11 for
        |xi| up to 1e4 (the float sum rounds a node by up to 1e-12 there);
        transform, whose phases round to ~1e-15 |xi|, can miss it by more.
        """
        x, w = self.positions, self.weights
        coarse = np.asarray(coarse, dtype=float).ravel()
        fine = np.asarray(fine, dtype=float).ravel()
        cols = max(1, _CHUNK // x.size)
        rows = max(1, _CHUNK // max(x.size, min(cols, fine.size)))
        out = np.empty((coarse.size, fine.size), dtype=complex)
        for c in range(0, fine.size, cols):
            fine_t = _phase_table(x, fine[c : c + cols])
            for r in range(0, coarse.size, rows):
                out[r : r + rows, c : c + cols] = (w * _phase_table(coarse[r : r + rows], x)) @ fine_t
        return out


def _phase_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """e(-a_r b_j) over the outer product, its phase reduced mod 1 first: a
    Dekker split makes a_r b_j = p + err exact, so the phase keeps ~1e-16
    cycles however large a_r b_j, against ~1e-16 |a_r b_j| for np.exp of it."""
    p = np.multiply.outer(a, b)
    (ah, al), (bh, bl) = _split(a), _split(b)
    mul = np.multiply.outer
    err = ((mul(ah, bh) - p) + mul(ah, bl) + mul(al, bh)) + mul(al, bl)
    return np.exp((-2j * np.pi) * ((p - np.rint(p)) + err))


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split a = hi + lo into 26-bit halves (exact products)."""
    t = 134217729.0 * a
    hi = t - (t - a)
    return hi, a - hi


def build_cantor(spec: CantorSpec) -> GridMeasure:
    """Realize a CantorSpec as a GridMeasure: atoms are the level-k digit
    expansions over the kept digits, each carrying equal weight. Past 2**24
    atoms or int64 indices, BudgetError before any allocation."""
    name, k = f"factor {spec.base}:{','.join(map(str, spec.digits))}:{spec.level}", len(spec.digits)
    b, top = spec.base, spec.digits[-1]  # exponents clamped: k**25 > 2**24 for k > 1, b**64 > 2**63
    over_budget(f"{name} has {k}**{spec.level} atoms", k ** min(spec.level, 25), _MAX_ATOMS, "lower the level")
    over_budget(f"{name} has indices up to {top}*({b}**{spec.level} - 1)/{b - 1}",
                top * (b ** min(spec.level, 64) - 1) // (b - 1) + 1, _MAX_INDICES, "lower the level")
    digits = np.asarray(spec.digits, dtype=np.int64)
    indices = np.zeros(1, dtype=np.int64)
    for _ in range(spec.level):
        indices = (indices[:, None] * spec.base + digits[None, :]).ravel()
    n = indices.size  # == len(digits) ** level
    weights = np.full(n, float(len(spec.digits)) ** (-spec.level))
    nu = GridMeasure(
        base=spec.base,
        level=spec.level,
        indices=indices,
        weights=weights,
        dimension_hint=spec.dimension,
    )
    object.__setattr__(nu, "spec", spec)
    return nu


def point_mass() -> GridMeasure:
    """Unit mass at the origin: the level-0 Cantor measure on base 2 keeping
    digit 0, so its power spectrum is the empty Riesz product, exactly 1."""
    return build_cantor(CantorSpec(base=2, digits=(0,), level=0))


@dataclass(frozen=True, eq=False)
class ProductMeasure:
    """Ordered product of >= 2 grid measures, one per coordinate."""

    factors: tuple[GridMeasure, ...]
    dims: tuple[float, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        dims = tuple(float(s) for s in self.dims)
        if len(factors) < 2:
            raise ValidationError(f"a product needs at least 2 factors, got {len(factors)}")
        if len(dims) != len(factors):
            raise ValidationError(
                f"dims length {len(dims)} does not match factor count {len(factors)}"
            )
        for j, s in enumerate(dims):
            if not 0.0 <= s <= 1.0:
                raise ValidationError(f"dims[{j}] must lie in [0, 1], got {s}")
        for f in factors:
            if not isinstance(f, GridMeasure):
                raise ValidationError("factors must be GridMeasure instances")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "dims", dims)

    @property
    def dimension(self) -> int:
        """Ambient dimension d (number of factors)."""
        return len(self.factors)

    @property
    def atom_count(self) -> int:
        n = 1
        for f in self.factors:
            n *= f.atom_count
        return n


def build_product(factors: Sequence[GridMeasure], dims: Sequence[float]) -> ProductMeasure:
    return ProductMeasure(factors=tuple(factors), dims=tuple(dims))


# ---------------------------------------------------------------------------
# Regularity scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularityReport:
    """Two-sided ball-mass regularity audit: extremal values of
    nu(B(x, r)) / r**alpha over atom centers x, per scale."""

    alpha: float
    cap: float
    scales: tuple[float, ...]
    per_scale: tuple[tuple[float, float], ...]  # (min ratio, max ratio)
    c_lower: float
    c_upper: float
    c_nu: float
    passed: bool


def check_regularity(
    nu: GridMeasure, alpha: float, scales: Iterable[float], cap: float
) -> RegularityReport:
    """Scan closed-ball masses at every atom center against r**alpha.

    The regularity constant is c_nu = max(C_upper, 1/C_lower): the smallest C
    for which C^-1 r^alpha <= mass <= C r^alpha holds over all scanned scales
    and centers. Scales below the grid resolution are rejected because mass
    ratios are meaningless under the discretization scale.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValidationError(f"alpha must lie in (0, 1], got {alpha}")
    if not math.isfinite(cap):
        raise ValidationError(f"cap must be finite, got {cap}")
    scales = tuple(float(r) for r in scales)
    if len(scales) == 0:
        raise ValidationError("need at least one scale")
    delta = nu.delta
    for r in scales:
        if not math.isfinite(r):
            raise ValidationError(f"scales must be finite, got {r}")
        if r < delta:
            raise ValidationError(
                f"scale {r} is below the grid resolution {delta}; regularity is "
                "meaningless below the discretization scale"
            )
        if r > 1.0:
            raise ValidationError(f"scale {r} exceeds the unit scale")
    centers = nu.positions
    per_scale = []
    for r in scales:
        ratios = nu.ball_mass(centers, r) / r**alpha
        per_scale.append((float(ratios.min()), float(ratios.max())))
    c_lower = min(lo for lo, _ in per_scale)
    c_upper = max(hi for _, hi in per_scale)
    c_nu = max(c_upper, 1.0 / c_lower) if c_lower > 0 else math.inf
    return RegularityReport(
        alpha=float(alpha),
        cap=float(cap),
        scales=scales,
        per_scale=tuple(per_scale),
        c_lower=c_lower,
        c_upper=c_upper,
        c_nu=float(c_nu),
        passed=bool(c_nu <= cap),
    )


def frostman_fit(nu: GridMeasure, scales: Iterable[float]) -> tuple[float, float]:
    """Empirical dimension estimate: slope of log max-ball-mass vs log r.

    Returns (slope, stderr). For an exactly self-similar measure sampled at
    its own scale ladder the slope reproduces the construction dimension.
    """
    scales = [float(r) for r in scales]
    if len(scales) < 3:
        raise ValidationError(f"need at least 3 scales, got {len(scales)}")
    if not all(0.0 < r < math.inf for r in scales):
        raise ValidationError(f"scales must be positive and finite, got {scales}")
    centers = nu.positions
    masses = [float(nu.ball_mass(centers, r).max()) for r in scales]
    fit = loglog_fit(scales, masses)
    return fit.slope, fit.stderr


# ---------------------------------------------------------------------------
# Serialization: line-oriented `index,weight` with a header
# ---------------------------------------------------------------------------

def _text_blocks(nu: GridMeasure):
    """The `index,weight` text of nu: the header, then the atom lines in
    strings of at most 4096 atoms, so writing them holds one block."""
    block = 1 << 12
    header = f"# grid-measure base={nu.base} level={nu.level}"
    if nu.dimension_hint is not None:
        header += f" dimension_hint={nu.dimension_hint!r}"
    yield header + "\nindex,weight\n"
    for start in range(0, nu.atom_count, block):
        rows = zip(nu.indices[start : start + block].tolist(), nu.weights[start : start + block].tolist())
        yield "".join(f"{i},{w!r}\n" for i, w in rows)


def grid_measure_to_text(nu: GridMeasure) -> str:
    """Serialize to the `index,weight` line format. Weights are written with
    shortest round-trip float repr, so the round-trip is bit-exact."""
    return "".join(_text_blocks(nu))


def grid_measure_from_text(text: str) -> GridMeasure:
    return _parse_measure(text.splitlines())


def _parse_measure(lines) -> GridMeasure:
    """The grid measure of `index,weight` text lines, parsed 4096 at a time
    into int64 and float64 arrays, so a file streams: about 30 B per atom."""
    lines = filter(None, map(str.strip, lines))
    head = next(lines, "")
    if not head.startswith("# grid-measure"):
        raise ValidationError("missing grid-measure header line")
    fields = dict(token.partition("=")[::2] for token in head.split()[2:])
    try:
        base, level = int(fields["base"]), int(fields["level"])
        hint = float(fields["dimension_hint"]) if "dimension_hint" in fields else None
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"bad grid-measure header: {head!r}") from exc
    first = next(lines, "index,weight")  # an empty body reads as the bare column line
    if first.lower() != "index,weight":
        lines = itertools.chain([first], lines)
    indices, weights = array("q"), array("d")
    while block := [_atom(ln) for ln in itertools.islice(lines, 1 << 12)]:
        indices.extend([i for i, _ in block])
        weights.extend([w for _, w in block])
    return GridMeasure(base, level, np.frombuffer(indices, dtype=np.int64), np.frombuffer(weights), hint)


def _atom(ln: str) -> tuple[int, float]:
    si, _, sw = ln.partition(",")
    try:
        index, weight = int(si), float(sw)
    except ValueError as exc:
        raise ValidationError(f"bad atom line: {ln!r}") from exc
    if not -(1 << 63) <= index < 1 << 63:
        raise ValidationError(f"bad atom line: {ln!r}: index past int64")
    return index, weight


def save_grid_measure(nu: GridMeasure, path) -> None:
    """grid_measure_to_text(nu) written to path a block at a time."""
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(_text_blocks(nu))


def load_grid_measure(path) -> GridMeasure:
    with open(path, "r", encoding="ascii") as fh:
        return _parse_measure(fh)
