import math
import re
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import fractalab as fl
from conftest import dense_copy, in_capped_child, random_grid_measure, upsample_pmf
from fractalab import energy, quadrature
from fractalab.energy import _fourth_moment_quadrature, _gap_correlation
from fractalab.errors import BudgetError, ValidationError


def quadruple_energy_oracle(nu, r):
    """Literal enumeration of nu^4 over atom quadruples (tiny inputs only)."""
    pos = nu.positions
    w = nu.weights
    total = 0.0
    for i, j, k, l in iproduct(range(len(pos)), repeat=4):
        if abs((pos[i] + pos[j]) - (pos[k] + pos[l])) < r:
            total += w[i] * w[j] * w[k] * w[l]
    return total


def bruteforce_refusal():
    """The BudgetError message of the O(N^4) oracle on 201 atoms, one past
    its guard, or None when it ran."""
    rng = np.random.default_rng(5)
    idx = np.sort(rng.choice(1024, 201, replace=False))
    w = np.full(201, 1.0 / 201.0)
    w[-1] = 1.0 - w[:-1].sum()
    nu = fl.GridMeasure(base=2, level=10, indices=idx, weights=w)
    try:
        fl.additive_energy(nu, 0.25, "bruteforce")
    except BudgetError as exc:
        return str(exc)
    return None


def sumset_oracle(nu):
    out = {}
    for (i, wi), (j, wj) in iproduct(zip(nu.indices.tolist(), nu.weights.tolist()), repeat=2):
        out[i + j] = out.get(i + j, 0.0) + wi * wj
    return out


def sumset_scatter_oracle(nu):
    """One np.add.at over every ordered atom pair, in row-major order."""
    q = np.zeros(2 * nu.grid_size - 1)
    idx, w = nu.indices, nu.weights
    np.add.at(q, (idx[:, None] + idx[None, :]).ravel(), (w[:, None] * w[None, :]).ravel())
    return q


def sumset_triangle_oracle(nu):
    """One np.add.at over the unordered atom pairs i <= j, in row-major
    order: 2 w_i w_j off the diagonal, w_i w_i on it."""
    q = np.zeros(2 * nu.grid_size - 1)
    idx, w = nu.indices, nu.weights
    i, j = np.triu_indices(idx.size)
    np.add.at(q, idx[i] + idx[j], np.where(i < j, 2.0, 1.0) * w[i] * w[j])
    return q


def explicit_window_energy(q, delta, rs):
    """E(r) from one full-length window per radius and one np.sum over all
    of q: the unblocked form of the streamed window sum."""
    m = q.size
    cum = np.empty(m + 1)
    cum[0] = 0.0
    np.cumsum(q, out=cum[1:])
    energies = []
    for r in rs:
        k = energy._strict_window_gap(delta, r, m - 1)
        window = np.full(m, cum[m])
        window[: m - k] = cum[k + 1 :]
        window[k:] -= cum[: m - k]
        energies.append(min(float(np.sum(q * window)), 1.0))
    return energies


class TestSumset:
    def test_binomial(self, two_atom_half):
        q = fl.sumset_autocorrelation(two_atom_half)
        assert q.values.tolist() == [0.25, 0.5, 0.25]

    def test_single_atom(self):
        q = fl.sumset_autocorrelation(fl.point_mass())
        assert q.values.tolist() == [1.0]

    def test_middle_thirds_level_2_has_nine_sums(self):
        nu = fl.build_cantor(fl.middle_thirds(2))
        q = fl.sumset_autocorrelation(nu)
        oracle = sumset_oracle(nu)
        assert np.count_nonzero(q.values) == 9
        assert np.flatnonzero(q.values).tolist() == sorted(oracle)
        for s, v in oracle.items():
            assert q.values[s] == pytest.approx(v, rel=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_mass_one_and_nonnegative(self, seed):
        nu = random_grid_measure(np.random.default_rng(seed), max_atoms=25)
        q = fl.sumset_autocorrelation(nu)
        assert abs(q.total_mass - 1.0) <= 1e-12
        assert np.all(q.values >= 0.0)

    @staticmethod
    def _assert_one_scatter(monkeypatch, block, indices, rng):
        if block is not None:
            monkeypatch.setattr(energy, "_BLOCK", block)
        weights = rng.random(indices.size) + 0.05
        nu = fl.GridMeasure(base=3, level=9, indices=indices, weights=weights / weights.sum())
        q = fl.sumset_autocorrelation(nu).values
        assert q.tobytes() == sumset_triangle_oracle(nu).tobytes()
        ordered = sumset_scatter_oracle(nu)
        assert np.max(np.abs(q - ordered)) <= 1e-14 * np.max(ordered)

    @pytest.mark.parametrize(
        "block, atoms",
        [
            (None, 1),  # one 1 x 1 tile
            (None, 180),  # one tile, one short of the side (181)
            (None, 181),  # one full tile
            (None, 182),  # 2 x 2 tiles, the last row and column one wide
            (None, 1000),  # 6 x 6 tiles, the last 95 wide
            (None, 4096),  # 23 x 23 tiles, the last 114 wide
            (64, 5),  # side 8: one 5 x 5 tile
            (64, 100),  # side 8: 13 x 13 tiles, the last 4 wide
            (64, 1000),  # side 8: 125 x 125 full tiles
            (64, 1001),  # side 8: the last tile 1 wide
        ],
    )
    def test_blocked_scatter_is_one_scatter(self, monkeypatch, block, atoms):
        rng = np.random.default_rng(atoms)
        indices = np.sort(rng.choice(3**9, size=atoms, replace=False))
        self._assert_one_scatter(monkeypatch, block, indices, rng)

    @pytest.mark.parametrize("block, atoms", [(None, 1000), (64, 300)])
    def test_clustered_scatter_is_one_scatter(self, monkeypatch, block, atoms):
        # a narrow band, where many tiles share each sum, and both grid ends
        rng = np.random.default_rng(atoms)
        band = 9000 + np.sort(rng.choice(atoms, size=atoms - 4, replace=False))
        indices = np.concatenate(([0, 1], band, [3**9 - 2, 3**9 - 1]))
        self._assert_one_scatter(monkeypatch, block, indices, rng)


# The dense oracle scatter-adds N**2 atom pairs and correlates a sumset of
# 2 * base**level - 1 entries, so both are capped; levels stay in 0..8.
L2_MAX_GRID = 3**8
L2_MAX_ATOMS = 2**11


def _l2_level_st(base, digits):
    top = max(
        k for k in range(9) if base**k <= L2_MAX_GRID and len(digits) ** k <= L2_MAX_ATOMS
    )
    return st.builds(fl.CantorSpec, st.just(base), st.just(digits), st.integers(0, top))


# random nonempty digit sets, so some lack 0 or base - 1 and the padded
# digit pmf has zero ends
l2_spec_st = (
    st.integers(2, 7)
    .flatmap(
        lambda base: st.sets(st.integers(0, base - 1), min_size=1).map(
            lambda s: (base, tuple(sorted(s)))
        )
    )
    .flatmap(lambda bd: _l2_level_st(*bd))
)
L2_EXAMPLES = (
    fl.CantorSpec(5, (1, 3), 5),  # neither 0 nor base - 1
    fl.CantorSpec(4, (0, 2), 6),  # no base - 1
    fl.CantorSpec(7, (6,), 4),  # one digit, no 0
    fl.CantorSpec(3, (0, 1, 2), 7),  # full digit set, gap correlation past 4096
)


def _with_l2_examples(test):
    for spec in L2_EXAMPLES:
        test = example(spec)(test)
    return test


class TestCantorRoute:
    """build_cantor measures take the level-by-level sumset and gap
    correlation; a spec-less copy of the same atoms takes np.add.at and the
    convolution/FFT and is the oracle."""

    @settings(max_examples=40, deadline=None)
    @given(l2_spec_st)
    @_with_l2_examples
    def test_sumset_matches_dense_route(self, spec):
        nu = fl.build_cantor(spec)
        fast = fl.sumset_autocorrelation(nu)
        oracle = fl.sumset_autocorrelation(dense_copy(nu))
        assert (fast.base, fast.level) == (oracle.base, oracle.level)
        assert fast.values.size == oracle.values.size == 2 * spec.base**spec.level - 1
        assert np.max(np.abs(fast.values - oracle.values)) <= 1e-15
        assert abs(fast.total_mass - 1.0) <= 1e-12
        assert np.all(fast.values >= 0.0)

    @settings(max_examples=40, deadline=None)
    @given(l2_spec_st)
    @_with_l2_examples
    def test_gap_correlation_matches_dense_route(self, spec):
        nu = fl.build_cantor(spec)
        c, offset = _gap_correlation(nu)
        c_dense, offset_dense = _gap_correlation(dense_copy(nu))
        assert c.size == c_dense.size and offset == offset_dense
        assert offset == 2 * spec.base**spec.level - 2
        assert np.max(np.abs(c - c_dense)) <= 1e-15
        assert abs(float(np.sum(c)) - 1.0) <= 1e-12
        assert np.all(c >= 0.0)

    @settings(max_examples=25, deadline=None)
    @given(l2_spec_st)
    @_with_l2_examples
    def test_energy_profile_equals_additive_energy(self, spec):
        nu = fl.build_cantor(spec)
        rs = [nu.delta * 1.9**j for j in range(5)]
        fast, oracle = (fl.energy_profile(m, rs, 0.5).energies for m in (nu, dense_copy(nu)))
        assert fast == tuple(fl.additive_energy(nu, r) for r in rs)
        assert oracle == tuple(fl.additive_energy(dense_copy(nu), r) for r in rs)
        assert np.max(np.abs(np.subtract(fast, oracle))) <= 1e-10

    def test_budget_guard_before_allocation(self):
        # one atom, grid 2**25 > the 2**24 dense-sumset limit
        nu = fl.build_cantor(fl.CantorSpec(2, (0,), 25))
        cut = fl.CutoffFunction("fejer", 2.0)
        with pytest.raises(BudgetError, match="sumset grid"):
            fl.smoothed_fourth_moment(nu, 4.0, cut)
        with pytest.raises(BudgetError, match="sumset grid"):
            fl.sumset_autocorrelation(nu)


def exact_digit_dp(spec, rs):
    """E(r) of a build_cantor measure in exact rationals: P(|N_L| <= k) by
    the interval recursion over the D + D - D - D digit pmf, k the strict
    window gap of the grid route."""
    b, n = spec.base, len(spec.digits)
    counts = {}
    for d in iproduct(spec.digits, repeat=4):
        e = d[0] + d[1] - d[2] - d[3]
        counts[e] = counts.get(e, 0) + 1
    pmf = sorted((e, Fraction(c, n**4)) for e, c in counts.items())
    e_max = max(counts)

    @lru_cache(maxsize=None)
    def prob(m, lo, hi):
        bound = e_max * (b**m - 1) // (b - 1)
        lo, hi = max(lo, -bound), min(hi, bound)
        if lo > hi:
            return Fraction(0)
        if (lo, hi) == (-bound, bound):
            return Fraction(1)
        return sum(p * prob(m - 1, -((e - lo) // b), (hi - e) // b) for e, p in pmf)

    bound = e_max * (b**spec.level - 1) // (b - 1)
    return [prob(spec.level, -k, k) for k in
            (energy._strict_window_gap(float(b) ** -spec.level, r, bound) for r in rs)]


def _dp_radii(nu):
    """The dyadic sweep, a sub-grid radius (k = 0), a half-integer gap and
    one past the diameter (every quadruple)."""
    return fl.dyadic_r_sweep(nu) + [nu.delta / 2.0, 2.5 * nu.delta, 3.0]


def _grid_route(nu, rs):
    return energy._energy_from_sumset(fl.sumset_autocorrelation(nu).values, nu.delta, rs)


class TestCantorDigitDP:
    """build_cantor energies by the digit DP against an exact rational DP
    and against the sumset window (the grid route)."""

    @pytest.mark.parametrize(
        "spec",
        [fl.CantorSpec(3, (0, 2), 10), fl.CantorSpec(4, (0, 3), 8), fl.CantorSpec(5, (0, 1, 4), 8),
         fl.CantorSpec(7, (1, 3, 4), 6)],
        ids=str,
    )
    def test_matches_exact_rational_dp(self, spec):
        nu = fl.build_cantor(spec)
        rs = _dp_radii(nu)
        got = energy._cantor_energies(spec, rs)
        for g, want in zip(got, exact_digit_dp(spec, rs)):
            assert abs(Fraction(g) - want) <= Fraction(2, 10**15) * want

    @pytest.mark.parametrize(
        "spec",
        [fl.CantorSpec(3, (0, 2), 8), fl.CantorSpec(3, (0, 2), 9), fl.CantorSpec(3, (0, 2), 12),
         fl.CantorSpec(4, (0, 3), 9), fl.CantorSpec(5, (0, 2), 7), fl.CantorSpec(2, (0, 1), 11),
         fl.CantorSpec(7, (2, 5), 5), fl.CantorSpec(3, (1,), 4)],
        ids=str,
    )
    def test_sets_of_at_most_two_digits_are_bitwise_the_grid_route(self, spec):
        # every value is a multiple of 16**-level, exact in both routes
        nu = fl.build_cantor(spec)
        sweep = [nu.delta * 2.0**j for j in range(nu.grid_size.bit_length() + 2)]
        got = np.array(fl.energy_profile(nu, sweep, 0.5).energies)
        assert got.tobytes() == np.array(_grid_route(nu, sweep)).tobytes()
        edges = [nu.delta / 2.0, 2.5 * nu.delta, 3.0]
        assert [fl.additive_energy(nu, r) for r in edges] == _grid_route(nu, edges)

    @pytest.mark.parametrize(
        "spec",
        [fl.CantorSpec(5, (0, 1, 4), 8), fl.CantorSpec(7, (1, 3, 4), 6),
         fl.CantorSpec(5, (0, 2, 4), 7), fl.CantorSpec(3, (0, 1, 2), 9)],
        ids=str,
    )
    def test_three_digit_sets_within_1e_12_of_the_grid_route(self, spec):
        nu = fl.build_cantor(spec)
        rs = _dp_radii(nu)
        got, want = np.array(energy._cantor_energies(spec, rs)), np.array(_grid_route(nu, rs))
        assert np.max(np.abs(got - want) / want) <= 1e-12

    def test_profile_past_the_dense_grid_cap(self):
        # grid 3**16 > 2**24 and 65,536 atoms: no sumset is formed
        nu = fl.build_cantor(fl.CantorSpec(3, (0, 2), 16))
        assert nu.grid_size > energy._MAX_GRID and nu.atom_count == 65_536
        energies = fl.energy_profile(nu, fl.dyadic_r_sweep(nu), nu.dimension_hint).energies
        assert len(energies) == 12
        assert all(0.0 < e <= 1.0 for e in energies)
        assert all(a < b for a, b in zip(energies, energies[1:]))
        with pytest.raises(BudgetError, match="sumset grid"):
            fl.sumset_autocorrelation(nu)
        with pytest.raises(BudgetError, match="sumset grid"):
            fl.energy_profile(dense_copy(nu), fl.dyadic_r_sweep(nu), 0.5)

    def test_refuses_bounds_past_exact_floats(self):
        # base 100 at level 9: |N_9| reaches 198 (100**9 - 1) / 99 ~ 2e18 > 2**53
        nu = fl.build_cantor(fl.CantorSpec(100, (0, 99), 9))
        with pytest.raises(BudgetError, match=r"2\*\*53"):
            fl.additive_energy(nu, 0.25)


class TestPolyphasePmf:
    """The polyphase digit-expansion pmf against the upsample-then-convolve
    build: bitwise on sets of at most two digits, whose phases have at most
    two nonzero taps (so no sum depends on its order), within 1e-15 of the
    max on three-digit sets."""

    @pytest.mark.parametrize("signs", [(1, 1), (1, 1, -1, -1)])
    @pytest.mark.parametrize(
        "spec",
        [fl.CantorSpec(3, (0, 2), 10), fl.CantorSpec(4, (0, 3), 9), fl.CantorSpec(5, (0, 2), 8),
         fl.CantorSpec(3, (0, 2), 12), fl.CantorSpec(2, (0, 1), 11), fl.CantorSpec(7, (2, 5), 5),
         fl.CantorSpec(6, (1, 4), 1), fl.CantorSpec(3, (1,), 4), fl.CantorSpec(3, (0, 2), 0)],
        ids=str,
    )
    def test_sets_of_at_most_two_digits_are_bitwise_equal(self, spec, signs):
        fast, oracle = energy._digit_expansion_pmf(spec, signs), upsample_pmf(spec, signs)
        assert fast.shape == oracle.shape
        assert fast.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("signs", [(1, 1), (1, 1, -1, -1)])
    @pytest.mark.parametrize(
        "spec", [fl.CantorSpec(5, (0, 1, 4), 8), fl.CantorSpec(7, (1, 3, 4), 6)], ids=str
    )
    def test_three_digit_sets_within_rounding(self, spec, signs):
        fast, oracle = energy._digit_expansion_pmf(spec, signs), upsample_pmf(spec, signs)
        assert fast.shape == oracle.shape
        assert np.max(np.abs(fast - oracle)) <= 1e-15 * np.max(oracle)


class TestWindowBlocks:
    """The streamed window sum against the explicit-window oracle, on q
    shorter than a block, a whole number of blocks, and one entry more."""

    @staticmethod
    def _q(source, m):
        if source == "random":
            q = np.random.default_rng(m).random(m)
        else:
            q = energy._digit_expansion_pmf(fl.CantorSpec(3, (0, 2), 9), (1, 1))[:m]
            q = np.pad(q, (0, m - q.size))
        return q / q.sum()

    @pytest.mark.parametrize("source", ["random", "cantor"])
    @pytest.mark.parametrize(
        "m", [1, 1001, energy._BLOCK - 1, 2 * energy._BLOCK, 2 * energy._BLOCK + 1]
    )
    def test_matches_explicit_windows(self, source, m):
        q = self._q(source, m)
        delta = 3.0**-9
        # k = 0, a few interior gaps, and k = m - 1 (r past the sumset diameter)
        rs = [delta / 2.0, 2.5 * delta, 777.0 * delta, m * delta / 3.0, 2.0 * m * delta]
        got = energy._energy_from_sumset(q, delta, rs)
        expected = explicit_window_energy(q, delta, rs)
        ks = [energy._strict_window_gap(delta, r, m - 1) for r in rs]
        assert ks[0] == 0 and ks[-1] == m - 1
        for g, e in zip(got, expected):
            assert abs(g - e) <= 1e-14 * e

    @pytest.mark.parametrize("source", ["random", "cantor"])
    @pytest.mark.parametrize("block", [None, 64])
    def test_radius_batch_is_bitwise_one_radius_at_a_time(self, monkeypatch, source, block):
        if block is not None:
            monkeypatch.setattr(energy, "_BLOCK", block)
        m = 3 * energy._BLOCK + 5
        q = self._q(source, m)
        delta = 3.0**-9
        rs = [delta / 2.0, 2.5 * delta, 40.0 * delta, m * delta / 3.0, m * delta / 1.5,
              2.0 * m * delta]
        ks = [energy._strict_window_gap(delta, r, m - 1) for r in rs]
        assert ks[0] == 0 and ks[-1] == m - 1
        alone = np.array([energy._energy_from_sumset(q, delta, [r])[0] for r in rs])
        batch = np.array(energy._energy_from_sumset(q, delta, rs))
        reversed_batch = np.array(energy._energy_from_sumset(q, delta, rs[::-1]))
        assert batch.tobytes() == alone.tobytes()
        assert reversed_batch.tobytes() == alone[::-1].tobytes()

    def test_peak_memory_is_one_prefix_sum(self):
        q = fl.sumset_autocorrelation(fl.build_cantor(fl.CantorSpec(3, (0, 2), 10))).values
        m = q.size
        assert m == 118_097
        rs = [3.0**-j for j in range(10, -1, -1)]
        tracemalloc.start()
        try:
            energy._energy_from_sumset(q, 3.0**-10, rs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the prefix sum, the window buffer and room for one more block
        assert peak <= (m + 1) * 8 + 2 * energy._BLOCK * 8


class TestAdditiveEnergy:
    def test_single_atom_is_one(self):
        assert fl.additive_energy(fl.point_mass(), 0.0001) == 1.0

    def test_two_atom_window_half(self, two_atom_half):
        # 16 quadruples; sums 0, 1/2, 1 with masses 1/4, 1/2, 1/4 -> sum of squares
        assert fl.additive_energy(two_atom_half, 0.5) == pytest.approx(3.0 / 8.0)
        assert quadruple_energy_oracle(two_atom_half, 0.5) == pytest.approx(3.0 / 8.0)

    def test_window_beyond_diameter_is_one(self, two_atom_half):
        assert fl.additive_energy(two_atom_half, 3.0) == 1.0

    def test_rejects_nonpositive_window(self, two_atom_half):
        with pytest.raises(ValidationError, match="positive"):
            fl.additive_energy(two_atom_half, 0.0)

    def test_bruteforce_guard(self):
        # in a capped child: a lost guard fails at its 10 s timeout
        message, _ = in_capped_child(bruteforce_refusal)
        assert message is not None and re.search("bruteforce", message)

    def test_unknown_algorithm(self, two_atom_half):
        with pytest.raises(ValidationError, match="algorithm"):
            fl.additive_energy(two_atom_half, 0.5, "fft")

    def test_matches_quadruple_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            nu = random_grid_measure(rng, max_atoms=6, max_level=4)
            for r in (0.03, 0.2, 0.9):
                oracle = quadruple_energy_oracle(nu, r)
                assert fl.additive_energy(nu, r, "bruteforce") == pytest.approx(oracle, rel=1e-12)
                assert fl.additive_energy(nu, r, "autocorrelation") == pytest.approx(
                    oracle, rel=1e-12
                )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_oracle_equivalence_on_dyadic_sweeps(self, seed):
        nu = random_grid_measure(np.random.default_rng(seed), max_atoms=40)
        diam = max(2.0 * nu.diameter, 8.0 * nu.delta)
        for k in range(6):
            r = diam / 2.0**k
            brute = fl.additive_energy(nu, r, "bruteforce")
            fast = fl.additive_energy(nu, r, "autocorrelation")
            assert abs(brute - fast) <= 1e-10 * max(brute, 1e-300)

    def test_monotone_in_r(self):
        rng = np.random.default_rng(23)
        nu = random_grid_measure(rng, max_atoms=30)
        rs = np.geomspace(nu.delta, 4.0, 12)
        es = [fl.additive_energy(nu, r) for r in rs]
        assert all(a <= b + 1e-15 for a, b in zip(es, es[1:]))
        assert all(0.0 < e <= 1.0 for e in es)

    def test_translation_and_reflection_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            nu = random_grid_measure(rng, max_atoms=20, max_level=5)
            grid = nu.grid_size
            shift = int(rng.integers(0, grid - nu.indices[-1]))
            translated = fl.GridMeasure(
                base=nu.base, level=nu.level, indices=nu.indices + shift, weights=nu.weights
            )
            reflected = fl.GridMeasure(
                base=nu.base,
                level=nu.level,
                indices=np.sort(grid - 1 - nu.indices),
                weights=nu.weights[::-1],
            )
            for r in (0.07, 0.4):
                base_e = fl.additive_energy(nu, r)
                assert fl.additive_energy(translated, r) == pytest.approx(base_e, rel=1e-12)
                assert fl.additive_energy(reflected, r) == pytest.approx(base_e, rel=1e-12)


class TestEnergyProfile:
    def test_uniform_measure_slope_near_one(self):
        nu = fl.build_cantor(fl.CantorSpec(base=2, digits=(0, 1), level=10))
        profile = fl.energy_profile(nu, fl.dyadic_r_sweep(nu), 1.0)
        assert abs(profile.fitted_exponent - 1.0) < 0.1

    def test_uniform_level_5_confirmed_by_bruteforce(self):
        nu = fl.build_cantor(fl.CantorSpec(base=2, digits=(0, 1), level=5))
        rs = fl.dyadic_r_sweep(nu)
        profile = fl.energy_profile(nu, rs, 1.0)
        for r, e in zip(profile.r_values, profile.energies):
            assert e == pytest.approx(fl.additive_energy(nu, r, "bruteforce"), rel=1e-12)

    def test_dyadic_sweep_keeps_the_12_largest_scales(self):
        # level 16 leaves 15 dyadic scales above 4 delta; the top 12 stay
        nu = fl.build_cantor(fl.CantorSpec(base=2, digits=(0, 1), level=16))
        rs = fl.dyadic_r_sweep(nu)
        assert len(rs) == 12
        assert rs[-1] == nu.diameter
        assert rs == [nu.diameter / 2.0**k for k in range(11, -1, -1)]
        assert rs[0] / 2.0 >= 4.0 * nu.delta

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_spec_less_profile_equals_additive_energy(self, seed):
        nu = random_grid_measure(np.random.default_rng(seed), max_atoms=300, max_level=8)
        rs = [nu.delta * 1.9**j for j in range(5)]
        assert fl.energy_profile(nu, rs, 0.5).energies == tuple(
            fl.additive_energy(nu, r) for r in rs
        )

    def test_single_atom_profile_is_flat(self):
        nu = fl.GridMeasure(base=2, level=5, indices=np.array([7]), weights=np.array([1.0]))
        profile = fl.energy_profile(nu, [0.125, 0.25, 0.5], 0.0)
        assert profile.energies == (1.0, 1.0, 1.0)
        assert profile.fitted_exponent == pytest.approx(0.0, abs=1e-12)

    def test_middle_thirds_level_9(self, middle_thirds_9):
        alpha = middle_thirds_9.dimension_hint
        profile = fl.energy_profile(
            middle_thirds_9, [3.0**-j for j in range(8, 0, -1)], alpha
        )
        assert alpha - 0.05 <= profile.fitted_exponent <= alpha + 1.0
        # level-4 bruteforce anchors the fast path at the shared scales
        mt4 = fl.build_cantor(fl.middle_thirds(4))
        for r in (1.0 / 3.0, 1.0 / 9.0):
            assert fl.additive_energy(mt4, r, "bruteforce") == pytest.approx(
                fl.additive_energy(mt4, r, "autocorrelation"), rel=1e-10
            )

    def test_trivial_bound_with_slack(self, middle_thirds_8):
        alpha = middle_thirds_8.dimension_hint
        rs = [3.0**-j for j in range(1, 7)]
        profile = fl.energy_profile(middle_thirds_8, rs, alpha)
        r0, e0 = max(zip(profile.r_values, profile.energies))  # coarsest scale calibrates the constant
        c = e0 / r0**alpha
        for r, e in zip(profile.r_values, profile.energies):
            assert e <= 4.0 * c * r**alpha

    def test_requires_geometric_sweep(self, middle_thirds_8):
        with pytest.raises(ValidationError, match="geometric"):
            fl.energy_profile(middle_thirds_8, [0.1, 0.2, 0.5], 0.6)

    def test_requires_three_scales(self, middle_thirds_8):
        with pytest.raises(ValidationError, match="3 scales"):
            fl.energy_profile(middle_thirds_8, [0.1, 0.2], 0.6)

    def test_rejects_subresolution_scales(self, middle_thirds_8):
        with pytest.raises(ValidationError, match="resolution"):
            fl.energy_profile(middle_thirds_8, [3.0**-10, 3.0**-9, 3.0**-8], 0.6)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_alpha(self, middle_thirds_8, alpha):
        with pytest.raises(ValidationError, match="alpha must be finite"):
            fl.energy_profile(middle_thirds_8, [1 / 27, 1 / 9, 1 / 3], alpha)


def smoothed_quadruple_oracle(nu, t, cutoff):
    pos = nu.positions
    w = nu.weights
    total = 0.0
    for i, j, k, l in iproduct(range(len(pos)), repeat=4):
        total += w[i] * w[j] * w[k] * w[l] * float(
            cutoff(t * (pos[i] - pos[k] + pos[j] - pos[l]))
        )
    return total


# criterion 8's gamma0 = 0.1 sweeps, the (product, t) pairs of the benchmark
CS_MOMENT_CASES = [
    (fl.CantorSpec(3, (0, 2), 10), (81.0, 243.0, 729.0)),
    (fl.CantorSpec(4, (0, 3), 9), (64.0, 256.0, 1024.0)),
    (fl.CantorSpec(5, (0, 2), 8), (25.0, 125.0, 625.0)),
]


class TestSmoothedEnergy:
    @pytest.mark.parametrize("spec, ts", CS_MOMENT_CASES, ids=lambda v: str(v))
    def test_moments_bitwise_equal_to_the_dense_gap_sum(self, spec, ts):
        # the moment read off the dense c of the upsample-then-convolve pmf,
        # psi at g delta over its nonzero gaps g > 0, in the same float
        # expressions as the cached nonzero-gap table
        nu = fl.build_cantor(spec)
        c = upsample_pmf(spec, (1, 1, -1, -1))
        offset = c.size // 2
        tail = c[offset + 1 :]
        nz = np.flatnonzero(tail)
        cut = fl.CutoffFunction("fejer", 2.0)
        for t in ts:
            want = float(c[offset] + 2.0 * np.dot(tail[nz], cut(t * ((nz + 1) * nu.delta))))
            assert fl.smoothed_fourth_moment(nu, t, cut).hex() == want.hex()

    def test_gap_table_holds_the_nonzero_gaps(self):
        nu = fl.build_cantor(fl.CantorSpec(3, (0, 2), 6))
        c, offset = _gap_correlation(nu)
        c0, cg, positions = energy._gap_table(nu)
        nz = np.flatnonzero(c[offset + 1 :])
        assert c0 == c[offset] and cg.tobytes() == c[offset + 1 :][nz].tobytes()
        assert positions.tobytes() == ((nz + 1) * nu.delta).tobytes()
        assert not cg.flags.writeable and not positions.flags.writeable
        assert energy._gap_table(nu)[1] is cg

    def test_point_mass_gives_psi_zero(self):
        cut = fl.CutoffFunction("fejer", 1.0)
        space, fourier = fl.smoothed_energy(fl.point_mass(), 4.0, cut)
        assert space == pytest.approx(1.0, abs=1e-12)
        assert fourier == pytest.approx(1.0, rel=1e-8)

    def test_two_atom_parseval(self, two_atom_half):
        cut = fl.CutoffFunction("fejer", 1.0)
        space, fourier = fl.smoothed_energy(two_atom_half, 10.0, cut)
        oracle = smoothed_quadruple_oracle(two_atom_half, 10.0, cut)
        assert space == pytest.approx(oracle, rel=1e-12)
        assert abs(space - fourier) <= 1e-6 * max(space, 1e-300)

    def test_space_matches_quadruple_oracle(self):
        rng = np.random.default_rng(8)
        cut = fl.CutoffFunction("fejer", 1.5)
        for _ in range(6):
            nu = random_grid_measure(rng, max_atoms=5, max_level=4)
            t = float(rng.uniform(1.0, 20.0))
            oracle = smoothed_quadruple_oracle(nu, t, cut)
            assert fl.smoothed_fourth_moment(nu, t, cut) == pytest.approx(oracle, rel=1e-11)

    def test_parseval_on_random_measures(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            nu = random_grid_measure(rng, max_atoms=200, max_level=7)
            t = float(rng.uniform(1.0, 25.0))
            cut = fl.CutoffFunction("fejer", float(rng.uniform(0.8, 2.5)))
            space, fourier = fl.smoothed_energy(nu, t, cut)
            assert abs(space - fourier) <= 1e-6 * max(abs(space), 1e-300)

    @pytest.mark.parametrize(
        "spec",
        [fl.CantorSpec(3, (0, 2), 6), fl.CantorSpec(4, (0, 3), 5), fl.CantorSpec(5, (0, 2), 4)],
    )
    def test_parseval_on_cantor_factors(self, spec):
        nu = fl.build_cantor(spec)
        cut = fl.CutoffFunction("fejer", 2.0)
        for t in (2.0, 9.0, 40.0):
            space, fourier = fl.smoothed_energy(nu, t, cut)
            assert abs(space - fourier) <= 1e-6 * abs(space)

    # spec-less measures correlate their sumsets (lengths 4095 and 8191) by
    # an FFT, build_cantor measures level by level
    @pytest.mark.parametrize(
        "nu",
        [
            fl.GridMeasure(2, 11, np.arange(0, 2048, 37), np.full(56, 1 / 56)),
            fl.GridMeasure(2, 12, np.arange(0, 4096, 37), np.full(111, 1 / 111)),
            fl.build_cantor(fl.CantorSpec(2, (0, 1), 11)),
            fl.build_cantor(fl.CantorSpec(3, (0, 2), 8)),
        ],
        ids=["fft-2^11", "fft-2^12", "cantor-2^11", "cantor-3^8"],
    )
    def test_half_sum_matches_two_sided_sum(self, nu):
        c, offset = _gap_correlation(nu)
        gaps = (np.arange(c.size) - offset) * nu.delta
        cut = fl.CutoffFunction("fejer", 1.5)
        for t in (1.0, 7.3, 60.0):
            two_sided = float(np.dot(c, cut(t * gaps)))
            half = fl.smoothed_fourth_moment(nu, t, cut)
            assert half == pytest.approx(two_sided, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "nu",
        [
            fl.build_cantor(fl.CantorSpec(3, (0, 2), 8)),
            fl.build_cantor(fl.CantorSpec(4, (0, 3), 6)),
            fl.build_cantor(fl.CantorSpec(5, (0, 2), 5)),
            random_grid_measure(np.random.default_rng(17), max_atoms=60, min_atoms=20),
        ],
        ids=["3:0,2:8", "4:0,3:6", "5:0,2:5", "random"],
    )
    def test_nonzero_gap_sum_matches_full_sum(self, nu):
        # the full sum over every gap g > 0, zeros of c included
        c, offset = _gap_correlation(nu)
        gaps = np.arange(1, c.size - offset) * nu.delta
        cut = fl.CutoffFunction("fejer", 2.0)
        for t in (1.0, 9.0, 81.0, 729.0):
            full = float(c[offset] + 2.0 * np.dot(c[offset + 1 :], cut(t * gaps)))
            assert fl.smoothed_fourth_moment(nu, t, cut) == pytest.approx(full, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_rejects_non_finite_t(self, two_atom_half, t):
        cut = fl.CutoffFunction("fejer", 1.0)
        with pytest.raises(ValidationError, match="finite"):
            fl.smoothed_energy(two_atom_half, t, cut)
        with pytest.raises(ValidationError, match="finite"):
            fl.smoothed_fourth_moment(two_atom_half, t, cut)

    def test_window_comparison_against_sharp_energy(self):
        # psi >= 1/2 on [-c, c] and psi <= 1/2 beyond, so the smoothed moment
        # is at most the sharp energy at scale c/t plus the tail supremum
        cut = fl.CutoffFunction("fejer", 1.0)
        c = 0.442946470689452 / cut.scale  # sinc(u)^2 = 1/2 at u ~= 0.442946470689452
        tail = 0.5 + 1e-9
        rng = np.random.default_rng(31)
        for _ in range(10):
            nu = random_grid_measure(rng, max_atoms=30, max_level=5)
            t = float(rng.uniform(1.0, 40.0))
            space = fl.smoothed_fourth_moment(nu, t, cut)
            assert space <= fl.additive_energy(nu, c / t) + tail

    def test_rejects_t_below_one(self, two_atom_half):
        with pytest.raises(ValidationError):
            fl.smoothed_energy(two_atom_half, 0.5, fl.CutoffFunction("fejer", 1.0))

    @pytest.mark.parametrize(
        "source, t",
        [
            (512, 4.0),
            (512, 16.0),
            (1024, 4.0),
            pytest.param(fl.CantorSpec(3, (0, 2), 8), 9.0, id="3:0,2:8-9.0"),
            pytest.param(fl.CantorSpec(4, (0, 3), 5), 40.0, id="4:0,3:5-40.0"),
            pytest.param(fl.CantorSpec(5, (0, 1, 4), 6), 2.0, id="5:0,1,4:6-2.0"),
        ],
    )
    def test_fourier_side_matches_dense_transform_integrand(self, monkeypatch, source, t):
        # the fast integrand (the lattice transform of a random measure with
        # `source` atoms, the Riesz power spectrum of a Cantor measure)
        # against the dense transform at the same Gauss-Legendre nodes
        if isinstance(source, fl.CantorSpec):
            nu = fl.build_cantor(source)
        else:
            rng = np.random.default_rng(source + int(t))
            indices = np.sort(rng.choice(3**8, size=source, replace=False))
            weights = rng.random(source) + 0.05
            nu = fl.GridMeasure(3, 8, indices, weights / weights.sum())
        cut = fl.CutoffFunction("fejer", 2.0)
        route = "power_spectrum" if nu.spec is not None else "transform_on_grid"
        fast_route = getattr(fl.GridMeasure, route)
        nodes = {}

        def recording(self, *args):
            nodes["fast"] = args
            return fast_route(self, *args)

        def dense(self, *args):
            nodes["dense"] = args
            if route == "power_spectrum":
                return np.abs(self.transform(args[0])) ** 2
            coarse, fine = args
            return self.transform(coarse[:, None] + fine)

        monkeypatch.setattr(fl.GridMeasure, route, recording)
        fast = _fourth_moment_quadrature(nu, t, cut)
        monkeypatch.setattr(fl.GridMeasure, route, dense)
        oracle = _fourth_moment_quadrature(nu, t, cut)
        assert len(nodes["fast"]) == len(nodes["dense"])
        for a, b in zip(nodes["fast"], nodes["dense"]):
            assert a.tobytes() == b.tobytes()
        assert np.size(nodes["fast"][-1]) % quadrature.PANEL_NODES == 0
        assert fast == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_fourier_side_within_rounding_of_space_side(self, two_atom_half):
        # the a-priori panels leave only rounding between the two Parseval
        # sides, on the measures of the Parseval tests above
        rng = np.random.default_rng(12)
        cases = [(fl.point_mass(), 4.0, 1.0), (two_atom_half, 10.0, 1.0)]
        for _ in range(8):
            nu = random_grid_measure(rng, max_atoms=200, max_level=7)
            cases.append((nu, float(rng.uniform(1.0, 25.0)), float(rng.uniform(0.8, 2.5))))
        for spec in (fl.CantorSpec(3, (0, 2), 6), fl.CantorSpec(4, (0, 3), 5),
                     fl.CantorSpec(5, (0, 2), 4)):
            cases += [(fl.build_cantor(spec), t, 2.0) for t in (2.0, 9.0, 40.0)]
        for nu, t, scale in cases:
            space, fourier = fl.smoothed_energy(nu, t, fl.CutoffFunction("fejer", scale))
            assert abs(space - fourier) <= 1e-13 * space

    def test_fourier_side_is_bitwise_repeatable(self):
        rng = np.random.default_rng(4)
        indices = np.sort(rng.choice(3**8, size=512, replace=False))
        weights = rng.random(512) + 0.05
        cut = fl.CutoffFunction("fejer", 2.0)
        for nu in (fl.GridMeasure(3, 8, indices, weights / weights.sum()),
                   fl.build_cantor(fl.CantorSpec(3, (0, 2), 8))):
            for t in (4.0, 16.0):
                runs = {_fourth_moment_quadrature(nu, t, cut).hex() for _ in range(3)}
                assert len(runs) == 1


class TestCutoff:
    def test_fejer_normalization(self):
        cut = fl.CutoffFunction("fejer", 1.0)
        assert float(cut(0.0)) == 1.0
        assert float(cut.transform(0.0)) == 1.0
        assert float(cut.transform(1.0)) == 0.0
        xs = np.linspace(-5, 5, 1001)
        assert np.all(cut(xs) >= 0.0)
        assert np.all(cut.transform(xs) >= 0.0)

    def test_dilated_transform_support(self):
        cut = fl.CutoffFunction("fejer", 2.0)
        assert cut.transform_support == 2.0
        assert float(cut.transform(1.9)) > 0.0
        assert float(cut.transform(2.1)) == 0.0
        assert float(cut(0.0)) == 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="fejer"):
            fl.CutoffFunction("gauss", 1.0)

    @pytest.mark.parametrize("scale", [math.inf, math.nan, 0.0, -1.0])
    def test_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(ValidationError, match="must be positive and finite"):
            fl.CutoffFunction("fejer", scale)

    @pytest.mark.parametrize("entry", ["smoothed_fourth_moment", "smoothed_energy",
                                       "angular_decomposition"])
    def test_no_entry_point_takes_an_infinite_scale(self, middle_thirds_8, entry):
        # scale = inf gave nan, an OverflowError and "use a scale > 1" here
        calls = {
            "smoothed_fourth_moment": lambda cut: fl.smoothed_fourth_moment(middle_thirds_8, 9.0, cut),
            "smoothed_energy": lambda cut: fl.smoothed_energy(middle_thirds_8, 9.0, cut),
            "angular_decomposition": lambda cut: fl.angular_decomposition(
                fl.build_product([middle_thirds_8] * 2, [0.5, 0.5]), 81.0, 0.1, cut),
        }
        with pytest.raises(ValidationError, match="must be positive and finite"):
            calls[entry](fl.CutoffFunction("fejer", math.inf))


class TestDzBeta:
    def test_closed_form_value(self):
        params = fl.dz_beta(0.5, 1.0, 1.0)
        assert params.beta == pytest.approx(0.5 * math.exp(-math.exp(math.sqrt(2.0))), rel=1e-12)
        assert params.beta == pytest.approx(8.177e-3, rel=1e-3)

    def test_vanishes_as_alpha_to_one(self):
        betas = [fl.dz_beta(a, 2.0, 1.0).beta for a in (0.5, 0.7, 0.9)]
        assert betas[0] > betas[1] > betas[2]
        assert betas[-1] < 1e-25

    def test_monotone_in_c_nu_and_k(self):
        assert fl.dz_beta(0.5, 1.0, 1.0).beta > fl.dz_beta(0.5, 10.0, 1.0).beta
        assert fl.dz_beta(0.5, 2.0, 1.0).beta > fl.dz_beta(0.5, 2.0, 3.0).beta

    @given(
        alpha=st.floats(0.01, 0.99),
        c_nu=st.floats(1.0, 100.0),
        k=st.floats(0.1, 5.0),
    )
    def test_beta_lies_in_open_interval(self, alpha, c_nu, k):
        # the double exponential underflows float64 past inner ~ 6.57;
        # positivity is only checkable on the representable domain
        inner = k * math.sqrt(1.0 + math.log(c_nu)) / math.sqrt(1.0 - alpha)
        assume(inner < 6.5)
        beta = fl.dz_beta(alpha, c_nu, k).beta
        assert 0.0 < beta < alpha

    @pytest.mark.parametrize("alpha", [1.0 - 1e-5, 1.0 - 2e-6, 0.99999999999])
    def test_underflows_to_zero_without_overflow(self, alpha):
        # inner = 1 / sqrt(1 - alpha) at C_nu = 1: 316, 707 and 3.2e5, the
        # last past the ~709.8 where exp(inner) would overflow
        assert fl.dz_beta(alpha, 1.0, 1.0).beta == 0.0

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.3, -0.2])
    def test_rejects_alpha_outside_open_interval(self, alpha):
        with pytest.raises(ValidationError):
            fl.dz_beta(alpha, 2.0, 1.0)

    @pytest.mark.parametrize(
        "c_nu, k, name",
        [(math.nan, 1.0, "C_nu"), (math.inf, 1.0, "C_nu"), (2.0, math.inf, "K")],
    )
    def test_rejects_bad_c_nu_and_k_naming_them(self, c_nu, k, name):
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            fl.dz_beta(0.5, c_nu, k)


_MT4 = fl.build_cantor(fl.middle_thirds(4))
_MT4_SQUARED = fl.build_product([_MT4, _MT4], [0.5, 0.5])


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: fl.additive_energy(_MT4, math.inf), "window r"),
        (lambda: fl.additive_energy(_MT4, math.nan), "window r"),
        (lambda: fl.energy_profile(_MT4, [0.1, 0.2, math.inf], 0.5), "r_values"),
        (lambda: fl.energy_profile(_MT4, [0.1, math.nan, 0.4], 0.5), "r_values"),
        (lambda: fl.solid_average(_MT4, 3.0, (math.nan, 1.0)), "interval"),
        (lambda: fl.solid_average(_MT4, 3.0, (-math.inf, 1.0)), "interval"),
        (lambda: fl.coverage_report(fl.distance_measure(_MT4_SQUARED, 0.05), [math.nan]), "widths"),
        (lambda: fl.coverage_report(fl.distance_measure(_MT4_SQUARED, 0.05), [math.inf]), "widths"),
        (lambda: fl.energy_integral(_MT4_SQUARED, math.nan), "s"),
        (lambda: fl.energy_integral(_MT4, math.inf), "s"),
    ],
    ids=[
        "additive_energy-inf", "additive_energy-nan", "energy_profile-inf", "energy_profile-nan",
        "solid_average-nan", "solid_average--inf", "coverage_report-nan", "coverage_report-inf",
        "energy_integral-nan", "energy_integral-inf",
    ],
)
def test_non_finite_arguments_raise_validation_error(call, name):
    # each names the offending argument
    with pytest.raises(ValidationError, match=f"{name} must be .*finite"):
        call()
