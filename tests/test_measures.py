import math
from itertools import combinations, product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fractalab as fl
from conftest import dense_copy, exact_phase_transform, in_capped_child, product_ft, random_grid_measure
from fractalab import measures
from fractalab.errors import BudgetError, ValidationError


def enumerate_cantor_indices(base, digits, level):
    """Independent oracle: all level-deep digit expansions over `digits`."""
    out = set()
    for combo in iproduct(digits, repeat=level):
        idx = 0
        for d in combo:
            idx = idx * base + d
        out.add(idx)
    return sorted(out)


def scan_ball_masses(nu, r):
    """Independent O(N^2) closed-ball scan at every atom center."""
    pos = nu.positions
    return np.array([nu.weights[np.abs(pos - x) <= r].sum() for x in pos])


cantor_spec_st = st.integers(2, 6).flatmap(
    lambda base: st.tuples(
        st.just(base),
        st.sets(st.integers(0, base - 1), min_size=1, max_size=base).map(
            lambda s: tuple(sorted(s))
        ),
        st.integers(0, 5),
    )
)


class TestCantorSpec:
    def test_middle_thirds_dimension(self):
        spec = fl.middle_thirds(4)
        assert spec.dimension == pytest.approx(math.log(2) / math.log(3))

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(base=1, digits=(0,), level=1), "base"),
            (dict(base=3, digits=(), level=1), "digits"),
            (dict(base=3, digits=(0, 3), level=1), "digits"),
            (dict(base=3, digits=(2, 0), level=1), "digits"),
            (dict(base=3, digits=(0, 2), level=-1), "level"),
        ],
    )
    def test_invalid_specs_name_the_field(self, kwargs, fragment):
        with pytest.raises(ValidationError, match=fragment):
            fl.CantorSpec(**kwargs)


class TestBuildCantor:
    def test_one_step_middle_thirds(self):
        nu = fl.build_cantor(fl.middle_thirds(1))
        assert list(zip(nu.indices.tolist(), nu.weights.tolist())) == [(0, 0.5), (2, 0.5)]
        assert nu.delta == pytest.approx(1.0 / 3.0)

    def test_two_step_indices_match_enumeration(self):
        nu = fl.build_cantor(fl.middle_thirds(2))
        assert nu.indices.tolist() == enumerate_cantor_indices(3, (0, 2), 2)
        assert nu.indices.tolist() == [0, 2, 6, 8]
        assert np.all(nu.weights == 0.25)

    def test_full_digit_set_is_uniform(self):
        nu = fl.build_cantor(fl.CantorSpec(base=2, digits=(0, 1), level=3))
        assert nu.atom_count == 8
        assert np.all(nu.weights == 0.125)

    @settings(max_examples=40, deadline=None)
    @given(cantor_spec_st)
    def test_matches_enumeration_oracle(self, spec_tuple):
        base, digits, level = spec_tuple
        nu = fl.build_cantor(fl.CantorSpec(base=base, digits=digits, level=level))
        assert nu.indices.tolist() == enumerate_cantor_indices(base, digits, level)
        assert abs(float(nu.weights.sum()) - 1.0) <= 1e-12

    def test_cylinder_masses_are_self_similar(self):
        # dyadic weights: exact equality; otherwise within accumulation error
        nu = fl.build_cantor(fl.middle_thirds(8))
        for j, prefix in [(1, (2,)), (2, (0, 2)), (3, (2, 0, 2))]:
            start = 0
            for d in prefix:
                start = start * 3 + d
            start *= 3 ** (8 - j)
            mask = (nu.indices >= start) & (nu.indices < start + 3 ** (8 - j))
            assert float(nu.weights[mask].sum()) == 0.5**j

        tri = fl.build_cantor(fl.CantorSpec(base=5, digits=(0, 2, 4), level=6))
        mask = (tri.indices >= 2 * 5**5) & (tri.indices < 3 * 5**5)
        assert float(tri.weights[mask].sum()) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_atom_budget_is_checked_before_any_allocation(self):
        # under a 512 MiB address-space cap: a lost guard fails, not OOM-killed
        in_capped_child(atom_budget_case)

    def test_indices_past_int64_are_refused(self):
        # in a capped child too: without its guard, 2:1:10**9 loops a billion levels
        in_capped_child(index_budget_case)


def atom_budget_case():
    """TestBuildCantor's budget checks, run in a capped child process."""
    with pytest.raises(BudgetError, match=r"factor 2:0,1:34 has 2\*\*34 atoms, past its 2\*\*24"):
        fl.build_cantor(fl.CantorSpec(base=2, digits=(0, 1), level=34))
    with pytest.raises(BudgetError, match=r"2\*\*1000000000 atoms"):  # no 2**1e9 is formed
        fl.build_cantor(fl.CantorSpec(base=2, digits=(0, 1), level=10**9))
    assert fl.build_cantor(fl.CantorSpec(base=3, digits=(0,), level=100)).atom_count == 1
    # the budget is inclusive: under a budget of 3**6 atoms, 4:0,1,2:6 builds and level 7 is refused
    measures._MAX_ATOMS = 3**6  # the child exits after the case
    assert fl.build_cantor(fl.CantorSpec(base=4, digits=(0, 1, 2), level=6)).atom_count == 3**6
    with pytest.raises(BudgetError, match=r"factor 4:0,1,2:7 has 3\*\*7 atoms"):
        fl.build_cantor(fl.CantorSpec(base=4, digits=(0, 1, 2), level=7))


def index_budget_case():
    """build_cantor's int64 index checks, run in a capped child process."""
    # one atom at index 2**63 - 1 (digit 1 at every level) builds; a level more is refused
    assert int(fl.build_cantor(fl.CantorSpec(2, (1,), 63)).indices[0]) == 2**63 - 1
    for level in (64, 10**9):  # no 2**1e9 is formed
        with pytest.raises(BudgetError, match=rf"factor 2:1:{level} has indices up to "
                                              rf"1\*\(2\*\*{level} - 1\)/1, past its 2\*\*63 budget"):
            fl.build_cantor(fl.CantorSpec(2, (1,), level))
    # 10:0,1:19 keeps its exact largest index; 10:0,9:19's 10**19 - 1 used to wrap to a
    # diameter of -0.845
    nu = fl.build_cantor(fl.CantorSpec(10, (0, 1), 19))
    assert int(nu.indices[-1]) == (10**19 - 1) // 9 and nu.diameter > 0.0
    with pytest.raises(BudgetError, match=r"factor 10:0,9:19 has indices up to 9\*\(10\*\*19 - 1\)/9"):
        fl.build_cantor(fl.CantorSpec(10, (0, 9), 19))


# Cantor specs on grids of at most 3**8 points, which keeps every test
# frequency (up to 3x the validity cap 0.1 * base**level) below ~2000 and
# the dense oracle cheap.
SMALL_GRID = 3**8

small_grid_spec_st = st.integers(2, 7).flatmap(
    lambda base: st.builds(
        fl.CantorSpec,
        st.just(base),
        st.sets(st.integers(0, base - 1), min_size=1).map(lambda s: tuple(sorted(s))),
        st.integers(0, max(k for k in range(9) if base**k <= SMALL_GRID)),
    )
)
# frequencies as multiples of the validity cap, past it up to 3x
cap_multiples_st = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12)


class TestRieszTransform:
    @settings(max_examples=60, deadline=None)
    @given(small_grid_spec_st, cap_multiples_st)
    def test_matches_dense_sum(self, spec, multiples):
        # transform is the dense sum for every measure: a build_cantor
        # measure and its spec-less copy give the same bytes
        a = fl.build_cantor(spec)
        cap = 0.1 * spec.base**spec.level
        xi = cap * np.array([0.0, -1.0, 1.5, 3.0, *multiples])
        fast = a.transform(xi)
        assert fast.shape == xi.shape
        assert fast.tobytes() == dense_copy(a).transform(xi).tobytes()
        grid = np.concatenate([xi, -xi]).reshape(2, -1)
        fast2 = a.transform(grid)
        assert fast2.shape == grid.shape
        assert fast2.tobytes() == dense_copy(a).transform(grid).tobytes()
        scalar = a.transform(float(xi[-1]))
        assert isinstance(scalar, complex)
        assert scalar == dense_copy(a).transform(float(xi[-1]))
        assert isinstance(a.transform(np.float64(xi[-1])), complex)

    @settings(max_examples=30, deadline=None)
    @given(small_grid_spec_st, small_grid_spec_st, cap_multiples_st)
    def test_product_matches_dense_factors(self, spec_a, spec_b, multiples):
        # the product of build_cantor factors and of their spec-less copies
        # give the same bytes
        a, b = fl.build_cantor(spec_a), fl.build_cantor(spec_b)
        mu = fl.build_product([a, b], [0.5, 0.5])
        oracle = fl.build_product([dense_copy(a), dense_copy(b)], [0.5, 0.5])
        caps = np.array([0.1 * s.base**s.level for s in (spec_a, spec_b)])
        m = np.array(multiples)
        pairs = np.stack([m, m[::-1]], axis=-1) * caps
        for vectors in (pairs, np.stack([pairs, -pairs])):
            out = product_ft(mu, vectors)
            assert out.shape == vectors.shape[:-1]
            assert out.tobytes() == product_ft(oracle, vectors).tobytes()
        one = product_ft(mu, pairs[0])
        assert isinstance(one, complex)
        assert one == product_ft(oracle, pairs[0])

    def test_only_build_cantor_sets_the_spec(self):
        spec = fl.middle_thirds(4)
        nu = fl.build_cantor(spec)
        assert nu.spec is spec
        assert dense_copy(nu).spec is None
        with pytest.raises(TypeError, match="spec"):
            fl.GridMeasure(
                base=3, level=4, indices=nu.indices, weights=nu.weights, spec=spec
            )

    def test_text_round_trip_takes_the_dense_route(self):
        nu = fl.build_cantor(fl.CantorSpec(base=5, digits=(0, 2, 4), level=5))
        back = fl.grid_measure_from_text(fl.grid_measure_to_text(nu))
        assert back.spec is None
        xi = np.linspace(-400.0, 400.0, 2001)
        assert np.max(np.abs(back.transform(xi) - nu.transform(xi))) <= 1e-11

    def test_level_zero_is_exactly_one(self):
        nu = fl.build_cantor(fl.CantorSpec(base=7, digits=(3, 5), level=0))
        xi = np.array([0.0, -2.5, 1e-3, 1e9, -1e15])
        assert np.all(nu.transform(xi) == 1.0)
        assert nu.transform(12345.678) == 1.0
        assert np.all(nu.power_spectrum(xi) == 1.0)
        assert nu.power_spectrum(12345.678) == 1.0


@st.composite
def power_spectrum_spec_st(draw):
    """Base 2-7, up to 4 digits, level 0-10 with at most 4**6 atoms so the
    dense oracle stays cheap."""
    base = draw(st.integers(2, 7))
    digits = draw(st.sets(st.integers(0, base - 1), min_size=1, max_size=min(4, base)))
    top = max(k for k in range(11) if len(digits) ** k <= 4**6)
    return fl.CantorSpec(base, tuple(sorted(digits)), draw(st.integers(0, top)))


def pair_table_spectrum(spec, xi):
    """The Riesz product with its level coefficients from a table of digit
    pairs: c_g counted by np.bincount over the gaps d - d' > 0, then 1/|D|
    and 2 c_g/|D|^2, in power_spectrum's own loop order."""
    n = len(spec.digits)
    diffs = np.subtract.outer(spec.digits, spec.digits)
    pairs = np.bincount(diffs[diffs > 0])
    out = np.ones(xi.shape)
    for k in range(1, spec.level + 1):
        level = np.full(xi.shape, 1.0 / n)
        for g in np.flatnonzero(pairs).tolist():
            phase = xi * (g / spec.base**k)
            phase = np.cos((phase - np.rint(phase)) * (2.0 * np.pi))
            level += phase * (2.0 * pairs[g] / n**2)
        out *= np.maximum(level, 0.0)
    return out


def riesz_spec_grid():
    """Bases 2-12 with 1-6 digits: every digit set where a (base, count)
    has at most 6, else 6 drawn at a fixed seed; each at levels 0, 1, 3, 7."""
    rng = np.random.default_rng(7)
    for base in range(2, 13):
        for k in range(1, min(6, base) + 1):
            sets = list(combinations(range(base), k))
            if len(sets) > 6:
                sets = [sets[i] for i in sorted(rng.choice(len(sets), 6, replace=False))]
            for digits in sets:
                for level in (0, 1, 3, 7):
                    yield fl.CantorSpec(base, digits, level)


class TestPowerSpectrum:
    def test_digit_pmf_coefficients_match_the_pair_table_bitwise(self):
        xi = np.concatenate(([0.0], np.geomspace(1e-3, 1e4, 125), -np.geomspace(1e-3, 1e4, 125)))
        specs = list(riesz_spec_grid())
        assert len(specs) == 1180
        for spec in specs:
            # the D - D digit pmf at gaps g >= 0 is c_g / |D|^2: its double rounds like 2 c_g / |D|^2
            n, diffs = len(spec.digits), np.subtract.outer(spec.digits, spec.digits)
            p = measures._digit_pmf(spec, (1, -1))[spec.base - 1 :]
            pairs = np.bincount(diffs[diffs > 0], minlength=spec.base)
            assert p[0] == 1.0 / n and np.array_equal(2.0 * p[1:], 2.0 * pairs[1:] / n**2), spec
            fast = fl.build_cantor(spec).power_spectrum(xi)
            assert fast.tobytes() == pair_table_spectrum(spec, xi).tobytes(), spec

    @settings(max_examples=80, deadline=None)
    @given(power_spectrum_spec_st(), st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=24))
    def test_matches_dense_transform_squared(self, spec, freqs):
        nu = fl.build_cantor(spec)
        xi = np.array([0.0, 1e4, -1e4, *freqs])
        fast = nu.power_spectrum(xi)
        assert fast.shape == xi.shape
        assert np.all(fast >= 0.0)
        oracle = np.abs(dense_copy(nu).transform(xi)) ** 2
        assert np.max(np.abs(fast - oracle)) <= 2e-11

    @pytest.mark.parametrize(
        "spec",
        [
            fl.CantorSpec(3, (0, 1, 2), 6),
            fl.CantorSpec(4, (0, 1, 3), 5),
            fl.CantorSpec(6, (0, 2, 3, 5), 4),
        ],
    )
    def test_never_negative(self, spec):
        # with three or more digits a level factor can vanish (3:{0,1,2} at
        # xi = 3**k / 3), and there rounding alone would decide its sign
        nu = fl.build_cantor(spec)
        zeros = spec.base ** np.arange(1, 8) / 3.0
        xi = np.concatenate([np.linspace(-3000.0, 3000.0, 200_001), zeros])
        assert np.min(nu.power_spectrum(xi)) >= 0.0

    def test_shapes_and_scalars(self):
        nu = fl.build_cantor(fl.CantorSpec(5, (0, 2, 4), 5))
        grid = np.linspace(-300.0, 300.0, 24).reshape(2, 3, 4)
        out = nu.power_spectrum(grid)
        assert out.shape == grid.shape
        assert np.array_equal(out.ravel(), nu.power_spectrum(grid.ravel()))
        assert nu.power_spectrum(np.zeros((0, 3))).shape == (0, 3)
        for scalar in (7.25, np.float64(7.25), np.array(7.25)):
            value = nu.power_spectrum(scalar)
            assert type(value) is float
            assert value == nu.power_spectrum(np.array([7.25]))[0]
        assert type(nu.power_spectrum(7)) is float

    def test_spec_less_measures_square_the_transform(self):
        rng = np.random.default_rng(5)
        loaded = fl.grid_measure_from_text(fl.grid_measure_to_text(fl.build_cantor(fl.middle_thirds(6))))
        randoms = [
            fl.GridMeasure(3, 7, np.sort(rng.choice(3**7, 50, replace=False)), np.full(50, 0.02))
            for _ in range(2)
        ]
        xi = np.linspace(-2000.0, 2000.0, 4002).reshape(3, -1)
        for nu in (loaded, *randoms):
            assert nu.spec is None
            assert np.array_equal(nu.power_spectrum(xi), np.abs(nu.transform(xi)) ** 2)
            value = nu.power_spectrum(-17.5)
            assert type(value) is float and value == np.abs(nu.transform(-17.5)) ** 2

    def test_point_mass_is_the_level_zero_cantor_measure(self):
        pm = fl.point_mass()
        old = fl.GridMeasure(base=2, level=0, indices=np.array([0]), weights=np.array([1.0]))
        assert pm.spec == fl.CantorSpec(2, (0,), 0)
        assert pm.dimension_hint == 0.0
        assert pm.indices.tobytes() == old.indices.tobytes()
        assert pm.weights.tobytes() == old.weights.tobytes()
        xi = np.array([0.0, -0.0, 1.5, -2.5, 1e9, -1e15])
        assert pm.transform(xi).tobytes() == old.transform(xi).tobytes()
        assert np.all(pm.power_spectrum(xi) == 1.0)


@st.composite
def spec_less_measure_st(draw, max_atoms=1500):
    """A random spec-less measure: base 2-7, level 0-8, up to max_atoms atoms."""
    base = draw(st.integers(2, 7))
    level = draw(st.integers(0, 8))
    atoms = draw(st.integers(1, min(max_atoms, base**level)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indices = np.sort(rng.choice(base**level, size=atoms, replace=False))
    weights = rng.random(atoms) + 0.05
    return fl.GridMeasure(base, level, indices, weights / weights.sum())


class TestDenseSumOrder:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 64), st.sampled_from([1, 7, 40, 1 << 22]))
    def test_a_frequency_is_bitwise_the_same_alone_and_in_any_batch(self, seed, size, chunk):
        # each frequency is one row of a phase table, summed in a fixed order,
        # so neither the batch nor its place in a chunk of _CHUNK // atoms
        # rows moves its last bit
        rng = np.random.default_rng(seed)
        nu = random_grid_measure(rng, max_atoms=40)
        xi = rng.uniform(-300.0, 300.0, 97)
        want = nu.transform(xi)
        want_power = nu.power_spectrum(xi)
        assert [nu.transform(float(x)) for x in xi] == want.tolist()
        assert [nu.power_spectrum(float(x)) for x in xi] == want_power.tolist()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "_CHUNK", chunk)
            for start in range(0, xi.size, size):
                part = slice(start, start + size)
                assert nu.transform(xi[part]).tobytes() == want[part].tobytes()
                assert nu.power_spectrum(xi[part]).tobytes() == want_power[part].tobytes()
            grid = nu.transform(xi[:96].reshape(8, 12))
            assert grid.tobytes() == want[:96].tobytes()


class TestTransformOnGrid:
    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(spec_less_measure_st(), small_grid_spec_st.map(fl.build_cantor)),
        st.lists(st.floats(-5e3, 5e3), min_size=0, max_size=140),
        st.lists(st.floats(-5e3, 5e3), min_size=0, max_size=140),
    )
    def test_matches_dense_transform(self, nu, coarse, fine):
        coarse, fine = np.array(coarse), np.array(fine)
        fast = nu.transform_on_grid(coarse, fine)
        assert fast.shape == (coarse.size, fine.size)
        oracle = exact_phase_transform(nu, coarse[:, None] + fine)
        assert np.max(np.abs(fast - oracle), initial=0.0) <= 1e-11

    def test_tables_spanning_several_chunks(self, monkeypatch):
        # 2**13 atoms allow 2**22 / 2**13 = 512 rows per coarse table, so the
        # 586 coarse rows take two row chunks; a _CHUNK of 2**20 leaves 128
        # rows and 128 fine columns per table, so five row chunks and three
        # column chunks
        rng = np.random.default_rng(3)
        atoms = 2**13
        indices = np.sort(rng.choice(3**12, size=atoms, replace=False))
        weights = rng.random(atoms) + 0.05
        nu = fl.GridMeasure(3, 12, indices, weights / weights.sum())
        coarse = -1500.0 + 3.0 * np.arange(586)
        fine = 0.01 * np.arange(300)
        # the dense oracle around every row seam (128 and 512 rows) and
        # column seam (128 and 256 columns), and at the last row and column
        rows = np.array([0, 1, 126, 127, 128, 129, 254, 255, 256, 257, 510, 511, 512, 513, 585])
        cols = np.array([0, 1, 127, 128, 255, 256, 299])
        oracle = nu.transform(coarse[rows, None] + fine[cols])
        for chunk in (1 << 22, 1 << 20):
            monkeypatch.setattr(measures, "_CHUNK", chunk)
            fast = nu.transform_on_grid(coarse, fine)
            assert fast.shape == (586, 300)
            assert np.max(np.abs(fast[np.ix_(rows, cols)] - oracle)) <= 1e-11

    def test_cantor_measures_take_the_riesz_product_unchanged(self):
        # build_cantor measures take the factored route like any other
        # measure; on its lattice it still gives the dense sum, and its
        # squared modulus is the real Riesz product power_spectrum
        for spec in (fl.middle_thirds(8), fl.CantorSpec(5, (0, 2, 4), 6)):
            nu = fl.build_cantor(spec)
            for coarse, fine in ((0.37 * 24 * np.arange(209), 0.37 * np.arange(24)),
                                 (-800.5 + 12.5 * np.arange(129), 0.125 * np.arange(100)),
                                 (np.array([3.0]), np.array([0.0]))):
                xi = coarse[:, None] + fine
                fast = nu.transform_on_grid(coarse, fine)
                assert fast.shape == xi.shape
                assert np.max(np.abs(fast - nu.transform(xi))) <= 1e-11
                assert np.max(np.abs(np.abs(fast) ** 2 - nu.power_spectrum(xi))) <= 2e-11


class TestGridMeasureValidation:
    def test_rejects_duplicate_indices(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            fl.GridMeasure(base=2, level=2, indices=np.array([1, 1]), weights=np.array([0.5, 0.5]))

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValidationError, match="indices"):
            fl.GridMeasure(base=2, level=2, indices=np.array([4]), weights=np.array([1.0]))

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            fl.GridMeasure(base=2, level=1, indices=np.array([0]), weights=np.array([0.5]))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            fl.GridMeasure(
                base=2, level=1, indices=np.array([0, 1]), weights=np.array([1.5, -0.5])
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            fl.GridMeasure(base=3, level=2, indices=np.array([0, 4]), weights=np.array([bad, 1.0]))
        text = f"# grid-measure base=3 level=2\nindex,weight\n0,{bad}\n4,1.0\n"
        with pytest.raises(ValidationError, match="finite"):
            fl.grid_measure_from_text(text)

    def test_arrays_are_immutable(self):
        nu = fl.build_cantor(fl.middle_thirds(3))
        with pytest.raises(ValueError):
            nu.weights[0] = 0.7


class TestBuildProduct:
    def test_total_dimension_is_sum(self):
        a = fl.build_cantor(fl.middle_thirds(3))
        mu = fl.build_product([a, a], [a.dimension_hint, a.dimension_hint])
        assert sum(mu.dims) == pytest.approx(2 * math.log(2) / math.log(3))

    def test_three_factors(self):
        a = fl.build_cantor(fl.middle_thirds(2))
        mu = fl.build_product([a, a, a], [0.5, 0.5, 0.5])
        assert mu.dimension == 3

    def test_single_factor_rejected(self):
        a = fl.build_cantor(fl.middle_thirds(2))
        with pytest.raises(ValidationError, match="2 factors"):
            fl.build_product([a], [0.5])

    def test_dims_length_mismatch_rejected(self):
        a = fl.build_cantor(fl.middle_thirds(2))
        with pytest.raises(ValidationError, match="dims"):
            fl.build_product([a, a], [0.5])


class TestRegularity:
    def test_uniform_level_10(self):
        nu = fl.build_cantor(fl.CantorSpec(base=2, digits=(0, 1), level=10))
        scales = [2.0**-j for j in range(1, 9)]
        report = fl.check_regularity(nu, 1.0, scales, cap=2.5)
        assert report.passed
        assert report.c_nu <= 2.5
        # interior ratio approaches 2, boundary pulls the lower ratio to ~1
        assert report.c_upper == pytest.approx(2.25, abs=1e-9)

    def test_matches_exhaustive_scan_oracle(self):
        nu = fl.build_cantor(fl.middle_thirds(6))
        alpha = nu.dimension_hint
        scales = [0.31, 0.1, 1.0 / 27.0]
        report = fl.check_regularity(nu, alpha, scales, cap=10.0)
        for r, (lo, hi) in zip(report.scales, report.per_scale):
            ratios = scan_ball_masses(nu, r) / r**alpha
            assert lo == pytest.approx(float(ratios.min()), rel=1e-12)
            assert hi == pytest.approx(float(ratios.max()), rel=1e-12)

    def test_point_mass_fails_for_positive_alpha(self):
        nu = fl.GridMeasure(base=2, level=10, indices=np.array([17]), weights=np.array([1.0]))
        report = fl.check_regularity(nu, 0.5, [2.0**-j for j in range(1, 11)], cap=4.0)
        assert not report.passed
        assert report.c_upper > 4.0

    def test_middle_thirds_level_8_passes(self, middle_thirds_8):
        scales = [3.0**-j for j in range(1, 8)]
        report = fl.check_regularity(
            middle_thirds_8, middle_thirds_8.dimension_hint, scales, cap=4.0
        )
        assert report.passed
        assert report.c_nu <= 4.0

    def test_constant_is_stable_in_level(self):
        # same dyadic scale ladder across construction depths
        scales = [2.0**-j for j in range(1, 6)]
        c4 = None
        for level in (4, 6, 8, 10, 12):
            nu = fl.build_cantor(fl.middle_thirds(level))
            rep = fl.check_regularity(nu, nu.dimension_hint, scales, cap=10.0)
            if level == 4:
                c4 = rep.c_nu
            assert rep.c_nu <= c4 + 0.5

    def test_scale_below_resolution_rejected(self, middle_thirds_8):
        with pytest.raises(ValidationError, match="below the grid resolution"):
            fl.check_regularity(middle_thirds_8, 0.6, [3.0**-9], cap=4.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scale_or_cap_rejected(self, bad):
        nu = fl.build_cantor(fl.middle_thirds(4))
        with pytest.raises(ValidationError, match="scales must be finite"):
            fl.check_regularity(nu, 0.5, [0.1, bad], 10.0)
        with pytest.raises(ValidationError, match="cap must be finite"):
            fl.check_regularity(nu, 0.5, [0.1, 0.3], bad)

    def test_c_nu_at_least_one(self):
        rng = np.random.default_rng(7)
        from conftest import random_grid_measure

        for _ in range(20):
            nu = random_grid_measure(rng, max_atoms=30)
            scales = [max(nu.delta, 0.25), 0.5]
            rep = fl.check_regularity(nu, 0.7, scales, cap=1e9)
            assert rep.c_nu >= 1.0
            for lo, hi in rep.per_scale:
                assert lo <= hi


class TestFrostmanFit:
    def test_middle_thirds_recovers_dimension(self):
        nu = fl.build_cantor(fl.middle_thirds(10))
        slope, stderr = fl.frostman_fit(nu, [3.0**-j for j in range(1, 10)])
        assert abs(slope - nu.dimension_hint) < 0.02
        assert stderr < 0.02

    def test_uniform_measure_slope_one(self):
        nu = fl.build_cantor(fl.CantorSpec(base=2, digits=(0, 1), level=10))
        slope, _ = fl.frostman_fit(nu, [2.0**-j for j in range(1, 9)])
        assert abs(slope - 1.0) < 0.05

    def test_single_atom_slope_zero(self):
        nu = fl.GridMeasure(base=2, level=4, indices=np.array([3]), weights=np.array([1.0]))
        slope, _ = fl.frostman_fit(nu, [2.0**-j for j in range(1, 5)])
        assert slope == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            fl.CantorSpec(3, (0, 2), 8),
            fl.CantorSpec(4, (0, 3), 8),
            fl.CantorSpec(5, (0, 2, 4), 8),
            fl.CantorSpec(2, (0, 1), 10),
        ],
    )
    def test_slope_tracks_dimension_hint(self, spec):
        nu = fl.build_cantor(spec)
        scales = [float(spec.base) ** -j for j in range(1, spec.level)]
        slope, _ = fl.frostman_fit(nu, scales)
        assert abs(slope - nu.dimension_hint) < 0.05

    def test_needs_three_scales(self, middle_thirds_8):
        with pytest.raises(ValidationError, match="3 scales"):
            fl.frostman_fit(middle_thirds_8, [1.0 / 3.0, 1.0 / 9.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scales_rejected(self, bad):
        nu = fl.build_cantor(fl.CantorSpec(3, (0, 2), 4))
        with pytest.raises(ValidationError, match="scales must be positive and finite"):
            fl.frostman_fit(nu, [0.1, 0.2, bad])

    def test_degenerate_scales_rejected(self, middle_thirds_8):
        with pytest.raises(ValidationError):
            fl.frostman_fit(middle_thirds_8, [0.25, 0.25, 0.25])


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(99)
        from conftest import random_grid_measure

        for i in range(20):
            nu = random_grid_measure(rng)
            path = tmp_path / f"m{i}.measure"
            fl.save_grid_measure(nu, path)
            back = fl.load_grid_measure(path)
            assert back.base == nu.base and back.level == nu.level
            assert np.array_equal(back.indices, nu.indices)
            assert np.array_equal(back.weights, nu.weights)  # bit-exact
            assert back.dimension_hint == nu.dimension_hint

    @pytest.mark.parametrize("spec, digest", [
        ((2, (0, 1), 16), "e651906de67739927d4d6ad1b5bc6fdaf88e15b48fae7e60229220dec2fd8d9a"),
        ((3, (0, 1, 2), 8), "73054c8fc72349c11ae8859991a5492aa5f1178831dc2274070669d0c9723e61"),
    ], ids=["2**16-atoms", "3**8-atoms"])
    def test_atoms_file_is_written_in_blocks(self, tmp_path, spec, digest):
        # the bytes the one-string writer gave; its traced peak at 2**16
        # atoms was 9.5 MiB, about 150 B per atom, where the blocks hold 0.6 MiB
        import hashlib
        import tracemalloc

        nu = fl.build_cantor(fl.CantorSpec(*spec))
        path = tmp_path / "atoms.measure"
        tracemalloc.start()
        try:
            fl.save_grid_measure(nu, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert path.read_text() == fl.grid_measure_to_text(nu)
        assert peak < 9.5 * 2**20 / 4

    def test_load_streams_the_file(self, tmp_path):
        # the whole-text loader's traced peak at 2**16 atoms was 12.9 MiB, 206 B an atom
        import tracemalloc

        nu = fl.build_cantor(fl.CantorSpec(2, (0, 1), 16))
        path = tmp_path / "atoms.measure"
        fl.save_grid_measure(nu, path)
        tracemalloc.start()
        try:
            back = fl.load_grid_measure(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12.9 * 2**20 / 4
        fl.save_grid_measure(back, tmp_path / "again.measure")
        assert (tmp_path / "again.measure").read_bytes() == path.read_bytes()
        # blank lines, surrounding spaces and the column line in any case
        loose = "\n  # grid-measure base=3 level=2 \n\n INDEX,Weight\n 0 , 0.5 \n\n4,0.5\n"
        (tmp_path / "loose.measure").write_text(loose)
        for got in (fl.grid_measure_from_text(loose), fl.load_grid_measure(tmp_path / "loose.measure")):
            assert got.indices.tolist() == [0, 4] and got.weights.tolist() == [0.5, 0.5]
        with pytest.raises(ValidationError, match="atom line"):  # the column line only leads the body
            fl.grid_measure_from_text("# grid-measure base=3 level=2\n0,0.5\nindex,weight\n4,0.5\n")

    def test_bad_dimension_hint_names_the_header(self):
        with pytest.raises(ValidationError, match="bad grid-measure header.*dimension_hint=x"):
            fl.grid_measure_from_text("# grid-measure base=2 level=1 dimension_hint=x\n0,1.0\n")

    def test_header_records_base_and_level(self):
        nu = fl.build_cantor(fl.middle_thirds(2))
        text = fl.grid_measure_to_text(nu)
        head = text.splitlines()[0]
        assert "base=3" in head and "level=2" in head

    def test_missing_header_rejected(self):
        with pytest.raises(ValidationError, match="header"):
            fl.grid_measure_from_text("0,1.0\n")

    def test_bad_atom_line_rejected(self):
        with pytest.raises(ValidationError, match="atom line"):
            fl.grid_measure_from_text("# grid-measure base=2 level=1\nxyz\n")


@settings(max_examples=30, deadline=None)
@given(cantor_spec_st)
def test_weight_conservation(spec_tuple):
    base, digits, level = spec_tuple
    nu = fl.build_cantor(fl.CantorSpec(base=base, digits=digits, level=level))
    assert abs(float(nu.weights.sum()) - 1.0) <= 1e-12
