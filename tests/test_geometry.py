import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fractalab as fl
from conftest import (derive_delta_grid, gap_cells_oracle, mattila_d3_oracle, space_side_sigma,
                      sphere_kernel_3)
from fractalab import geometry
from fractalab.quadrature import simpson_doubling
from fractalab.errors import BudgetError, ValidationError, ValidityCapError

ALPHA_MT = math.log(2.0) / math.log(3.0)


def two_point_product(second_coordinate: bool):
    """Product with atoms (0,0) and (0,1/2) [or (1/2,0)], equal masses."""
    two = fl.GridMeasure(base=2, level=1, indices=np.array([0, 1]), weights=np.array([0.5, 0.5]))
    pm = fl.point_mass()
    if second_coordinate:
        return fl.build_product([pm, two], [0.0, 0.5])
    return fl.build_product([two, pm], [0.5, 0.0])


class TestDistanceMeasure:
    def test_point_mass_product(self):
        pm = fl.point_mass()
        mu = fl.build_product([pm, pm], [0.0, 0.0])
        dm = fl.distance_measure(mu, 0.05)
        assert dm.bins == {0: 1.0}
        assert dm.diagonal_mass == 1.0
        assert fl.distance_measure(mu, 0.05, weighted=True).total_mass == 0.0

    def test_horizontal_pair_hand_enumeration(self):
        # atoms (0,0) and (1/2,0): 4 ordered pairs, distances {0, 0, 1/2, 1/2}
        mu = two_point_product(second_coordinate=False)
        dm = fl.distance_measure(mu, 0.05)
        assert dm.bins == {0: 0.5, 10: 0.5}
        assert dm.diagonal_mass == pytest.approx(0.5)
        assert dm.total_mass == pytest.approx(1.0, abs=1e-10)
        dw = fl.distance_measure(mu, 0.05, weighted=True)
        assert dw.total_mass == 0.0  # x2 identical

    def test_vertical_pair_weighted_mass_half(self):
        mu = two_point_product(second_coordinate=True)
        dw = fl.distance_measure(mu, 0.05, weighted=True)
        assert dw.total_mass == pytest.approx(0.5)  # off-diagonal pairs carry weight 1
        assert fl.weighted_mass(mu) == pytest.approx(0.5)

    def test_unweighted_mass_is_one(self):
        nu = fl.build_cantor(fl.middle_thirds(4))
        mu = fl.build_product([nu, nu], [ALPHA_MT, ALPHA_MT])
        dm = fl.distance_measure(mu, 0.01)
        assert abs(dm.total_mass - 1.0) <= 1e-10

    def test_weighted_mass_in_unit_interval(self):
        nu = fl.build_cantor(fl.middle_thirds(4))
        mu = fl.build_product([nu, nu], [ALPHA_MT, ALPHA_MT])
        dw = fl.distance_measure(mu, 0.01, weighted=True)
        assert 0.0 < dw.total_mass <= 1.0

    def test_scaling_covariance(self):
        # scaling positions by 1/base (same indices, one level deeper) scales
        # populated bins by the same factor: identical indices at bin width h/base
        a = fl.build_cantor(fl.middle_thirds(4))
        mu = fl.build_product([a, a], [ALPHA_MT, ALPHA_MT])
        a3 = fl.GridMeasure(base=3, level=5, indices=a.indices, weights=a.weights)
        mu3 = fl.build_product([a3, a3], [ALPHA_MT, ALPHA_MT])
        h = 0.0173
        dm = fl.distance_measure(mu, h)
        dm3 = fl.distance_measure(mu3, h / 3.0)
        assert set(dm.bins) == set(dm3.bins)
        for k, mass in dm.bins.items():
            assert dm3.bins[k] == pytest.approx(mass, abs=1e-14)
        assert dm3.total_mass == pytest.approx(dm.total_mass, abs=1e-12)

    def test_pair_budget(self):
        nu = fl.build_cantor(fl.middle_thirds(5))
        mu = fl.build_product([nu, nu], [ALPHA_MT, ALPHA_MT])
        with pytest.raises(BudgetError, match="coarsen"):
            fl.distance_measure(mu, 0.01, pair_budget=1000)

    def test_degenerate_second_coordinate_has_zero_weighted_mass(self):
        nu = fl.build_cantor(fl.middle_thirds(3))
        mu = fl.build_product([nu, fl.point_mass()], [ALPHA_MT, 0.0])
        assert fl.weighted_mass(mu) == 0.0

    def test_rejects_nonpositive_bin_width(self):
        mu = two_point_product(True)
        with pytest.raises(ValidationError, match="bin width"):
            fl.distance_measure(mu, 0.0)

    @pytest.mark.parametrize("h", [math.inf, math.nan])
    def test_rejects_non_finite_bin_width(self, h):
        nu = fl.build_cantor(fl.CantorSpec(3, (0, 2), 4))
        mu = fl.build_product([nu, nu], [ALPHA_MT, ALPHA_MT])
        with pytest.raises(ValidationError, match="bin width must be positive and finite"):
            fl.distance_measure(mu, h)


def brute_force_pairs(mu, h: float, s: float) -> dict:
    """Every ordered pair of atoms, binned by the library's expression:
    c_j = |gap index| * delta_j on each axis, sqrt(sum_j c_j**2), / h."""
    if isinstance(mu, fl.GridMeasure):
        factors, positions, weights = (mu,), mu.positions[:, None], mu.weights
    else:
        factors = mu.factors
        positions, weights = fl.product_atoms(mu)
    deltas = np.array([f.delta for f in factors])
    idx = np.rint(positions / deltas).astype(np.int64)
    assert np.array_equal(idx * deltas, positions)  # integer indices, same C order
    coords = [np.abs(idx[:, None, j] - idx[None, :, j]) * deltas[j] for j in range(len(factors))]
    dist = np.sqrt(sum(c * c for c in coords))
    wpair = weights[:, None] * weights[None, :]
    bins = (dist / h).astype(np.int64).ravel()
    off = dist > 0.0
    out = {
        "masses": np.bincount(bins, weights=wpair.ravel()),
        "diagonal": float(np.sum(wpair[~off])),
        "energy": float(np.sum(wpair[off] * dist[off] ** (-s))),
    }
    if len(factors) == 2:
        wfac = np.divide(coords[1], dist, out=np.zeros_like(dist), where=off)
        out["weighted"] = np.bincount(bins, weights=(wpair * wfac).ravel())
    return out


def _random_product(seed: int, d: int, max_atoms: int):
    from conftest import random_grid_measure

    rng = np.random.default_rng(seed)
    return fl.build_product([random_grid_measure(rng, max_atoms=max_atoms) for _ in range(d)], [1.0] * d)


def _cantor_product(base: int, digits: tuple[int, ...], level: int, d: int = 2):
    nu = fl.build_cantor(fl.CantorSpec(base, digits, level))
    return fl.build_product([nu] * d, [nu.dimension_hint] * d)


def _fixed_atoms_factors(seed: int, d: int, atoms: int, level: int) -> list:
    """d random factors of `atoms` atoms each on the 3**level grid."""
    rng = np.random.default_rng(seed)
    factors = []
    for _ in range(d):
        indices = np.sort(rng.choice(3**level, size=atoms, replace=False))
        weights = rng.random(atoms) + 0.05
        weights /= weights.sum()
        factors.append(fl.GridMeasure(base=3, level=level, indices=indices, weights=weights))
    return factors


def _fixed_atoms_product(seed: int, d: int, atoms: int, level: int):
    return fl.build_product(_fixed_atoms_factors(seed, d, atoms, level), [1.0] * d)


# gap-cell counts 388 * 385 = 149,380 and 56 * 55 * 52 = 160,160: several
# cell blocks, the last one partial (checked in test_block_products_span_several_blocks)
BLOCK_PRODUCTS = {
    "random d=2 30 atoms on 3^7 (cell blocks)": lambda: _fixed_atoms_product(0, 2, 30, 7),
    "random d=3 11 atoms on 3^6 (cell blocks)": lambda: _fixed_atoms_product(0, 3, 11, 6),
}

ORACLE_PRODUCTS = {
    **BLOCK_PRODUCTS,
    **{f"random d=2 seed {k}": (lambda k=k: _random_product(k, 2, 24)) for k in range(8)},
    **{f"random d=3 seed {k}": (lambda k=k: _random_product(100 + k, 3, 7)) for k in range(8)},
    "3:0,2:4 x 5:0,2,4:3": lambda: fl.build_product(
        [fl.build_cantor(fl.CantorSpec(3, (0, 2), 4)), fl.build_cantor(fl.CantorSpec(5, (0, 2, 4), 3))],
        [0.6, 0.7],
    ),
    "3:0,2:3^3": lambda: _cantor_product(3, (0, 2), 3, d=3),
    # index span ~1e8 with 16 atoms per axis: the pmf must stay sparse
    "100:0,99:4^2": lambda: _cantor_product(100, (0, 99), 4),
    "3:0:16^2 (one atom)": lambda: _cantor_product(3, (0,), 16),
}


def _same_histogram(got: np.ndarray, expected: np.ndarray) -> None:
    size = max(got.size, expected.size)
    got, expected = np.pad(got, (0, size - got.size)), np.pad(expected, (0, size - expected.size))
    assert np.array_equal(np.nonzero(got)[0], np.nonzero(expected)[0])
    assert np.max(np.abs(got - expected)) <= 1e-12


class TestGapRouteOracle:
    """The gap-pmf route against every ordered pair of product atoms."""

    @pytest.mark.parametrize("name", sorted(ORACLE_PRODUCTS))
    @pytest.mark.parametrize("h", [0.0173, 1.0 / 64.0])
    def test_distance_measure(self, name, h):
        mu = ORACLE_PRODUCTS[name]()
        oracle = brute_force_pairs(mu, h, 0.0)
        dm = fl.distance_measure(mu, h)
        _same_histogram(dm.masses, oracle["masses"])
        assert abs(dm.diagonal_mass - oracle["diagonal"]) <= 1e-12
        assert abs(dm.total_mass - 1.0) <= 1e-12
        if mu.dimension == 2:
            dw = fl.distance_measure(mu, h, weighted=True)
            _same_histogram(dw.masses, oracle["weighted"])
            assert dw.diagonal_mass == 0.0
            assert abs(fl.weighted_mass(mu) - float(np.sum(oracle["weighted"]))) <= 1e-12

    @pytest.mark.parametrize("name", sorted(ORACLE_PRODUCTS))
    @pytest.mark.parametrize("s", [0.0, 0.7, 1.9])
    def test_energy_integral(self, name, s):
        mu = ORACLE_PRODUCTS[name]()
        expected = brute_force_pairs(mu, 1.0, s)["energy"]
        assert fl.energy_integral(mu, s) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_energy_integral_one_factor(self, seed):
        from conftest import random_grid_measure

        nu = random_grid_measure(np.random.default_rng(200 + seed), max_atoms=60)
        for s in (0.0, 0.5, 1.3):
            expected = brute_force_pairs(nu, 1.0, s)["energy"]
            assert fl.energy_integral(nu, s) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_row_blocks_merge(self):
        # 1500 atoms give two row blocks of the per-axis pmf
        rng = np.random.default_rng(7)
        indices = np.sort(rng.choice(3**8, size=1500, replace=False))
        weights = rng.random(1500) + 0.05
        nu = fl.GridMeasure(base=3, level=8, indices=indices, weights=weights / weights.sum())
        mu = fl.build_product([nu, fl.point_mass()], [1.0, 0.0])
        oracle = brute_force_pairs(mu, 0.01, 0.8)
        dm = fl.distance_measure(mu, 0.01)
        _same_histogram(dm.masses, oracle["masses"])
        assert abs(dm.diagonal_mass - oracle["diagonal"]) <= 1e-12
        assert fl.energy_integral(nu, 0.8) == pytest.approx(oracle["energy"], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", sorted(BLOCK_PRODUCTS))
    def test_block_products_span_several_blocks(self, name):
        mu = BLOCK_PRODUCTS[name]()
        budget = geometry.DEFAULT_PAIR_BUDGET
        cells = math.prod(geometry._gap_pmf(f, budget)[0].size for f in mu.factors)
        assert cells > 4 * geometry._BLOCK and cells % geometry._BLOCK != 0

    def test_budget_bounds_axis_pairs_then_cells(self):
        # 3:0,2:6 has 64 atoms (4096 axis pairs) and 365 folded gaps per axis
        mu = _cantor_product(3, (0, 2), 6)
        with pytest.raises(BudgetError, match="4.1e\\+03 pairs on one axis.*coarsen"):
            fl.distance_measure(mu, 0.01, pair_budget=4095)
        with pytest.raises(BudgetError, match="1.33e\\+05 cells.*coarsen"):
            fl.energy_integral(mu, 0.5, pair_budget=365**2 - 1)
        assert fl.distance_measure(mu, 0.01, pair_budget=365**2).total_mass == pytest.approx(1.0)

    @pytest.mark.parametrize("h", [1e-9, 5e-324])
    def test_budget_bounds_bins_before_allocation(self, h):
        # 3:0,2:3^2 at h = 1e-9 would be a 10.1 GiB histogram; a subnormal h gives inf bins
        mu = _cantor_product(3, (0, 2), 3)
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="bins, over the budget 4e\\+08; widen the bin width"):
            fl.distance_measure(mu, h)
        assert time.perf_counter() - start < 1.0
        max_dist = float(np.sqrt(sum(f.diameter * f.diameter for f in mu.factors)))
        bins = int(max_dist / 1e-3) + 2
        assert fl.distance_measure(mu, 1e-3, pair_budget=bins).masses.size == bins
        with pytest.raises(BudgetError, match="widen the bin width"):
            fl.distance_measure(mu, 1e-3, pair_budget=bins - 1)


def _with_point_mass(point_mass_first: bool):
    """A point mass (a one-gap axis) times a random 40-atom factor on 3^5."""
    (rnd,) = _fixed_atoms_factors(3, 1, 40, 5)
    pair = [fl.point_mass(), rnd] if point_mass_first else [rnd, fl.point_mass()]
    return fl.build_product(pair, [0.0, 1.0] if point_mass_first else [1.0, 0.0])


# the pairs workload's two products, d = 3 and 4, a one-gap head or last axis,
# and one factor
CELL_CASES = {
    "3:0,2:6^2": lambda: _cantor_product(3, (0, 2), 6).factors,
    "random 64 atoms on 3^6, squared": lambda: _fixed_atoms_product(1, 2, 64, 6).factors,
    "3:0,2:3^3": lambda: _cantor_product(3, (0, 2), 3, d=3).factors,
    # three head axes: the first d at which the order of a head sum shows
    "random d=4 8 atoms on 3^4": lambda: _fixed_atoms_factors(5, 4, 8, 4),
    "point mass x random": lambda: _with_point_mass(True).factors,
    "random x point mass": lambda: _with_point_mass(False).factors,
    "one random factor": lambda: _fixed_atoms_factors(4, 1, 50, 6),
}
PAIR_PRODUCTS = {
    "3:0,2:6^2": lambda: _cantor_product(3, (0, 2), 6),
    "random 64 atoms on 3^6, squared": lambda: _fixed_atoms_product(1, 2, 64, 6),
}


def oracle_pair_functionals(mu, h: float, s: float) -> dict:
    """distance_measure (plain and weighted), weighted_mass and
    energy_integral over the cell-by-cell oracle's chunks, with the diagonal
    found by its zero distance."""
    budget = geometry.DEFAULT_PAIR_BUDGET
    max_dist = float(np.sqrt(sum(f.diameter * f.diameter for f in mu.factors)))
    out = {}
    for key, width, weighted in (("plain", h, False), ("weighted", h, True), ("unit", 1.0, True)):
        acc = np.zeros(int(max_dist / width) + 2)
        diagonal = 0.0
        for coords, dist, mass in gap_cells_oracle(mu.factors, budget, max(geometry._BLOCK, acc.size)):
            if weighted:
                mass = mass * np.divide(coords[1], dist, out=np.zeros_like(dist), where=dist > 0.0)
            diagonal += float(np.sum(mass[dist == 0.0]))
            acc += np.bincount((dist / width).astype(np.int64), weights=mass, minlength=acc.size)
        out[key] = (acc.tobytes(), float(np.sum(acc)), diagonal)
    total = 0.0
    for _, dist, mass in gap_cells_oracle(mu.factors, budget, geometry._BLOCK):
        off = dist > 0.0
        total += float(np.sum(mass[off] * dist[off] ** (-s)))
    out["energy"] = total
    return out


class TestGapCellChunks:
    """The row-broadcast cells against the cell-by-cell oracle, bit for bit."""

    # 97 cells end chunks inside rows of 365 or more gaps, and span rows of
    # 14 (d = 3) or 1 (a point-mass last axis)
    @pytest.mark.parametrize("name", sorted(CELL_CASES))
    @pytest.mark.parametrize("block", [97, 1000, geometry._BLOCK])
    def test_chunks_are_the_oracle_chunks(self, name, block):
        factors = CELL_CASES[name]()
        budget = geometry.DEFAULT_PAIR_BUDGET
        got = list(geometry._gap_cells(factors, budget, block))
        expected = list(gap_cells_oracle(factors, budget, block))
        assert len(got) == len(expected)
        for (last, dist, mass), (coords, oracle_dist, oracle_mass) in zip(got, expected):
            assert last().tobytes() == coords[-1].tobytes()
            assert dist.tobytes() == oracle_dist.tobytes()
            assert mass.tobytes() == oracle_mass.tobytes()

    @pytest.mark.parametrize("name", sorted(PAIR_PRODUCTS))
    @pytest.mark.parametrize("block", [None, 1000])
    def test_pair_functionals_are_the_oracle_sums(self, monkeypatch, name, block):
        if block is not None:
            monkeypatch.setattr(geometry, "_BLOCK", block)
        mu = PAIR_PRODUCTS[name]()
        expected = oracle_pair_functionals(mu, 0.01, 0.5)
        for key, h, weighted in (("plain", 0.01, False), ("weighted", 0.01, True)):
            dm = fl.distance_measure(mu, h, weighted=weighted)
            assert (dm.masses.tobytes(), dm.total_mass, dm.diagonal_mass) == expected[key]
        assert fl.weighted_mass(mu) == expected["unit"][1]
        assert fl.energy_integral(mu, 0.5) == expected["energy"]


class TestEnergyIntegral:
    def test_two_atoms_at_half(self):
        nu = fl.GridMeasure(base=2, level=1, indices=np.array([0, 1]), weights=np.array([0.5, 0.5]))
        # 2 ordered off-diagonal pairs, each (1/4) * (1/2)^(-s)
        assert fl.energy_integral(nu, 0.5) == pytest.approx(0.5 * math.sqrt(2.0))
        assert fl.energy_integral(nu, 1.0) == pytest.approx(1.0)

    def test_pythagorean_product_pair(self):
        # factors {0, 3/5} x {0, 4/5}: the long diagonal has length exactly 1
        a = fl.GridMeasure(base=5, level=1, indices=np.array([0, 3]), weights=np.array([0.5, 0.5]))
        b = fl.GridMeasure(base=5, level=1, indices=np.array([0, 4]), weights=np.array([0.5, 0.5]))
        mu = fl.build_product([a, b], [0.5, 0.5])
        expected = 2.0 * 0.0625 * (0.6**-0.5 + 0.8**-0.5 + 1.0 + 1.0 + 0.8**-0.5 + 0.6**-0.5)
        assert fl.energy_integral(mu, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_single_atom_is_zero(self):
        assert fl.energy_integral(fl.point_mass(), 2.0) == 0.0

    def test_s_zero_gives_off_diagonal_mass(self):
        rng = np.random.default_rng(3)
        from conftest import random_grid_measure

        for _ in range(10):
            nu = random_grid_measure(rng, max_atoms=20)
            expected = 1.0 - float(np.sum(nu.weights**2))
            assert fl.energy_integral(nu, 0.0) == pytest.approx(expected, rel=1e-10)

    def test_monotone_in_s_for_small_diameter(self):
        nu = fl.build_cantor(fl.middle_thirds(5))
        values = [fl.energy_integral(nu, s) for s in (0.0, 0.3, 0.6, 0.9, 1.2)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_negative_s(self):
        with pytest.raises(ValidationError):
            fl.energy_integral(fl.point_mass(), -1.0)


class TestMattila:
    def test_point_mass_closed_forms_small_t(self):
        pm = fl.point_mass()
        mu = fl.build_product([pm, pm], [0.0, 0.0])
        est = fl.mattila_truncated(mu, 10.0, weighted=False)
        assert est.value == pytest.approx(2.0 * np.pi**2 * 99.0, rel=1e-12)
        est_w = fl.mattila_truncated(mu, 10.0, weighted=True)
        assert est_w.value == pytest.approx(8.0 * 99.0, rel=1e-12)

    def test_third_positional_argument_is_weighted(self):
        pm = fl.point_mass()
        mu = fl.build_product([pm, pm], [0.0, 0.0])
        est = fl.mattila_truncated(mu, 10.0, False)
        assert est.weighted is False
        assert est.value == fl.mattila_truncated(mu, 10.0, weighted=False).value
        with pytest.raises(TypeError):
            fl.mattila_truncated(mu, 10.0, False, None)  # no quadrature argument

    def test_value_nondecreasing_in_truncation(self):
        pm = fl.point_mass()
        mu = fl.build_product([pm, pm], [0.0, 0.0])
        v = [fl.mattila_truncated(mu, T, weighted=True).value for T in (4.0, 8.0, 16.0)]
        assert v[0] < v[1] < v[2]

    def test_middle_thirds_diagnostics(self):
        nu = fl.build_cantor(fl.middle_thirds(6))
        mu = fl.build_product([nu, nu], [ALPHA_MT, ALPHA_MT])
        est = fl.mattila_truncated(mu, 3.0**3, weighted=True)
        # s = 2 alpha < 4/3: no convergence asserted, diagnostics only
        assert est.value > 0.0
        assert len(est.doubling_ratios) >= 2
        assert est.integrand_slope == pytest.approx(
            fl.loglog_fit(est.t_values[est.integrand > 0], est.integrand[est.integrand > 0]).slope
        )
        assert np.all(np.diff(est.partial_values) >= -1e-15)

    def test_weighted_two_atom_against_simpson_reference(self, two_atom_line):
        mu, sigma_w = two_atom_line
        T = 10.0
        t, h = np.linspace(1.0, T, 200_001), (T - 1.0) / 200_000
        f = sigma_w(t) ** 2 * t
        reference = h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())
        est = fl.mattila_truncated(mu, T, weighted=True)
        assert abs(est.value - reference) <= 1e-6 * reference

    @pytest.mark.parametrize(
        "factor, dim, T",
        [(lambda: fl.build_cantor(fl.middle_thirds(3)), ALPHA_MT, 2.5), (fl.point_mass, 0.0, 100.0)],
        ids=["3:0,2:3^2 T=2.5", "point mass^2 T=100"],
    )
    def test_outputs_are_one_running_integral(self, factor, dim, T):
        nu = factor()
        mu = fl.build_product([nu, nu], [dim, dim])
        est = fl.mattila_truncated(mu, T, weighted=True)
        assert np.all(np.diff(est.t_values) > 0.0)  # no duplicate panel end
        assert est.t_nodes == len(est.t_values)
        assert np.all(np.diff(est.partial_values) >= 0.0)
        assert est.partial_values[-1] == est.value
        # the running sum at each sub-interval's last node, the node below its end
        marks = [c for c in (T / 8.0, T / 4.0, T / 2.0) if c > 1.0] + [T]
        last = [np.searchsorted(est.t_values, c) - 1 for c in marks]
        assert last[-1] == est.t_nodes - 1
        at = est.partial_values[last].tolist()
        assert len(est.doubling_ratios) == len(marks) - 1
        for ratio, prev, cur in zip(est.doubling_ratios, at, at[1:]):
            assert type(ratio) is float
            assert ratio == cur / prev

    def test_point_mass_matches_spec_less_point_mass_bit_for_bit(self):
        # point_mass() is now the level-0 Cantor measure; the spec-less atom
        # it replaces gives the same Mattila integrals to the last bit
        old = fl.GridMeasure(base=2, level=0, indices=np.array([0]), weights=np.array([1.0]))
        pm = fl.point_mass()
        for weighted in (False, True):
            new_est, old_est = (
                fl.mattila_truncated(fl.build_product([m, m], [0.0, 0.0]), 10.0, weighted=weighted)
                for m in (pm, old)
            )
            assert new_est.value == old_est.value
            assert new_est.t_values.tobytes() == old_est.t_values.tobytes()
            assert new_est.sigma.tobytes() == old_est.sigma.tobytes()

    @pytest.mark.parametrize("T", [math.inf, math.nan])
    def test_non_finite_truncation_rejected(self, T):
        pm = fl.point_mass()
        with pytest.raises(ValidationError, match="truncation"):
            fl.mattila_truncated(fl.build_product([pm, pm], [0.0, 0.0]), T)

    def test_truncation_beyond_cap_rejected(self):
        nu = fl.build_cantor(fl.middle_thirds(4))
        mu = fl.build_product([nu, nu], [ALPHA_MT, ALPHA_MT])
        with pytest.raises(ValidityCapError):
            fl.mattila_truncated(mu, 50.0, weighted=True)

    def test_d3_point_mass_unweighted(self):
        # sigma = 4 pi = |S^2|, integrand 16 pi^2 t^2: value = 16 pi^2 (T^3 - 1)/3
        pm = fl.point_mass()
        mu = fl.build_product([pm, pm, pm], [0.0] * 3)
        est = fl.mattila_truncated(mu, 5.0, weighted=False)
        assert est.value == pytest.approx(16.0 * np.pi**2 * (125.0 - 1.0) / 3.0, rel=1e-12)

    def test_d3_point_mass_weighted(self):
        # sigma_w = 2 pi = 2 |B^2|, integrand 4 pi^2 t^2: value = 4 pi^2 (T^3 - 1)/3
        pm = fl.point_mass()
        mu = fl.build_product([pm, pm, pm], [0.0] * 3)
        est = fl.mattila_truncated(mu, 5.0, weighted=True)
        assert est.value == pytest.approx(4.0 * np.pi**2 * (125.0 - 1.0) / 3.0, rel=1e-12)

    def test_d3_cantor_matches_the_space_side_oracle(self):
        # sigma = 4 pi sum w_x w_y sinc(2 t |x - y|) (np.sinc), and the
        # integral of sigma^2 t^2 by Simpson in log t at 1e-10
        nu = fl.build_cantor(fl.middle_thirds(3))
        mu = fl.build_product([nu] * 3, [ALPHA_MT] * 3)
        T = 2.5

        def integrand(tau):
            return space_side_sigma(mu, np.exp(tau), sphere_kernel_3) ** 2 * np.exp(3.0 * tau)

        oracle, _, converged = simpson_doubling(integrand, 0.0, math.log(T), 64, rel_tol=1e-10)
        assert converged
        est = fl.mattila_truncated(mu, T, weighted=False)
        assert est.value == pytest.approx(oracle, rel=1e-6)

    def test_d3_cantor_matches_the_exact_oracle(self):
        nu = fl.build_cantor(fl.middle_thirds(3))
        mu = fl.build_product([nu] * 3, [ALPHA_MT] * 3)
        exact = mattila_d3_oracle(mu, 2.5)
        est = fl.mattila_truncated(mu, 2.5, weighted=False)
        assert abs(est.value - exact) <= 1e-12 * exact


class TestMattilaBatches:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize(
        "factors, T",
        [
            (lambda: [fl.build_cantor(fl.middle_thirds(4))] * 2, 8.0),
            (lambda: [fl.GridMeasure(base=3, level=4, indices=np.array([0, 5, 17, 40, 80]),
                                     weights=np.full(5, 0.2))] * 2, 8.0),
            (lambda: [fl.build_cantor(fl.middle_thirds(3))] * 3, 2.5),
        ],
        ids=["3:0,2:4^2", "spec-less^2", "3:0,2:3^3"],
    )
    def test_the_integral_is_one_batch_of_the_per_t_values(self, monkeypatch, factors, T, weighted):
        mu = fl.build_product(factors(), [0.5] * len(factors()))
        batches = []
        many = geometry._sigma_many

        def recording(mu, ts, weight):
            batches.append(len(ts))
            return many(mu, ts, weight)

        monkeypatch.setattr(geometry, "_sigma_many", recording)
        est = fl.mattila_truncated(mu, T, weighted)
        assert batches == [est.t_nodes]
        weight = "sin_theta" if weighted else "none"
        alone = [fl.spherical_average_detailed(mu, t, weight)[0] for t in est.t_values]
        assert est.sigma.tolist() == alone


class TestCoverage:
    def test_point_mass_single_bin(self):
        pm = fl.point_mass()
        mu = fl.build_product([pm, pm], [0.0, 0.0])
        dm = fl.distance_measure(mu, 0.01)
        cov = fl.coverage_report(dm, [0.02, 0.1])
        assert cov.covered_lengths == (0.02, 0.1)

    def test_two_point_set_covers_two_bins(self):
        mu = two_point_product(second_coordinate=True)
        dm = fl.distance_measure(mu, 0.01)
        cov = fl.coverage_report(dm, [0.02])
        assert cov.covered_lengths == (0.04,)

    def test_full_square_stabilizes_near_diameter(self):
        u6 = fl.build_cantor(fl.CantorSpec(2, (0, 1), 6))
        mu = fl.build_product([u6, u6], [1.0, 1.0])
        dm = fl.distance_measure(mu, 0.01)
        cov = fl.coverage_report(dm, [0.02, 0.05, 0.1])
        for length in cov.covered_lengths:
            assert abs(length - math.sqrt(2.0)) < 0.12

    def test_width_below_native_rejected(self):
        mu = two_point_product(True)
        dm = fl.distance_measure(mu, 0.01)
        with pytest.raises(ValidationError, match="native"):
            fl.coverage_report(dm, [0.005])


class TestThresholds:
    def test_d2_threshold_is_four_thirds(self):
        assert fl.product_sum_threshold(2) == Fraction(4, 3)

    def test_d3_threshold_is_nine_fifths(self):
        assert fl.product_sum_threshold(3) == Fraction(9, 5)

    def test_mixed_margin_exact_rational(self):
        report = fl.threshold_report([Fraction(9, 10), Fraction(1, 2)])
        assert report.mixed_margin == Fraction(3, 10)
        assert report.mixed_margin > 0
        assert "two_factor_mixed" in report.applicable

    def test_string_fractions_stay_exact(self):
        report = fl.threshold_report(["2/3", "2/3"])
        assert report.product_sum_margin == 0
        assert report.mixed_margin == 0
        assert report.applicable == ()

    def test_three_factor_margin(self):
        report = fl.threshold_report([Fraction(7, 10)] * 3)
        assert report.product_sum_margin == Fraction(21, 10) - Fraction(9, 5)
        assert "product_sum" in report.applicable

    def test_regular_route_fields(self):
        report = fl.threshold_report([0.7, 0.7], alpha=0.7, c_nu=2.0, k=1.0)
        beta = fl.dz_beta(0.7, 2.0, 1.0).beta
        g0, delta = fl.derive_delta(0.7, beta)
        assert report.dz_beta == pytest.approx(beta)
        assert report.regular_delta == pytest.approx(delta)
        assert report.regular_threshold == pytest.approx(2.0 / 3.0 - delta)
        assert "regular_equal_dim" in report.applicable

    def test_out_of_range_dims_rejected(self):
        with pytest.raises(ValidationError, match="dims"):
            fl.threshold_report([0.5, 1.2])

    @pytest.mark.parametrize("bad", ["nan", "inf", "two thirds", "1/0", ""])
    def test_non_numeric_dims_rejected_naming_the_entry(self, bad):
        with pytest.raises(ValidationError, match=r"dims\[1\] must be a number"):
            fl.threshold_report(["2/3", bad])


class TestDeriveDelta:
    def test_example_and_grid_agreement(self):
        g0, delta = fl.derive_delta(0.5, 0.02)
        assert g0 == pytest.approx(0.01, abs=1e-15)
        assert delta == pytest.approx(0.005, abs=1e-15)
        gg, dd = derive_delta_grid(0.5, 0.02)
        assert abs(g0 - gg) < 1e-6
        assert abs(delta - dd) < 1e-6

    def test_delta_vanishes_with_beta(self):
        deltas = [fl.derive_delta(0.5, b)[1] for b in (1e-2, 1e-4, 1e-6)]
        assert deltas[0] > deltas[1] > deltas[2]
        assert deltas[-1] < 1e-6

    @given(alpha=st.floats(0.05, 0.95), beta=st.floats(1e-6, 0.5))
    def test_delta_below_half_beta(self, alpha, beta):
        g0, delta = fl.derive_delta(alpha, beta)
        assert 0.0 < g0
        assert 0.0 < delta < beta / 2.0

    @settings(max_examples=10, deadline=None)
    @given(alpha=st.floats(0.1, 0.9), beta=st.floats(1e-4, 0.2))
    def test_grid_search_confirms_closed_form(self, alpha, beta):
        g0, delta = fl.derive_delta(alpha, beta)
        gg, dd = derive_delta_grid(alpha, beta, points=400_001)
        assert abs(g0 - gg) <= max(1e-6, 2.0 * beta / 400_000)
        assert abs(delta - dd) <= 1e-6

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            fl.derive_delta(1.0, 0.1)
        with pytest.raises(ValidationError):
            fl.derive_delta(0.5, 0.0)
