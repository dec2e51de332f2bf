import math
import re
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fractalab as fl
from conftest import (in_capped_child, measure_ft, product_ft, random_grid_measure, simpson_sectors,
                      solid_average_oracle, space_side_sigma, sphere_kernel_3)
from test_acceptance import CS_SWEEPS
from fractalab import energy, fourier, measures, quadrature
from fractalab.quadrature import simpson_doubling
from fractalab.errors import BudgetError, ValidationError, ValidityCapError

ALPHA_MT = math.log(2.0) / math.log(3.0)


class TestMeasureFt:
    def test_point_mass_is_constant_one(self):
        nu = fl.point_mass()
        xs = np.linspace(-40.0, 40.0, 101)
        assert np.allclose(measure_ft(nu, xs), 1.0, atol=1e-14)

    def test_two_atoms_cancel_at_frequency_one(self, two_atom_half):
        # atoms at 0 and 1/2: (1 + e^{-pi i}) / 2 = 0
        assert abs(measure_ft(two_atom_half, 1.0)) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(-200.0, 200.0))
    def test_bounded_by_total_mass(self, seed, xi):
        nu = random_grid_measure(np.random.default_rng(seed), max_atoms=30)
        val = measure_ft(nu, xi)
        assert abs(val) <= 1.0 + 1e-12
        assert measure_ft(nu, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert measure_ft(nu, -xi) == pytest.approx(np.conj(val), abs=1e-12)


class TestProductFt:
    def test_point_product_is_one(self):
        pm = fl.point_mass()
        mu = fl.build_product([pm, pm], [0.0, 0.0])
        assert product_ft(mu, (3.7, -1.2)) == pytest.approx(1.0 + 0.0j)

    def test_vanishing_factor_kills_product(self, two_atom_half):
        mu = fl.build_product([two_atom_half, fl.point_mass()], [0.5, 0.0])
        assert abs(product_ft(mu, (1.0, 0.0))) < 1e-12

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            a = random_grid_measure(rng, max_atoms=4, max_level=4)
            b = random_grid_measure(rng, max_atoms=4, max_level=4)
            mu = fl.build_product([a, b], [0.5, 0.5])
            xi = rng.uniform(-3.0, 3.0, size=2)
            oracle = 0.0 + 0.0j
            for i, wi in zip(a.indices.tolist(), a.weights.tolist()):
                for j, wj in zip(b.indices.tolist(), b.weights.tolist()):
                    phase = a.delta * i * xi[0] + b.delta * j * xi[1]
                    oracle += wi * wj * np.exp(-2j * np.pi * phase)
            assert product_ft(mu, xi) == pytest.approx(oracle, abs=1e-12)

    def test_dimension_mismatch_rejected(self, two_atom_half):
        mu = fl.build_product([two_atom_half, two_atom_half], [0.5, 0.5])
        with pytest.raises(ValidationError, match="components"):
            product_ft(mu, (1.0, 2.0, 3.0))


def simpson_sigma(mu, t, weight):
    """Test oracle: the d = 2 circular average as 4 x the Simpson integral
    of the weighted product integrand on the first quadrant, where the
    |sin theta| weight is smooth, doubling to rel_tol
    1e-10 from 8 intervals per phase cycle."""
    fa, fb = mu.factors

    def f(th):
        c, s = np.cos(th), np.sin(th)
        vals = fa.power_spectrum(t * c) * fb.power_spectrum(t * s)
        if weight == "sin_theta":
            vals = vals * np.abs(s)
        return vals

    intervals = max(64, 8 * math.ceil(t * math.hypot(fa.diameter, fb.diameter)))
    value, _, converged = simpson_doubling(
        f, 0.0, np.pi / 2.0, initial_intervals=intervals, rel_tol=1e-10,
        max_intervals=intervals << 10,
    )
    assert converged
    return 4.0 * value


# d = 2 factors: Cantor measures on grids of at most 5**5 points, and
# spec-less measures of at most 12 atoms, whose power spectrum is the dense sum
circle_factor_st = st.one_of(
    st.integers(2, 5).flatmap(
        lambda base: st.builds(
            fl.CantorSpec,
            st.just(base),
            st.sets(st.integers(0, base - 1), min_size=1).map(lambda s: tuple(sorted(s))),
            st.integers(0, 5),
        )
    ).map(fl.build_cantor),
    st.integers(0, 2**31 - 1).map(
        lambda seed: random_grid_measure(np.random.default_rng(seed), max_atoms=12, max_level=6)
    ),
)
CIRCLE_CASES = [
    (fl.CantorSpec(3, (0, 2), 8), 81.0),
    (fl.CantorSpec(4, (0, 3), 6), 300.0),
    (fl.CantorSpec(5, (0, 1, 4), 4), 40.0),
    (fl.CantorSpec(2, (0,), 0), 7.0),
]


class TestSphericalAverage:
    def test_point_product_unweighted_is_circumference(self):
        pm = fl.point_mass()
        mu = fl.build_product([pm, pm], [0.0, 0.0])
        for t in (0.0, 1.0, 57.0):
            assert fl.spherical_average(mu, t) == pytest.approx(2.0 * np.pi, rel=1e-12)

    def test_point_product_weighted_is_four(self):
        pm = fl.point_mass()
        mu = fl.build_product([pm, pm], [0.0, 0.0])
        assert fl.spherical_average(mu, 5.0, "sin_theta") == pytest.approx(4.0, rel=1e-6)

    def test_self_convergence_against_dense_reference(self):
        nu = fl.build_cantor(fl.middle_thirds(6))
        mu = fl.build_product([nu, nu], [ALPHA_MT, ALPHA_MT])
        value = fl.spherical_average(mu, 27.0)
        dense = simpson_sigma(mu, 27.0, "none")
        assert abs(value - dense) <= 1e-6 * dense

    def test_doubling_node_count_is_stable(self, monkeypatch):
        # the circle sum's modes past n/2 are below 1e-17: 2n samples give
        # the same value to rounding, on twice the nodes
        cases = [(fl.middle_thirds(6), 27.0, "sin_theta")] + [
            (spec, t, weight)
            for spec, t in CIRCLE_CASES
            for weight in ("none", "sin_theta")
        ]
        mus = [fl.build_product([fl.build_cantor(spec)] * 2, [0.5, 0.5]) for spec, _, _ in cases]
        at_n = [fl.spherical_average_detailed(mu, t, w) for mu, (_, t, w) in zip(mus, cases)]
        samples = fourier._circle_samples
        monkeypatch.setattr(fourier, "_circle_samples", lambda x: 2 * samples(x))
        at_2n = [fl.spherical_average_detailed(mu, t, w) for mu, (_, t, w) in zip(mus, cases)]
        for (v1, n1), (v2, n2) in zip(at_n, at_2n):
            assert n2 == 2 * n1
            assert abs(v1 - v2) <= 1e-13 * abs(v2)

    @pytest.mark.parametrize("t", [1.0, 3.3, 17.25, 60.0])
    def test_weighted_two_atom_closed_form(self, two_atom_line, t):
        mu, sigma_w = two_atom_line
        value, _ = fl.spherical_average_detailed(mu, t, "sin_theta")
        assert abs(value - sigma_w(t)) <= 1e-9

    def test_validity_cap_refusal_names_cap(self):
        nu = fl.build_cantor(fl.middle_thirds(4))
        mu = fl.build_product([nu, nu], [ALPHA_MT, ALPHA_MT])
        cap = fl.validity_cap(mu)
        assert cap == pytest.approx(0.1 * 3**4)
        with pytest.raises(ValidityCapError) as err:
            fl.spherical_average(mu, cap * 1.5)
        assert err.value.cap == pytest.approx(cap)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_t(self, t):
        # a point-mass product has no validity cap to stop an infinite t
        pm = fl.point_mass()
        for mu in (fl.build_product([pm, pm], [0.0, 0.0]),
                   fl.build_product([fl.build_cantor(fl.middle_thirds(4))] * 2, [ALPHA_MT] * 2)):
            with pytest.raises(ValidationError, match="finite"):
                fl.spherical_average(mu, t)

    def test_axis_exchange_symmetry(self):
        # theta -> pi/2 - theta swaps the factors; the unweighted circle is
        # its own image, and both products see the same circle samples
        a = fl.build_cantor(fl.middle_thirds(6))
        b = fl.build_cantor(fl.CantorSpec(4, (0, 3), 5))
        mab = fl.build_product([a, b], [a.dimension_hint, b.dimension_hint])
        mba = fl.build_product([b, a], [b.dimension_hint, a.dimension_hint])
        for t in (5.0, 25.0, 70.0):
            lhs = fl.spherical_average(mab, t, "none")
            rhs = fl.spherical_average(mba, t, "none")
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_series_fits_decay(self):
        nu = fl.build_cantor(fl.middle_thirds(7))
        mu = fl.build_product([nu, nu], [ALPHA_MT, ALPHA_MT])
        series = fl.spherical_average_series(mu, [3.0, 9.0, 27.0, 81.0], "sin_theta")
        assert series.fitted_decay < 0.0
        assert len(series.values) == len(series.node_counts) == 4


def first_x_counting(n):
    """The least float x >= 0 with _circle_samples(x) >= n, by bisection on
    the bits of nonnegative floats (which are ordered as the floats); x =
    1.677e7 needs just under 2**24 samples."""
    lo, hi = 0, np.float64(1.677e7).view(np.int64).item()
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fourier._circle_samples(np.int64(mid).view(np.float64).item()) >= n:
            hi = mid
        else:
            lo = mid
    return np.int64(hi).view(np.float64).item()


class TestCircleSamples:
    def test_array_count_equals_the_scalar_count(self):
        steps = np.array([first_x_counting(1 << k) for k in range(7, 25)])
        xs = np.concatenate((
            np.linspace(0.0, 1.677e7, 50_001), np.geomspace(1e-9, 1.677e7, 50_000),
            steps, np.nextafter(steps, -math.inf),
        ))
        counts = fourier._circle_samples(xs)
        assert counts.dtype.kind == "i"
        assert counts.tolist() == [fourier._circle_samples(x) for x in xs.tolist()]
        # the integer rule on Python floats
        assert counts.tolist() == [max(16, 1 << (math.ceil(x + 10.0 * x ** (1.0 / 3.0) + 40.0) - 1)
                                       .bit_length()) for x in xs.tolist()]
        # each step is where the count doubles
        assert fourier._circle_samples(steps).tolist() == [1 << k for k in range(7, 25)]
        assert fourier._circle_samples(np.nextafter(steps, -math.inf)).tolist() == [
            1 << k for k in range(6, 24)]

    def test_array_past_the_cap_raises_the_scalar_error(self):
        # the last x under 2**24 samples, by bisection on the float bits
        lo, hi = (np.float64(x).view(np.int64).item() for x in (1.6e7, 1.7e7))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                fourier._circle_samples(np.int64(mid).view(np.float64).item())
                lo = mid
            except BudgetError:
                hi = mid
        last, over = (np.int64(b).view(np.float64).item() for b in (lo, hi))
        assert fourier._circle_samples(np.array([1.0, last])).tolist() == [64, 1 << 24]
        with pytest.raises(BudgetError, match=r"2\*\*24.*lower t") as scalar:
            fourier._circle_samples(over)
        with pytest.raises(BudgetError) as array:
            fourier._circle_samples(np.array([1.0, last, over, 2.0 * over]))
        assert str(array.value) == str(scalar.value)


def circle_modes(f):
    """Test oracle: modes c_k, k = 0..n/2, of F from f = F(pi m / n), m =
    0..n-1, for F pi-periodic and even with no mode past n/2 that shows:
    the trapezoid rule, one real FFT, gives them exactly up to rounding
    (Trefethen-Weideman 2014)."""
    return np.fft.rfft(f).real / f.size


def sector_series(c, a, b):
    """Test oracle: int_a^b F from F's trapezoid modes c_k, k = 0..n/2,
    c_0 (b - a) + sum_k c'_k (sin 2kb - sin 2ka)/(2k) with c'_k = 2 c_k and
    the Nyquist mode once, summed by math.fsum."""
    k2 = 2.0 * np.arange(1, c.size)
    cp = 2.0 * c[1:]
    cp[-1] = c[-1]
    return math.fsum([c[0] * (b - a), *(cp * (np.sin(k2 * b) - np.sin(k2 * a)) / k2).tolist()])


def weight_series(c, weight):
    """Test oracle: int_0^{2pi} F w from F's trapezoid modes c_k, k = 0..n/2:
    2 pi c_0 unweighted; for |sin theta| = 2/pi - (4/pi) sum_k cos(2k
    theta)/(4k^2 - 1), 4 c_0 - 8 sum_{0<k<n/2} c_k/(4k^2 - 1) - 4 c_{n/2}/
    (n^2 - 1), the Nyquist mode once, summed by math.fsum."""
    if weight == "none":
        return 2.0 * math.pi * c[0]
    k = np.arange(1, c.size, dtype=float)
    coef = -8.0 / (4.0 * k * k - 1.0)
    coef[-1] /= 2.0
    return math.fsum([4.0 * c[0], *(coef * c[1:]).tolist()])


class TestCircleWeights:
    @pytest.mark.parametrize("weight", ["none", "sin_theta"])
    def test_half_grid_dot_matches_the_modes_and_weight_series(self, weight):
        # random samples symmetric about pi/2, so no mode is small: the
        # identity holds for any samples, not only band-limited ones
        rng = np.random.default_rng(11)
        for n in [1 << k for k in range(6, 18)]:
            half = rng.uniform(0.5, 1.5, n // 2 + 1)
            oracle = weight_series(circle_modes(np.concatenate((half, half[-2:0:-1]))), weight)
            value = float(np.dot(half, fourier._half_weights(n, weight)))
            assert abs(value - oracle) <= 1e-14 * abs(oracle)

    def test_uniform_weight_is_the_fold_of_its_one_moment(self):
        # the closed form H_0 = H_(n/2) = 2 pi/n, H_m = 4 pi/n, bitwise
        for n in [1 << k for k in range(4, 18)]:
            moments = np.zeros(n // 2 + 1)
            moments[0] = 2.0 * np.pi
            assert np.array_equal(fourier._half_weights(n, "none"), fourier._fold(moments))

    def test_strided_cosine_table_is_the_direct_one(self):
        # a stationary-phase sweep reads every n's table from its largest n's
        for top in [1 << k for k in range(4, 18)]:
            table = half_grid_cosines(top)
            for n in [1 << k for k in range(4, top.bit_length())]:
                assert np.array_equal(table[:: top // n], half_grid_cosines(n))

    @pytest.mark.parametrize("eps", [1e-3, 0.1, 0.5, math.pi / 4.0 - 1e-3])
    def test_sector_rows_match_the_modes_and_sector_series(self, eps):
        rng = np.random.default_rng(12)
        for n in [1 << k for k in range(6, 18)]:
            half = rng.uniform(0.5, 1.5, n // 2 + 1)
            c = circle_modes(np.concatenate((half, half[-2:0:-1])))
            quadrant = sector_series(c, 0.0, math.pi / 2.0)
            oracle = [sector_series(c, a, b) for a, b in
                      ((0.0, eps), (math.pi / 2.0 - eps, math.pi / 2.0), (eps, math.pi / 2.0 - eps))]
            value = np.einsum("ij,j->i", fourier._sector_weights(n, eps), half)
            assert np.abs(value - oracle).max() <= 1e-14 * quadrant


class TestCircularAverageRoute:
    @settings(max_examples=40, deadline=None)
    @given(circle_factor_st, circle_factor_st, st.floats(0.0, 1.0),
           st.sampled_from(["none", "sin_theta"]))
    def test_matches_simpson_oracle(self, a, b, fraction, weight):
        mu = fl.build_product([a, b], [0.5, 0.5])
        t = fraction * min(fl.validity_cap(mu), 300.0)
        value = fl.spherical_average(mu, t, weight)
        oracle = simpson_sigma(mu, t, weight)
        assert abs(value - oracle) <= 1e-9 * oracle

    def test_one_weight_vector_of_the_band_limit_sample_count(self, monkeypatch):
        sizes = []
        weights, samples = fourier._half_weights, fourier._quadrant_samples

        def recording_weights(n, weight):
            sizes.append(n)  # the sample count of the block
            return weights(n, weight)

        def recording_samples(fa, fb, tr, n):
            f = samples(fa, fb, tr, n)
            assert f.shape[-1] == n // 2 + 1  # the half grid of n samples
            return f

        monkeypatch.setattr(fourier, "_half_weights", recording_weights)
        monkeypatch.setattr(fourier, "_quadrant_samples", recording_samples)
        # a second factor of another diameter, with validity cap 409.6
        b = fl.GridMeasure(base=2, level=12, indices=np.array([0, 1000]), weights=np.array([0.5, 0.5]))
        for spec, t in CIRCLE_CASES:
            a = fl.build_cantor(spec)
            mu = fl.build_product([a, b], [0.5, 0.5])
            for weight in ("none", "sin_theta"):
                sizes.clear()
                _, nodes = fl.spherical_average_detailed(mu, t, weight)
                n = fourier._circle_samples(2.0 * math.pi * t * math.hypot(a.diameter, b.diameter))
                assert sizes == [n]
                assert nodes == 2 * n

    @pytest.mark.parametrize("second", ["same object", "same spec", "other spec", "spec-less"])
    def test_mirrored_quadrant_matches_two_explicit_evaluations(self, monkeypatch, second):
        # sin theta_m is read as cos theta_(n/2 - m); a second factor with the
        # first's spec reuses the first's values reversed, in one Riesz product
        a = fl.build_cantor(fl.CantorSpec(3, (0, 2), 7))
        b = {"same object": a, "same spec": fl.build_cantor(fl.CantorSpec(3, (0, 2), 7)),
             "other spec": fl.build_cantor(fl.CantorSpec(5, (0, 1, 4), 4)),
             "spec-less": spec_less_measure(3, 11, 3, 5)}[second]
        n, tr = 1024, np.array([[0.0], [3.3], [57.25], [200.0]])
        theta = np.pi * np.arange(n // 2 + 1) / n
        explicit = a.power_spectrum(tr * np.cos(theta)) * b.power_spectrum(tr * np.sin(theta))
        calls = []
        spectrum = fl.GridMeasure.power_spectrum
        monkeypatch.setattr(fl.GridMeasure, "power_spectrum",
                            lambda self, xi: calls.append(self) or spectrum(self, xi))
        mirrored = fourier._quadrant_samples(a, b, tr, n)
        assert calls == ([a] if second.startswith("same") else [a, b])
        assert mirrored.shape == explicit.shape
        assert np.max(np.abs(mirrored - explicit)) <= 1e-13 * np.max(explicit)

    def test_no_simpson_on_the_circle(self):
        # sigma on d = 2 products takes the band-limited sum, alone or inside
        # the Mattila integral, whose t integral takes Gauss-Legendre panels:
        # no frame of simpson_doubling runs, however it was imported
        assert not hasattr(fourier, "simpson_doubling")
        simpson, calls = quadrature.simpson_doubling.__code__, []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is simpson:
                calls.append(frame.f_locals.copy())

        nu = fl.build_cantor(fl.middle_thirds(5))
        mu = fl.build_product([nu, nu], [ALPHA_MT, ALPHA_MT])
        sys.setprofile(profile)
        try:
            for weight in ("none", "sin_theta"):
                fl.spherical_average_series(mu, [2.0, 6.0, 18.0], weight)
            for weighted in (False, True):
                fl.mattila_truncated(mu, 20.0, weighted)
            simpson_doubling(np.cos, 0.0, 1.0)  # the profile sees a call
        finally:
            sys.setprofile(None)
        assert len(calls) == 1 and calls[0]["f"] is np.cos


def spec_less_measure(seed, atoms, base, level):
    rng = np.random.default_rng(seed)
    weights = rng.random(atoms) + 0.05
    return fl.GridMeasure(base=base, level=level, weights=weights / weights.sum(),
                          indices=np.sort(rng.choice(base**level, size=atoms, replace=False)))


# a Cantor factor and a spec-less one of 40 atoms, whose power spectrum is a
# dense sum; each is paired with itself
BATCH_FACTORS = {
    "cantor 3:0,2:6": lambda: fl.build_cantor(fl.CantorSpec(3, (0, 2), 6)),
    "spec-less 40 atoms": lambda: spec_less_measure(77, 40, 3, 6),
}


def batch_ts(mu, per_count=17):
    """per_count values of t for each of mu's three smallest circle sample
    counts (64, 128 and 256), shuffled."""
    a, b = mu.factors
    diam = math.hypot(a.diameter, b.diameter)
    by_count = {}
    for t in np.linspace(0.0, 200.0, 2001) / (2.0 * math.pi * diam):
        by_count.setdefault(fourier._circle_samples(2.0 * math.pi * t * diam), []).append(t)
    ts = [t for n in (64, 128, 256) for t in by_count[n][:: len(by_count[n]) // per_count][:per_count]]
    return np.random.default_rng(5).permutation(ts)


class TestSigmaBatch:
    @pytest.mark.parametrize("weight", ["none", "sin_theta"])
    @pytest.mark.parametrize("factor", BATCH_FACTORS.values(), ids=BATCH_FACTORS.keys())
    def test_a_t_is_bitwise_the_same_alone_and_in_blocks(self, monkeypatch, factor, weight):
        nu = factor()
        mu = fl.build_product([nu, nu], [0.5, 0.5])
        ts = batch_ts(mu)
        a, b = mu.factors
        counts = [fourier._circle_samples(2.0 * math.pi * t * math.hypot(a.diameter, b.diameter))
                  for t in ts]
        assert len(set(counts)) == 3
        alone = [fourier._sigma_many(mu, [t], weight, "lower t")[0][0] for t in ts]
        rows = []
        samples = fourier._quadrant_samples

        def recording(fa, fb, tr, n):
            rows.append(tr.shape[0])
            return samples(fa, fb, tr, n)

        monkeypatch.setattr(fourier, "_quadrant_samples", recording)
        for size in (2, 3, 4, 5, 17):
            rows.clear()
            for n in set(counts):  # consecutive t of one count: one block of `size` rows
                group = [t for t, c in zip(ts, counts) if c == n]
                for start in range(0, len(group), size):
                    chunk = group[start : start + size]
                    values, nodes = fourier._sigma_many(mu, chunk, weight, "lower t")
                    want = [alone[list(ts).index(t)] for t in chunk]
                    assert values.tobytes() == np.array(want).tobytes()
                    assert list(nodes) == [2 * n] * len(chunk)
            assert max(rows) == size
        values, _ = fourier._sigma_many(mu, ts, weight, "lower t")  # all 51 at once
        assert values.tobytes() == np.array(alone).tobytes()
        assert sorted(rows[-3:]) == [17, 17, 17]

    def test_spec_less_chunk_ends_do_not_move_with_the_block(self):
        # transform takes _CHUNK // atoms = 32 frequencies per chunk: alone,
        # a t's 33 samples end in a one-frequency chunk; in a block of two
        # that sample is inside a chunk, where a BLAS product would round it
        # differently
        rng = np.random.default_rng(1)
        atoms = measures._CHUNK // 32
        weights = rng.random(atoms) + 0.05
        wide = fl.GridMeasure(base=2, level=18, weights=weights / weights.sum(),
                              indices=np.sort(rng.choice(2**18, atoms, replace=False)))
        mu = fl.build_product([wide, fl.point_mass()], [0.5, 0.0])
        ts = [0.11, 0.23]
        alone = [fourier._sigma_many(mu, [t], "sin_theta", "lower t") for t in ts]
        assert [nodes[0] for _, nodes in alone] == [128, 128]  # 64 samples, 33 in [0, pi/2]
        values, _ = fourier._sigma_many(mu, ts, "sin_theta", "lower t")
        assert values.tolist() == [v[0] for v, _ in alone]

    def test_blocks_keep_to_the_row_bound(self, monkeypatch):
        shapes = []
        samples = fourier._quadrant_samples

        def recording(fa, fb, tr, n):
            shapes.append((tr.shape[0], n))  # (rows, sample count) of a block
            return samples(fa, fb, tr, n)

        monkeypatch.setattr(fourier, "_quadrant_samples", recording)
        nu = fl.build_cantor(fl.CantorSpec(3, (0, 2), 6))
        mu = fl.build_product([nu, nu], [0.5, 0.5])
        # 2500 t of 64 samples span three blocks of 32768 // 33 = 992 rows
        ts = np.concatenate((np.linspace(0.0, 0.6, 2500), batch_ts(mu)))
        values, nodes = fourier._sigma_many(mu, ts, "sin_theta", "lower t")
        for rows, n in shapes:
            assert rows <= max(1, fourier._BLOCK // (n // 2 + 1))
        per_count = {n: sum(r for r, m in shapes if m == n) for _, n in shapes}
        assert per_count == {n: int(np.sum(nodes == 2 * n)) for n in per_count}
        assert [n for _, n in shapes].count(64) == 3
        alone = [fl.spherical_average(mu, t, "sin_theta") for t in ts[::97]]
        assert values[::97].tolist() == alone

    def test_over_budget_t_raises_before_any_block(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fourier, "_half_weights", lambda *a: calls.append("weights"))
        spectrum = fl.GridMeasure.power_spectrum
        monkeypatch.setattr(fl.GridMeasure, "power_spectrum",
                            lambda self, xi: calls.append("spectrum") or spectrum(self, xi))
        # diameter ~ 1, validity cap 0.1 * 2**30 ~ 1.07e8: t = 1e7 is under
        # the cap but needs ~8.9e7 > 2**24 circle samples
        wide = fl.GridMeasure(base=2, level=30, indices=np.array([0, 2**30 - 1]),
                              weights=np.array([0.5, 0.5]))
        mu = fl.build_product([wide, wide], [0.0, 0.0])
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=r"2\*\*24.*lower t"):
            fourier._sigma_many(mu, [1.0, 2.0, 1e7, 3.0], "none", "lower t")
        assert calls == []
        assert time.perf_counter() - start < 1.0

    def test_bad_t_is_named(self):
        nu = fl.build_cantor(fl.middle_thirds(4))
        mu = fl.build_product([nu, nu], [ALPHA_MT, ALPHA_MT])
        with pytest.raises(ValidationError, match="nonnegative and finite, got -1.0"):
            fourier._sigma_many(mu, [1.0, 1e9, -1.0, math.nan], "none", "lower t")
        with pytest.raises(ValidityCapError, match="t=2000000000.0 exceeds") as err:
            fourier._sigma_many(mu, [1.0, 1e9, 2e9, 3.0], "none", "lower t")
        assert err.value.cap == pytest.approx(8.1)


def sphere_kernel_5(u):
    """|S^4| 3 j_1(u)/u = (8 pi^2/3) 3 (sin u - u cos u)/u^3, by its Taylor
    series below u = 0.5, where the difference cancels."""
    small = u < 0.5
    us = np.where(small, 1.0, u)
    direct = 3.0 * (np.sin(us) - us * np.cos(us)) / us**3
    series = sum(3.0 * (-1) ** (k + 1) * 2 * k * u ** (2 * k - 2) / math.factorial(2 * k + 1)
                 for k in range(1, 7))
    return 8.0 * np.pi**2 / 3.0 * np.where(small, series, direct)


def cantor_cube(level):
    nu = fl.build_cantor(fl.CantorSpec(3, (0, 2), level))
    return fl.build_product([nu] * 3, [0.5] * 3)


def three_atoms():
    """Atoms 0, 2/27 and 7/27: a narrow spec-less factor."""
    return fl.GridMeasure(base=3, level=3, indices=np.array([0, 2, 7]), weights=np.array([0.2, 0.5, 0.3]))


# d >= 3 products: Cantor cubes, spec-less factors and mixtures
SPHERE_PRODUCTS = {
    "3:0,2:3^3": lambda: cantor_cube(3),
    "3:0,2:4^3": lambda: cantor_cube(4),
    "spec-less^3": lambda: fl.build_product(
        [spec_less_measure(s, 9, 3, 4) for s in (3, 4, 5)], [0.5] * 3),
    "d=4 3:0,2:3^3 x spec-less": lambda: fl.build_product(
        [fl.build_cantor(fl.CantorSpec(3, (0, 2), 3))] * 3 + [spec_less_measure(6, 7, 3, 3)], [0.5] * 4),
    "d=5 mixed": lambda: fl.build_product(
        [fl.build_cantor(fl.CantorSpec(3, (0, 2), 2)), three_atoms()] * 2 + [three_atoms()], [0.5] * 5),
}


class TestSphereRule:
    @pytest.mark.parametrize("name", ["3:0,2:3^3", "3:0,2:4^3", "spec-less^3"])
    def test_d3_matches_the_sinc_sum_up_to_the_cap(self, name):
        mu = SPHERE_PRODUCTS[name]()
        ts = np.linspace(0.5, fl.validity_cap(mu), 12)
        values, _ = fourier._sigma_many(mu, ts, "none", "lower t")
        oracle = space_side_sigma(mu, ts, sphere_kernel_3)
        assert np.max(np.abs(values - oracle) / oracle) <= 1e-10

    def test_d5_matches_the_bessel_sum(self):
        # at t = 0.75 the rule would need 65**3 * 128 > 2**24 nodes
        mu = SPHERE_PRODUCTS["d=5 mixed"]()
        ts = [0.15, 0.4, 0.7]
        values, _ = fourier._sigma_many(mu, ts, "none", "lower t")
        oracle = space_side_sigma(mu, ts, sphere_kernel_5)
        assert np.max(np.abs(values - oracle) / oracle) <= 1e-10
        with pytest.raises(BudgetError, match=r"2\*\*24.*lower t"):
            fourier._sigma_many(mu, [0.75], "none", "lower t")

    @pytest.mark.parametrize(
        "name, weight",
        [("3:0,2:4^3", "sin_theta"), ("spec-less^3", "sin_theta"),
         ("d=4 3:0,2:3^3 x spec-less", "none"), ("d=4 3:0,2:3^3 x spec-less", "sin_theta")],
    )
    def test_doubling_the_nodes_changes_nothing(self, monkeypatch, name, weight):
        # twice the circle samples give n + 1 polar nodes and twice the
        # samples on every ring; d = 5 doubled is past 2**24 nodes at any t
        mu = SPHERE_PRODUCTS[name]()
        ts = np.linspace(0.5, fl.validity_cap(mu), 4)
        at_n, nodes_n = fourier._sigma_many(mu, ts, weight, "lower t")
        samples = fourier._circle_samples
        monkeypatch.setattr(fourier, "_circle_samples", lambda x: 2 * samples(x))
        at_2n, nodes_2n = fourier._sigma_many(mu, ts, weight, "lower t")
        assert (nodes_2n > 2 * nodes_n).all()
        assert np.max(np.abs(at_n - at_2n) / at_2n) <= 1e-10

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_point_masses_give_the_sphere_and_twice_the_ball(self, d):
        pm = fl.point_mass()
        mu = fl.build_product([pm] * d, [0.0] * d)
        sphere = 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)
        ball = math.pi ** ((d - 1) / 2) / math.gamma((d + 1) / 2)  # the unit ball of R^(d-1)
        values, _ = fourier._sigma_many(mu, [0.0, 3.0, 41.0], "none", "lower t")
        weighted, _ = fourier._sigma_many(mu, [0.0, 3.0, 41.0], "sin_theta", "lower t")
        assert np.max(np.abs(values / sphere - 1.0)) <= 1e-12
        assert np.max(np.abs(weighted / (2.0 * ball) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("weight", ["none", "sin_theta"])
    def test_a_t_is_bitwise_the_same_alone_and_in_batches(self, weight):
        a = fl.build_cantor(fl.CantorSpec(3, (0, 2), 4))
        mu = fl.build_product([a, spec_less_measure(8, 9, 3, 4), a], [0.5] * 3)
        ts = np.random.default_rng(5).permutation(np.linspace(0.0, 5.0, 51))
        alone = [fourier._sigma_many(mu, [t], weight, "lower t") for t in ts]
        want_v = np.array([v[0] for v, _ in alone])
        want_n = [n[0] for _, n in alone]
        assert len(set(want_n)) > 3
        for size in (2, 3, 17, ts.size):
            for start in range(0, ts.size, size):
                values, nodes = fourier._sigma_many(mu, ts[start : start + size], weight, "lower t")
                assert values.tobytes() == want_v[start : start + size].tobytes()
                assert nodes.tolist() == want_n[start : start + size]

    def test_over_budget_t_raises_before_any_spectrum(self, monkeypatch):
        calls = []
        spectrum = fl.GridMeasure.power_spectrum
        monkeypatch.setattr(fl.GridMeasure, "power_spectrum",
                            lambda self, xi: calls.append("spectrum") or spectrum(self, xi))
        # diameter ~ 1 on the 2**30 grid: at t = 1000, 2 pi t |diam| ~ 1.1e4
        # gives 16384 circle samples and 8193 polar nodes, 1.3e8 > 2**24
        wide = fl.GridMeasure(base=2, level=30, indices=np.array([0, 2**30 - 1]),
                              weights=np.array([0.5, 0.5]))
        mu = fl.build_product([wide] * 3, [0.0] * 3)
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=r"sphere rule at t=1000.0 needs 1.34e\+08 nodes in d = 3, "
                                              r"past its 2\*\*24 budget; lower t"):
            fourier._sigma_many(mu, [1.0, 2.0, 1000.0, 3.0], "sin_theta", "lower t")
        assert calls == []
        assert time.perf_counter() - start < 1.0


    def test_cos_theta_is_refused_at_d_2(self):
        pm = fl.point_mass()
        with pytest.raises(ValidationError, match="unknown weight 'cos_theta'"):
            fl.spherical_average(fl.build_product([pm] * 2, [0.0] * 2), 1.0, "cos_theta")

    def test_cos_theta_is_refused_past_d_2(self):
        pm = fl.point_mass()
        with pytest.raises(ValidationError, match="unknown weight 'cos_theta'"):
            fl.spherical_average(fl.build_product([pm] * 3, [0.0] * 3), 1.0, "cos_theta")


class TestSolidAverage:
    def test_point_mass_interval_length(self):
        for t in (1.0, 10.0, 500.0):
            assert fl.solid_average(fl.point_mass(), t, (-1.0, 1.0)) == pytest.approx(2.0, rel=1e-10)

    def test_middle_thirds_decay(self, middle_thirds_8):
        ts = [3.0**j for j in range(1, 7)]
        vals = [fl.solid_average(middle_thirds_8, t) for t in ts]
        fit = fl.loglog_fit(ts, vals)
        assert fit.slope <= -ALPHA_MT + 0.1

    def test_uniform_measure_decay_slope_near_minus_one(self):
        nu = fl.build_cantor(fl.CantorSpec(2, (0, 1), 10))
        ts = [2.0**j for j in range(1, 7)]
        vals = [fl.solid_average(nu, t) for t in ts]
        assert abs(fl.loglog_fit(ts, vals).slope + 1.0) < 0.1

    def test_empty_interval_rejected(self):
        with pytest.raises(ValidationError, match="empty interval"):
            fl.solid_average(fl.point_mass(), 2.0, (1.0, 1.0))

    @pytest.mark.parametrize(
        "nu, ts",
        [
            (fl.build_cantor(fl.middle_thirds(8)), (3.0, 9.0, 27.0, 81.0, 243.0)),
            (fl.build_cantor(fl.CantorSpec(4, (0, 3), 6)), (4.0, 64.0, 256.0)),
            (fl.build_cantor(fl.CantorSpec(5, (0, 1, 4), 5)), (5.0, 125.0)),
            (spec_less_measure(3, 60, 3, 6), (1.0, 7.3, 40.0)),
            (spec_less_measure(4, 30, 2, 9), (2.0, 30.0)),
            (fl.point_mass(), (1.0, 500.0)),
        ],
        ids=["3:0,2:8", "4:0,3:6", "5:0,1,4:5", "spec-less-3^6", "spec-less-2^9", "point"],
    )
    @pytest.mark.parametrize("interval", [(-1.0, 1.0), (0.25, 2.0)], ids=str)
    def test_matches_the_gap_sum_oracle(self, nu, ts, interval):
        for t in ts:
            want = solid_average_oracle(nu, t, *interval)
            assert abs(fl.solid_average(nu, t, interval) - want) <= 1e-13 * want

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_t(self, middle_thirds_8, t):
        with pytest.raises(ValidationError, match="finite"):
            fl.solid_average(middle_thirds_8, t)


class TestStationaryPhase:
    def test_axis_aligned_gap_kills_main_term(self):
        report = fl.stationary_phase_check((1.0, 0.0), [10.25, 33.7, 101.3])
        assert report.main == (0.0, 0.0, 0.0)
        for t, exact in zip(report.t_values, report.exact):
            closed = 2.0 * math.sin(2.0 * math.pi * t) / (math.pi * t)
            assert exact.real == pytest.approx(closed, abs=1e-8)
            assert abs(exact.imag) < 1e-8

    def test_vertical_gap_at_t_100(self):
        report = fl.stationary_phase_check((0.0, 1.0), [100.0])
        exact, main = report.exact[0], report.main[0]
        assert main == pytest.approx(0.2 * math.cos(2.0 * math.pi * (100.0 - 0.125)), rel=1e-12)
        assert abs(exact - main) / abs(main) <= 0.1

    def test_residual_slope_in_window(self):
        ts = [float(x) for x in np.geomspace(100.0, 10000.0, 13) * 1.0137]
        report = fl.stationary_phase_check((0.0, 1.0), ts)
        assert report.residual_slope is not None
        assert report.residual_slope <= -1.4

    def test_residual_to_main_ratio_gains_about_one_power(self):
        ts = [float(x) for x in np.geomspace(100.0, 10000.0, 13) * 1.0137]
        report = fl.stationary_phase_check((0.0, 1.0), ts)
        ratios = [abs(r) / abs(m) for r, m in zip(report.residuals, report.main)]
        slope = fl.loglog_fit(ts, ratios).slope
        assert -1.6 <= slope <= -0.5

    def test_zero_gap_rejected(self):
        with pytest.raises(ValidationError, match="nonzero"):
            fl.stationary_phase_check((0.0, 0.0), [100.0])

    @pytest.mark.parametrize("t", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_t(self, t):
        with pytest.raises(ValidationError, match="finite"):
            fl.stationary_phase_check((0.0, 1.0), [10.0, t, 100.0])

    @pytest.mark.parametrize("gap", [(math.nan, 1.0), (0.0, math.inf)])
    def test_rejects_non_finite_gap(self, gap):
        with pytest.raises(ValidationError, match="finite"):
            fl.stationary_phase_check(gap, [10.0])

    def test_circle_integral_sample_count(self, monkeypatch):
        # one integral per t on the half grid of n samples, n the smallest
        # power of two >= R + 10 R^(1/3) + 40, with n's own cosine table
        sizes = []
        integral = fourier._circle_phase_integral

        def recording(gap, t, cos_h, h):
            sizes.append(2 * (h.size - 1))
            assert np.array_equal(cos_h, half_grid_cosines(sizes[-1]))
            return integral(gap, t, cos_h, h)

        monkeypatch.setattr(fourier, "_circle_phase_integral", recording)
        ts = [0.001, 100.0, 101.37, 148.79081175884915, 10137.0]
        fl.stationary_phase_check((0.0, 1.0), ts)
        assert len(sizes) == len(ts)
        for t, n in zip(ts, sizes):
            need = 2.0 * math.pi * t + 10.0 * (2.0 * math.pi * t) ** (1.0 / 3.0) + 40.0
            assert n & (n - 1) == 0 and n >= need and (n == 16 or n // 2 < need)

    @pytest.mark.parametrize("gap", [(0.0, 0.0), (1.0, math.inf), (math.nan, 1.0), (1.0, 2.0, 3.0)])
    def test_main_term_rejects_a_bad_gap(self, gap):
        with pytest.raises(ValidationError, match="gap must be"):
            fl.stationary_phase_main_term(gap, [10.0])

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf, [10.0, 0.0], [[1.0], [math.nan]]])
    def test_main_term_rejects_t_not_positive_and_finite(self, t):
        with pytest.raises(ValidationError, match="positive and finite"):
            fl.stationary_phase_main_term((0.0, 1.0), t)

    def test_circle_budget_guard(self):
        # t|g| = 1e8 would take 2**30 samples; under a 512 MiB address-space
        # cap a lost guard fails, not OOM-killed
        (message, seconds), _ = in_capped_child(circle_budget_refusal, [0.0, 1.0], 1e8)
        assert re.search(r"2\*\*24.*lower t", message) and seconds < 1.0


def circle_budget_refusal(gap, t):
    """stationary_phase_check's refusal at one t, run in a capped child:
    (message, seconds to refuse)."""
    start = time.perf_counter()
    with pytest.raises(BudgetError) as info:
        fl.stationary_phase_check(tuple(gap), [t])
    return str(info.value), time.perf_counter() - start


def simpson_circle_integral(gap, t):
    """Test oracle: 2 int_0^pi cos(2 pi t gap . omega) sin theta dtheta by
    Simpson doubling at rel/abs 1e-10, from 8 nodes per phase cycle."""
    intervals = max(512, 8 * math.ceil(t * math.hypot(*gap)))

    def f(th):
        return np.cos(2.0 * np.pi * t * (gap[0] * np.cos(th) + gap[1] * np.sin(th))) * np.sin(th)

    value, _, converged = simpson_doubling(
        f, 0.0, np.pi, initial_intervals=intervals, rel_tol=1e-10,
        max_intervals=intervals << 8, abs_tol=1e-10,
    )
    assert converged
    return 2.0 * value


def bessel_even(x, count):
    """Test oracle: J_0(x), J_2(x), ..., J_{2(count - 1)}(x) by Miller's
    backward recurrence J_{n-1} = (2n/x) J_n - J_{n+1}, started well past
    both x and the last order and rescaled against overflow, then normalized
    by J_0 + 2 sum_k J_2k = 1. Within 3e-13 of scipy's jv for x up to 6e4."""
    top = 2 * (int(x + 20.0 * x ** (1.0 / 3.0) + 60.0) // 2 + count)
    j = np.zeros(top + 2)
    j[top] = 1e-300
    for n in range(top, 0, -1):
        j[n - 1] = (2.0 * n / x) * j[n] - j[n + 1]
        if abs(j[n - 1]) > 1e250:
            j[n - 1 :] *= 1e-250
    even = j[0::2]
    return (even / (even[0] + 2.0 * math.fsum(even[1:].tolist())))[:count]


def half_grid_cosines(n):
    """cos(pi m / n), m = 0..n/2."""
    return np.cos(np.pi * np.arange(n // 2 + 1) / n)


def circle_integral(gap, t):
    n = fourier._circle_samples(2.0 * math.pi * t * math.hypot(*gap))
    return fourier._circle_phase_integral(
        np.asarray(gap, dtype=float), t, half_grid_cosines(n), fourier._half_weights(n, "sin_theta"))


class TestCirclePhaseIntegral:
    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(0.0, 2.0 * math.pi),
        st.floats(0.1, 10.0),
        st.floats(-2.0, math.log10(2e4)),
    )
    @example(1.0, 3.3, math.log10(2e4))
    def test_matches_simpson_oracle(self, angle, norm, log_x):
        gap = (norm * math.cos(angle), norm * math.sin(angle))
        t = 10.0**log_x / norm
        value = circle_integral(gap, t)
        assert value.imag == 0.0
        assert abs(value.real - simpson_circle_integral(gap, t)) <= 3e-10

    @pytest.mark.parametrize("gap", [(1.0, 0.0), (-2.0, 0.0)])
    def test_horizontal_gaps_match_closed_form(self, gap):
        # |sin theta_g| = 0: the integral is 4 sin R / R, R = 2 pi t|g|
        for x in np.geomspace(1e-2, 3e4, 41):
            r = 2.0 * math.pi * x
            value = circle_integral(gap, x / math.hypot(*gap))
            assert abs(value.real - 4.0 * math.sin(r) / r) <= 1e-12

    @pytest.mark.parametrize("gap", [(0.0, 1.0), (1.0, 1.0), (3.0, -2.0), (-2.0, 2.0), (0.0, -3.0)])
    def test_matches_the_bessel_series(self, gap):
        # I = 4 J_0(R) - 8 sum_k (-1)^k cos(2k theta_g) J_2k(R) / (4k^2 - 1)
        theta_g = math.atan2(gap[1], gap[0])
        for x in (0.01, 0.37, 3.7, 41.0, 150.0, 1024.5, 3000.0):
            r = 2.0 * math.pi * x
            j = bessel_even(r, int(r + 20.0 * r ** (1.0 / 3.0) + 40.0) // 2)
            k = np.arange(1, j.size)
            terms = (-1.0) ** k * np.cos(2.0 * k * theta_g) * j[1:] / (4.0 * k * k - 1.0)
            series = 4.0 * j[0] - 8.0 * math.fsum(terms.tolist())
            value = circle_integral(gap, x / math.hypot(*gap))
            assert value.imag == 0.0
            assert abs(value.real - series) <= 1e-12

    def test_doubling_the_samples_changes_nothing(self, monkeypatch):
        # the modes past the sample count are below 1e-17; above t|g| ~ 5e3
        # the float phases alone differ by ~1e-13 between the two sample sets
        cases = [
            ((1.7 * math.cos(math.radians(deg)), 1.7 * math.sin(math.radians(deg))), x / 1.7)
            for x in (0.01, 0.5, 3.7, 37.3, 150.0, 1024.5)
            for deg in range(0, 181, 15)
        ]
        at_n = [circle_integral(gap, t) for gap, t in cases]
        samples = fourier._circle_samples
        monkeypatch.setattr(fourier, "_circle_samples", lambda x: 2 * samples(x))
        at_2n = [circle_integral(gap, t) for gap, t in cases]
        assert max(abs(a - b) for a, b in zip(at_n, at_2n)) <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.0, math.pi / 2.0),
        st.floats(0.1, 10.0),
        st.floats(-2.0, math.log10(2e4)),
    )
    def test_reflections_of_the_gap_agree(self, angle, norm, log_x):
        a, b = norm * math.cos(angle), norm * math.sin(angle)
        t = 10.0**log_x / norm
        base = circle_integral((a, b), t)
        for gap in ((a, -b), (-a, b)):
            assert abs(circle_integral(gap, t) - base) <= 1e-13


# criterion 8's gamma0 = 0.1 sweeps of its three products, its largest t
# (gamma0 = 0.05 on 5:0,2:8), a spec-less product and point masses
SECTOR_CASES = [
    (spec, t, 0.1)
    for spec, ts in (((3, (0, 2), 10), (81.0, 243.0, 729.0)),
                     ((4, (0, 3), 9), (64.0, 256.0, 1024.0)),
                     ((5, (0, 2), 8), (25.0, 125.0, 625.0)))
    for t in ts
] + [((5, (0, 2), 8), 15625.0, 0.05), ("spec-less", 40.0, 0.2), ("point", 16.0, 0.2)]


def sector_product(spec):
    if spec == "spec-less":
        return fl.build_product([spec_less_measure(3, 60, 3, 6), spec_less_measure(4, 30, 2, 9)],
                                [0.5, 0.5])
    nu = fl.point_mass() if spec == "point" else fl.build_cantor(fl.CantorSpec(*spec))
    return fl.build_product([nu, nu], [0.5, 0.5])


class TestAngularDecomposition:
    @pytest.mark.parametrize("spec, t, gamma0", SECTOR_CASES, ids=str)
    def test_sectors_match_the_simpson_oracle(self, spec, t, gamma0):
        mu = sector_product(spec)
        dec = fl.angular_decomposition(mu, t, gamma0, fl.CutoffFunction("fejer", 2.0))
        got = (dec.near_zero, dec.near_half_pi, dec.middle)
        for value, oracle in zip(got, simpson_sectors(mu, t, gamma0, 1e-11)):
            assert abs(value - oracle) <= 1e-10 * oracle
        if spec == "point":  # F = 1
            eps = t**-gamma0
            assert got == pytest.approx((eps, eps, np.pi / 2.0 - 2.0 * eps), rel=1e-14)

    @pytest.mark.parametrize("spec, t, gamma0", SECTOR_CASES, ids=str)
    def test_sectors_sum_to_the_quadrant_of_sigma(self, spec, t, gamma0):
        # the middle row is the quadrant's less the other two, so the sum is
        # sigma's own unweighted sum up to rounding; A x A is its own mirror
        mu = sector_product(spec)
        dec = fl.angular_decomposition(mu, t, gamma0, fl.CutoffFunction("fejer", 2.0))
        quadrant = fl.spherical_average(mu, t, "none") / 4.0
        assert abs(dec.near_zero + dec.near_half_pi + dec.middle - quadrant) <= 1e-14 * quadrant
        if spec != "spec-less":
            assert abs(dec.near_zero - dec.near_half_pi) <= 1e-14 * dec.near_zero

    def test_point_mass_factors_partition_the_quadrant(self):
        pm = fl.point_mass()
        mu = fl.build_product([pm, pm], [0.0, 0.0])
        cut = fl.CutoffFunction("fejer", 2.0)
        dec = fl.angular_decomposition(mu, 16.0, 0.2, cut)
        eps = 16.0**-0.2
        assert dec.near_zero == pytest.approx(eps, rel=1e-10)
        assert dec.near_half_pi == pytest.approx(eps, rel=1e-10)
        assert dec.near_zero + dec.near_half_pi + dec.middle == pytest.approx(np.pi / 2.0, rel=1e-10)
        # integrand is identically 1, so I = II = smoothed moment of a point
        assert dec.smoothed_moment_a == pytest.approx(1.0, abs=1e-12)
        assert dec.cs_bound == pytest.approx(dec.cs_constant * 16.0**0.2, rel=1e-12)

    def test_middle_thirds_cauchy_schwarz_bound(self, middle_thirds_8):
        mu = fl.build_product([middle_thirds_8, middle_thirds_8], [ALPHA_MT, ALPHA_MT])
        cut = fl.CutoffFunction("fejer", 2.0)
        dec = fl.angular_decomposition(mu, 3.0**5, 0.1, cut)
        assert dec.middle <= dec.cs_bound * (1.0 + 1e-6)
        assert dec.near_zero > 0.0 and dec.middle > 0.0

    def test_shared_factor_matches_equal_distinct_factor(self, middle_thirds_8):
        # A x A reuses the first factor's smoothed moment for the second
        cut = fl.CutoffFunction("fejer", 2.0)
        twin = fl.build_cantor(fl.middle_thirds(8))
        shared = fl.build_product([middle_thirds_8, middle_thirds_8], [ALPHA_MT, ALPHA_MT])
        distinct = fl.build_product([middle_thirds_8, twin], [ALPHA_MT, ALPHA_MT])
        a = fl.angular_decomposition(shared, 81.0, 0.1, cut)
        b = fl.angular_decomposition(distinct, 81.0, 0.1, cut)
        assert a.smoothed_moment_a == pytest.approx(b.smoothed_moment_a, rel=1e-12)
        assert a.smoothed_moment_b == pytest.approx(b.smoothed_moment_b, rel=1e-12)
        assert a.smoothed_moment_a == a.smoothed_moment_b
        assert a.cs_bound == pytest.approx(b.cs_bound, rel=1e-12)

    @pytest.mark.parametrize("spec, gamma0, ts", [
        (spec, gamma0, ts) for spec, sweeps in CS_SWEEPS.items() for gamma0, ts in sweeps.items()
    ], ids=str)
    def test_moments_are_the_smoothed_fourier_side(self, spec, gamma0, ts):
        # I and II are the Fourier side of smoothed_energy to the bit, and
        # within rounding of its space side (the Parseval oracle)
        nu = fl.build_cantor(fl.CantorSpec(*spec))
        mu = fl.build_product([nu, nu], [0.5, 0.5])
        cut = fl.CutoffFunction("fejer", 2.0)
        for t in ts:
            dec = fl.angular_decomposition(mu, t, gamma0, cut)
            space, fourier_side = fl.smoothed_energy(nu, t, cut)
            assert dec.smoothed_moment_a.hex() == dec.smoothed_moment_b.hex() == fourier_side.hex()
            assert abs(dec.smoothed_moment_a - space) <= 1e-13 * space

    def test_distinct_factors_take_their_own_fourier_side(self):
        mu = sector_product("spec-less")
        cut = fl.CutoffFunction("fejer", 2.0)
        dec = fl.angular_decomposition(mu, 40.0, 0.2, cut)
        for factor, moment in zip(mu.factors, (dec.smoothed_moment_a, dec.smoothed_moment_b)):
            assert moment.hex() == fl.smoothed_energy(factor, 40.0, cut)[1].hex()

    def test_cantor_product_builds_no_gap_table(self, monkeypatch):
        # the space side's dense D + D - D - D gap table is what set the
        # majorant's cost and peak memory; the Fourier side needs none
        def refused(*args):
            raise AssertionError("gap table built")

        monkeypatch.setattr(energy, "_gap_table", refused)
        monkeypatch.setattr(energy, "_gap_correlation", refused)
        nu = fl.build_cantor(fl.CantorSpec(3, (0, 2), 10))
        dec = fl.angular_decomposition(fl.build_product([nu, nu], [0.5, 0.5]), 729.0, 0.1,
                                       fl.CutoffFunction("fejer", 2.0))
        assert dec.middle <= dec.cs_bound

    @pytest.mark.parametrize("wide_first", [True, False], ids=["wide-first", "wide-second"])
    def test_panel_budget_before_any_evaluation(self, monkeypatch, wide_first):
        # atoms 0 and 1/2 on the 2**30 grid beside a point mass: at t = 4e5
        # the circle needs 2 pi t / 2 ~ 1.3e6 < 2**24 samples, but the wider
        # factor's moment needs 24 ceil(8e5 * 2 pi / 24) ~ 5.0e6 panel nodes,
        # past 2**22; refused before the narrow factor's moment runs
        two = fl.GridMeasure(base=2, level=30, indices=np.array([0, 1 << 29]),
                             weights=np.array([0.5, 0.5]))
        pair = [two, fl.point_mass()] if wide_first else [fl.point_mass(), two]
        mu = fl.build_product(pair, [0.0, 0.0])
        calls = []
        for route in ("power_spectrum", "transform_on_grid"):
            monkeypatch.setattr(fl.GridMeasure, route, lambda self, *args: calls.append(args))
        with pytest.raises(BudgetError, match=r"Fourier side needs (\d+) Gauss-Legendre .*2\*\*22"):
            fl.angular_decomposition(mu, 4e5, 0.1, fl.CutoffFunction("fejer", 2.0))
        assert calls == []

    def test_majorant_past_the_sumset_grid_cap(self):
        # 3:0,2:16 has a 2 * 3**16 sumset grid, past 2**24: its space-side
        # moment is refused, and the Fourier side still gives the majorant
        nu = fl.build_cantor(fl.CantorSpec(3, (0, 2), 16))
        cut = fl.CutoffFunction("fejer", 2.0)
        with pytest.raises(BudgetError, match="sumset grid"):
            fl.smoothed_fourth_moment(nu, 729.0, cut)
        dec = fl.angular_decomposition(fl.build_product([nu, nu], [ALPHA_MT, ALPHA_MT]), 729.0, 0.1, cut)
        assert 0.0 < dec.smoothed_moment_a < 1.0
        assert 0.0 < dec.middle <= dec.cs_bound

    def test_gamma_range_enforced(self, middle_thirds_8):
        mu = fl.build_product([middle_thirds_8, middle_thirds_8], [ALPHA_MT, ALPHA_MT])
        cut = fl.CutoffFunction("fejer", 2.0)
        with pytest.raises(ValidationError, match="gamma0"):
            fl.angular_decomposition(mu, 81.0, 0.7, cut)

    def test_sectors_must_be_disjoint(self, middle_thirds_8):
        mu = fl.build_product([middle_thirds_8, middle_thirds_8], [ALPHA_MT, ALPHA_MT])
        cut = fl.CutoffFunction("fejer", 2.0)
        with pytest.raises(ValidationError, match="disjoint"):
            fl.angular_decomposition(mu, 2.0, 0.05, cut)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_t(self, middle_thirds_8, t):
        # a point-mass product has no validity cap to stop an infinite t
        for nu in (middle_thirds_8, fl.point_mass()):
            mu = fl.build_product([nu, nu], [0.5, 0.5])
            with pytest.raises(ValidationError, match="t must be >= 1 and finite"):
                fl.angular_decomposition(mu, t, 0.1, fl.CutoffFunction("fejer", 2.0))

    def test_cutoff_scale_must_exceed_one(self, middle_thirds_8):
        mu = fl.build_product([middle_thirds_8, middle_thirds_8], [ALPHA_MT, ALPHA_MT])
        with pytest.raises(ValidationError, match="scale"):
            fl.angular_decomposition(mu, 81.0, 0.1, fl.CutoffFunction("fejer", 1.0))


def test_weighted_average_dominated_by_solid_average(middle_thirds_8):
    mu = fl.build_product([middle_thirds_8, middle_thirds_8], [ALPHA_MT, ALPHA_MT])
    for t in (3.0, 27.0, 243.0):
        sigma_w = fl.spherical_average(mu, t, "sin_theta")
        solid = fl.solid_average(middle_thirds_8, t, (-1.0, 1.0))
        assert sigma_w <= 2.0 * solid * (1.0 + 1e-5)
