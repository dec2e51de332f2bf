"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Decay statements are asymptotic, so every check here is a slope or bound
check at the declared tolerance, never a constant-level assertion.
"""
import math
import time
from fractions import Fraction

import numpy as np

import fractalab as fl
from conftest import derive_delta_grid, random_grid_measure

ALPHA_MT = math.log(2.0) / math.log(3.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(20260808)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        nu = random_grid_measure(rng, max_atoms=40, max_level=7)
        diam = max(2.0 * nu.diameter, 8.0 * nu.delta)
        for k in range(8):
            r = diam / 2.0**k
            brute = fl.additive_energy(nu, r, "bruteforce")
            fast = fl.additive_energy(nu, r, "autocorrelation")
            worst = max(worst, abs(brute - fast) / max(brute, 1e-300))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-10 and elapsed < 10.0,
        f"bruteforce vs autocorrelation on 200 measures x 8 dyadic r: "
        f"worst rel diff {worst:.2e} (<= 1e-10), runtime {elapsed:.2f}s (< 10s)",
    )


def test_criterion_02_parseval():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(50):
        base = int(rng.integers(2, 5))
        level = int(rng.integers(3, 9))
        grid = base**level
        n = int(rng.integers(2, min(1024, grid) + 1))
        idx = np.sort(rng.choice(grid, n, replace=False))
        w = rng.random(n) + 0.02
        w /= w.sum()
        nu = fl.GridMeasure(base=base, level=level, indices=idx, weights=w)
        t = float(rng.uniform(1.0, 25.0))
        cut = fl.CutoffFunction("fejer", float(rng.uniform(0.8, 2.5)))
        space, fourier = fl.smoothed_energy(nu, t, cut)
        worst = max(worst, abs(space - fourier) / max(abs(space), 1e-300))
    report(
        2,
        worst <= 1e-6,
        f"smoothed energy space vs Fourier side on 50 measures (<= 1024 atoms): "
        f"worst rel diff {worst:.2e} (<= 1e-6)",
    )


def test_criterion_03_middle_thirds_suite():
    mt8 = fl.build_cantor(fl.middle_thirds(8))
    regularity = fl.check_regularity(
        mt8, ALPHA_MT, [3.0**-j for j in range(1, 8)], cap=4.0
    )
    start = time.perf_counter()
    mt9 = fl.build_cantor(fl.middle_thirds(9))
    profile = fl.energy_profile(mt9, [3.0**-j for j in range(8, 0, -1)], ALPHA_MT)
    elapsed = time.perf_counter() - start
    ok = (
        regularity.passed
        and regularity.c_nu <= 4.0
        and profile.fitted_exponent >= ALPHA_MT - 0.05
        and elapsed < 30.0
    )
    report(
        3,
        ok,
        f"middle-thirds: C_nu {regularity.c_nu:.3f} (<= 4 at level 8); energy exponent "
        f"{profile.fitted_exponent:.4f} >= alpha - 0.05 = {ALPHA_MT - 0.05:.4f}, "
        f"excess over alpha {profile.excess_over_alpha:+.4f} (positive, as the "
        f"Dyatlov-Zahl bound predicts for regular sets); runtime {elapsed:.2f}s (< 30s)",
    )


def test_criterion_04_solid_average_decay():
    mt8 = fl.build_cantor(fl.middle_thirds(8))
    ts = [3.0**j for j in range(1, 7)]
    values = [fl.solid_average(mt8, t, (-1.0, 1.0)) for t in ts]
    fit = fl.loglog_fit(ts, values)
    target = -ALPHA_MT + 0.1
    report(
        4,
        fit.slope <= target,
        f"solid average over [-1,1], middle-thirds level 8, t in 3..3^6: "
        f"slope {fit.slope:.4f} <= {target:.4f}",
    )


def test_criterion_05_weighted_average_bound():
    mt8 = fl.build_cantor(fl.middle_thirds(8))
    mu = fl.build_product([mt8, mt8], [ALPHA_MT, ALPHA_MT])
    ts = [3.0**j for j in range(1, 6)]
    sigma_w = [fl.spherical_average(mu, t, "sin_theta") for t in ts]
    solid = [fl.solid_average(mt8, t, (-1.0, 1.0)) for t in ts]
    pointwise = all(s <= 2.0 * v * (1.0 + 1e-5) for s, v in zip(sigma_w, solid))
    slope = fl.loglog_fit(ts, sigma_w).slope
    target = -ALPHA_MT + 0.1
    report(
        5,
        pointwise and slope <= target,
        f"weighted circular average vs twice the solid average of the larger factor: "
        f"dominated at every sampled t ({pointwise}); decay slope {slope:.4f} <= {target:.4f}",
    )


def test_criterion_06_stationary_phase():
    ts = [float(x) for x in np.geomspace(100.0, 10000.0, 13) * 1.0137]
    slopes = []
    for deg in (90.0, 60.0, 45.0, 30.0, 15.0):
        ang = math.radians(deg)
        rep = fl.stationary_phase_check((math.cos(ang), math.sin(ang)), ts)
        slopes.append(rep.residual_slope)
    axis = fl.stationary_phase_check((1.0, 0.0), [10.25, 150.0, 1024.5])
    axis_ok = all(m == 0.0 for m in axis.main)
    ok = all(s is not None and s <= -1.4 for s in slopes) and axis_ok
    report(
        6,
        ok,
        f"stationary-phase residual slopes over t|gap| in [1e2, 1e4] for 5 directions: "
        f"{[f'{s:.3f}' for s in slopes]} (all <= -1.4); axis-aligned main term identically 0: {axis_ok}",
    )


def test_criterion_07_mattila_closed_forms():
    pm = fl.point_mass()
    mu = fl.build_product([pm, pm], [0.0, 0.0])
    T = 100.0
    unweighted = fl.mattila_truncated(mu, T, weighted=False)
    weighted = fl.mattila_truncated(mu, T, weighted=True)
    closed_u = 2.0 * math.pi**2 * (T**2 - 1.0)
    closed_w = 8.0 * (T**2 - 1.0)
    rel_u = abs(unweighted.value - closed_u) / closed_u
    rel_w = abs(weighted.value - closed_w) / closed_w
    report(
        7,
        rel_u <= 1e-6 and rel_w <= 1e-6,
        f"point-mass Mattila closed forms at T=100: unweighted rel err {rel_u:.2e}, "
        f"weighted rel err {rel_w:.2e} (both <= 1e-6)",
    )


# The angular-split criterion reads the small-angle estimate as the upper
# bound it is: the measured near-zero slope must not be shallower than
# -gamma0(1-alpha) - alpha + 0.1. (Empirically the sector decays strictly
# faster than the bound, by 0.09-0.25 depending on the measure.)
CS_SWEEPS = {
    (3, (0, 2), 10): {0.05: (243.0, 729.0, 2187.0), 0.1: (81.0, 243.0, 729.0), 0.2: (81.0, 243.0, 729.0)},
    (4, (0, 3), 9): {0.05: (256.0, 1024.0, 4096.0), 0.1: (64.0, 256.0, 1024.0), 0.2: (64.0, 256.0, 1024.0)},
    (5, (0, 2), 8): {0.05: (625.0, 3125.0, 15625.0), 0.1: (25.0, 125.0, 625.0), 0.2: (25.0, 125.0, 625.0)},
}


def test_criterion_08_cauchy_schwarz_split():
    cut = fl.CutoffFunction("fejer", 2.0)
    lines = []
    ok = True
    for (base, digits, level), sweeps in CS_SWEEPS.items():
        nu = fl.build_cantor(fl.CantorSpec(base, digits, level))
        alpha = nu.dimension_hint
        mu = fl.build_product([nu, nu], [alpha, alpha])
        for gamma0, ts in sweeps.items():
            decs = [fl.angular_decomposition(mu, t, gamma0, cut) for t in ts]
            cs_ok = all(d.middle <= d.cs_bound * (1.0 + 1e-6) for d in decs)
            slope = fl.loglog_fit(ts, [d.near_zero for d in decs]).slope
            target = -(gamma0 * (1.0 - alpha) + alpha)
            slope_ok = slope <= target + 0.1
            ok = ok and cs_ok and slope_ok
            lines.append(
                f"base{base} g0={gamma0}: middle<=cs {cs_ok}, near-zero slope "
                f"{slope:.3f} <= {target + 0.1:.3f} {slope_ok}"
            )
    report(8, ok, "angular split on 3 products x 3 cuts: " + "; ".join(lines))


def test_criterion_09_thresholds_exact():
    four_thirds = fl.product_sum_threshold(2) == Fraction(4, 3)
    nine_fifths = fl.product_sum_threshold(3) == Fraction(9, 5)
    margin = fl.threshold_report([Fraction(9, 10), Fraction(1, 2)]).mixed_margin
    margin_exact = margin == Fraction(3, 10)
    agreements = []
    for alpha, beta in ((0.5, 0.02), (0.7, 1e-3), (0.3, 0.1)):
        g0, delta = fl.derive_delta(alpha, beta)
        gg, dd = derive_delta_grid(alpha, beta)
        agreements.append(abs(g0 - gg) <= 1e-6 and abs(delta - dd) <= 1e-6)
    ok = four_thirds and nine_fifths and margin_exact and all(agreements)
    report(
        9,
        ok,
        f"d=2 threshold 4/3 exact: {four_thirds}; d=3 threshold 9/5 exact: {nine_fifths}; "
        f"mixed margin 9/10+1/2+9/10-2 = 3/10 exact: {margin_exact}; "
        f"closed-form gamma0 matches grid search to 1e-6: {all(agreements)}",
    )


def test_criterion_10_determinism(tmp_path):
    out = tmp_path / "run"
    config = fl.ExperimentConfig.from_dict(
        {
            "kind": "spherical",
            "output_dir": str(out),
            "factors": [{"base": 3, "digits": [0, 2], "level": 6}] * 2,
            "seed": 99,
        }
    )
    fl.run_experiment(config)
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    fl.run_experiment(config)
    second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    identical = first == second
    report(
        10,
        identical and set(first) == {"spherical.csv", "results.json", "manifest.json"},
        f"same config+seed run twice: byte-identical CSVs and manifests ({identical})",
    )
