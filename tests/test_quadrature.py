import ast
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fractalab as fl
from fractalab import fourier, geometry, quadrature
from fractalab.errors import BudgetError, ValidationError
from conftest import require_converged
from fractalab.quadrature import simpson_doubling

ALPHA_MT = math.log(2.0) / math.log(3.0)


class CountingIntegrand:
    """Wraps f and records every abscissa it is asked for."""

    def __init__(self, f):
        self.f = f
        self.calls: list[np.ndarray] = []

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        self.calls.append(x.copy())
        return self.f(x)

    @property
    def evaluated(self) -> np.ndarray:
        return np.concatenate(self.calls)


class TestRules:
    def test_simpson_sine_integral(self):
        value, nodes, converged = simpson_doubling(np.sin, 0.0, np.pi, rel_tol=1e-12)
        assert converged
        assert abs(value - 2.0) <= 1e-12
        assert (nodes - 1) % 16 == 0

    def test_each_doubling_evaluates_only_new_nodes(self):
        f = CountingIntegrand(lambda x: np.exp(np.sin(3.0 * x)))
        _, nodes, _ = simpson_doubling(f, 0.0, 1.0, initial_intervals=8, rel_tol=1e-12)
        xs = f.evaluated
        assert len(f.calls) >= 3
        assert xs.size == nodes
        assert np.unique(xs).size == nodes  # no abscissa is evaluated twice
        # after the first grid, each call adds exactly as many nodes as it had
        sizes = [c.size for c in f.calls]
        assert all(later == sum(sizes[:k + 1]) - 1 for k, later in enumerate(sizes[1:]))

    def test_cap_reached_reports_not_converged(self):
        f = CountingIntegrand(lambda x: np.cos(200.0 * x))
        value, nodes, converged = simpson_doubling(
            f, 0.0, 1.0, initial_intervals=8, rel_tol=1e-12, max_intervals=64
        )
        assert not converged
        assert nodes == 65  # stops at the first grid at or past the cap
        assert f.evaluated.size == nodes
        assert math.isfinite(value)

    def test_initial_grid_past_the_cap_is_clamped(self):
        f = CountingIntegrand(lambda x: np.cos(200.0 * x))
        value, nodes, converged = simpson_doubling(
            f, 0.0, 1.0, initial_intervals=1000, rel_tol=1e-12, max_intervals=64
        )
        assert not converged
        assert f.evaluated.size == nodes <= 65
        assert math.isfinite(value)

    @pytest.mark.parametrize(
        "a, b, intervals", [(0.0, 1.0, 2), (-3.7, 250.0, 7), (0.0, 6.0e5, 1000), (1e3, 1e3 + 1e-3, 5)]
    )
    def test_every_call_gets_a_uniform_grid(self, a, b, intervals):
        # the contract an integrand may rely on: at least 2 nodes per call,
        # equal to x[0] + k (x[-1] - x[0]) / (x.size - 1) to a few ulps;
        # negative tolerances pass no stopping test, so the run goes on to
        # the grid of 2**7 times the first
        f = CountingIntegrand(lambda x: np.exp(np.sin(x)))
        first = max(4, intervals + intervals % 2)
        _, nodes, converged = simpson_doubling(f, a, b, initial_intervals=intervals, rel_tol=-1.0,
                                               max_intervals=first << 7, abs_tol=-1.0)
        assert not converged and nodes == (first << 7) + 1
        assert len(f.calls) == 9  # the first grid, then 8 doublings
        for x in f.calls:
            assert x.size >= 2
            step = (x[-1] - x[0]) / (x.size - 1)
            ulps = np.abs(x - (x[0] + step * np.arange(x.size))) / np.spacing(np.max(np.abs(x)))
            assert np.max(ulps) <= 4.0

    def test_abs_tol_is_the_floor_of_the_stopping_test(self):
        # Simpson sums of 1e-12 cos(200 x) on [0, 1] stay within 1e-12 of
        # zero up to 64 intervals, but no two of them within 1e-10 of each
        # other relatively; an absolute floor of 1e-10 passes at the first
        # comparison
        f = CountingIntegrand(lambda x: 1e-12 * np.cos(200.0 * x))
        value, nodes, converged = simpson_doubling(f, 0.0, 1.0, 8, rel_tol=1e-10, max_intervals=64)
        assert (nodes, converged) == (65, False)
        assert abs(value) < 1e-12
        f.calls.clear()
        value, nodes, converged = simpson_doubling(
            f, 0.0, 1.0, 8, rel_tol=1e-10, max_intervals=64, abs_tol=1e-10)
        assert (nodes, converged) == (17, True)
        assert f.evaluated.size == nodes

    def test_require_converged_names_rule_tolerance_and_cap(self):
        assert require_converged((1.25, 33, True), "some rule", 1e-7) == 1.25
        with pytest.raises(BudgetError, match=r"some rule .*rel_tol 1e-07.*\(33 nodes\)"):
            require_converged((1.25, 33, False), "some rule", 1e-7)


def exact_legendre_rule(n, start):
    """Gauss-Legendre nodes and weights on [0, 1] in rationals: Newton's
    method on P_n from each float node in `start`, rounded to 2**-200 after
    each of 4 steps, then the weights 1 / ((1 - u**2) P_n'(u)**2), u = 2x - 1."""

    def legendre(u):
        p0, p1 = Fraction(1), u
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * u * p1 - (j - 1) * p0) / j
        return p1, n * (u * p1 - p0) / (u * u - 1)

    rule = []
    for x in start:
        u = 2 * Fraction(float(x)) - 1
        for _ in range(4):
            p, dp = legendre(u)
            u = Fraction(round((u - p / dp) * 2**200), 2**200)
        rule.append(((u + 1) / 2, 1 / ((1 - u * u) * legendre(u)[1] ** 2)))
    return rule


class TestGaussLegendreRule:
    def test_24_nodes_against_the_exact_rule(self):
        # nodes within an ulp of 1; a weight is as good as its node allows:
        # d log w / du = -2u / (1 - u**2) is about 207 at the end node, times
        # a half-ulp node error of 5.5e-17 gives 1.1e-14 (leggauss: 1.2e-13)
        x, w = quadrature._panel_rule(24)
        for xk, wk, (x_exact, w_exact) in zip(x, w, exact_legendre_rule(24, x)):
            assert abs(Fraction(float(xk)) - x_exact) <= 2.0**-52
            assert abs(Fraction(float(wk)) / w_exact - 1) <= 2e-14

    @pytest.mark.parametrize("n", [24, 65, 2049])
    def test_a_cosine_of_type_n_over_2_is_exact(self, n):
        # int_0^1 cos(n (2x - 1) / 2) dx = 2 sin(n / 2) / n; 2049 is the d = 3
        # sphere rule's largest polar rule under its 2**24 cap
        x, w = quadrature._panel_rule(n)
        assert abs(np.sum(w * np.cos(n * (2.0 * x - 1.0) / 2.0)) - 2.0 * math.sin(n / 2.0) / n) <= 1e-14

    def test_no_numpy_polynomial_import(self):
        code = (
            "import sys, fractalab as fl\n"
            "nu = fl.build_cantor(fl.middle_thirds(4))\n"
            "fl.solid_average(nu, 10.0)\n"
            "fl.mattila_truncated(fl.build_product([nu, nu], [0.6, 0.6]), 8.0)\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
        )
        src = str(Path(fl.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("a, b, tau", [(-1e308, 1e308, 1.0), (0.0, 1.0, math.inf),
                                           (0.0, math.inf, 0.0), (0.0, 1.0, math.nan)])
    def test_an_infinite_or_nan_node_count_is_refused(self, a, b, tau):
        with pytest.raises(BudgetError, match=r"x needs (inf|nan) Gauss-Legendre nodes"):
            quadrature.gauss_legendre_panels(a, b, tau, "x", "lower t")


class TestNonConvergenceRaises:
    def test_solid_average(self, monkeypatch, middle_thirds_8):
        # the panels are refused before any power spectrum: at t = 4e5 the
        # type 2 pi t (1 - 3**-8) over [-1, 1] needs 24 * ceil(5.03e6 / 24)
        # ~ 5.0e6 Gauss-Legendre nodes, past the 2**22 budget
        calls = []
        monkeypatch.setattr(fl.GridMeasure, "power_spectrum", lambda self, xi: calls.append(xi))
        with pytest.raises(BudgetError, match=r"solid average needs (\d+) .*2\*\*22.*lower t") as info:
            fl.solid_average(middle_thirds_8, 4e5)
        nodes = int(re.search(r"needs (\d+) ", str(info.value)).group(1))
        assert nodes > 1 << 22 and nodes % 24 == 0
        assert calls == []

    def test_mattila_t_integral(self, monkeypatch):
        # every sub-interval's panels are budgeted before any sigma: at T = 1e6
        # the type 4 pi hypot(diam, diam) ~ 17.8 needs ~4.4e6 nodes on
        # [T/4, T/2] (~8.9e6 on [T/2, T]), past 2**22, while the circle sum
        # at T, 2 pi T |diam| ~ 8.9e6, stays under its 2**24 samples
        nu = fl.build_cantor(fl.CantorSpec(3, (0, 2), 15))
        mu = fl.build_product([nu, nu], [ALPHA_MT, ALPHA_MT])
        assert fl.validity_cap(mu) > 1e6
        calls = []
        monkeypatch.setattr(geometry, "_sigma_many", lambda *args: calls.append(args))
        with pytest.raises(BudgetError, match=r"Mattila t integral needs (\d+) .*2\*\*22.*lower --truncation"):
            fl.mattila_truncated(mu, 1e6)
        assert calls == []

    def test_mattila_sigma_work(self, monkeypatch):
        # at T = 5000 the panels (88,896 t nodes, under 2**22 a sub-interval)
        # and every t's circle sum (under 2**24 samples) pass, but the batch
        # sums 3.0e9 samples, past 2**27: refused before any power spectrum
        nu = fl.build_cantor(fl.CantorSpec(3, (0, 2), 12))
        mu = fl.build_product([nu, nu], [ALPHA_MT, ALPHA_MT])
        calls = []
        monkeypatch.setattr(fl.GridMeasure, "power_spectrum", lambda self, xi: calls.append(xi))
        with pytest.raises(BudgetError, match=r"sigma at 88896 values of t needs 3e\+09 .*2\*\*27.*lower --truncation"):
            fl.mattila_truncated(mu, 5000.0)
        assert calls == []

    def test_angular_decomposition_past_the_sample_cap(self, monkeypatch):
        # the sectors are one circle sum, refused before any power spectrum:
        # at t = 1e7, 2 pi t hypot(1/2, 0) ~ 3.1e7 needs over 2**24 samples
        two = fl.GridMeasure(base=2, level=30, indices=np.array([0, 1 << 29]),
                             weights=np.array([0.5, 0.5]))
        mu = fl.build_product([two, fl.point_mass()], [0.0, 0.0])
        assert fl.validity_cap(mu) > 1e8
        calls = []
        monkeypatch.setattr(fl.GridMeasure, "power_spectrum", lambda self, xi: calls.append(xi))
        with pytest.raises(BudgetError, match=r"2\*\*24.*lower t"):
            fl.angular_decomposition(mu, 1e7, 0.1, fl.CutoffFunction("fejer", 2.0))
        assert calls == []

    def test_smoothed_energy_first_grid_past_the_cap(self, monkeypatch):
        # the Fourier side is refused before any power spectrum: at t = 3e5,
        # span 6e5 and type 4 pi 80/81 need 24 * ceil(6e5 * 12.41 / 24)
        # ~ 7.4e6 Gauss-Legendre nodes, past the 2**22 budget
        nu = fl.build_cantor(fl.CantorSpec(3, (0, 2), 4))
        calls = []
        monkeypatch.setattr(fl.GridMeasure, "power_spectrum", lambda self, xi: calls.append(xi))
        with pytest.raises(BudgetError, match=r"Fourier side needs (\d+) .*2\*\*22.*lower t") as info:
            fl.smoothed_energy(nu, 3e5, fl.CutoffFunction("fejer", 2.0))
        nodes = int(re.search(r"needs (\d+) ", str(info.value)).group(1))
        assert nodes > 1 << 22 and nodes % 24 == 0
        assert calls == []

    def test_spherical_average_past_the_sample_cap(self):
        # atoms 0 and 1/2 on the 2**30 grid (validity cap ~1.07e8): at t = 1e7
        # the circle sum needs 2 pi t hypot(1/2, 0) ~ 3.1e7 > 2**24 samples
        two = fl.GridMeasure(base=2, level=30, indices=np.array([0, 1 << 29]),
                             weights=np.array([0.5, 0.5]))
        mu = fl.build_product([two, fl.point_mass()], [0.0, 0.0])
        assert fl.validity_cap(mu) > 1e8
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=r"2\*\*24.*lower t"):
            fl.spherical_average_detailed(mu, 1e7, "sin_theta")
        assert time.perf_counter() - start < 1.0

    def test_spherical_average_converged_under_a_cap(self):
        pm = fl.point_mass()
        mu = fl.build_product([pm, pm], [0.0, 0.0])
        value, nodes = fl.spherical_average_detailed(mu, 5.0, "none")
        assert value == pytest.approx(2.0 * np.pi, rel=1e-12)
        assert nodes == 128 == 2 * fourier._circle_samples(0.0)


def names(path):
    """Every identifier a module names: names, attributes and imports."""
    named = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update((node.name, node.asname))
    return named


def test_only_quadrature_names_the_refining_rule():
    # every library integral takes an a-priori rule; the refining one is the
    # tests' oracle, so no other module imports, calls or names it
    refining = {"simpson_doubling"}
    for path in sorted(Path(fl.__file__).parent.glob("*.py")):
        if path.name != "quadrature.py":
            assert not names(path) & refining, f"{path.name} names {sorted(names(path) & refining)}"


def test_fourier_takes_no_fft_of_samples():
    # every d = 2 circle integral is one dot with a weight vector folded from
    # the weight's moments; the one transform left is the irfft that folds them
    named = names(Path(fourier.__file__))
    assert "irfft" in named and not named & {"rfft", "rfftn", "_circle_modes"}
