import ast
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

import fractalab as fl
from fractalab import fourier, geometry
from fractalab.errors import BudgetError, ValidationError
from conftest import require_converged
from fractalab.quadrature import (
    converge,
    simpson_doubling,
    trapezoid_refinements,
)

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
    def test_trapezoid_periodic_bessel_integral(self):
        # int_0^{2pi} e^{cos theta} dtheta = 2 pi I_0(1)
        value, _, converged = converge(
            trapezoid_refinements(lambda th: np.exp(np.cos(th)), 0.0, 2.0 * np.pi, 8), 1e-14, 1 << 10
        )
        assert converged
        assert value == pytest.approx(2.0 * np.pi * float(np.i0(1.0)), rel=1e-14)

    def test_simpson_sine_integral(self):
        value, nodes, converged = simpson_doubling(np.sin, 0.0, np.pi, rel_tol=1e-12)
        assert converged
        assert abs(value - 2.0) <= 1e-12
        assert (nodes - 1) % 16 == 0

    @pytest.mark.parametrize("rule", ["trapezoid", "simpson"])
    def test_each_doubling_evaluates_only_new_nodes(self, rule):
        f = CountingIntegrand(lambda x: np.exp(np.sin(3.0 * x)))
        if rule == "trapezoid":
            _, nodes, _ = converge(trapezoid_refinements(f, 0.0, 1.0, 8), 1e-12, 1 << 16)
        else:
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
        # equal to x[0] + k (x[-1] - x[0]) / (x.size - 1) to a few ulps
        f = CountingIntegrand(lambda x: np.exp(np.sin(x)))
        refinements = trapezoid_refinements(f, a, b, intervals)
        for _ in range(6):
            next(refinements)
        simpson_doubling(f, a, b, initial_intervals=intervals, rel_tol=1e-14, max_intervals=1 << 10)
        assert len(f.calls) >= 8
        for x in f.calls:
            assert x.size >= 2
            step = (x[-1] - x[0]) / (x.size - 1)
            ulps = np.abs(x - (x[0] + step * np.arange(x.size))) / np.spacing(np.max(np.abs(x)))
            assert np.max(ulps) <= 4.0

    def test_stopping_test_has_relative_and_absolute_parts(self):
        def sequence(values):
            yield from ((v, k + 1) for k, v in enumerate(values))

        # successive values 1e-12 apart around zero: no relative test fires
        near_zero = [3e-12, -2e-12, 1e-12]
        assert converge(sequence(near_zero), 1e-10, 3) == (1e-12, 3, False)
        assert converge(sequence(near_zero), 1e-10, 3, abs_tol=1e-10) == (-2e-12, 2, True)
        assert converge(sequence([1.0, 1.5, 1.5 + 1e-9]), 1e-8, 3) == (1.5 + 1e-9, 3, True)

    def test_require_converged_names_rule_tolerance_and_cap(self):
        assert require_converged((1.25, 33, True), "some rule", 1e-7) == 1.25
        with pytest.raises(BudgetError, match=r"some rule .*rel_tol 1e-07.*\(33 nodes\)"):
            require_converged((1.25, 33, False), "some rule", 1e-7)


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
        with pytest.raises(BudgetError, match=r"Mattila t integral needs (\d+) .*2\*\*22.*lower t"):
            fl.mattila_truncated(mu, 1e6)
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


def test_only_quadrature_names_the_refining_rules():
    # every library integral takes an a-priori rule; the refining ones are
    # the tests' oracles, so no other module imports, calls or names them
    refining = {"simpson_doubling", "converge", "trapezoid_refinements"}
    for path in sorted(Path(fl.__file__).parent.glob("*.py")):
        if path.name == "quadrature.py":
            continue
        named = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.update((node.name, node.asname))
        assert not named & refining, f"{path.name} names {sorted(named & refining)}"
