import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fractalab as fl
from fractalab.errors import ValidationError


def test_exact_square_law():
    xs = [1.0, 2.0, 3.0, 5.0, 11.0]
    fit = fl.loglog_fit(xs, [x**2 for x in xs])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-12)


def test_negative_power_with_constant():
    xs = [1.0, 4.0, 9.0, 16.0]
    fit = fl.loglog_fit(xs, [3.0 * x**-0.5 for x in xs])
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)


def test_noisy_slope_recovery():
    rng = np.random.default_rng(1234)
    xs = np.geomspace(1.0, 100.0, 20)
    ys = xs**2 * np.exp(rng.normal(0.0, 0.01, xs.size))
    fit = fl.loglog_fit(xs, ys)
    assert abs(fit.slope - 2.0) < 0.05
    assert fit.stderr > 0.0


def test_flat_data_has_unit_r_squared():
    fit = fl.loglog_fit([1.0, 2.0, 4.0], [1.0, 1.0, 1.0])
    assert fit.slope == 0.0
    assert fit.r_squared == 1.0


@pytest.mark.parametrize(
    "x, y",
    [
        ([1.0, 2.0], [1.0, 2.0]),
        ([1.0, 2.0, -3.0], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0], [1.0, 0.0, 3.0]),
        ([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]),
    ],
)
def test_rejects_bad_inputs(x, y):
    with pytest.raises(ValidationError):
        fl.loglog_fit(x, y)


def test_y_is_required():
    with pytest.raises(TypeError):
        fl.loglog_fit([(1.0, 1.0), (2.0, 4.0), (4.0, 16.0)])


@given(
    slope=st.floats(-3.0, 3.0),
    scale=st.floats(0.1, 10.0),
    n=st.integers(3, 30),
)
def test_recovers_planted_power_laws(slope, scale, n):
    xs = np.geomspace(1.0, 50.0, n)
    fit = fl.loglog_fit(xs, scale * xs**slope)
    assert abs(fit.slope - slope) < 1e-8
