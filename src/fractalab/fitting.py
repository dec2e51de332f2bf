"""Least-squares line fits on log-log axes.

Every decay claim in this package is checked as a fitted exponent, so the
fit is kept in one place: ordinary least squares of log y against log x,
with the slope standard error and r-squared reported alongside.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class LoglogFit:
    slope: float
    intercept: float
    stderr: float
    r_squared: float
    n_points: int


def loglog_fit(x, y) -> LoglogFit:
    """Fit log y = slope * log x + intercept by ordinary least squares.

    All values must be strictly positive and at least 3 points are
    required; x values must not be all identical.
    """
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValidationError("x and y must be 1-d arrays of equal length")
    n = xs.size
    if n < 3:
        raise ValidationError(f"need at least 3 points for a log-log fit, got {n}")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValidationError("log-log fit requires strictly positive x and y")

    lx = np.log(xs)
    ly = np.log(ys)
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    if sxx == 0.0:
        raise ValidationError("degenerate fit: all x values identical")
    sxy = float(np.sum((lx - lx.mean()) * (ly - ly.mean())))
    slope = sxy / sxx
    intercept = float(ly.mean() - slope * lx.mean())

    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    stderr = float(np.sqrt(max(ss_res, 0.0) / (n - 2) / sxx))
    if ss_tot > 0.0:
        r_squared = 1.0 - ss_res / ss_tot
    else:
        # flat data fitted exactly by a flat line
        r_squared = 1.0 if ss_res <= 1e-24 else 0.0
    return LoglogFit(
        slope=float(slope),
        intercept=intercept,
        stderr=stderr,
        r_squared=float(min(max(r_squared, 0.0), 1.0)),
        n_points=n,
    )
