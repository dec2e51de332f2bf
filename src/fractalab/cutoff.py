"""Smoothing cutoffs with nonnegative, compactly supported transforms.

The canonical choice is the Fejer kernel: psi(x) = sinc(scale * x)^2 with
transform (1/scale) * max(0, 1 - |xi|/scale), a triangle supported on
[-scale, scale]. Both sides are nonnegative, so every smoothing comparison
in the energy and angular estimates is one-directional. psi(0) = 1 and the
transform has unit integral for every scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class CutoffFunction:
    kind: str = "fejer"
    scale: float = 1.0

    def __post_init__(self):
        if self.kind != "fejer":
            raise ValidationError(f"unknown cutoff kind {self.kind!r}; only 'fejer' is available")
        if not 0 < self.scale < np.inf:
            raise ValidationError(f"cutoff scale must be positive and finite, got {self.scale}")

    def __call__(self, x):
        """psi(x) = sinc(scale * x)^2 (numpy sinc convention: sin(pi u)/(pi u))."""
        return np.sinc(self.scale * np.asarray(x, dtype=float)) ** 2

    def transform(self, xi):
        """psi_hat(xi) = (1/scale) * triangle(xi / scale), supported on [-scale, scale]."""
        u = np.abs(np.asarray(xi, dtype=float)) / self.scale
        return np.maximum(0.0, 1.0 - u) / self.scale

    @property
    def transform_support(self) -> float:
        """Half-width of the transform support."""
        return float(self.scale)

    def transform_min_on_unit_interval(self) -> float:
        """min of psi_hat over [-1, 1]; positive only when scale > 1."""
        return float(self.transform(1.0))
