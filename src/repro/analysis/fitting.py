"""Scaling-law fits: estimate the exponent of a power-law relationship.

The benchmark harness verifies the *shape* of the paper's bounds (e.g. that
the message count of the election grows like ``sqrt(n)`` times polylog factors
rather than like ``m``), which boils down to fitting ``y = a * x^b`` on the
measured points and checking the exponent ``b``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["PowerLawFit", "fit_power_law", "ratio_curve"]


@dataclass(frozen=True)
class PowerLawFit:
    """Result of a log-log least-squares fit ``y = coefficient * x**exponent``."""

    exponent: float
    coefficient: float
    r_squared: float

    def predict(self, x: float) -> float:
        """Evaluate the fitted curve at ``x``."""
        return self.coefficient * x**self.exponent

    def __str__(self) -> str:
        return "y = %.3g * x^%.3f (R^2=%.3f)" % (self.coefficient, self.exponent, self.r_squared)


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Fit ``y = a x^b`` by least squares in log-log space.

    Requires at least two distinct positive ``x`` values and positive ``y``
    values (costs and sizes always are).

    >>> fit = fit_power_law([16, 64, 256], [4, 8, 16])
    >>> round(fit.exponent, 3), round(fit.coefficient, 3), round(fit.r_squared, 3)
    (0.5, 1.0, 1.0)
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a power law")
    xs_arr = np.asarray(xs, dtype=float)
    ys_arr = np.asarray(ys, dtype=float)
    if np.any(xs_arr <= 0) or np.any(ys_arr <= 0):
        raise ValueError("power-law fitting requires strictly positive values")
    log_x = np.log(xs_arr)
    log_y = np.log(ys_arr)
    if np.allclose(log_x, log_x[0]):
        raise ValueError("need at least two distinct x values")
    slope, intercept = np.polyfit(log_x, log_y, 1)
    predictions = slope * log_x + intercept
    residual = np.sum((log_y - predictions) ** 2)
    total = np.sum((log_y - np.mean(log_y)) ** 2)
    r_squared = 1.0 if total == 0 else 1.0 - residual / total
    return PowerLawFit(
        exponent=float(slope), coefficient=float(np.exp(intercept)), r_squared=float(r_squared)
    )


def ratio_curve(measured: Sequence[float], reference: Sequence[float]) -> list:
    """Element-wise ``measured / reference``; useful for "within a constant factor" checks."""
    if len(measured) != len(reference):
        raise ValueError("sequences must have equal length")
    ratios = []
    for value, base in zip(measured, reference):
        if base == 0:
            raise ValueError("reference values must be non-zero")
        ratios.append(value / base)
    return ratios
