"""Small statistics helpers used by the experiment harness and the tests."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

__all__ = [
    "mean",
    "std",
    "confidence_interval",
    "wilson_interval",
    "success_rate",
    "SummaryStatistics",
    "summarize",
]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    if not values:
        raise ValueError("mean of an empty sequence is undefined")
    return sum(values) / len(values)


def std(values: Sequence[float]) -> float:
    """Sample standard deviation (ddof=1); 0 for fewer than two samples."""
    if len(values) < 2:
        return 0.0
    centre = mean(values)
    return math.sqrt(sum((v - centre) ** 2 for v in values) / (len(values) - 1))


def confidence_interval(values: Sequence[float], z: float = 1.96) -> Tuple[float, float]:
    """Normal-approximation confidence interval for the mean."""
    centre = mean(values)
    if len(values) < 2:
        return centre, centre
    half_width = z * std(values) / math.sqrt(len(values))
    return centre - half_width, centre + half_width


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion (robust for small counts).

    Unlike the normal approximation it stays inside ``[0, 1]`` and does not
    collapse to a point at 0 or ``trials`` successes:

    >>> low, high = wilson_interval(10, 10)
    >>> round(low, 3), high
    (0.722, 1.0)
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    proportion = successes / trials
    denominator = 1 + z**2 / trials
    centre = (proportion + z**2 / (2 * trials)) / denominator
    half_width = (
        z
        * math.sqrt(proportion * (1 - proportion) / trials + z**2 / (4 * trials**2))
        / denominator
    )
    return max(0.0, centre - half_width), min(1.0, centre + half_width)


def success_rate(flags: Sequence[bool]) -> float:
    """Fraction of True values."""
    if not flags:
        raise ValueError("success rate of an empty sequence is undefined")
    return sum(1 for flag in flags if flag) / len(flags)


@dataclass(frozen=True)
class SummaryStatistics:
    """Mean / std / min / max bundle for one measured quantity."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float

    def __str__(self) -> str:
        return "mean=%.2f std=%.2f min=%.2f max=%.2f (k=%d)" % (
            self.mean,
            self.std,
            self.minimum,
            self.maximum,
            self.count,
        )


def summarize(values: Sequence[float]) -> SummaryStatistics:
    """Summary statistics of a non-empty sequence."""
    if not values:
        raise ValueError("cannot summarise an empty sequence")
    return SummaryStatistics(
        count=len(values),
        mean=mean(values),
        std=std(values),
        minimum=min(values),
        maximum=max(values),
    )
