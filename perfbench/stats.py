"""Percentiles, geometric means and run-to-run spread."""

from __future__ import annotations

import math
import statistics

# A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def min_samples(p: float) -> int:
    """Fewest samples for which the p-th percentile has MIN_BEYOND above it."""
    return math.ceil(MIN_BEYOND / (1 - p / 100) - 1e-9)


def percentile(values, p: float) -> float:
    """Nearest-rank p-th percentile (0 < p < 100).

    Raises ValueError unless at least MIN_BEYOND samples lie above the
    chosen rank.
    """
    n = len(values)
    rank = math.ceil(p / 100 * n - 1e-9)
    if n == 0 or n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples has {max(n - rank, 0)} above it; need {MIN_BEYOND}"
        )
    return sorted(values)[rank - 1]


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
