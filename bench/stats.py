"""Order statistics the benchmark reports.

Percentiles use the nearest-rank definition: the p-th percentile of n
sorted samples is the sample at rank ceil(p/100 * n). A tail percentile
is only reported when at least ten samples lie beyond it, so that one
outlier cannot decide it.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def _rank(level: float, count: int) -> int:
    # Rounding first keeps e.g. 99.9% of 10000 at rank 9990, not 9991.
    return max(math.ceil(round(level * count / 100.0, 9)), 1)


def percentile(samples: Sequence[float], level: float) -> float:
    """Nearest-rank percentile of ``samples`` at ``level`` (0-100]."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < level <= 100.0:
        raise ValueError(f"percentile level {level} outside (0, 100]")
    return sorted(samples)[_rank(level, len(samples)) - 1]


def beyond(count: int, level: float) -> int:
    """How many of ``count`` samples lie past the nearest-rank percentile."""
    return count - _rank(level, count)


def tail(samples: Sequence[float], level: float) -> float:
    """``percentile(samples, level)``, refusing an unsupported level."""
    if beyond(len(samples), level) < MIN_BEYOND:
        raise ValueError(
            f"p{level:g} of {len(samples)} samples has fewer than "
            f"{MIN_BEYOND} samples beyond it"
        )
    return percentile(samples, level)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) as Python computes them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q1 == q3 else math.inf
    return abs(q3 - q1) / abs(median)
