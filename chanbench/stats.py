"""Order statistics used by every workload.

Percentiles are nearest-rank: the value at 1-based rank ``ceil(q * n)``
of the sorted sample, so a reported percentile is always a value that was
actually measured.  A tail percentile is only reported when at least
``MIN_BEYOND`` samples lie beyond it; with fewer, the "p99" of a small
sample is just its maximum and says nothing about the tail.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q`` quantile (0 < q <= 1) of ``values``."""

    if not values:
        raise ValueError("nearest_rank of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q`` quantile."""

    return n - max(1, math.ceil(q * n - 1e-9))


def percentile_or_none(values: Sequence[float], q: float) -> Optional[float]:
    """``nearest_rank(values, q)``, or ``None`` when the tail is too thin."""

    if beyond(len(values), q) < MIN_BEYOND:
        return None
    return nearest_rank(values, q)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def iqr_share(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 values)."""

    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0
