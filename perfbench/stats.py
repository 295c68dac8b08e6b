"""Order statistics used to summarise repeated measurements."""

from __future__ import annotations

import statistics
from typing import Sequence


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = median(values)
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 when the median is 0)."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / mid if mid else 0.0
