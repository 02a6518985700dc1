"""Small statistics helpers shared by every workload.

Percentiles follow the linear-interpolation rule of ``numpy.percentile``.  A
tail percentile is only *reportable* when at least ten samples lie beyond
it (``n * (1 - q) >= 10``): a p90 needs 100 samples, a p99 needs 1000.
"""

from __future__ import annotations

import math

__all__ = [
    "TAIL_SAMPLES",
    "geomean",
    "median",
    "percentile",
    "reportable",
]

#: Samples that must lie beyond a percentile before it is reportable.
TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """The ``q``-quantile (``0 <= q <= 1``) of *values*, linearly interpolated."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    rank = q * (len(data) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 0.5)


def reportable(n: int, q: float) -> bool:
    """Whether the ``q``-quantile of ``n`` samples has ten samples beyond it."""
    return n * (1.0 - q) >= TAIL_SAMPLES - 1e-9


def geomean(values) -> float:
    """Geometric mean of positive values (``ValueError`` on an empty sample)."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("geomean of an empty sample")
    if min(data) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in data) / len(data))
