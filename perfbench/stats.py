"""Order statistics shared by the benchmark and its steadiness command."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: Percentiles the tail rule may report, lowest first: the usual ladder.
#: p97.5 is left off on purpose: at the serve workload's ~450 requests
#: it leaves 10-12 requests beyond it, and it spread 0.11 across seeds;
#: p95 leaves twice as many.
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with at least 10 samples beyond it.

    ``None`` below 40 samples: there the highest such percentile would be
    at most the median, which is no tail.
    """
    if n < 4 * TAIL_BEYOND:
        return None
    best = None
    for p in TAIL_CANDIDATES:
        if n * (1.0 - p / 100.0) >= TAIL_BEYOND - 1e-9:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")
