"""Order statistics shared by the benchmark processes.

Percentiles use the nearest-rank rule: the p-th percentile of N samples is
the ceil(p/100 * N)-th smallest, so exactly N - ceil(p/100 * N) samples lie
beyond it.  A tail percentile is trustworthy only with at least
``MIN_BEYOND`` samples beyond it.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def rank(p: float, count: int) -> int:
    """1-based nearest rank of the p-th percentile among ``count`` samples."""
    if count < 1:
        raise ValueError("a percentile needs at least one sample")
    return max(1, math.ceil(p / 100.0 * count - 1e-9))


def percentile(samples, p: float) -> float:
    """Nearest-rank p-th percentile of ``samples``."""
    ordered = sorted(samples)
    return ordered[rank(p, len(ordered)) - 1]


def beyond(p: float, count: int) -> int:
    """How many of ``count`` samples lie strictly beyond the p-th percentile."""
    return count - rank(p, count)


def highest_tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with at least MIN_BEYOND samples beyond it.

    None when even the median has fewer than MIN_BEYOND samples beyond it.
    """
    best = None
    for p in PERCENTILE_LADDER:
        if count >= 1 and beyond(p, count) >= MIN_BEYOND:
            best = p
    return best


def median(samples) -> float:
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2
