"""Summary statistics shared by the benchmark's metrics."""

from __future__ import annotations

import math
import statistics

__all__ = ["geomean", "median", "tail", "tail_ready"]

# A tail percentile must have at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    """The lower median: always an observed sample, never the mean of the
    two middle ones, so a gap between them cannot make it jump."""
    return statistics.median_low(values)


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail_ready(samples: int, pct: float) -> bool:
    """Whether ``samples`` leave at least ten beyond percentile ``pct``."""
    return samples - math.ceil(samples * pct / 100.0) >= TAIL_BEYOND


def tail(values, pct: float | None = None) -> tuple[float, float, int]:
    """``(value, percentile, samples)``.

    With ``pct`` the value is the order statistic at that percentile.
    Without it, the percentile is the highest with at least ten samples
    beyond it: the order statistic with exactly ten larger samples, or
    the median when fewer than 21 samples put that point below it.
    """
    s = sorted(values)
    n = len(s)
    if pct is not None:
        k = max(math.ceil(n * pct / 100.0) - 1, 0)
        return s[k], pct, n
    k = n - 1 - TAIL_BEYOND
    if k <= (n - 1) // 2:
        return median(s), 50.0, n
    return s[k], 100.0 * (k + 1) / n, n
