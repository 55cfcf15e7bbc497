"""Order statistics used by every workload."""

from __future__ import annotations

import statistics

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it.
TAIL_MIN_BEYOND = 10


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def tail(values: list[float], min_beyond: int = TAIL_MIN_BEYOND
         ) -> tuple[float, float, int] | None:
    """The highest percentile with ``min_beyond`` samples beyond it.

    Returns ``(value, percentile, sample_count)``: with ``n`` sorted
    samples the value is the one at rank ``n - min_beyond`` (1-based),
    so exactly ``min_beyond`` samples lie beyond it and the percentile
    is ``100 * (n - min_beyond) / n``. ``None`` when the sample is too
    small to leave ``min_beyond`` samples beyond any rank.
    """
    count = len(values)
    if count <= min_beyond:
        return None
    ordered = sorted(values)
    rank = count - min_beyond
    return ordered[rank - 1], 100.0 * rank / count, count
