"""Summary statistics for per-op latencies."""

from __future__ import annotations

import statistics

#: A tail percentile must leave at least this many ops beyond it.
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` ops beyond it.

    Returns ``(value, percentile, ops_beyond)``.  With n sorted values the
    value at rank n - TAIL_BEYOND (1-based) has exactly TAIL_BEYOND values
    above it, which is the percentile 100 (n - TAIL_BEYOND) / n.  When that
    rank falls below the median (n < 2 TAIL_BEYOND) no tail distinct from
    the median exists, so the median is returned together with the smaller
    number of ops that lie beyond it.
    """
    if not values:
        raise ValueError("tail of an empty sample")
    xs = sorted(values)
    n = len(xs)
    if n >= 2 * TAIL_BEYOND:
        rank = n - TAIL_BEYOND
        return xs[rank - 1], 100.0 * rank / n, TAIL_BEYOND
    return statistics.median(xs), 50.0, n // 2


def window_rates(latencies: list[float], size: int) -> list[float]:
    """Ops per second of op time in consecutive windows of ``size`` ops.

    With ``size`` a multiple of the workload's cycle every window has the
    workload's op mix; a run ends on a cycle boundary, so a shorter last
    window does too.
    """
    return [len(w) / sum(w) for w in (latencies[i:i + size]
                                      for i in range(0, len(latencies), size))]
