"""Latency summaries shared by the measured child and the spread check."""

from __future__ import annotations

import math
import statistics

#: The tail is the highest percentile with at least this many samples beyond it.
MIN_BEYOND = 10
#: With fewer samples the tail rank would fall below the median.
MIN_SAMPLES = 2 * MIN_BEYOND + 2


def latency_summary(samples: list[float]) -> dict:
    """Median and tail of ``samples``; a failed operation is ``math.inf``.

    The tail is the value at the highest rank with ``MIN_BEYOND`` samples
    above it.  Both come from the same samples, so ``tail >= p50``.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count < MIN_SAMPLES:
        raise ValueError(f"{count} samples; a tail needs at least {MIN_SAMPLES}")
    rank = count - MIN_BEYOND - 1
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[rank],
        "tail_percentile": 100.0 * (rank + 1) / count,
        "samples": count,
    }


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def median_or_zero(values: list[float]) -> float:
    """The median, or 0.0 for a layer this workload never called."""
    return statistics.median(values) if values else 0.0


def finite_or_none(value: float):
    return value if math.isfinite(value) else None
