"""Order statistics and round slicing shared by workloads and probes."""

from __future__ import annotations

import statistics

#: A tail percentile is only reported from a round that leaves at least
#: this many samples beyond it.
TAIL_SAMPLES = 10


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def summarize(values: list[float]) -> dict:
    """Median and quartiles of per-round values (inclusive method, so
    four rounds still give quartiles inside the observed range)."""
    if len(values) < 2:
        value = values[0]
        return {"median": value, "q1": value, "q3": value, "rounds": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "rounds": len(values)}


def tail(ordered: list[float]) -> float:
    """p99 of a sorted list if that leaves TAIL_SAMPLES beyond it, else
    the highest percentile that does."""
    if len(ordered) * 0.01 >= TAIL_SAMPLES:
        return percentile(ordered, 0.99)
    return ordered[max(0, len(ordered) - TAIL_SAMPLES - 1)]
