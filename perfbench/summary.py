"""Sample statistics and the comparison verdicts.

A timing is reported as its median plus the highest standard percentile
that leaves at least ten samples beyond it. Two result sets are compared
metric by metric with the benchmark's bounds: a metric regressed when its
median got worse by more than its bound, improved when the change wins
nine pairs in ten and the medians differ by more than the parent's own
quartile spread, and is unresolved when the parent's spread is wider than
the bound (unless every run of one side beats every run of the other).
"""

from __future__ import annotations

import math
import statistics

PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10

WITHIN = "within bound"
REGRESSED = "regressed"
IMPROVED = "improved"
UNRESOLVED = "unresolved"


def rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile among n samples."""
    return max(1, math.ceil(n * p / 100.0 - 1e-9))


def tail_percentile(n: int) -> float | None:
    """Highest of PERCENTILES with at least TAIL_BEYOND samples above its rank."""
    best = None
    for p in PERCENTILES:
        if n - rank(n, p) >= TAIL_BEYOND:
            best = p
    return best


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median.

    Quartiles are those of statistics.quantiles(values, n=4); fewer than two
    values have no measurable spread and read as infinite.
    """
    values = list(values)
    if len(values) < 2:
        return math.inf
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(mid)


def verdict(before, after, bound: float, better: str) -> str:
    """Classify one metric of one workload across two sets of runs."""
    sign = 1.0 if better == "lower" else -1.0

    def beats(x, y):             # x reads better than y
        return sign * (x - y) < 0

    before, after = list(before), list(after)
    base = statistics.median(before)
    worse_by = sign * (statistics.median(after) - base)
    limit = bound * abs(base)
    if spread(before) > bound:
        if all(beats(a, b) for a in after for b in before):
            return IMPROVED
        if worse_by > limit and all(beats(b, a) for a in after for b in before):
            return REGRESSED
        return UNRESOLVED
    if worse_by > limit:
        return REGRESSED
    pairs = list(zip(before, after))
    wins = sum(beats(a, b) for b, a in pairs)
    q1, _, q3 = statistics.quantiles(before, n=4)
    if pairs and wins >= 0.9 * len(pairs) and -worse_by > (q3 - q1):
        return IMPROVED
    return WITHIN
