"""Arithmetic of the benchmark: timing summaries, failure shares, pooling.

Pure Python on purpose, so the self-test can check it without numpy and
without the library under test.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

# Candidate tail percentiles, highest last. A timing reports the highest one
# that still has at least TAIL_MIN_BEYOND samples above it.
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values: list[float], q: float) -> tuple[float, int]:
    """The q-th percentile by nearest rank, and how many samples lie beyond it."""
    n = len(sorted_values)
    # exact rational arithmetic: 99.9 / 100 * 10_000 is 9990.000000000002 in floats
    rank = max(1, math.ceil(Fraction(str(q)) * n / 100))
    return sorted_values[rank - 1], n - rank


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(q, value) for the highest candidate q with >= 10 samples beyond it.

    None when there are fewer than 20 samples, because even the median then
    has fewer than ten samples beyond it.
    """
    ordered = sorted(values)
    best = None
    for q in TAIL_CANDIDATES:
        value, beyond = nearest_rank(ordered, q)
        if beyond >= TAIL_MIN_BEYOND:
            best = (q, value)
    return best


def summarize(values: list[float]) -> dict:
    """Median, tail percentile (or None) and sample count of one timing."""
    tail = tail_percentile(values)
    return {
        "median": statistics.median(values),
        "tail_q": tail[0] if tail else None,
        "tail": tail[1] if tail else None,
        "n": len(values),
    }


def failed_frac(attempted: int, failed: int) -> float:
    """Share of attempted operations that failed."""
    if attempted < 1:
        raise ValueError("nothing was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def traced_overhead(untraced: list[float], traced: list[float]) -> float:
    """Tracing overhead: mean traced pass time minus mean untraced pass time."""
    return statistics.fmean(traced) - statistics.fmean(untraced)


def pooled(estimates: list[tuple[float, float, int]]) -> tuple[float, float]:
    """Pool (mean, stderr, n) estimates from disjoint samples into one.

    The pooled mean weights each estimate by its sample count; the pooled
    standard error follows from the independent parts.
    """
    total = sum(n for _, _, n in estimates)
    mean = sum(m * n for m, _, n in estimates) / total
    se = math.sqrt(sum((se * n) ** 2 for _, se, n in estimates)) / total
    return mean, se


def sample_mean_se(values: list[float]) -> tuple[float, float]:
    """Mean and standard error of raw per-trial values."""
    return statistics.fmean(values), statistics.stdev(values) / math.sqrt(len(values))


def throughput(kinds: dict[str, tuple[float, list[float]]]) -> float:
    """Work per second of one round at median operation times.

    ``kinds`` maps an operation kind to (work per operation, seconds of each
    operation). Using medians keeps one slow operation from moving the rate;
    summing over kinds makes every kind count by its share of a round.
    """
    work = sum(w for w, _ in kinds.values())
    seconds = sum(statistics.median(ts) for _, ts in kinds.values())
    return work / seconds
