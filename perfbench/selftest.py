"""Self-test of the benchmark's own arithmetic.

    python3 perfbench/selftest.py         # or: python3 -m pytest perfbench/selftest.py

Needs neither numpy nor the library: it checks the percentile rule, the
traced-minus-untraced split, span recording, failure counting and pooling.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402
from spans import Tracer  # noqa: E402


def test_tail_needs_ten_samples_beyond():
    assert stats.tail_percentile([1.0] * 19) is None          # median has 9 beyond
    assert stats.tail_percentile(list(range(20)))[0] == 50.0  # median has 10 beyond
    assert stats.tail_percentile(list(range(40)))[0] == 75.0
    assert stats.tail_percentile(list(range(100))) == (90.0, 89)
    assert stats.tail_percentile(list(range(199)))[0] == 90.0  # p95 has 9 beyond
    assert stats.tail_percentile(list(range(200)))[0] == 95.0
    assert stats.tail_percentile(list(range(1000)))[0] == 99.0
    assert stats.tail_percentile(list(range(10_000)))[0] == 99.9


def test_tail_counts_samples_strictly_beyond():
    values = list(range(100))
    for q in stats.TAIL_CANDIDATES:
        value, beyond = stats.nearest_rank(sorted(values), q)
        assert beyond == sum(v > value for v in values)


def test_summarize_reports_median_tail_and_count():
    s = stats.summarize([3.0, 1.0, 2.0])
    assert s == {"median": 2.0, "tail_q": None, "tail": None, "n": 3}
    s = stats.summarize([float(v) for v in range(1, 101)])
    assert (s["median"], s["tail_q"], s["tail"], s["n"]) == (50.5, 90.0, 90.0, 100)


def test_failed_frac_counts_against_attempted():
    assert stats.failed_frac(10, 0) == 0.0
    assert stats.failed_frac(8, 2) == 0.25
    for attempted, failed in ((0, 0), (5, 6), (5, -1)):
        try:
            stats.failed_frac(attempted, failed)
        except ValueError:
            continue
        raise AssertionError(f"accepted attempted={attempted}, failed={failed}")


def test_traced_overhead_is_traced_minus_untraced():
    assert math.isclose(stats.traced_overhead([1.0, 3.0], [2.5, 3.5]), 1.0)
    assert math.isclose(stats.traced_overhead([2.0, 2.0], [1.9, 1.9]), -0.1)


def test_tracer_records_parents_and_counts():
    t = Tracer()
    with t.span("outer") as outer:
        with t.span("inner"):
            t.count("samples", 3)
        t.count("samples", 4)
        t.peak("iter_max", 5)
        t.peak("iter_max", 2)
    assert [s[0] for s in t.spans] == ["outer", "inner"]
    assert t.spans[0][3] is None and t.spans[1][3] == outer
    assert all(s[1] <= s[2] for s in t.spans)
    assert t.counts == {"samples": 7, "iter_max": 5}


def test_pooled_matches_one_big_sample():
    mean, se = stats.pooled([(1.0, 0.2, 100), (3.0, 0.2, 100)])
    assert math.isclose(mean, 2.0)
    assert math.isclose(se, 0.2 / math.sqrt(2))
    mean, _ = stats.pooled([(1.0, 0.0, 1), (4.0, 0.0, 3)])
    assert math.isclose(mean, 3.25)


def test_throughput_uses_median_times_per_kind():
    kinds = {"a": (100.0, [1.0, 1.0, 50.0]), "b": (300.0, [1.0, 2.0, 3.0])}
    assert math.isclose(stats.throughput(kinds), 400.0 / 3.0)


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} self-tests passed")
