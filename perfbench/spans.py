"""In-memory span recorder used by the traced run.

Spans are opened by the benchmark's own code around calls into the
library's layers; nothing inside the library is instrumented. Each span is
(name, start, end, parent index). Counters sit beside the spans so that
counts are taken where the work is dispatched.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def peak(self, name: str, n: int) -> None:
        self.counts[name] = max(self.counts[name], n)

    def timed(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; return (result, seconds)."""
        with self.span(name) as index:
            out = fn(*args, **kwargs)
        start, end = self.spans[index][1:3]
        return out, end - start


class NullTracer:
    """Stand-in for untraced runs: times calls, records nothing."""

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, n: int) -> None:
        pass

    def peak(self, name: str, n: int) -> None:
        pass

    def timed(self, name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        return out, time.perf_counter() - t0


NULL = NullTracer()
