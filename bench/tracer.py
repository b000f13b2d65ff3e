"""In-memory spans for the traced benchmark run.

A span is (name, start, end, parent, op id), timed with time.perf_counter.
Spans are opened only by the benchmark's own code, around calls into the
library's public functions; nothing inside the library is instrumented.
A layer's self time is its spans' durations minus the time covered by
their direct children.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class NullTracer:
    """Calls straight through; used where a traced pipeline runs untraced."""

    op_id = -1

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n):
        pass


class Tracer:
    def __init__(self):
        # each span is [name, start, end, parent index, op id]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.op_id = -1

    def call(self, name, fn, *args):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, 0.0, 0.0, parent, self.op_id]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def count(self, name, n):
        self.counters[name] += n

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total self time in seconds, number of spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += end - start - child[i]
            out[name][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counters": dict(self.counters),
                },
                fh,
            )


def span_cost_s(n: int = 20000) -> float:
    """Measured cost of opening and closing one span around a no-op call."""
    tr = Tracer()
    noop = int
    t0 = perf_counter()
    for _ in range(n):
        tr.call("x", noop)
    t1 = perf_counter()
    for _ in range(n):
        noop()
    t2 = perf_counter()
    return max((t1 - t0) - (t2 - t1), 0.0) / n
