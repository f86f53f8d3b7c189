"""Tracing and per-operation timing shared by the workloads.

With tracing off, ``Tracer.call`` is a plain pass-through, so untraced runs
pay one extra Python call per layer call.  With tracing on, it records a span
(name, start, end, parent) around each call the benchmark's code makes into a
layer of the program, and the counts the workloads add at the same
boundaries.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, on: bool):
        self.on = on
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name):
        if not self.on:
            yield
            return
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def rename_last(self, name):
        """Rename the most recent span whose name is a prefix of ``name``
        (used to tag a call by its outcome, known only when it returns)."""
        if self.on:
            for record in reversed(self.spans):
                if name.startswith(record[0]):
                    record[0] = name
                    return

    def count(self, name, k=1):
        if self.on:
            self.counts[name] += k

    def self_times(self) -> dict:
        """Name -> list of self times: each span's duration minus the time
        covered by its direct children (children never overlap)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out.setdefault(name, []).append(end - start - child[i])
        return out

    def dump(self) -> dict:
        return {"spans": [{"name": n, "start": s, "end": e, "parent": p}
                          for n, s, e, p in self.spans],
                "counts": dict(self.counts)}


class Ops:
    """Times every operation of the timed phase, traced or not."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.times = []
        self.failed = 0
        self.problems = []

    def run(self, kind: str, fn, *args):
        """Run one operation; ``fn`` returns ``False`` when the operation
        itself failed (a program fault the workload expects and counts)."""
        with self.tracer.span("op." + kind):
            start = perf_counter()
            ok = fn(*args)
            self.times.append(perf_counter() - start)
        if ok is False:
            self.failed += 1

    def check(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)


def tail(times) -> tuple:
    """The highest whole percentile that still has at least ten operations
    beyond it (nearest rank), and its value."""
    n = len(times)
    ordered = sorted(times)
    best = None
    for p in range(1, 100):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            best = (p, ordered[rank - 1])
    if best is None:
        raise ValueError(f"{n} operations are too few for a tail percentile")
    return best


def median(values):
    return statistics.median(values) if values else 0.0
