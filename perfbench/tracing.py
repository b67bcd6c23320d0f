"""Spans around calls into the program, recorded from the benchmark's side.

``Tracer.patched`` swaps a module attribute (a public function of the
program) for a wrapper that records one span per call: id, parent span id,
name, start and end (``perf_counter`` seconds). The program looks these
functions up through their module at call time, so its internal calls are
seen too. Spans stay in memory; ``write`` stores them when the run ends.
"""
from __future__ import annotations

import contextlib
import csv
import itertools
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Trace ``(owner, attribute, span_name)`` targets while inside."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        try:
            for (owner, attr, name), (_, _, fn) in zip(targets, saved):
                setattr(owner, attr, self.wrap(fn, name))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def totals(self) -> dict[tuple[str, str], dict[str, float]]:
        """Per (span name, parent span name): calls, total and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; a span without a parent has parent name ``""``.
        """
        by_id = {s[0]: s for s in self.spans}
        child = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[tuple[str, str], dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for sid, parent, name, t0, t1 in self.spans:
            pname = by_id[parent][2] if parent >= 0 else ""
            row = out[(name, pname)]
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[sid]
        return out

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "name", "start_s", "end_s"])
            w.writerows(sorted(self.spans))
