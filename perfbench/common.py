"""What every workload shares: the run record and the timing loop."""
from __future__ import annotations

import contextlib
import statistics
import sys
import time
import tracemalloc
import traceback

import checks

MIB = float(1 << 20)
#: Fewest timed rounds a run makes, however short ``--seconds`` is.
MIN_ROUNDS = 3
#: Set-up is repeated for this long, and at least ``MIN_SETUP_REPEATS``
#: times; ``setup_s`` is the median.
SETUP_SECONDS = 3.0
MIN_SETUP_REPEATS = 5


def median(xs) -> float:
    return float(statistics.median(xs))


class Run:
    """Counts of attempted and failed fits, check failures and the metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, float] = {}
        self.info: dict = {}
        self.tracer = None
        self.first = None  # result of the first timed fit

    @property
    def correct(self) -> bool:
        return not self.errors

    def fit(self, fn, *, warmup: bool = False):
        """Call one fit; a raising fit counts as failed and returns None.

        Nothing can be measured without the warm-up fit, so its exception
        ends the run.
        """
        self.attempted += 1
        try:
            return fn()
        except Exception:
            if warmup:
                raise
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    @contextlib.contextmanager
    def phase(self, name: str):
        """Record how long a part of the run took, under ``info["phase_s"]``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            phases = self.info.setdefault("phase_s", {})
            phases[name] = phases.get(name, 0.0) + time.perf_counter() - t0

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except checks.CheckFailed as e:
            self.fail(str(e))

    def fail(self, msg: str) -> None:
        print(f"check failed: {msg}", file=sys.stderr)
        self.errors.append(msg)


def repeat_for(fn, seconds: float, min_calls: int):
    """Call ``fn`` until ``seconds`` have passed and at least ``min_calls``
    calls are done. Returns the wall time of each call and the last result."""
    times, out = [], None
    deadline = time.perf_counter() + seconds
    while len(times) < min_calls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return times, out


def timed_repeats(run: Run, fns, seconds: float, same) -> list[list[float]]:
    """Call ``fns`` in turn, round after round, until ``seconds`` have passed
    and at least ``MIN_ROUNDS`` rounds are done. Returns each function's
    wall times of the fits that did not fail.

    The first result is kept as ``run.first``, for the caller to check; each
    later one must be ``same(run.first, result)``. If every fit failed,
    ``run.first`` stays None and the run is marked incorrect.
    """
    times: list[list[float]] = [[] for _ in fns]
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for fn, out in zip(fns, times):
            t0 = time.perf_counter()
            r = run.fit(fn)
            dt = time.perf_counter() - t0
            if r is None:
                continue
            out.append(dt)
            if run.first is None:
                run.first = r
            elif not same(run.first, r):
                run.fail("a repeated fit gave another answer or other counts")
        rounds += 1
    if run.first is None:
        run.fail("every timed fit failed")
    return times


def peak_alloc(run: Run, fn) -> int:
    """Peak bytes traced by ``tracemalloc`` during one untimed fit."""
    tracemalloc.start()
    try:
        run.fit(fn)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def end_to_end(run: Run, n: int, times, setup, index_bytes: int, peak_bytes: int) -> None:
    """The end-to-end metrics of an untraced run, from the first timed fit
    ``run.first``, the timed fits' and set-ups' wall times and the bytes."""
    fit_s = median(times)
    run.metrics.update({
        "fit_s": fit_s,
        "vectors_per_s": n * run.first.n_iter / fit_s,
        "setup_s": median(setup),
        "index_mb": index_bytes / MIB,
        "peak_mb": peak_bytes / MIB,
    })
    run.info.update(repeats=len(times), setup_repeats=len(setup), fit_s_all=times)
