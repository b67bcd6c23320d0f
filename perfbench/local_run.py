"""Local Dask-means workloads: one process, a prebuilt spatial-vector index."""
from __future__ import annotations

import time
from dataclasses import fields

import numpy as np

import checks
from common import (
    MIN_SETUP_REPEATS, SETUP_SECONDS, Run, end_to_end, median, peak_alloc, repeat_for,
    timed_repeats,
)
from repro.baselines import lloyd
from repro.core import balltree as bt
from repro.core import daskmeans
from repro.estimator import features, memory, samples
from repro.estimator.runtime import RuntimePredictor, TaskSample
from tracing import Tracer

#: Iterations of the untimed warm-up fit, and of the untimed fit under
#: tracemalloc whose peak allocation ``peak_mb`` reports.
WARMUP_ITERS = 1
PEAK_ITERS = 1
LLOYD_REPEATS = 3


def tree_nbytes(tree: bt.BallTree) -> int:
    """Bytes of every array the tree holds, without the indexed data X."""
    return sum(
        getattr(tree, fl.name).nbytes
        for fl in fields(tree)
        if fl.name != "X" and isinstance(getattr(tree, fl.name), np.ndarray)
    )


def check_fit(run: Run, w, X, ref: checks.Reference, r) -> None:
    """The first timed fit against the NumPy Lloyd run from the same init."""
    run.check(checks.check_against_lloyd, X, ref, r.centroids, r.labels, r.n_iter)
    if w.converge:
        if not (r.converged and ref.converged):
            run.fail(f"no convergence within {w.max_iter} iterations")
        run.check(checks.check_fixed_point, X, r.centroids, r.labels)
    elif r.n_iter != w.max_iter:
        run.fail(f"ran {r.n_iter} iterations, expected {w.max_iter}")


def same_fit(r0, r) -> bool:
    """A repeated fit on the same inputs gives the same answer and counts."""
    return (
        r.n_iter == r0.n_iter
        and r.n_dist == r0.n_dist
        and r.pruned_vectors == r0.pruned_vectors
        and np.array_equal(r.labels, r0.labels)
        and np.array_equal(r.centroids, r0.centroids)
    )


def estimator_metrics(n: int, k: int, d: int, f: int, tree, accounted_floats: int) -> dict:
    """The program's own cost estimates for this task (Eq. 10-11, Eq. 13-17)."""
    predictor = RuntimePredictor().fit(samples.generate())
    task = TaskSample(n=n, k=k, d=d, f=f, iter_times=[],
                      tree_stats=features.task_features(n, k, d, f, tree))
    return {
        "estimator.memory.est_mb": memory.floats_to_mb(memory.estimate_total_floats(n, k, f)),
        "estimator.memory.accounted_mb": memory.floats_to_mb(accounted_floats),
        "estimator.runtime.pred_s": predictor.predict_total(task),
    }


def lloyd_metrics(X, C0, max_iter: int) -> dict:
    """Plain Lloyd from the program's baselines, same input and iterations."""
    times, res = [], None
    for _ in range(LLOYD_REPEATS):
        t0 = time.perf_counter()
        res = lloyd.fit(X, C0, max_iter)
        times.append(time.perf_counter() - t0)
    return {"lloyd.fit_s": median(times), "lloyd.n_dist": res.n_dist}


def count_metrics(n: int, n_dist: int, pruned: int, n_iter: int) -> dict:
    base = n * n_iter
    return {
        "daskmeans.n_dist": n_dist,
        "daskmeans.pruned_vectors": pruned,
        "daskmeans.n_iter": n_iter,
        "daskmeans.dist_per_vector_iter": n_dist / base,
        "daskmeans.pruned_frac": pruned / base,
    }


def run_local(w, X: np.ndarray, C0: np.ndarray, seconds: float, trace: bool, run: Run) -> None:
    n, d = X.shape
    tracer = Tracer()
    build = tracer.wrap(bt.build, "balltree.build") if trace else bt.build
    with run.phase("setup"):
        setup, tree = repeat_for(lambda: build(X, w.f), SETUP_SECONDS, MIN_SETUP_REPEATS)

    def fit(max_iter=w.max_iter):
        return daskmeans.fit(X, C0, max_iter, f=w.f, tree=tree)

    with run.phase("warmup"):
        run.fit(lambda: fit(WARMUP_ITERS), warmup=True)

    def timed(fns):
        with run.phase("timed"):
            times = timed_repeats(run, fns, seconds, same_fit)
        if run.first is not None:
            with run.phase("check"):
                check_fit(run, w, X, checks.lloyd(X, C0, w.max_iter), run.first)
        return times

    if not trace:
        [times] = timed([fit])
        r0 = run.first
        if r0 is None:
            return
        with run.phase("peak"):
            peak = peak_alloc(run, lambda: fit(PEAK_ITERS))
        ctree = bt.build(r0.centroids, w.f)
        index_bytes = tree_nbytes(tree) + tree_nbytes(ctree) + r0.labels.nbytes
        end_to_end(run, n, times, setup, index_bytes, peak)
        return

    targets = [
        (bt, "build", "balltree.build"),
        (bt, "knn", "balltree.knn"),
        (bt, "range_query", "balltree.range_query"),
        (daskmeans, "compute_cb", "daskmeans.compute_cb"),
        (daskmeans, "assign_pass", "daskmeans.assign_pass"),
    ]

    def traced_fit():
        with tracer.patched(targets), tracer.span("daskmeans.fit"):
            return fit()

    traced, untraced = timed([traced_fit, fit])
    r0 = run.first
    if r0 is None:
        return
    tot = tracer.totals()
    fits = tot[("daskmeans.fit", "")]["calls"]

    def per_fit(name, key="s", parent=None):
        return sum(
            row[key] for (nm, pn), row in tot.items()
            if nm == name and (parent is None or pn == parent)
        ) / fits

    run.metrics.update({
        "balltree.build.s": median(setup),
        "balltree.build_centroids.s": per_fit("balltree.build", parent="daskmeans.fit"),
        "balltree.build_centroids.calls": per_fit("balltree.build", "calls", "daskmeans.fit"),
        "balltree.knn.s": per_fit("balltree.knn"),
        "balltree.knn.calls": per_fit("balltree.knn", "calls"),
        "balltree.range_query.s": per_fit("balltree.range_query"),
        "balltree.range_query.calls": per_fit("balltree.range_query", "calls"),
        "daskmeans.compute_cb.self_s": per_fit("daskmeans.compute_cb", "self_s"),
        "daskmeans.assign_pass.self_s": per_fit("daskmeans.assign_pass", "self_s"),
        "daskmeans.fit.other_s": per_fit("daskmeans.fit", "self_s"),
        "trace.fit_s": per_fit("daskmeans.fit"),
        "trace.overhead_s": median(traced) - median(untraced),
    })
    run.metrics.update(count_metrics(n, r0.n_dist, r0.pruned_vectors, r0.n_iter))
    with run.phase("references"):
        run.metrics.update(lloyd_metrics(X, C0, w.max_iter))
        run.metrics.update(estimator_metrics(n, w.k, d, w.f, tree, r0.memory_floats))
    run.info["repeats"] = {"traced": len(traced), "untraced": len(untraced), "setup": len(setup)}
    run.tracer = tracer
