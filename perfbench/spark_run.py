"""The Spark workload: ``daskmeans_spark.fit`` on the benchmark's own session.

The session is ``local[4]`` with fixed partitions, the UI off and every
scratch file under the output directory. Executor-side figures come from
Spark's own event log, which only the traced run turns on.
"""
from __future__ import annotations

import itertools
import json
import pickle
import shutil
import subprocess
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
from common import (
    MIB, MIN_SETUP_REPEATS, SETUP_SECONDS, Run, end_to_end, median, peak_alloc, repeat_for,
    timed_repeats,
)
from local_run import (
    PEAK_ITERS, WARMUP_ITERS, count_metrics, estimator_metrics, lloyd_metrics, tree_nbytes,
)
from repro.core import balltree as bt
from repro.core import daskmeans
from repro.spark import daskmeans_spark, lloyd_spark
from repro.spark import data as sdata
from tracing import Tracer

MASTER = "local[4]"
REF_REPEATS = 2


def start_session(out: Path, trace: bool):
    """A SparkSession whose JVM this process started and must stop."""
    from pyspark import SparkContext
    from pyspark.sql import SparkSession

    shutil.rmtree(out / "eventlog", ignore_errors=True)
    for sub in ("spark-local", "tmp", "eventlog"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    b = (
        SparkSession.builder.master(MASTER).appName("perfbench")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.bindAddress", "127.0.0.1")
        .config("spark.driver.memory", "1g")
        .config("spark.default.parallelism", "4")
        .config("spark.sql.shuffle.partitions", "4")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.warehouse.dir", str(out / "warehouse"))
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={out / 'tmp'}")
        .config("spark.executorEnv.OPENBLAS_NUM_THREADS", "1")
        .config("spark.executorEnv.OMP_NUM_THREADS", "1")
        .config("spark.eventLog.enabled", "true" if trace else "false")
        .config("spark.eventLog.dir", (out / "eventlog").as_uri())
        .config("spark.eventLog.compress", "false")
        .config("spark.eventLog.rolling.enabled", "false")
    )
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark, SparkContext._gateway


def stop_session(spark, gateway) -> None:
    """Stop Spark, then end the JVM (and with it the Python workers) and wait."""
    proc = gateway.proc
    try:
        spark.stop()
        gateway.shutdown()
    finally:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _partition_state(part, f: int):
    """Per partition, for the same (ids, tree, labels) state that
    ``daskmeans_spark.fit`` keeps: index and label bytes held, the program's
    own float-slot accounting of them, and the pickled bytes of the state."""
    for ids, X in part:
        tree = bt.build(X, f)
        labels = np.full(len(ids), bt.NO_CLUSTER, dtype=np.int64)
        yield (
            tree_nbytes(tree) + labels.nbytes,
            daskmeans.index_memory_floats(tree) + len(labels),
            len(pickle.dumps((ids, tree, labels), protocol=pickle.HIGHEST_PROTOCOL)),
        )


def event_log_metrics(log_dir: Path, prefix: str) -> dict:
    """Executor task metrics of the jobs whose job group starts with ``prefix``,
    summed, and the number of such groups."""
    (log,) = [p for p in log_dir.iterdir() if p.is_file()]
    stage_group: dict[int, str] = {}
    jobs: dict[str, int] = defaultdict(int)
    task = defaultdict(float)
    with open(log) as fh:
        for line in fh:
            ev = json.loads(line)
            kind = ev["Event"]
            if kind == "SparkListenerJobStart":
                group = (ev.get("Properties") or {}).get("spark.jobGroup.id") or ""
                jobs[group] += 1
                for sid in ev["Stage IDs"]:
                    stage_group.setdefault(sid, group)
            elif kind == "SparkListenerTaskEnd":
                if not stage_group.get(ev["Stage ID"], "").startswith(prefix):
                    continue
                tm = ev.get("Task Metrics") or {}
                task["tasks"] += 1
                task["run_s"] += tm.get("Executor Run Time", 0) / 1e3
                task["cpu_s"] += tm.get("Executor CPU Time", 0) / 1e9
                task["deserialize_s"] += tm.get("Executor Deserialize Time", 0) / 1e3
                task["gc_s"] += tm.get("JVM GC Time", 0) / 1e3
                task["result_mb"] += tm.get("Result Size", 0) / MIB
    groups = [g for g in jobs if g.startswith(prefix)]
    task["jobs"] = sum(jobs[g] for g in groups)
    task["groups"] = len(groups)
    return task


def run_spark(w, X: np.ndarray, C0: np.ndarray, seconds: float, trace: bool, run: Run,
              out: Path) -> None:
    spark, gateway = start_session(out, trace)
    try:
        _measure(spark, w, X, C0, seconds, trace, run)
    finally:
        stop_session(spark, gateway)
    if trace and run.first is not None:
        ev = event_log_metrics(out / "eventlog", "traced-")
        fits = ev["groups"]
        run.metrics.update({
            "spark.jobs": ev["jobs"] / fits,
            "spark.tasks": ev["tasks"] / fits,
            **{f"spark.task.{k}": ev[k] / fits
               for k in ("run_s", "cpu_s", "deserialize_s", "gc_s", "result_mb")},
        })


def _measure(spark, w, X, C0, seconds, trace, run: Run) -> None:
    sc = spark.sparkContext
    n, d = X.shape
    tracer = Tracer()
    copies = []

    def ingest():
        with tracer.span("spark.ingest"):
            df = sdata.to_spark(spark, X, n_partitions=w.partitions).persist()
            df.count()
        copies.append(df)

    # The fits use the first, untimed ingest, which also loads Arrow and the
    # JVM's classes. The timed set-ups come after the fits, in a JVM whose
    # JIT has warmed up, as the fits' has.
    sc.setJobGroup("ingest", "to_spark + persist + count")
    with run.phase("ingest"):
        ingest()
    [df] = copies

    def fit(max_iter=w.max_iter):
        return daskmeans_spark.fit(
            spark, df, w.k, d=d, f=w.f, max_iter=max_iter, init_centroids=C0
        )

    sc.setJobGroup("warmup", "untimed fit: Python workers, JIT")
    with run.phase("warmup"):
        run.fit(lambda: fit(WARMUP_ITERS), warmup=True)

    rounds = itertools.count()

    def untraced_fit():
        sc.setJobGroup(f"untraced-{next(rounds)}", "timed fit")
        return fit()

    broadcast_bytes: list[int] = []

    def counting_broadcast(value):
        broadcast_bytes.append(len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)))
        return type(sc).broadcast(sc, value)

    targets = [
        (bt, "build", "balltree.build"),
        (bt, "knn", "balltree.knn"),
        (bt, "range_query", "balltree.range_query"),
        (daskmeans, "compute_cb", "daskmeans.compute_cb"),
    ]

    def traced_fit():
        sc.setJobGroup(f"traced-{next(rounds)}", "traced fit")
        sc.broadcast = counting_broadcast
        try:
            with tracer.patched(targets), tracer.span("daskmeans_spark.fit"):
                return fit()
        finally:
            del sc.broadcast

    with run.phase("timed"):
        if trace:
            traced, untraced = timed_repeats(run, [traced_fit, untraced_fit], seconds, _same)
        else:
            [times] = timed_repeats(run, [untraced_fit], seconds, _same)
    r0 = run.first
    if r0 is None:
        return
    sc.setJobGroup("check", "labels of the first timed fit")
    with run.phase("check"):
        _check_fit(run, w, X, C0, r0)
    sc.setJobGroup("index", "index and state bytes")
    with run.phase("index"):
        parts = sdata.partition_arrays(df, d).mapPartitions(
            lambda p: _partition_state(p, w.f)
        ).collect()
        ctree = bt.build(r0.labels_centroids, w.f)
    sc.setJobGroup("setup", "to_spark + persist + count")
    with run.phase("setup"):
        setup, _ = repeat_for(ingest, SETUP_SECONDS, MIN_SETUP_REPEATS)
        for copy in copies[1:]:
            copy.unpersist(blocking=True)

    if not trace:
        sc.setJobGroup("peak", "untimed fit under tracemalloc")
        with run.phase("peak"):
            peak = peak_alloc(run, lambda: fit(PEAK_ITERS))
        index_bytes = sum(p[0] for p in parts) + tree_nbytes(ctree)
        end_to_end(run, n, times, setup, index_bytes, peak)
        df.unpersist()
        return

    tot = tracer.totals()
    fits = tot[("daskmeans_spark.fit", "")]["calls"]

    def per_fit(name, key="s"):
        return sum(row[key] for (nm, _), row in tot.items() if nm == name) / fits

    fit_s = per_fit("daskmeans_spark.fit")
    driver_build = per_fit("balltree.build")
    driver_cb = per_fit("daskmeans.compute_cb")
    run.metrics.update({
        "spark.ingest.s": median(setup),
        "spark.driver.build_centroids.s": driver_build,
        "spark.driver.compute_cb.s": driver_cb,
        "spark.driver.wait_s": fit_s - driver_build - driver_cb,
        "spark.broadcast.mb": median(broadcast_bytes) / MIB,
        "spark.state_mb": sum(p[2] for p in parts) / MIB,
        "spark.n_dist": r0.n_dist,
        "spark.pruned_vectors": r0.pruned_vectors,
        # Driver-side spans of the program's local layers.
        "balltree.build_centroids.s": driver_build,
        "balltree.build_centroids.calls": per_fit("balltree.build", "calls"),
        "balltree.knn.s": per_fit("balltree.knn"),
        "balltree.knn.calls": per_fit("balltree.knn", "calls"),
        "daskmeans.compute_cb.self_s": per_fit("daskmeans.compute_cb", "self_s"),
        "trace.fit_s": fit_s,
        "trace.overhead_s": median(traced) - median(untraced),
    })
    run.metrics.update(count_metrics(n, r0.n_dist, r0.pruned_vectors, r0.n_iter))
    sc.setJobGroup("ref", "reference fits")
    with run.phase("references"):
        run.metrics.update({
            "spark.ref.lloyd_df.fit_s": _ref_time(run, lambda: lloyd_spark.fit(
                spark, df, w.k, d=d, max_iter=w.max_iter, init_centroids=C0)),
            "spark.ref.mllib.fit_s": _ref_time(run, lambda: _mllib(df, w.k, d, w.max_iter)),
        })
        run.metrics.update(lloyd_metrics(X, C0, w.max_iter))
        accounted = sum(p[1] for p in parts) + daskmeans.index_memory_floats(ctree)
        run.metrics.update(estimator_metrics(n, w.k, d, w.f, None, accounted))
    run.info["repeats"] = {"traced": len(traced), "untraced": len(untraced), "setup": len(setup)}
    run.tracer = tracer
    df.unpersist()


def _same(r0, r) -> bool:
    return (
        r.n_iter == r0.n_iter and r.n_dist == r0.n_dist
        and r.pruned_vectors == r0.pruned_vectors
        and np.array_equal(r.centroids, r0.centroids)
    )


def _check_fit(run: Run, w, X, C0, r0) -> None:
    """DuckDB checks every label against the centroids the last assignment
    used; the centroids and iteration count are checked against NumPy Lloyd."""
    ref = checks.lloyd(X, C0, w.max_iter)
    rows = r0.labels_df.toPandas()
    ids, cluster = rows["id"].to_numpy(), rows["cluster"].to_numpy()
    run.check(checks.check_labels_duckdb, X, ids, cluster, r0.labels_centroids)
    if run.correct:  # the ids are then a permutation of 0..n-1
        labels = np.empty(len(X), dtype=np.int64)
        labels[ids] = cluster
        run.check(checks.check_against_lloyd, X, ref, r0.centroids, labels, r0.n_iter)
    run.check(checks.check_centroids, r0.labels_centroids, ref.labels_centroids,
              "centroids of the last assignment")
    if r0.n_iter != w.max_iter:
        run.fail(f"ran {r0.n_iter} iterations, expected {w.max_iter}")


def _mllib(df, k: int, d: int, max_iter: int):
    from pyspark.ml.clustering import KMeans
    from pyspark.ml.feature import VectorAssembler

    feats = VectorAssembler(inputCols=sdata.dim_cols(d), outputCol="features").transform(df)
    return KMeans(k=k, maxIter=max_iter, tol=0.0, seed=1, initMode="random").fit(feats)


def _ref_time(run: Run, fn) -> float:
    """Median wall time of a reference fit after one untimed warm-up call."""
    run.fit(fn, warmup=True)
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        run.fit(fn)
        times.append(time.perf_counter() - t0)
    return median(times)
