"""Dask-means benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload tdrive-k256 --seed 1 --seconds 25 --trace 0

Run from the repository root. With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics instead. The line before it
records the run's environment. Scratch files and a record of the run go to
``.bench_out/`` under the root. See perfbench/README.md.
"""
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# Pin the environment before NumPy, BLAS or Spark load: one BLAS thread in
# this process and in Spark's Python workers, which inherit it through the
# JVM, and a Spark launched by this process alone.
(OUT / "tmp").mkdir(parents=True, exist_ok=True)
os.environ.update({
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "TMPDIR": str(OUT / "tmp"),
    "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(HERE)]),
    "PYSPARK_PYTHON": sys.executable,
    "PYSPARK_DRIVER_PYTHON": sys.executable,
    "PYSPARK_SUBMIT_ARGS": "--master local[4] --driver-memory 1g pyspark-shell",
    "SPARK_LOCAL_IP": "127.0.0.1",
    "SPARK_LOCAL_DIRS": str(OUT / "spark-local"),
})
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
from importlib import metadata  # noqa: E402

from common import Run  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        ).stdout.strip() or None
    digest = hashlib.sha1()
    for p in sorted((ROOT / "src").rglob("*.py")):
        digest.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **{pkg: version(pkg) for pkg in ("numpy", "pandas", "pyarrow", "duckdb", "pyspark")},
        "git_sha": sha,
        "src_sha1": digest.hexdigest(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    w = WORKLOADS[args.workload]
    X, C0 = make_inputs(w, args.seed)
    run = Run()
    if w.spark:
        from spark_run import run_spark

        run_spark(w, X, C0, args.seconds, bool(args.trace), run, OUT)
    else:
        from local_run import run_local

        run_local(w, X, C0, args.seconds, bool(args.trace), run)

    unknown = set(run.metrics) - set(units)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    missing = [m for m in units if m not in run.metrics]
    if missing and not args.trace and run.correct:
        raise KeyError(f"end-to-end metrics not measured: {missing}")
    # A per-layer metric of a layer this workload does not run in the
    # benchmark's process reads 0 (listed as not_run in the record). A run
    # whose timed fits all failed has no end-to-end metrics to print.
    metrics = {
        m: {"value": float(run.metrics.get(m, 0.0)), "unit": u}
        for m, u in units.items() if args.trace or m in run.metrics
    }
    info = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "not_run": missing, "errors": run.errors,
        **run.info, "env": environment(),
    }
    stem = OUT / "runs" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    stem.parent.mkdir(parents=True, exist_ok=True)
    stem.with_suffix(".json").write_text(json.dumps({"info": info, "metrics": metrics}, indent=1))
    if run.tracer is not None:
        run.tracer.write(stem.with_suffix(".spans.csv"))
    print("info: " + json.dumps(info))
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
