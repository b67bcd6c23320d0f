"""The benchmark's workloads and the inputs each run draws from its seed.

Each workload is one clustering problem: a base dataset and init from
``datasets.make(name, n, seed=base_seed)`` and
``init.random_init(X, k, seed=base_seed)``. The run's ``--seed`` draws an
order and signs of the axes, a translation and an order of the rows, and
applies them to both. Lloyd's trajectory, and so the answer and the
iteration count, do not change under these. What changes is where each
point sits in memory, which rows each Spark partition gets, the side a
median point goes to at each ball-tree split, and float rounding.

A fresh dataset or a general rotation per seed would change the work
itself: on argo_pc, k=16, the iterations to converge ranged from 19 to 54
over dataset seeds 1-8, and under random rotations of one dataset the
distance count still varied by +-4% and the peak allocation by +-7%.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import datasets
from repro.core import init as cinit


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    n: int
    k: int
    base_seed: int
    max_iter: int
    converge: bool          # run to convergence (max_iter is only a cap)
    spark: bool = False
    f: int = 30
    partitions: int = 4


WORKLOADS = {
    w.name: w
    for w in [
        # Large k: per-node centroid kNN and range queries dominate a fit.
        Workload("tdrive-k256", "tdrive", 20_000, 256, 0, 10, False),
        # Small k run to convergence: per-iteration fixed costs paid ~29
        # times; base seed 6 converges in 29 iterations.
        Workload("argo_pc-k16-converge", "argo_pc", 20_000, 16, 6, 300, True),
        # The per-partition Spark operator and its per-iteration overhead.
        Workload("spark-tdrive-k64", "tdrive", 60_000, 64, 0, 5, False, spark=True),
    ]
}


def make_inputs(w: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(X, C0) for one run: the base problem mirrored, moved and reordered."""
    X0 = datasets.make(w.dataset, w.n, seed=w.base_seed)
    g = np.random.default_rng([seed, 0x6B6D])
    d = X0.shape[1]
    signs = g.choice([-1.0, 1.0], d)
    X = X0[:, g.permutation(d)] * signs + g.uniform(-50.0, 50.0, d)
    # The init picks the same points of the base dataset, as exact rows of X.
    C0 = cinit.random_init(X, w.k, seed=w.base_seed)
    return np.ascontiguousarray(X[g.permutation(w.n)]), C0
