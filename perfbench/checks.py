"""Correctness checks made apart from the program under test.

Every check recomputes the clustering with plain NumPy (or DuckDB) and
raises ``CheckFailed`` with a reason when the program's answer disagrees.
Nothing here imports ``repro``: a fault in the program cannot also sit in
the code that judges it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Two centroids tie for a point when their distances differ by at most
#: this much (relative to the distance). Float rounding differs between
#: the program's expanded ||x||^2 + ||c||^2 - 2x.c form and the plain
#: subtractive form used here, so exact ties may break either way.
TIE_RTOL = 1e-9
#: Largest allowed absolute difference between two centroid coordinates.
CENTROID_ATOL = 1e-9

_ROW_BLOCK = 4096


class CheckFailed(AssertionError):
    """The program's output disagrees with the independent computation."""


@dataclass
class Reference:
    """Plain Lloyd run: the answer every exact k-means must reproduce."""

    centroids: np.ndarray         # after the last refinement
    labels: np.ndarray            # the last assignment
    labels_centroids: np.ndarray  # centroids the last assignment used
    n_iter: int
    converged: bool


def sq_distances(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances, subtractive form, in row blocks."""
    out = np.zeros((len(X), len(C)))
    for s in range(0, len(X), _ROW_BLOCK):
        blk = out[s : s + _ROW_BLOCK]
        for j in range(X.shape[1]):
            blk += np.square(X[s : s + _ROW_BLOCK, j, None] - C[None, :, j])
    return out


def distances(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    return np.sqrt(sq_distances(X, C))


def cluster_means(X: np.ndarray, labels: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Mean of each cluster; an empty cluster keeps its old centroid."""
    k, d = old.shape
    cnt = np.bincount(labels, minlength=k)
    sums = np.stack([np.bincount(labels, weights=X[:, j], minlength=k) for j in range(d)], axis=1)
    out = old.copy()
    nz = cnt > 0
    out[nz] = sums[nz] / cnt[nz, None]
    return out


def lloyd(X: np.ndarray, C0: np.ndarray, max_iter: int) -> Reference:
    """Lloyd's algorithm: assign to the nearest centroid, move each centroid
    to its cluster's mean, stop after an iteration that changed no label."""
    C = np.array(C0, dtype=np.float64, copy=True)
    labels = np.full(len(X), -1, dtype=np.int64)
    labels_C = C
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        new = np.argmin(sq_distances(X, C), axis=1)
        changed = bool((new != labels).any())
        labels, labels_C = new, C
        C = cluster_means(X, labels, C)
        if not changed:
            converged = True
            break
    return Reference(C, labels, labels_C, it, converged)


def check_labels_nearest(X: np.ndarray, C: np.ndarray, labels: np.ndarray) -> None:
    """Each point's label is one of its nearest centroids in ``C``."""
    if labels.shape != (len(X),):
        raise CheckFailed(f"labels have shape {labels.shape}, expected ({len(X)},)")
    if labels.min() < 0 or labels.max() >= len(C):
        raise CheckFailed("a label is not a centroid id")
    D = distances(X, C)
    got = D[np.arange(len(X)), labels]
    best = D.min(axis=1)
    bad = np.flatnonzero(got > best * (1 + TIE_RTOL) + TIE_RTOL)
    if len(bad):
        i = bad[0]
        raise CheckFailed(
            f"{len(bad)} points are not labelled with a nearest centroid, e.g. point {i}: "
            f"label {labels[i]} at {got[i]!r}, nearest at {best[i]!r}"
        )


def check_centroids(got: np.ndarray, want: np.ndarray, what: str = "centroids") -> None:
    if got.shape != want.shape:
        raise CheckFailed(f"{what} have shape {got.shape}, expected {want.shape}")
    err = float(np.abs(got - want).max()) if got.size else 0.0
    if not err <= CENTROID_ATOL:
        raise CheckFailed(f"{what} differ from the reference by {err!r} > {CENTROID_ATOL}")


def check_against_lloyd(
    X: np.ndarray,
    ref: Reference,
    centroids: np.ndarray,
    labels: np.ndarray,
    n_iter: int,
) -> None:
    """Same iteration count, same centroids, and the same labels except at
    points whose two candidate centroids tie within float tolerance."""
    if n_iter != ref.n_iter:
        raise CheckFailed(f"n_iter {n_iter} != reference {ref.n_iter}")
    check_centroids(centroids, ref.centroids)
    if labels.shape != ref.labels.shape:
        raise CheckFailed(f"labels have shape {labels.shape}, expected {ref.labels.shape}")
    diff = np.flatnonzero(labels != ref.labels)
    if len(diff):
        if labels[diff].min() < 0 or labels[diff].max() >= len(ref.labels_centroids):
            raise CheckFailed("a label is not a centroid id")
        P = X[diff]
        d_got = np.linalg.norm(P - ref.labels_centroids[labels[diff]], axis=1)
        d_ref = np.linalg.norm(P - ref.labels_centroids[ref.labels[diff]], axis=1)
        bad = np.abs(d_got - d_ref) > TIE_RTOL * np.maximum(1.0, d_ref)
        if bad.any():
            i = diff[np.argmax(bad)]
            raise CheckFailed(
                f"{int(bad.sum())} labels differ from the reference without a tie, "
                f"e.g. point {i}: {labels[i]} vs {ref.labels[i]}"
            )


def check_fixed_point(X: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> None:
    """A converged clustering: every label is a nearest final centroid and
    every non-empty cluster's centroid is the mean of its points."""
    check_labels_nearest(X, centroids, labels)
    cnt = np.bincount(labels, minlength=len(centroids))
    means = cluster_means(X, labels, centroids)
    nz = cnt > 0
    check_centroids(centroids[nz], means[nz], "centroids of non-empty clusters")


def check_labels_duckdb(
    X: np.ndarray, ids: np.ndarray, labels: np.ndarray, C: np.ndarray
) -> None:
    """DuckDB recomputes every point's distance to every centroid and checks
    that each assigned centroid is at the minimum (within tolerance).

    ``ids``/``labels`` are the program's (id, cluster) rows, in any order;
    ``X[id]`` is the point with that id.
    """
    import duckdb
    import pandas as pd

    n, d = X.shape
    if len(ids) != n or len(np.unique(ids)) != n or ids.min() != 0 or ids.max() != n - 1:
        raise CheckFailed(f"labels cover {len(np.unique(ids))} distinct ids of {n}")
    points = pd.DataFrame(X, columns=[f"x{j}" for j in range(d)])
    points.insert(0, "id", np.arange(n, dtype=np.int64))
    cents = pd.DataFrame(C, columns=[f"x{j}" for j in range(d)])
    cents.insert(0, "cid", np.arange(len(C), dtype=np.int64))
    labs = pd.DataFrame({"id": ids.astype(np.int64), "cluster": labels.astype(np.int64)})
    dist = "sqrt(" + " + ".join(f"(p.x{j} - c.x{j}) * (p.x{j} - c.x{j})" for j in range(d)) + ")"
    sql = f"""
        WITH dist AS (
            SELECT p.id, c.cid, {dist} AS dd FROM points p CROSS JOIN cents c
        ),
        best AS (SELECT id, min(dd) AS dmin FROM dist GROUP BY id)
        SELECT count(*) AS bad, min(l.id) AS example
        FROM labs l
        JOIN best b ON b.id = l.id
        LEFT JOIN dist a ON a.id = l.id AND a.cid = l.cluster
        WHERE a.dd IS NULL OR a.dd > b.dmin * (1 + {TIE_RTOL}) + {TIE_RTOL}
    """
    con = duckdb.connect()
    try:
        con.register("points", points)
        con.register("cents", cents)
        con.register("labs", labs)
        bad, example = con.execute(sql).fetchone()
    finally:
        con.close()
    if bad:
        raise CheckFailed(f"DuckDB: {bad} labels are not a nearest centroid, e.g. id {example}")
