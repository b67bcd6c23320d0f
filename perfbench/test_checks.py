"""The benchmark's correctness checks reject wrong answers.

Run: python3 -m pytest perfbench/test_checks.py -q
"""
import numpy as np
import pytest

import checks


@pytest.fixture(scope="module")
def problem():
    g = np.random.default_rng(7)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    X = np.concatenate([c + g.normal(size=(100, 2)) for c in centers])
    C0 = X[g.choice(len(X), 6, replace=False)]
    ref = checks.lloyd(X, C0, 100)
    assert ref.converged
    return X, ref


def farther_label(X, C, labels, i):
    """The centroid farthest from point i, which is not its nearest."""
    j = int(np.argmax(np.linalg.norm(C - X[i], axis=1)))
    assert j != labels[i]
    return j


def test_accepts_the_reference_answer(problem):
    X, ref = problem
    checks.check_against_lloyd(X, ref, ref.centroids, ref.labels, ref.n_iter)
    checks.check_fixed_point(X, ref.centroids, ref.labels)
    ids = np.random.default_rng(0).permutation(len(X))
    checks.check_labels_duckdb(X, ids, ref.labels[ids], ref.labels_centroids)


def test_rejects_a_point_relabelled_to_a_farther_centroid(problem):
    X, ref = problem
    bad = ref.labels.copy()
    bad[5] = farther_label(X, ref.labels_centroids, bad, 5)
    with pytest.raises(checks.CheckFailed):
        checks.check_against_lloyd(X, ref, ref.centroids, bad, ref.n_iter)
    with pytest.raises(checks.CheckFailed):
        checks.check_fixed_point(X, ref.centroids, bad)
    with pytest.raises(checks.CheckFailed):
        checks.check_labels_duckdb(X, np.arange(len(X)), bad, ref.labels_centroids)


def test_rejects_a_shifted_centroid(problem):
    X, ref = problem
    bad = ref.centroids.copy()
    bad[2, 1] += 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_against_lloyd(X, ref, bad, ref.labels, ref.n_iter)
    with pytest.raises(checks.CheckFailed):
        checks.check_fixed_point(X, bad, ref.labels)
    with pytest.raises(checks.CheckFailed):
        checks.check_centroids(bad, ref.centroids)


@pytest.mark.parametrize("delta", [-1, 1])
def test_rejects_a_wrong_iteration_count(problem, delta):
    X, ref = problem
    with pytest.raises(checks.CheckFailed):
        checks.check_against_lloyd(X, ref, ref.centroids, ref.labels, ref.n_iter + delta)


def test_duckdb_rejects_missing_or_unknown_labels(problem):
    X, ref = problem
    ids = np.arange(len(X))
    with pytest.raises(checks.CheckFailed):
        checks.check_labels_duckdb(X, ids[1:], ref.labels[1:], ref.labels_centroids)
    bad = ref.labels.copy()
    bad[3] = len(ref.labels_centroids)
    with pytest.raises(checks.CheckFailed):
        checks.check_labels_duckdb(X, ids, bad, ref.labels_centroids)


def test_a_tie_may_break_either_way():
    X = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    C = np.array([[0.0, 0.0], [2.0, 0.0]])
    ref = checks.Reference(
        centroids=C, labels=np.array([0, 1, 0]), labels_centroids=C, n_iter=1, converged=False
    )
    checks.check_against_lloyd(X, ref, C, np.array([0, 1, 1]), 1)
    checks.check_labels_duckdb(X, np.arange(3), np.array([0, 1, 1]), C)
