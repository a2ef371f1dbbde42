import numpy as np
import pytest

import specluster as sp
from specluster import clustering
from conftest import two_cliques


def brute_force_kmeans_minimum(points, k):
    """Minimum of the K-means objective over every labeling, by enumeration.

    Vectorized over all k^n labelings; independent of the Lloyd code path.
    """
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    total = k**n
    codes = np.arange(total)
    labels = np.empty((total, n), dtype=np.int8)
    for pos in range(n):
        labels[:, pos] = codes % k
        codes //= k
    normsq = (x * x).sum(axis=1)
    best = np.full(total, 0.0)
    for c in range(k):
        mask = (labels == c).astype(np.float64)
        counts = mask.sum(axis=1)
        sums = mask @ x
        within = mask @ normsq - np.divide(
            (sums * sums).sum(axis=1), counts, out=np.zeros(total), where=counts > 0
        )
        best += within
    return float(best.min())


def test_kmeans_separated_clusters():
    pts = np.array([[0.0, 0.0]] * 5 + [[10.0, 10.0]] * 5)
    part, obj = sp.kmeans(pts, 2, seed=0)
    assert obj == pytest.approx(0.0, abs=1e-12)
    assert len(set(part.labels[:5])) == 1
    assert len(set(part.labels[5:])) == 1
    assert part.labels[0] != part.labels[5]


def test_kmeans_single_cluster_objective_is_variance(rng):
    pts = rng.standard_normal((20, 3))
    _, obj = sp.kmeans(pts, 1, seed=0)
    assert obj == pytest.approx(((pts - pts.mean(axis=0)) ** 2).sum(), rel=1e-12)


def test_kmeans_matches_exhaustive_minimum(rng):
    centers = np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 0.0]])
    pts = np.repeat(centers, 4, axis=0) + 0.8 * rng.standard_normal((12, 2))
    brute = brute_force_kmeans_minimum(pts, 3)
    _, obj = sp.kmeans(pts, 3, restarts=30, seed=1)
    assert obj == pytest.approx(brute, rel=1e-9)


def test_kmeans_matches_exhaustive_minimum_hard_instances(rng):
    for trial in range(5):
        pts = rng.standard_normal((9, 2))
        brute = brute_force_kmeans_minimum(pts, 3)
        _, obj = sp.kmeans(pts, 3, restarts=50, seed=trial)
        assert obj <= brute * (1 + 1e-9) + 1e-12
        assert obj >= brute - 1e-9


def test_kmeans_recovers_duplicated_rows():
    pts = np.repeat(np.array([[0.0], [1.0], [2.0]]), 5, axis=0)
    part, obj = sp.kmeans(pts, 3, seed=0)
    assert obj == pytest.approx(0.0, abs=1e-15)
    assert len(np.unique(part.labels[:5])) == 1
    assert len(np.unique([part.labels[0], part.labels[5], part.labels[10]])) == 3


def test_kmeans_deterministic_and_needs_enough_points():
    pts = np.random.default_rng(0).standard_normal((30, 2))
    p1, o1 = sp.kmeans(pts, 4, seed=9)
    p2, o2 = sp.kmeans(pts, 4, seed=9)
    assert o1 == o2
    assert np.array_equal(p1.labels, p2.labels)
    with pytest.raises(sp.SpeclusterError):
        sp.kmeans(pts[:3], 4)


def test_lloyd_objective_increase_raises(monkeypatch):
    # the monotonicity check must be a real error, not an assert that -O strips
    calls = iter(range(1, 1000))
    monkeypatch.setattr(clustering, "kmeans_objective", lambda points, labels, k: float(next(calls)))
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
    with pytest.raises(sp.ConvergenceError, match="objective increased"):
        sp.kmeans(pts, 2, restarts=1, seed=0)


def test_kmeans_all_identical_points_keeps_k_clusters():
    pts = np.zeros((6, 2))
    part, obj = sp.kmeans(pts, 3, restarts=2, seed=0)
    assert obj == 0.0
    assert np.bincount(part.labels, minlength=3).min() >= 1


def test_rsc_two_cliques_exact():
    g = two_cliques(5)
    truth = sp.Partition(np.repeat([0, 1], 5), 2)
    part = sp.regularized_spectral_clustering(g, 2, 0.0, seed=0)
    report = sp.clustering_error(part, truth)
    assert report.error == 0.0
    assert report.misclassified_fraction == 0.0


def test_rsc_relabeling_invariance(rng):
    g = two_cliques(5)
    perm = rng.permutation(10)
    # relabel nodes by perm: edge (i, j) -> (perm[i], perm[j])
    edges = np.column_stack([perm[g.edges[:, 0]], perm[g.edges[:, 1]]])
    g_perm = sp.build_graph(10, edges)
    part = sp.regularized_spectral_clustering(g, 2, 0.5, seed=0)
    part_perm = sp.regularized_spectral_clustering(g_perm, 2, 0.5, seed=0)
    # labels at corresponding nodes agree up to a relabeling of the clusters
    relabeled = sp.Partition(part_perm.labels[perm], 2)
    assert sp.clustering_error(relabeled, part).error == 0.0


def test_rsc_needs_tau_for_isolated_nodes():
    g = sp.build_graph(6, [(0, 1), (1, 2), (3, 4)])  # node 5 isolated
    with pytest.raises(sp.SingularLaplacianError):
        sp.regularized_spectral_clustering(g, 2, 0.0)


def test_center_separation_margin_zero_perturbation():
    centers = np.array([[0.0, 1.0], [1.0, 0.0]])
    pts = np.repeat(centers, 10, axis=0)
    assert sp.center_separation_margin(pts, centers, [10, 10]) == 0.0


def test_center_separation_margin_two_block_algebra(rng):
    # equal blocks of size m, centers sqrt(2/m) apart, perturbation eps:
    # sqrt(2) * eps * (2/sqrt(m)) / sqrt(2/m) = 2 eps
    m, eps = 25, 0.01
    gap = np.sqrt(2.0 / m)
    centers = np.array([[0.0, 0.0], [gap, 0.0]])
    base = np.repeat(centers, m, axis=0)
    u = rng.standard_normal(2 * m)
    u /= np.linalg.norm(u)
    w = rng.standard_normal(2)
    w /= np.linalg.norm(w)
    pts = base + eps * np.outer(u, w)  # rank one, spectral norm exactly eps
    got = sp.center_separation_margin(pts, centers, [m, m])
    assert got == pytest.approx(2 * eps, rel=1e-12)


def test_center_separation_margin_coincident_centers():
    centers = np.zeros((2, 2))
    pts = np.zeros((4, 2))
    assert sp.center_separation_margin(pts, centers, [2, 2]) == np.inf


def test_partition_file_roundtrip(tmp_path):
    part = sp.Partition(np.array([0, 1, 1, 0, -1]), 2)
    path = tmp_path / "labels.txt"
    sp.save_partition(part, path)
    loaded = sp.load_partition(path, n=5)
    assert np.array_equal(loaded.labels, part.labels)
    with pytest.raises(sp.SpeclusterError):
        sp.load_partition(path, n=7)


def test_partition_validation():
    with pytest.raises(sp.SpeclusterError):
        sp.Partition(np.array([0, 2]), 2)
    with pytest.raises(sp.SpeclusterError):
        sp.Partition(np.array([0, -2]), 2)
