import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specluster as sp
from conftest import complete_graph, path_graph, two_block_benchmark_model, two_cliques
from specluster.graph import build_graph
from specluster.metrics import _bottleneck_cost, _contingency, _minimize_matching, block_counts, modularity
from specluster.selection import estimate_block_matrix


def exhaustive_bottleneck(est, truth):
    """Independent oracle: min over permutations of the worst per-cluster
    normalized symmetric difference."""
    mask = truth.labels >= 0
    k = max(est.k, truth.k)
    refs = [set(np.flatnonzero(mask & (truth.labels == a))) for a in range(k)]
    gots = [set(np.flatnonzero(est.labels == b)) for b in range(k)]  # empty beyond est.k
    best = np.inf
    for perm in itertools.permutations(range(k)):
        worst = 0.0
        for a in range(k):
            ref, got = refs[a], gots[perm[a]]
            if not ref:
                worst = max(worst, 0.0 if not got else np.inf)
                continue
            missing = len(ref - got)
            intruding = len(got - ref)
            worst = max(worst, (missing + intruding) / len(ref))
        best = min(best, worst)
    return best


def first_optimal_permutation(cost):
    """The tie rule's oracle: the first permutation, in lexicographic order,
    whose worst cell is the least over all permutations."""
    k = cost.shape[0]
    perms = list(itertools.permutations(range(k)))
    worst = [max(cost[a, p[a]] for a in range(k)) for p in perms]
    return perms[worst.index(min(worst))]


def exhaustive_misclassified(est, truth):
    """Independent oracle: one minus the largest share of labeled nodes
    that a permutation of the labels puts on the right side, in the
    package's arithmetic so the two can be compared with ==."""
    mask = truth.labels >= 0
    k = max(est.k, truth.k)
    pairs = list(zip(truth.labels[mask].tolist(), est.labels[mask].tolist()))
    best = -1
    for perm in itertools.permutations(range(k)):
        best = max(best, sum(perm[t] == e for t, e in pairs))
    return 1.0 - best / int(mask.sum())


def random_partition_pair(rng, n, k_est, k_truth):
    truth = rng.integers(0, k_truth, size=n)
    while np.unique(truth).size < k_truth:
        truth = rng.integers(0, k_truth, size=n)
    est = rng.integers(0, k_est, size=n)
    return sp.Partition(est, k_est), sp.Partition(truth, k_truth)


@pytest.mark.parametrize("score", [sp.clustering_error, sp.nmi], ids=["error", "nmi"])
def test_scores_reject_partitions_of_different_sizes(score):
    est = sp.Partition(np.array([0, 0, 1, 1]), 2)
    truth = sp.Partition(np.array([0, 0, 1, 1, 1]), 2)
    with pytest.raises(sp.SpeclusterError, match="partitions cover different node counts"):
        score(est, truth)


def test_error_zero_for_identical_and_relabeled():
    truth = sp.Partition(np.array([0, 0, 1, 1, 2, 2]), 3)
    assert sp.clustering_error(truth, truth).error == 0.0
    swapped = sp.Partition(np.array([2, 2, 0, 0, 1, 1]), 3)
    report = sp.clustering_error(swapped, truth)
    assert report.error == 0.0
    assert report.misclassified_fraction == 0.0
    assert report.permutation == (2, 0, 1)


def test_error_crossed_pairs():
    truth = sp.Partition(np.array([0, 0, 1, 1]), 2)
    est = sp.Partition(np.array([0, 1, 0, 1]), 2)
    report = sp.clustering_error(est, truth)
    assert report.error == 1.0
    assert report.misclassified_fraction == 0.5


def _oracle_cases(rng):
    """Random pairs up to K = 7, plus the shapes where a matching solver can
    slip: unlabeled reference nodes, a one-cluster side, padding of either
    side, empty estimated clusters, tied optima and contingency tables with
    zero cells."""
    cases = []
    for _ in range(60):
        n = int(rng.integers(6, 40))
        k_truth = int(rng.integers(2, 8))
        k_est = int(rng.integers(2, 8))
        cases.append(random_partition_pair(rng, n, k_est, k_truth))
    for _ in range(20):
        est, truth = random_partition_pair(rng, 30, int(rng.integers(1, 5)), int(rng.integers(2, 5)))
        labels = truth.labels.copy()
        keep = np.unique(labels, return_index=True)[1]  # no reference cluster empties
        hide = rng.random(labels.size) < 0.3
        hide[keep] = False
        labels[hide] = -1
        cases.append((est, sp.Partition(labels, truth.k)))
    for _ in range(20):
        # estimated clusters that hold no node, inside and beyond the reference's k
        k_truth = int(rng.integers(2, 6))
        k_est = int(rng.integers(k_truth, 8))
        est, truth = random_partition_pair(rng, 24, k_truth, k_truth)
        used = rng.choice(k_est, size=k_truth, replace=False)
        cases.append((sp.Partition(used[est.labels], k_est), truth))
    three = sp.Partition(np.repeat([0, 1, 2], 4), 3)
    one = sp.Partition(np.zeros(12, dtype=int), 1)
    cases += [(one, three), (three, one)]
    # every cell 2 (all-equal table), and every matching ties
    cases.append((sp.Partition(np.tile([0, 1, 2], 6), 3), sp.Partition(np.repeat([0, 1, 2], 6), 3)))
    cases.append((sp.Partition(np.array([0, 1, 0, 1]), 2), sp.Partition(np.array([0, 0, 1, 1]), 2)))
    for k in (4, 7):  # every estimated cluster spread evenly over every reference one
        cases.append((sp.Partition(np.tile(np.arange(k), k), k), sp.Partition(np.repeat(np.arange(k), k), k)))
    # diagonal and permutation tables: all but k cells are zero
    for k in (2, 3, 5, 7):
        truth = sp.Partition(np.repeat(np.arange(k), 3), k)
        cases.append((truth, truth))
        cases.append((sp.Partition(rng.permutation(k)[truth.labels], k), truth))
        extra = truth.labels.copy()
        extra[::3] = k  # one node of each cluster moves to a new one
        cases.append((sp.Partition(extra, k + 1), truth))
    return cases


def test_error_matches_exhaustive_oracle(rng):
    for est, truth in _oracle_cases(rng):
        report = sp.clustering_error(est, truth)
        assert report.error == pytest.approx(exhaustive_bottleneck(est, truth), abs=1e-12)
        assert report.misclassified_fraction == exhaustive_misclassified(est, truth)
        cost = _bottleneck_cost(
            _contingency(est, truth)[0],
            np.bincount(truth.labels[truth.labels >= 0], minlength=truth.k),
            np.bincount(est.labels, minlength=est.k),
        )
        if np.isfinite(report.error):
            # the tie rule: the lexicographically first optimal permutation
            assert report.permutation == first_optimal_permutation(cost)
            attained = max(cost[a, report.permutation[a]] for a in range(len(report.permutation)))
            assert attained == report.error
        else:
            assert report.permutation == tuple(range(cost.shape[0]))


def test_matching_path_equals_exhaustive(rng):
    # the threshold + bipartite-matching solver is the production path;
    # check it against the exhaustive oracle on small instances
    for _ in range(40):
        n = int(rng.integers(8, 30))
        est, truth = random_partition_pair(rng, n, int(rng.integers(2, 8)), int(rng.integers(2, 8)))
        o, _ = _contingency(est, truth)
        cost = _bottleneck_cost(
            o,
            np.bincount(truth.labels, minlength=truth.k),
            np.bincount(est.labels, minlength=est.k),
        )
        got, perm = _minimize_matching(cost)
        assert got == pytest.approx(exhaustive_bottleneck(est, truth), abs=1e-12)
        if np.isfinite(got):
            assert perm == first_optimal_permutation(cost)


def test_error_with_partial_truth():
    # nodes 4, 5 unlabeled: they only count as intruders
    truth = sp.Partition(np.array([0, 0, 1, 1, -1, -1]), 2)
    est = sp.Partition(np.array([0, 0, 1, 1, 0, 1]), 2)
    report = sp.clustering_error(est, truth)
    # each reference cluster has one intruding unlabeled node: (0 + 1)/2
    assert report.error == 0.5
    assert report.misclassified_fraction == 0.0


def test_error_k_mismatch_padding():
    truth = sp.Partition(np.array([0, 0, 1, 1]), 2)
    # more estimated clusters than reference: padded reference clusters
    # absorb the extras; agreement with the exhaustive oracle is exact
    est = sp.Partition(np.array([0, 1, 2, 3]), 4)
    report = sp.clustering_error(est, truth)
    assert report.error == exhaustive_bottleneck(est, truth)
    # fewer estimated clusters: one reference cluster is necessarily missed
    est2 = sp.Partition(np.array([0, 0, 0, 0]), 1)
    report2 = sp.clustering_error(est2, truth)
    assert report2.error == pytest.approx(exhaustive_bottleneck(est2, truth))
    assert report2.misclassified_fraction == 0.5


def test_error_symmetric_under_node_permutation(rng):
    n = 30
    est, truth = random_partition_pair(rng, n, 3, 3)
    perm = rng.permutation(n)
    est_p = sp.Partition(est.labels[perm], 3)
    truth_p = sp.Partition(truth.labels[perm], 3)
    assert sp.clustering_error(est, truth).error == sp.clustering_error(est_p, truth_p).error


def test_nmi_identical_and_independent(rng):
    truth = sp.Partition(np.array([0, 0, 1, 1, 2, 2]), 3)
    assert sp.nmi(truth, truth) == 1.0
    n = 10_000
    a = sp.Partition(rng.integers(0, 4, size=n), 4)
    b = sp.Partition(rng.integers(0, 4, size=n), 4)
    assert abs(sp.nmi(a, b)) < 0.01


def test_nmi_degenerate_cases():
    flat = sp.Partition(np.zeros(6, dtype=int), 1)
    halves = sp.Partition(np.repeat([0, 1], 3), 2)
    assert sp.nmi(flat, halves) == 0.0
    assert sp.nmi(flat, flat) == 1.0


def test_nmi_label_permutation_invariance(rng):
    a = sp.Partition(rng.integers(0, 3, size=50), 3)
    b = sp.Partition(rng.integers(0, 3, size=50), 3)
    relabel = np.array([2, 0, 1])
    a2 = sp.Partition(relabel[a.labels], 3)
    assert sp.nmi(a, b) == pytest.approx(sp.nmi(a2, b), abs=1e-12)


def test_modularity_single_cluster_zero():
    g = complete_graph(6)
    part = sp.Partition(np.zeros(6, dtype=int), 1)
    assert modularity(g, part) == pytest.approx(0.0, abs=1e-15)


def test_modularity_two_cliques():
    g = two_cliques(5)
    part = sp.Partition(np.repeat([0, 1], 5), 2)
    assert modularity(g, part) == pytest.approx(0.5)


def test_modularity_upper_bound(rng):
    model = sp.BlockModel.from_sizes([20, 20], [[0.5, 0.1], [0.1, 0.5]])
    g = sp.sample(model, 0)
    for _ in range(10):
        k = int(rng.integers(1, 6))
        labels = rng.integers(0, k, size=g.n)
        part = sp.Partition(labels, k)
        q = modularity(g, part)
        d_k = np.bincount(labels, weights=g.degrees, minlength=k)
        k_pos = int((d_k > 0).sum())
        assert q <= 1 - 1.0 / k_pos + 1e-12


def _edge_block_counts(g, labels, k):
    """Block counts from the edge list, as first written: the oracle for
    the CSR count."""
    pairs = labels[g.edges[:, 0]] * k + labels[g.edges[:, 1]]
    counts = np.bincount(pairs, minlength=k * k).reshape(k, k)
    return (counts + counts.T).astype(np.float64)


def _edge_modularity(g, part):
    """Modularity from the edge list, as first written: the oracle."""
    m = g.num_edges
    labels = part.labels
    intra = labels[g.edges[:, 0]] == labels[g.edges[:, 1]]
    e_k = np.bincount(labels[g.edges[:, 0]][intra], minlength=part.k)
    d_k = np.bincount(labels, weights=g.degrees, minlength=part.k)
    return float((e_k / m).sum() - ((d_k / (2 * m)) ** 2).sum())


def test_block_counts_and_modularity_equal_the_edge_formulas(rng):
    base = two_block_benchmark_model(600)
    hubs = sp.DegreeCorrectedModel(base=base, theta=np.tile(np.geomspace(0.1, 4.0, 300), 2))
    graphs = [sp.sample(base, 1), sp.sample(hubs, 2), two_cliques(5), path_graph(9), complete_graph(7)]
    for g in graphs:
        for trial in range(12):
            k = int(rng.integers(1, 6))
            labels = rng.integers(0, k, size=g.n)
            if trial == 0:
                # one node alone in the last cluster: a cluster with no intra edge
                k = 3
                labels = rng.integers(0, 2, size=g.n)
                labels[int(rng.integers(g.n))] = 2
            part = sp.Partition(labels, k)
            want = _edge_block_counts(g, part.labels, k)
            got = block_counts(g, part.labels, k)
            assert got.dtype == np.float64 and np.array_equal(got, want)
            if np.all(np.bincount(labels, minlength=k) > 0):
                assert np.array_equal(estimate_block_matrix(g, part)[1], want)
            assert modularity(g, part) == _edge_modularity(g, part)


def test_modularity_empty_graph_error():
    g = build_graph(3, np.empty((0, 2), dtype=int))
    with pytest.raises(sp.SpeclusterError):
        modularity(g, sp.Partition(np.zeros(3, dtype=int), 1))


def test_empty_truth_cluster_rejected():
    truth = sp.Partition(np.array([0, 0, 2, 2]), 3)  # cluster 1 empty
    est = sp.Partition(np.array([0, 0, 1, 1]), 2)
    with pytest.raises(sp.EmptyClusterError, match="cluster 1"):
        sp.clustering_error(est, truth)


# scipy subpackages that specluster does without: scipy.optimize pulls in
# the next three (~17 MB of RSS and ~0.2 s of start-up), and the last three
# (~11 MB) served the eigensolve, the norm's tridiagonal and the matchings;
# none of them is needed to import specluster or to score a scan
_HEAVY_SCIPY = (
    "scipy.optimize",
    "scipy.special",
    "scipy.spatial",
    "scipy.fft",
    "scipy.linalg",
    "scipy.sparse.linalg",
    "scipy.sparse.csgraph",
)


def test_import_and_scored_scan_leave_heavy_scipy_unloaded():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import specluster as sp\n"
        "import specluster.cli\n"
        "model = sp.BlockModel.from_sizes([300, 300], [[0.05, 0.01], [0.01, 0.04]])\n"
        "g = sp.sample(model, seed=0)\n"
        "truth = sp.Partition(model.membership, 2)\n"
        "scan = sp.tau_scan(g, 2, np.geomspace(1, g.n, 4),\n"
        "                   criteria=('dkest', 'gn', 'oracle'), truth=truth)\n"
        "assert not np.isnan([r.misclassified_fraction for r in scan.records]).any()\n"
        f"print(sorted(m for m in {_HEAVY_SCIPY!r} if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(sp.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
