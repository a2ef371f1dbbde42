"""Clustering quality measures: worst-cluster error, NMI, modularity."""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import maximum_bipartite_matching, min_weight_full_bipartite_matching

from .errors import EmptyClusterError, SpeclusterError


@dataclass(frozen=True)
class ErrorReport:
    """Worst-cluster error plus the best-matching misclassified fraction.

    error is the minimum over label permutations of the largest per-cluster
    normalized symmetric difference |C_k ^ T_pi(k)| / n_k.  permutation maps
    reference cluster k to estimated cluster permutation[k] at the optimum.
    misclassified_fraction is the share of reference-labeled nodes on the
    wrong side under the agreement-maximizing matching.
    """

    error: float
    permutation: tuple
    misclassified_fraction: float


def _contingency(est, truth):
    if est.n != truth.n:
        raise SpeclusterError("partitions cover different node counts")
    mask = truth.labels >= 0
    if not np.any(mask):
        raise SpeclusterError("reference partition labels no nodes")
    cells = truth.labels[mask] * est.k + est.labels[mask]
    o = np.bincount(cells, minlength=truth.k * est.k).reshape(truth.k, est.k)
    return o, mask


def _bottleneck_cost(o, truth_sizes, est_sizes):
    k = max(o.shape)
    cost = np.zeros((k, k))
    nk = np.zeros(k, dtype=np.int64)
    nk[: truth_sizes.size] = truth_sizes
    tj = np.zeros(k, dtype=np.int64)
    tj[: est_sizes.size] = est_sizes
    overlap = np.zeros((k, k), dtype=np.int64)
    overlap[: o.shape[0], : o.shape[1]] = o
    for a in range(k):
        for b in range(k):
            if nk[a] > 0:
                cost[a, b] = (nk[a] + tj[b] - 2 * overlap[a, b]) / nk[a]
            else:
                cost[a, b] = 0.0 if tj[b] == 0 else np.inf
    return cost


def _square_csr(data, indices, row_counts):
    """k x k CSR from its column indices in row-major order and the number
    of entries per row, without scanning a dense matrix for nonzeros."""
    k = row_counts.size
    indptr = np.zeros(k + 1, dtype=np.int32)
    np.cumsum(row_counts, out=indptr[1:])
    return sparse.csr_array((data, indices.astype(np.int32), indptr), shape=(k, k))


def _perfect_matching(mask):
    cols = np.nonzero(mask)[1]
    graph = _square_csr(np.ones(cols.size), cols, np.count_nonzero(mask, axis=1))
    match = maximum_bipartite_matching(graph, perm_type="column")
    if np.all(match >= 0):
        return match
    return None


def _minimize_matching(cost):
    """Bottleneck assignment: binary search over thresholds plus bipartite
    feasibility."""
    finite = np.unique(cost[np.isfinite(cost)])
    lo, hi = 0, finite.size - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        match = _perfect_matching(cost <= finite[mid])
        if match is not None:
            best = (finite[mid], match)
            hi = mid - 1
        else:
            lo = mid + 1
    if best is None:
        return np.inf, tuple(range(cost.shape[0]))
    return float(best[0]), tuple(int(v) for v in best[1])


def clustering_error(est, truth):
    """Worst-cluster clustering error between an estimate and a reference.

    The reference may label only a subset of nodes (label -1 elsewhere);
    unlabeled nodes count against an estimated cluster only as intruders.
    A size mismatch in cluster counts is handled by padding the smaller
    side with empty clusters.  The permutation search is exact.

    The misclassified share comes from the agreement-maximizing matching,
    solved exactly by csgraph's LAPJVsp (min_weight_full_bipartite_matching)
    on agree + 1.  csgraph reads a zero entry as a missing edge, so the
    + 1 keeps every pair of clusters an edge; it adds k to every full
    matching, so the optimal matching and its integer agreement are those
    of agree itself.
    """
    o, mask = _contingency(est, truth)
    truth_sizes = np.bincount(truth.labels[mask], minlength=truth.k)
    if np.any(truth_sizes == 0):
        raise EmptyClusterError(
            f"reference cluster {int(np.flatnonzero(truth_sizes == 0)[0])} is empty"
        )
    est_sizes = np.bincount(est.labels, minlength=est.k)  # intruders may be unlabeled
    cost = _bottleneck_cost(o, truth_sizes, est_sizes)
    error, perm = _minimize_matching(cost)

    # agreement-maximizing (sum) matching for the plain misclassified share
    k = cost.shape[0]
    agree = np.zeros((k, k), dtype=np.int64)
    agree[: o.shape[0], : o.shape[1]] = o
    weights = _square_csr(
        (agree + 1).ravel().astype(np.float64), np.tile(np.arange(k), k), np.full(k, k)
    )
    rows, cols = min_weight_full_bipartite_matching(weights, maximize=True)
    labeled = int(truth_sizes.sum())
    frac = 1.0 - agree[rows, cols].sum() / labeled
    return ErrorReport(
        error=float(error), permutation=tuple(perm), misclassified_fraction=float(frac)
    )


def nmi(est, truth):
    """Normalized mutual information with arithmetic-mean normalization.

    Natural-log entropies; 1 when both partitions are identical up to
    relabeling (including the degenerate one-cluster-vs-one-cluster case),
    near 0 for independent labelings.  Reference labels of -1 restrict the
    comparison to the labeled nodes.
    """
    o, _ = _contingency(est, truth)
    total = o.sum()
    p = o / total
    pi = p.sum(axis=1)
    pj = p.sum(axis=0)
    nz = p > 0
    mi = float((p[nz] * np.log(p[nz] / np.outer(pi, pj)[nz])).sum())
    h_truth = -float((pi[pi > 0] * np.log(pi[pi > 0])).sum())
    h_est = -float((pj[pj > 0] * np.log(pj[pj > 0])).sum())
    denom = (h_truth + h_est) / 2
    if denom <= 0:
        return 1.0
    return float(np.clip(mi / denom, 0.0, 1.0))


def block_counts(g, labels, k):
    """(k, k) float64 counts of adjacency entries between clusters.

    Entry (a, b) counts the stored entries from a node labelled a to one
    labelled b: the edges between a and b when a != b, and twice the edges
    inside a on the diagonal.  It is Z' A Z for the one-hot labels Z, whose
    sums are integers below 2**53, so they are exact.
    """
    onehot = np.zeros((labels.size, k))
    onehot[np.arange(labels.size), labels] = 1.0
    return onehot.T @ (g.adjacency @ onehot)


def modularity(g, part):
    """Girvan-Newman modularity sum_k [ e_k/m - (d_k / 2m)^2 ]."""
    m = g.num_edges
    if m < 1:
        raise SpeclusterError("modularity needs at least one edge")
    labels = part.labels
    d_k = np.bincount(labels, weights=g.degrees, minlength=part.k)
    e_k = np.diag(block_counts(g, labels, part.k)) / 2
    return float((e_k / m).sum() - ((d_k / (2 * m)) ** 2).sum())
