"""Clustering quality measures: worst-cluster error, NMI, modularity."""

from dataclasses import dataclass

import numpy as np

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


def _has_permutation(allowed):
    """Whether the square boolean matrix allowed holds a permutation in its
    True cells, i.e. its bipartite graph has a perfect matching (Kuhn's
    augmenting paths)."""
    options = [np.flatnonzero(row).tolist() for row in allowed]
    holder = [-1] * len(options)  # the row each column is matched to

    def augment(row, seen):
        for col in options[row]:
            if col not in seen:
                seen.add(col)
                if holder[col] < 0 or augment(holder[col], seen):
                    holder[col] = row
                    return True
        return False

    return all(augment(row, set()) for row in range(len(options)))


def _first_permutation(allowed):
    """The lexicographically first permutation p with allowed[a, p[a]] for
    every row a; allowed must hold one.  Row by row, the least free column
    whose choice leaves the later rows a permutation of the free columns."""
    free = np.ones(allowed.shape[1], dtype=bool)
    perm = []
    for row in range(allowed.shape[0]):
        for col in np.flatnonzero(allowed[row] & free):
            free[col] = False
            if _has_permutation(allowed[row + 1 :][:, free]):
                perm.append(int(col))
                break
            free[col] = True
    return tuple(perm)


def _minimize_matching(cost):
    """Bottleneck assignment: the least threshold t whose cells cost <= t
    hold a permutation (binary search over the distinct finite costs, each
    probe a perfect-matching test), and the lexicographically first
    permutation inside those cells, so ties between optimal permutations
    go to the one that sends the lowest rows to the lowest columns.  With
    no finite permutation the error is inf and the identity is returned."""
    finite = np.unique(cost[np.isfinite(cost)])
    lo, hi = 0, finite.size - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        if _has_permutation(cost <= finite[mid]):
            best, hi = finite[mid], mid - 1
        else:
            lo = mid + 1
    if best is None:
        return np.inf, tuple(range(cost.shape[0]))
    return float(best), _first_permutation(cost <= best)


def _max_agreement(agree):
    """The largest sum of agree[a, p[a]] over permutations p of the square
    integer matrix agree: the Hungarian method (Kuhn 1955) in its
    shortest-augmenting-path form, adding one row at a time with dual
    potentials u (rows) and v (columns) on the cost -agree.  Every
    quantity is an integer below 2**53, so float64 keeps it exact."""
    k = agree.shape[0]
    cost = -agree.astype(np.float64)
    u, v = np.zeros(k + 1), np.zeros(k + 1)  # index 0 is the free root
    owner = np.zeros(k + 1, dtype=np.int64)  # 1-based row of each 1-based column, 0 if free
    via = np.zeros(k + 1, dtype=np.int64)
    for row in range(1, k + 1):
        owner[0], col = row, 0
        slack = np.full(k + 1, np.inf)
        used = np.zeros(k + 1, dtype=bool)
        while owner[col]:
            used[col] = True
            r = owner[col]
            reduced = cost[r - 1] - u[r] - v[1:]
            closer = ~used[1:] & (reduced < slack[1:])
            slack[1:][closer] = reduced[closer]
            via[1:][closer] = col
            nxt = 1 + int(np.argmin(np.where(used[1:], np.inf, slack[1:])))
            delta = slack[nxt]
            u[owner[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
            col = nxt
        while col:
            prev = via[col]
            owner[col] = owner[prev]
            col = prev
    return int(agree[owner[1:] - 1, np.arange(k)].sum())


def clustering_error(est, truth):
    """Worst-cluster clustering error between an estimate and a reference.

    The reference may label only a subset of nodes (label -1 elsewhere);
    unlabeled nodes count against an estimated cluster only as intruders.
    A size mismatch in cluster counts is handled by padding the smaller
    side with empty clusters.  The permutation search is exact.

    Among permutations with the least error, the lexicographically first
    is returned.  The misclassified share comes from the
    agreement-maximizing matching, solved exactly by the Hungarian method
    on the integer contingency table.
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
    frac = 1.0 - _max_agreement(agree) / int(truth_sizes.sum())
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
