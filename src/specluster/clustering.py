"""K-means on spectral embeddings and the full clustering pipeline."""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SpeclusterError
from .spectral import RegularizedLaplacian, top_eigenpairs
from .util import seed_sequence


@dataclass(frozen=True)
class Partition:
    """Cluster labels per node.  Label -1 marks a node without ground truth
    (allowed only when the partition is used as a reference)."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.size and labels.max() >= self.k:
            raise SpeclusterError("label out of range")
        if labels.size and labels.min() < -1:
            raise SpeclusterError("labels must be >= -1")

    @property
    def n(self):
        return self.labels.size

    @classmethod
    def from_labels(cls, labels, k=None):
        labels = np.asarray(labels, dtype=np.int64)
        if k is None:
            k = int(labels.max()) + 1
        return cls(labels=labels, k=k)


def load_partition(path, n=None):
    """Partition file: one integer label per line, line i = cluster of node i."""
    labels = np.loadtxt(path, dtype=np.int64, ndmin=1)
    if n is not None and labels.size != n:
        raise SpeclusterError(f"partition has {labels.size} labels, expected {n}")
    return Partition.from_labels(labels)


def save_partition(part, path):
    with open(path, "w") as fh:
        fh.write(("%d\n" * part.n) % tuple(part.labels.tolist()))


def kmeans_objective(points, labels, k):
    """Sum of squared distances to the assigned cluster means."""
    x = np.asarray(points, dtype=np.float64)
    total = 0.0
    for c in range(k):
        member = x[labels == c]
        if member.size:
            total += float(((member - member.mean(axis=0)) ** 2).sum())
    return total


def _kmeanspp_init(x, k, rng):
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[c] = x[idx]
        d2 = np.minimum(d2, ((x - centers[c]) ** 2).sum(axis=1))
    return centers


def _assign(xt, xx, centers):
    """Nearest center of every point and its squared distance.

    xt holds the points as columns and xx their squared norms.  Distances
    form one (K, n) array; a running minimum with strict < sends ties to the
    lowest center index, as argmin does.
    """
    # |x|^2 - 2 c.x + |c|^2 built in place: IEEE addition commutes and
    # negation is exact, so each entry equals that expression bitwise
    d2 = centers @ xt
    d2 *= -2.0
    d2 += xx
    d2 += (centers * centers).sum(axis=1)[:, None]
    np.maximum(d2, 0.0, out=d2)
    labels = np.zeros(xt.shape[1], dtype=np.int64)
    assigned = d2[0].copy()
    for c in range(1, centers.shape[0]):
        np.putmask(labels, d2[c] < assigned, c)
        np.minimum(assigned, d2[c], out=assigned)
    return labels, assigned


def _lloyd(x, xt, xx, k, rng, max_iter):
    centers = _kmeanspp_init(x, k, rng)
    prev_labels = None
    prev_obj = np.inf
    labels = np.zeros(xt.shape[1], dtype=np.int64)
    for _ in range(max_iter):
        labels, assigned = _assign(xt, xx, centers)
        counts = np.bincount(labels, minlength=k)
        if np.any(counts == 0):
            # reseed each empty center at the point farthest from its own center
            for c in np.flatnonzero(counts == 0):
                cand = int(np.argmax(assigned))
                labels[cand] = c
                assigned[cand] = -np.inf
            counts = np.bincount(labels, minlength=k)
            # the repaired labels have no assignment objective to descend from
            obj = np.inf
        else:
            # objective of the new labels against the centers they were
            # assigned to: Lloyd never increases it
            obj = float(assigned.sum())
            if obj > prev_obj + 1e-9 * max(1.0, prev_obj):
                raise ConvergenceError(
                    f"k-means objective increased across a Lloyd iteration ({prev_obj!r} -> {obj!r})"
                )
        centers = np.stack([np.bincount(labels, weights=col, minlength=k) for col in xt], axis=1)
        centers /= counts[:, None]
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        prev_labels = labels
        prev_obj = obj
    return labels, kmeans_objective(x, labels, k)


def kmeans(points, k, restarts=20, max_iter=100, seed=0):
    """Best-of-restarts Lloyd iteration with k-means++ seeding.

    Deterministic given seed; ties between restarts resolve to the lowest
    restart index.  Returns the partition and its objective value.  Points
    must be finite.
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if n < k:
        raise SpeclusterError(f"cannot form {k} clusters from {n} points")
    if not np.isfinite(x).all():
        raise SpeclusterError("k-means points must be finite")
    xt = np.ascontiguousarray(x.T)
    xx = (x * x).sum(axis=1)
    children = seed_sequence(seed).spawn(restarts)
    best_labels = None
    best_obj = np.inf
    for r in range(restarts):
        rng = np.random.default_rng(children[r])
        labels, obj = _lloyd(x, xt, xx, k, rng, max_iter)
        if obj < best_obj:
            best_obj = obj
            best_labels = labels
    return Partition(labels=best_labels, k=k), float(best_obj)


def regularized_spectral_clustering(g, k, tau, seed=0):
    """Cluster a graph: top-K eigenvectors of the regularized Laplacian,
    then K-means on the embedding rows (no row normalization)."""
    op = RegularizedLaplacian(g, tau)
    s_eig, s_km = seed_sequence(seed).spawn(2)
    basis = top_eigenpairs(op, k, seed=s_eig)
    part, _ = kmeans(basis.vectors, k, seed=s_km)
    return part


def center_separation_margin(points, centers, block_sizes):
    """Smallest separation multiplier delta for the center-separation bound.

    points are embedding rows grouped by cluster, in the order given by
    block_sizes; centers holds the K distinct cluster centers as rows.  For
    each pair (k, l) computes sqrt(K) * ||X - M|| * (1/sqrt(n_k) +
    1/sqrt(n_l)) / ||m_k - m_l|| and returns the maximum; near-optimal
    K-means then misclassifies at most O(delta^2) of the nodes.  Coincident
    centers give infinity.
    """
    x = np.asarray(points, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    sizes = np.asarray(block_sizes, dtype=np.int64)
    k = centers.shape[0]
    if sizes.size != k or sizes.sum() != x.shape[0]:
        raise SpeclusterError("block sizes do not match the points")
    m = np.repeat(centers, sizes, axis=0)
    pert = np.linalg.svd(x - m, compute_uv=False)[0] if x.size else 0.0
    worst = 0.0
    for a in range(k):
        for b in range(a + 1, k):
            sep = np.linalg.norm(centers[a] - centers[b])
            if sep < 1e-300:
                return np.inf
            factor = 1.0 / np.sqrt(sizes[a]) + 1.0 / np.sqrt(sizes[b])
            worst = max(worst, np.sqrt(k) * pert * factor / sep)
    return float(worst)
