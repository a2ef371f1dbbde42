"""K-means on spectral embeddings and the full clustering pipeline."""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SpeclusterError
from .spectral import RegularizedLaplacian, top_eigenpairs
from .util import data_lines, seed_sequence

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


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


def load_partition(path):
    """Partition file: one integer label per line, line i = cluster of node i.

    Text after '#' is a comment.  A line that is not an integer label, or
    whose label is outside int64, raises a SpeclusterError naming the line;
    a file with no label raises one naming the file.  The partition covers
    as many nodes as the file has labels: a caller with a graph of its own
    loads the partition first and gives its n to load_edge_list as n_hint,
    so a graph whose last nodes have no edge keeps them.
    """
    labels = []
    for lineno, field in data_lines(path):
        try:
            label = int(field)
        except ValueError:
            raise SpeclusterError(f"{path}:{lineno}: not an integer label: {field!r}") from None
        if not _INT64_MIN <= label <= _INT64_MAX:
            raise SpeclusterError(f"{path}:{lineno}: label outside int64: {field!r}")
        labels.append(label)
    if not labels:
        raise SpeclusterError(f"{path}: no labels")
    labels = np.array(labels, dtype=np.int64)
    return Partition(labels, int(labels.max()) + 1)


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


def _weighted_index(rng, p):
    """One index drawn with probabilities p: what rng.choice(p.size, p=p)
    computes (the same index and generator state), without its two
    validation passes over p."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeanspp_init(x, k, rng):
    """k-means++ seeding: k rows of x, each drawn with probability
    proportional to its squared distance to the nearest row drawn so far.

    Distances are summed over the coordinates of one contiguous copy of
    x.T, one coordinate after the other.  For d <= 7 that is the order of
    numpy's row sum, so they are bitwise equal to it; from d = 8 numpy sums
    rows pairwise and the two can differ in the last bits.
    """
    n = x.shape[0]
    xt = np.ascontiguousarray(x.T)
    centers = np.empty((k, x.shape[1]))

    def sqdist(c):
        diff = xt - c[:, None]
        np.square(diff, out=diff)
        return diff.sum(axis=0)

    centers[0] = x[rng.integers(n)]
    d2 = sqdist(centers[0])
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = _weighted_index(rng, d2 / total)
        centers[c] = x[idx]
        if c < k - 1:  # nothing reads the distances after the last center
            np.minimum(d2, sqdist(centers[c]), out=d2)
    return centers


def _assign(xt, centers):
    """Nearest center of every point, and e_min, its |c|^2 - 2 c.x.

    xt holds the points as columns.  e = |c|^2 - 2 c.x forms one (K, n)
    array; it differs from the squared distance by |x|^2 alone, so adding
    |x|^2 (or clamping the sum at 0) would change no nearest center in
    exact arithmetic, and a label can differ from the argmin of the
    computed distances only for a point within rounding of two centers.  A
    running minimum with strict < sends ties to the lowest center index,
    as argmin does; its first step is one comparison of two rows.  Labels
    are in the narrowest unsigned type that holds K - 1: one byte per
    point up to K = 256, where they are that comparison's bools.
    """
    k = centers.shape[0]
    # scaling by -2 is exact, so each entry equals -2 c.x + |c|^2 bitwise
    e = (centers * -2.0) @ xt
    e += (centers * centers).sum(axis=1)[:, None]
    if k == 1:
        return np.zeros(xt.shape[1], dtype=np.uint8), e[0]
    closer = e[1] < e[0]
    dtype = np.min_scalar_type(k - 1)
    labels = closer.view(np.uint8) if dtype == np.uint8 else closer.astype(dtype)
    e_min = np.minimum(e[0], e[1])
    for c in range(2, k):
        # every label so far is below c: the maximum sets c exactly where
        # center c is strictly closer, a cheaper putmask
        np.maximum(labels, (e[c] < e_min) * labels.dtype.type(c), out=labels)
        np.minimum(e_min, e[c], out=e_min)
    return labels, e_min


def _label_key(labels, k):
    """labels as bytes, for exact comparison: packed bits that name a K = 2
    labeling and its complement alike, else the labels themselves (one
    byte per node up to K = 256, see _assign)."""
    if k == 2:
        return np.packbits(labels != labels[0]).tobytes()
    return labels.tobytes()


def _lloyd(x, xt, xx, k, rng, max_iter, seen):
    """One k-means++-seeded Lloyd run.

    Returns the final labels, in _assign's narrow type, and a bound: the
    step objective sum(e_min) + sum(|x|^2) (the summed squared distances
    to the nearest centers) of the step at which no point moved, or -inf
    when the run stopped at max_iter, repaired an empty cluster at its last
    step or met a non-finite distance.  A finite bound is the objective of
    the labels up to rounding, since that step's centers are their means.
    The descent check compares the same step objective across steps.

    seen is shared by the runs of one kmeans call.  It maps the labels
    (_label_key) of every step without an empty cluster of each earlier
    run that ended at a fixed point with a finite bound, directly or by the
    merge below, to the number of steps left from there to that end.  A
    run whose labels, after the step's descent check, equal such an entry
    stops and returns labels None, provided step + steps left < max_iter,
    so that it too would have converged within max_iter: from equal labels
    it can only retrace the earlier run, up to the rounding noted below, to
    the same final labels (their complement for K = 2).  Steps that
    repaired an empty cluster are not keyed, since the repair depends on
    the centers, not only on the labels.

    The per-cluster counts and coordinate sums change only by the points
    that moved; they are recomputed in full on the first step and after an
    empty-cluster repair.  Centers from updated sums can differ from
    recomputed ones in the last bits, which moves a label only for a point
    within rounding of two centers.
    """
    centers = _kmeanspp_init(x, k, rng)
    d = x.shape[1]
    sum_xx = float(xx.sum())
    prev_labels = None
    prev_obj = np.inf
    path = []  # (step, key) of every keyed step
    for step in range(max_iter):
        labels, e_min = _assign(xt, centers)
        full = prev_labels is None
        if full:
            counts = np.bincount(labels, minlength=k)
        else:
            moved = np.nonzero(labels != prev_labels)[0]
            gained, lost = labels[moved], prev_labels[moved]
            counts += np.bincount(gained, minlength=k) - np.bincount(lost, minlength=k)
        if not counts.all():
            # reseed each empty center at the point farthest from its own
            # center, by the squared distances e_min + |x|^2 clamped at 0
            assigned = np.maximum(e_min + xx, 0.0)
            for c in np.flatnonzero(counts == 0):
                cand = int(np.argmax(assigned))
                labels[cand] = c
                assigned[cand] = -np.inf
            if prev_labels is not None and np.array_equal(labels, prev_labels):
                return labels, -np.inf  # converged, but repaired: no bound
            counts = np.bincount(labels, minlength=k)
            full = True
            # the repaired labels have no assignment objective to descend from
            obj = np.inf
        else:
            # objective of the new labels against the centers they were
            # assigned to: Lloyd never increases it
            obj = float(e_min.sum()) + sum_xx
            if obj > prev_obj + 1e-9 * max(1.0, prev_obj):
                raise ConvergenceError(
                    f"k-means objective increased across a Lloyd iteration ({prev_obj!r} -> {obj!r})"
                )
            if not full and not moved.size:
                if not np.isfinite(obj):
                    return labels, -np.inf
                seen.update((lab, step - i) for i, lab in path)
                return labels, obj
            key = _label_key(labels, k)
            left = seen.get(key)
            if left is not None and step + left < max_iter:
                # this run would end where the earlier one did, step + left
                seen.update((lab, step + left - i) for i, lab in path)
                return None, -np.inf
            path.append((step, key))
        if full:
            sums = np.stack([np.bincount(labels, weights=col, minlength=k) for col in xt], axis=1)
        else:
            # one 1-D ufunc.at on the flat (K, d) sums: every sum gets the
            # lost points' coordinates subtracted, then the gained points'
            # added, each in the order of moved.  Indices are intp, since
            # ufunc.at is much slower on narrow ones, and numpy's 2-D
            # ufunc.at is several times slower still.
            owners = np.concatenate([lost, gained]).astype(np.intp)
            cells = (owners[:, None] * d + np.arange(d)).ravel()
            moved_x = x[moved]
            np.add.at(sums.reshape(-1), cells, np.concatenate([-moved_x, moved_x]).ravel())
        centers = sums / counts[:, None]
        prev_labels = labels
        prev_obj = obj
    return labels, -np.inf


def kmeans(points, k, restarts=20, max_iter=100, seed=0):
    """Best-of-restarts Lloyd iteration with k-means++ seeding.

    Deterministic given seed; ties between restarts resolve to the lowest
    restart index.  Returns the partition and its objective value.  points
    is an (n, d) array of finite values; k, restarts and max_iter must be
    at least 1.

    Each Lloyd step finds the nearest centers from |c|^2 - 2 c.x alone,
    with labels in one byte per point up to K = 256 (see _assign), and
    updates the cluster sums from the points that moved only (see _lloyd).
    The labels are widened to int64 once, for the returned partition.  A
    restart stops as soon as its labels equal labels that an earlier
    converged restart passed through, if it would converge within
    max_iter; from there it could only retrace that restart to the
    same final labels, which were already scored or excluded, and equal
    labels have a bitwise-equal kmeans_objective, which cannot win under
    strict <.  For K = 2 the labels are matched up to complement:
    kmeans_objective adds the same two per-cluster terms in the other
    order, a bitwise-equal sum.  For K >= 3 they are not matched up to a
    permutation: kmeans_objective adds the per-cluster terms in cluster
    order, so a permuted labeling can differ in the last bits and win.

    The exact objective (kmeans_objective) is not computed for a restart
    that converged with a step objective sum(e_min) + sum(|x|^2) (see
    _lloyd) more than 1e-10 * sum(|x|^2) above the best objective, which
    cannot win.  Each e_min entry carries a rounding error of about
    (d + 1) u (|x|^2 + 2 |c|^2), u the unit roundoff, and the two sums add
    about log2(n) u times the sum of their terms' magnitudes each.  At the
    converged step the centers are the means of their clusters, so
    sum(|c|^2) over the points is at most sum(|x|^2), and the whole error
    is at most about 3 (d + 2 + 2 log2 n) u sum(|x|^2): orders of magnitude
    inside that margin.  Every other restart is scored.
    """
    for name, value in (("k", k), ("restarts", restarts), ("max_iter", max_iter)):
        if value < 1:
            raise SpeclusterError(f"k-means needs {name} >= 1, got {value}")
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    if n < k:
        raise SpeclusterError(f"cannot form {k} clusters from {n} points")
    if not np.isfinite(x).all():
        raise SpeclusterError("k-means points must be finite")
    xt = np.ascontiguousarray(x.T)
    xx = (x * x).sum(axis=1)
    margin = 1e-10 * float(xx.sum())
    children = seed_sequence(seed).spawn(restarts)
    seen = {}
    best_labels = None
    best_obj = np.inf
    for r in range(restarts):
        rng = np.random.default_rng(children[r])
        labels, bound = _lloyd(x, xt, xx, k, rng, max_iter, seen)
        if labels is None:
            continue  # retraced an earlier restart
        if bound > best_obj + margin:
            continue  # cannot win
        obj = kmeans_objective(x, labels, k)
        if obj < best_obj:
            best_obj = obj
            best_labels = labels
    return Partition(labels=best_labels.astype(np.int64), k=k), float(best_obj)


def regularized_spectral_clustering(g, k, tau, seed=0, start=None):
    """Cluster a graph: top-K eigenvectors of the regularized Laplacian,
    then K-means on the embedding rows (no row normalization).

    Labels are canonical: clusters are numbered in order of their first
    node, so node 0 is in cluster 0.  start, an n-vector or None, is
    passed to top_eigenpairs to warm-start the eigensolve (tau_scan
    anchors every point but its pivot); the partition depends on it only
    through the eigenvectors' last digits.
    """
    op = RegularizedLaplacian(g, tau)
    s_eig, s_km = seed_sequence(seed).spawn(2)
    basis = top_eigenpairs(op, k, seed=s_eig, start=start)
    part, _ = kmeans(basis.vectors, k, seed=s_km)
    return Partition(labels=_first_appearance_order(part.labels, k), k=k)


def _first_appearance_order(labels, k):
    """labels renumbered so clusters count up in order of their first node."""
    values, first = np.unique(labels, return_index=True)
    rank = np.empty(k, dtype=np.int64)
    rank[values[np.argsort(first)]] = np.arange(values.size)
    return rank[labels]
