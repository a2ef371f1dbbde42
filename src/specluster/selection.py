"""Data-driven choice of the regularization parameter.

For each tau on a grid the graph is clustered, a population Laplacian is
rebuilt from the fitted clusters, and the ratio

    ||L_tau - Lhat_tau|| / mu_K(Lhat_tau)

is recorded (the DKest statistic, an estimate of the eigenvector
perturbation bound).  The tau minimizing the statistic is selected;
modularity-maximizing and oracle (NMI-maximizing) selectors are computed
on the same scan for comparison.

The rebuilt Laplacian is never formed densely: its action is evaluated
through the cluster structure and its nonzero spectrum through a small
dense reduction (K-by-K for the plain fit, (K+1+h)-by-(K+1+h) for the
degree-corrected fit with h hub nodes in clamped pairs).  The plain fit
is exactly the population Laplacian of the fitted BlockModel, so
blockmodel.PopulationLaplacian and blockmodel.eigen_gap serve it.  The
degree-corrected fit keeps its own operator: it normalizes by the sample
degrees, applies tau/n J as a rank-one term and clamps hub pairs whose
fitted probability exceeds 1, none of which a plain block operator does,
and sharing one class would make it branch on which fit it serves.  Its
clamps are held once, as one symmetric sparse matrix of excesses built
with the fit, which apply, mu_k and the Frobenius numerator all read.

The spectral numerator comes from spectral_norm_diff's Lanczos run, solved
to its residual estimate except at grid points where the same run shows,
early, that the point cannot be chosen.  mu_K never needs an eigensolver
unless a degree-corrected fit clamps pairs on so many hub nodes that its
reduction would exceed DENSE_FALLBACK columns; only then does it run the
checked Krylov eigensolver.
"""

import time
from dataclasses import astuple, dataclass, fields

import numpy as np
from scipy import sparse

from .blockmodel import BlockModel, PopulationLaplacian, eigen_gap
from .clustering import Partition, regularized_spectral_clustering
from .errors import DegenerateModelError, EmptyClusterError, SpeclusterError
from .metrics import block_counts, clustering_error, modularity, nmi
from .spectral import DENSE_FALLBACK, NORM_TOL, RegularizedLaplacian, StartVector, check_taus, spectral_norm_diff, top_eigenpairs
from .util import fmt, write_artifact_csv

CRITERIA = ("dkest", "gn", "oracle")
MODEL_KINDS = ("sbm", "dsbm")
NORM_KINDS = ("spectral", "frobenius")


def estimate_block_matrix(g, part):
    """Block probabilities fitted from a partition.

    Entry (k1, k2) is the ordered-pair edge proportion
    sum_{i in C_k1, j in C_k2} A_ij / (|C_k1| |C_k2|); diagonal blocks count
    each edge twice.  Also returns the raw ordered-pair counts, which the
    degree-corrected path consumes directly.
    """
    labels = part.labels
    k = part.k
    sizes = np.bincount(labels, minlength=k)
    if np.any(sizes == 0):
        raise EmptyClusterError(f"cluster {int(np.flatnonzero(sizes == 0)[0])} is empty")
    counts = block_counts(g, labels, k)
    bhat = counts / np.outer(sizes, sizes)
    return bhat, counts


def _clamped_pairs(labels, theta, counts, k):
    """Pairs whose fitted degree-corrected probability exceeds 1.

    Returns their excesses (probability minus 1) as a symmetric n-by-n CSR
    matrix, both orders of an off-diagonal pair and each clamped diagonal
    entry stored, or None when nothing is clamped.  Enumeration walks
    per-cluster theta in descending order so the cost is proportional to
    the output.
    """
    order = [np.flatnonzero(labels == blk) for blk in range(k)]
    sorted_ids = []
    sorted_theta = []
    for blk in range(k):
        ids = order[blk]
        by_theta = np.argsort(-theta[ids], kind="stable")
        sorted_ids.append(ids[by_theta])
        sorted_theta.append(theta[ids][by_theta])
    out_i, out_j, out_v = [], [], []
    for k1 in range(k):
        th1, id1 = sorted_theta[k1], sorted_ids[k1]
        for k2 in range(k1, k):
            b = counts[k1, k2]
            if b <= 0:
                continue
            th2, id2 = sorted_theta[k2], sorted_ids[k2]
            asc2 = th2[::-1]
            with np.errstate(divide="ignore"):
                needed = (1.0 / b) / th1
            cnt = th2.size - np.searchsorted(asc2, needed, side="right")
            keep = np.flatnonzero(cnt > 0)
            if keep.size == 0:
                continue
            reps = cnt[keep]
            rows = np.repeat(keep, reps)
            offsets = np.concatenate([[0], np.cumsum(reps)[:-1]])
            cols = np.arange(reps.sum()) - np.repeat(offsets, reps)
            vals = th1[rows] * th2[cols] * b
            ii = id1[rows]
            jj = id2[cols]
            if k1 == k2:
                sel = rows <= cols
                ii, jj, vals = ii[sel], jj[sel], vals[sel]
            out_i.append(ii)
            out_j.append(jj)
            out_v.append(vals - 1.0)
    if not out_i:
        return None
    ci, cj, excess = np.concatenate(out_i), np.concatenate(out_j), np.concatenate(out_v)
    off = ci != cj
    rows = np.concatenate([ci, cj[off]])
    cols = np.concatenate([cj, ci[off]])
    vals = np.concatenate([excess, excess[off]])
    return sparse.coo_array((vals, (rows, cols)), shape=(labels.size, labels.size)).tocsr()


class _EstimatedDSBMLaplacian:
    """Population regularized Laplacian of the fitted degree-corrected model.

    Per-node weights theta_i = d_i / (row sum of the fitted block counts)
    make the fitted probability matrix reproduce every observed degree
    exactly, so the sample degree matrix is reused as the normalizer.
    Entries pushed above 1 by hub pairs are clamped to 1; their excesses
    are held once, as the symmetric sparse matrix excess (None without
    clamps) built with the fit.  apply subtracts it, mu_k treats the nodes
    of its stored entries (the hubs) as extra columns of the factored
    reduction, and clamped_entries counts its pairs i <= j.
    """

    def __init__(self, g, part, counts, tau):
        labels = part.labels
        k = part.k
        d = g.degrees.astype(np.float64)
        row_counts = counts.sum(axis=1)
        per_node_rows = row_counts[labels]
        theta = np.divide(d, per_node_rows, out=np.zeros_like(d), where=per_node_rows > 0)
        self.n = g.n
        self.k = k
        self.labels = labels
        self.theta = theta
        self.counts = counts
        self.tau = float(tau)
        self.inv_sqrt_deg = 1.0 / np.sqrt(d + tau)
        self.shape = (g.n, g.n)
        self.excess = _clamped_pairs(labels, theta, counts, k)

    @property
    def clamped_entries(self):
        """Number of clamped pairs i <= j, the diagonal included."""
        return 0 if self.excess is None else sparse.triu(self.excess).nnz

    def fitted_probability(self, i, j):
        """Clamped fitted edge probability for node arrays i, j."""
        raw = self.theta[i] * self.theta[j] * self.counts[self.labels[i], self.labels[j]]
        return np.minimum(raw, 1.0)

    def apply(self, x):
        y = self.inv_sqrt_deg * x
        u = np.bincount(self.labels, weights=self.theta * y, minlength=self.k)
        v = (self.counts @ u)[self.labels]
        v *= self.theta
        v += (self.tau / self.n) * y.sum()
        if self.excess is not None:
            v -= self.excess @ y
        v *= self.inv_sqrt_deg
        return v

    def mu_k(self, seed=0):
        """K-th largest eigenvalue of the fitted Laplacian, zeros included.

        The fit factors as W G W' with W = diag(a) [theta-weighted block
        indicators | 1 | e_h for each hub h] (a = 1/sqrt(d + tau), the hubs
        being the nodes of clamped pairs) and G = blockdiag(counts, tau/n,
        -E_HH), E_HH the clamped excesses among the hubs.  Its nonzero
        eigenvalues are those of S^{1/2} G S^{1/2} with S = W'W, a
        (K+1+h)-dimensional problem solved densely.  Only when K+1+h
        exceeds DENSE_FALLBACK does the Krylov solver (top_eigenpairs,
        tol=1e-9, from seed) run instead.
        """
        excess = self.excess
        # the hubs are the rows with stored entries; excess is symmetric,
        # so they are also its column indices
        hubs = np.empty(0, dtype=np.intp) if excess is None else np.unique(excess.indices)
        k, h = self.k, hubs.size
        r = k + 1 + h
        if r > DENSE_FALLBACK:
            basis = top_eigenpairs(self, k, tol=1e-9, seed=seed)
            return float(basis.values[k - 1])
        a2 = self.inv_sqrt_deg**2
        s = np.zeros((r, r))
        diag = np.bincount(self.labels, weights=a2 * self.theta**2, minlength=k)
        cross = np.bincount(self.labels, weights=a2 * self.theta, minlength=k)
        s[np.diag_indices(k)] = diag
        s[:k, k] = cross
        s[k, :k] = cross
        s[k, k] = a2.sum()
        m = np.zeros_like(s)
        m[:k, :k] = self.counts
        m[k, k] = self.tau / self.n
        if h:
            cols = np.arange(k + 1, r)
            hub_a2, hub_blocks = a2[hubs], self.labels[hubs]
            s[hub_blocks, cols] = hub_a2 * self.theta[hubs]
            s[cols, hub_blocks] = s[hub_blocks, cols]
            s[k, cols] = hub_a2
            s[cols, k] = hub_a2
            s[cols, cols] = hub_a2
            # -E_HH: the CSR stores its entries row by row, hub after hub
            pi = np.repeat(cols, excess.indptr[hubs + 1] - excess.indptr[hubs])
            m[pi, k + 1 + np.searchsorted(hubs, excess.indices)] = -excess.data
        # the block columns a theta are tiny next to the all-a column, so
        # S's square root loses digits unless S has unit diagonal: use
        # D S D and D^{-1} G D^{-1} with D = diag(S)^{-1/2}, leaving a
        # zero diagonal entry (a cluster with theta = 0) unscaled
        scale = np.sqrt(np.diag(s))
        scale[scale == 0] = 1.0
        s /= np.outer(scale, scale)
        m *= np.outer(scale, scale)
        vals, vecs = np.linalg.eigh(s)
        root = vecs @ (np.sqrt(np.clip(vals, 0, None))[:, None] * vecs.T)
        eigs = np.linalg.eigvalsh(root @ m @ root)
        # W has rank at most K+1+h, so every other eigenvalue is zero
        return float(np.sort(np.append(eigs, 0.0))[::-1][k - 1])

    def to_dense(self):
        p = self.theta[:, None] * self.counts[self.labels][:, self.labels] * self.theta[None, :]
        np.minimum(p, 1.0, out=p)
        a = self.inv_sqrt_deg
        return a[:, None] * (p + self.tau / self.n) * a[None, :]


def _frobenius_sbm(sample_op, est):
    """Frobenius norm of (sample - fitted) Laplacian without densifying.

    The background (no-edge) part factors over cluster pairs; edges
    contribute an O(|E|) correction.
    """
    g = sample_op.graph
    a = sample_op.inv_sqrt_deg
    c = est.inv_sqrt_deg
    gmat = est.block_tau
    z = est.labels
    u = a * np.sqrt(sample_op.tau / g.n)
    s_u2 = float((u * u).sum())
    cross = np.bincount(z, weights=u * c, minlength=est.num_blocks)
    mass = np.bincount(z, weights=c * c, minlength=est.num_blocks)
    total = s_u2**2
    total -= 2.0 * float(cross @ gmat @ cross)
    total += float(mass @ (gmat * gmat) @ mass)
    e0, e1 = g.edges.T
    bg = u[e0] * u[e1] - c[e0] * c[e1] * gmat[z[e0], z[e1]]
    aa = a[e0] * a[e1]
    total += float((2.0 * (2.0 * bg * aa + aa * aa)).sum())
    return float(np.sqrt(max(total, 0.0)))


def _frobenius_dsbm(sample_op, est):
    g = sample_op.graph
    a = sample_op.inv_sqrt_deg  # the fitted side shares the sample normalizer
    z = est.labels
    w2 = a * a
    mass = np.bincount(z, weights=w2 * est.theta**2, minlength=est.k)
    total = float(mass @ (est.counts * est.counts) @ mass)
    if est.excess is not None:
        # each off-diagonal clamped pair is stored in both orders
        entries = est.excess.tocoo()
        p_raw = entries.data + 1.0
        total += float((w2[entries.row] * w2[entries.col] * (1.0 - p_raw**2)).sum())
    e0, e1 = g.edges.T
    aa = w2[e0] * w2[e1]
    p_e = est.fitted_probability(e0, e1)
    total += float((2.0 * aa * (1.0 - 2.0 * p_e)).sum())
    return float(np.sqrt(max(total, 0.0)))


def _check_kinds(model_kind, norm_kind):
    if model_kind not in MODEL_KINDS:
        raise SpeclusterError(f"unknown model kind {model_kind!r}")
    if norm_kind not in NORM_KINDS:
        raise SpeclusterError(f"unknown norm kind {norm_kind!r}")


def dkest_statistic(g, part, tau, model_kind="sbm", norm_kind="spectral", seed=0, above=None):
    """Estimated perturbation-to-gap ratio for a fitted partition at tau.

    The spectral numerator is spectral_norm_diff's Lanczos estimate at its
    default tol (NORM_TOL), from a cold start drawn from seed: its Ritz
    pair's residual, estimated from the tridiagonal, is at most 1e-6 times
    the estimate, which places the estimate near an eigenvalue of the
    difference but does not prove it is the extreme one; as a Ritz value
    it is never above the norm.

    above, when given, is a DKest value the caller already holds.  If
    spectral_norm_diff's Lanczos run (stop_above) shows the statistic
    exceeds above * (1 + NORM_TOL), that bound over mu_K is returned: a
    certified lower bound on the statistic, not a value within any stated
    tolerance of it.  Otherwise the result is bitwise that of the call
    with above=None, which is what tau_scan records at every
    full-precision point.  The Frobenius numerator ignores above.
    """
    _check_kinds(model_kind, norm_kind)
    bhat, counts = estimate_block_matrix(g, part)
    sample_op = RegularizedLaplacian(g, tau)
    if model_kind == "sbm":
        fitted = BlockModel(part.labels, bhat)
        est = PopulationLaplacian(fitted, tau)
        mu = eigen_gap(fitted, tau)
    else:
        est = _EstimatedDSBMLaplacian(g, part, counts, tau)
        mu = est.mu_k(seed=seed)
        if mu < 1e-12:
            raise DegenerateModelError("fitted spectral gap vanished")
    if norm_kind == "spectral":
        stop_above = None if above is None else above * mu * (1 + NORM_TOL)
        num = spectral_norm_diff(sample_op, est, seed=seed, stop_above=stop_above)
    elif model_kind == "sbm":
        num = _frobenius_sbm(sample_op, est)
    else:
        num = _frobenius_dsbm(sample_op, est)
    return float(num / mu)


# ---------------------------------------------------------------------------
# Grid scan


@dataclass
class TauRecord:
    """One grid point of a tau_scan.

    dkest is the full-precision statistic, bitwise a lone dkest_statistic
    call, wherever the point could still be the argmin when the scan's
    DKest walk, in _walk_order's order, reached it.
    Elsewhere, with a spectral numerator, it may be a certified lower
    bound from a Lanczos run stopped early: above the scan's minimum
    DKest, and not within a stated tolerance of the statistic.  Which of
    the two it is depends on the points the walk reached earlier only
    through the running minimum.  It is inf when the fitted gap vanished.
    seconds covers the point's clustering, scores and DKest, which run in
    the scan's two phases.
    """

    tau: float
    dkest: float = np.nan
    gn_modularity: float = np.nan
    nmi: float = np.nan
    misclassified_fraction: float = np.nan
    seconds: float = np.nan


@dataclass
class TauScan:
    """Per-tau diagnostics over an ascending grid plus chosen values."""

    grid: np.ndarray
    records: list
    chosen: dict
    k: int
    model_kind: str
    norm_kind: str
    seed: int

    def record_at(self, tau):
        for rec in self.records:
            if rec.tau == tau:
                return rec
        raise KeyError(tau)

    def to_csv(self, path):
        config = {
            "grid": ",".join(fmt(t) for t in self.grid),
            "k": self.k,
            "model": self.model_kind,
            "norm": self.norm_kind,
            "seed": self.seed,
        }
        chosen = " ".join(f"{name}={fmt(tau)}" for name, tau in sorted(self.chosen.items()))
        write_artifact_csv(
            path,
            config,
            self.seed,
            [f.name for f in fields(TauRecord)],
            [astuple(r) for r in self.records],
            [f"chosen {chosen}"],
        )


def default_tau_grid(g, points=20):
    """Geometric grid from max(1, mean degree / 10) to 10 n, plus tau = 0
    when the graph has no isolated nodes."""
    lo = max(1.0, g.mean_degree / 10.0)
    grid = np.geomspace(lo, 10.0 * g.n, points)
    if g.degrees.min() > 0:
        grid = np.concatenate([[0.0], grid])
    return grid


def _walk_order(grid, mean_degree):
    """Indices of an ascending grid in the order tau_scan walks DKest.

    The walk starts at the pivot, the grid point nearest mean_degree on a
    log scale (the regularizer Qin & Rohe 2013 recommend; ties go to the
    lower tau, and the first point is the pivot when no log distance is
    finite).  The points below the pivot follow in descending order, then
    the points above it in ascending order.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = np.abs(np.log(grid) - np.log(mean_degree))
    pivot = int(np.argmin(np.where(np.isfinite(dist), dist, np.inf)))
    return [pivot, *range(pivot - 1, -1, -1), *range(pivot + 1, grid.size)]


def tau_scan(
    g,
    k,
    grid,
    criteria=("dkest", "gn"),
    truth=None,
    model_kind="sbm",
    norm_kind="spectral",
    seed=0,
    workers=None,
):
    """Run the clustering pipeline at every tau and evaluate the selectors.

    The scan runs in two phases.  The first clusters and scores every grid
    point in ascending order, and one clustering seed is shared across
    them so per-tau differences reflect tau alone.  The embedding
    eigensolve carries a spectral.StartVector along that pass: each solve
    starts from its seeded random vector plus the direction the previous
    grid point found.  Eigenvectors agree with lone calls to the solver's
    tolerance, so k-means gives the same canonical labels unless a node
    lies within that distance of a cluster boundary.  Each point's labels
    are kept for the second phase, in one byte per node when K <= 256.

    The second phase, when "dkest" is among the criteria, evaluates DKest
    at every grid point in _walk_order's order: the pivot, the point
    nearest the graph's mean degree on a log scale, then outward from it.
    Every norm call starts cold from its seeded draw, so a record depends
    on the points evaluated before it only through the running minimum
    below, and every full-precision record is bitwise a lone
    dkest_statistic call.

    Each DKest call after the first gets the smallest DKest recorded so
    far as above, so a spectral numerator is solved only as precisely as
    the choice needs: one norm call, one Lanczos run, per grid point.  A
    Ritz value never exceeds the norm, so the run's largest |Ritz value|
    over mu_K is a lower bound on the statistic; once it exceeds the
    running minimum m by more than the solve's tolerance
    (m * (1 + NORM_TOL)), the grid point cannot be the argmin, the run
    stops and that bound is recorded.  Every other run goes on until its
    residual estimate passes NORM_TOL, bitwise as a call without a
    threshold.  So the running minimum is always a full-precision
    value, every lower bound lies above the final minimum, and the chosen
    tau is the argmin of full-precision values.  DKest usually falls from
    tau = 1 to a minimum near the mean degree, so starting there leaves
    few points to solve in full.  When DKest is infinite at every grid
    point, "dkest" is left out of the chosen values.  A record's seconds
    cover its clustering, scores and DKest.  workers is accepted and
    ignored; it stays only until the benchmark stops passing it (ROADMAP
    item 1).
    """
    grid = check_taus(np.sort(grid))
    for crit in criteria:
        if crit not in CRITERIA:
            raise SpeclusterError(f"unknown criterion {crit!r}")
    if "oracle" in criteria and truth is None:
        raise SpeclusterError("oracle criterion needs a reference partition")
    if truth is not None and truth.n != g.n:
        raise SpeclusterError(f"reference partition covers {truth.n} nodes; the graph has {g.n}")
    _check_kinds(model_kind, norm_kind)

    records, labels = [], []
    eig_start = StartVector()
    for tau in grid:
        start = time.perf_counter()
        rec = TauRecord(tau=float(tau))
        part = regularized_spectral_clustering(g, k, tau, seed=seed, start=eig_start)
        if "gn" in criteria:
            rec.gn_modularity = modularity(g, part)
        if truth is not None:
            rec.nmi = nmi(part, truth)
            rec.misclassified_fraction = clustering_error(part, truth).misclassified_fraction
        rec.seconds = time.perf_counter() - start
        records.append(rec)
        labels.append(part.labels.astype(np.min_scalar_type(k - 1)))

    if "dkest" in criteria:
        best = np.inf  # smallest DKest so far
        for i in _walk_order(grid, g.mean_degree):
            rec = records[i]
            start = time.perf_counter()
            try:
                rec.dkest = dkest_statistic(
                    g,
                    Partition(labels[i], k),
                    rec.tau,
                    model_kind=model_kind,
                    norm_kind=norm_kind,
                    seed=seed,
                    above=best if best < np.inf else None,
                )
            except DegenerateModelError:
                rec.dkest = np.inf
            rec.seconds += time.perf_counter() - start
            best = min(best, rec.dkest)

    chosen = {}
    if "dkest" in criteria:
        stats = np.array([r.dkest for r in records])
        if np.isfinite(stats).any():  # no choice when every fitted gap vanished
            chosen["dkest"] = float(grid[int(np.nanargmin(stats))])
    if "gn" in criteria:
        mods = np.array([r.gn_modularity for r in records])
        chosen["gn"] = float(grid[int(np.nanargmax(mods))])
    if "oracle" in criteria:
        scores = np.array([r.nmi for r in records])
        chosen["oracle"] = float(grid[int(np.nanargmax(scores))])
    return TauScan(
        grid=grid,
        records=records,
        chosen=chosen,
        k=k,
        model_kind=model_kind,
        norm_kind=norm_kind,
        seed=seed,
    )
