"""Data-driven choice of the regularization parameter.

For each tau on a grid the graph is clustered, a population Laplacian is
rebuilt from the fitted clusters, and the ratio

    ||L_tau - Lhat_tau|| / mu_K(Lhat_tau)

is recorded (the DKest statistic, an estimate of the eigenvector
perturbation bound).  The tau minimizing the statistic is selected;
modularity-maximizing and oracle (NMI-maximizing) selectors are computed
on the same scan for comparison.

The rebuilt Laplacian is never formed densely: its action is evaluated
through the cluster structure and its nonzero spectrum through a K-by-K
(or (K+1)-by-(K+1)) reduction.
"""

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .__about__ import __version__
from .clustering import regularized_spectral_clustering
from .errors import DegenerateModelError, EmptyClusterError, SingularLaplacianError, SpeclusterError
from .metrics import clustering_error, modularity, nmi
from .spectral import RegularizedLaplacian, spectral_norm_diff, top_eigenpairs
from .util import config_digest, fmt, max_workers

CRITERIA = ("dkest", "gn", "oracle")


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
    counts = np.zeros((k, k), dtype=np.float64)
    z0 = labels[g.edges[:, 0]]
    z1 = labels[g.edges[:, 1]]
    np.add.at(counts, (z0, z1), 1.0)
    np.add.at(counts, (z1, z0), 1.0)
    bhat = counts / np.outer(sizes, sizes)
    return bhat, counts


def _kth_largest_with_zeros(nonzero_eigs, k):
    """K-th largest eigenvalue of a rank-limited matrix whose remaining
    spectrum is zero."""
    padded = np.concatenate([nonzero_eigs, np.zeros(k)])
    return float(np.sort(padded)[::-1][k - 1])


class _EstimatedSBMLaplacian:
    """Population regularized Laplacian of the fitted plain block model."""

    def __init__(self, g, part, bhat, tau):
        labels = part.labels
        k = part.k
        sizes = np.bincount(labels, minlength=k).astype(np.float64)
        dk = bhat @ sizes
        if np.any(dk + tau <= 0):
            raise SingularLaplacianError("fitted population degree plus tau is zero")
        self.n = g.n
        self.k = k
        self.labels = labels
        self.sizes = sizes
        self.block_degrees = dk
        self.tau = float(tau)
        self.inv_sqrt_deg = 1.0 / np.sqrt(dk[labels] + tau)
        self.block_tau = bhat + tau / g.n
        self.shape = (g.n, g.n)

    def apply(self, x):
        y = self.inv_sqrt_deg * x
        s = np.bincount(self.labels, weights=y, minlength=self.k)
        return self.inv_sqrt_deg * (self.block_tau @ s)[self.labels]

    matvec = apply

    def mu_k(self):
        w = np.sqrt(self.sizes / (self.block_degrees + self.tau))
        reduced = w[:, None] * self.block_tau * w[None, :]
        return _kth_largest_with_zeros(np.linalg.eigvalsh(reduced), self.k)

    def to_dense(self):
        c = self.inv_sqrt_deg
        g_full = self.block_tau[self.labels][:, self.labels]
        return c[:, None] * g_full * c[None, :]


def _clamped_pairs(labels, theta, counts, k):
    """Pairs whose fitted degree-corrected probability exceeds 1.

    Returns (i, j, excess) with i <= j covering each pair once (the
    diagonal included), or empty arrays.  Enumeration walks per-cluster
    theta in descending order so the cost is proportional to the output.
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
            lo = np.minimum(ii, jj)
            hi = np.maximum(ii, jj)
            out_i.append(lo)
            out_j.append(hi)
            out_v.append(vals - 1.0)
    if not out_i:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0)
    return np.concatenate(out_i), np.concatenate(out_j), np.concatenate(out_v)


class _EstimatedDSBMLaplacian:
    """Population regularized Laplacian of the fitted degree-corrected model.

    Per-node weights theta_i = d_i / (row sum of the fitted block counts)
    make the fitted probability matrix reproduce every observed degree
    exactly, so the sample degree matrix is reused as the normalizer.
    Entries pushed above 1 by hub pairs are clamped to 1 and tracked as a
    sparse correction.
    """

    def __init__(self, g, part, counts, tau):
        labels = part.labels
        k = part.k
        d = g.degrees.astype(np.float64)
        if np.any(d + tau <= 0):
            raise SingularLaplacianError("degree plus tau is zero; pass tau > 0")
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
        ci, cj, excess = _clamped_pairs(labels, theta, counts, k)
        self.clamped_entries = int(ci.size)
        if ci.size:
            offdiag = ci != cj
            rows = np.concatenate([ci, cj[offdiag]])
            cols = np.concatenate([cj, ci[offdiag]])
            vals = np.concatenate([excess, excess[offdiag]])
            self._excess = sparse.coo_array((vals, (rows, cols)), shape=self.shape).tocsr()
        else:
            self._excess = None
        self._clamp_triplets = (ci, cj, excess)

    def fitted_probability(self, i, j):
        """Clamped fitted edge probability for node arrays i, j."""
        raw = self.theta[i] * self.theta[j] * self.counts[self.labels[i], self.labels[j]]
        return np.minimum(raw, 1.0)

    def apply(self, x):
        y = self.inv_sqrt_deg * x
        u = np.bincount(self.labels, weights=self.theta * y, minlength=self.k)
        v = self.theta * (self.counts @ u)[self.labels]
        v += (self.tau / self.n) * y.sum()
        if self._excess is not None:
            v -= self._excess @ y
        return self.inv_sqrt_deg * v

    matvec = apply

    def mu_k(self, seed=0):
        if self._excess is None:
            # factored (K+1)-dimensional reduction: nonzero eigenvalues of
            # U M U' equal those of S^{1/2} M S^{1/2} with S = U'U
            a2 = self.inv_sqrt_deg**2
            s = np.zeros((self.k + 1, self.k + 1))
            diag = np.bincount(self.labels, weights=a2 * self.theta**2, minlength=self.k)
            cross = np.bincount(self.labels, weights=a2 * self.theta, minlength=self.k)
            s[np.diag_indices(self.k)] = diag
            s[: self.k, self.k] = cross
            s[self.k, : self.k] = cross
            s[self.k, self.k] = a2.sum()
            m = np.zeros_like(s)
            m[: self.k, : self.k] = self.counts
            m[self.k, self.k] = self.tau / self.n
            vals, vecs = np.linalg.eigh(s)
            root = vecs @ (np.sqrt(np.clip(vals, 0, None))[:, None] * vecs.T)
            eigs = np.linalg.eigvalsh(root @ m @ root)
            return _kth_largest_with_zeros(eigs, self.k)
        basis = top_eigenpairs(self, self.k, tol=1e-9, seed=seed)
        return float(basis.values[self.k - 1])

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
    cross = np.bincount(z, weights=u * c, minlength=est.k)
    mass = np.bincount(z, weights=c * c, minlength=est.k)
    total = s_u2**2
    total -= 2.0 * float(cross @ gmat @ cross)
    total += float(mass @ (gmat * gmat) @ mass)
    e0, e1 = g.edges[:, 0], g.edges[:, 1]
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
    ci, cj, excess = est._clamp_triplets
    if ci.size:
        p_raw = excess + 1.0
        contrib = w2[ci] * w2[cj] * (1.0 - p_raw**2)
        off = ci != cj
        total += float(contrib.sum() + contrib[off].sum())
    e0, e1 = g.edges[:, 0], g.edges[:, 1]
    aa = w2[e0] * w2[e1]
    p_e = est.fitted_probability(e0, e1)
    total += float((2.0 * aa * (1.0 - 2.0 * p_e)).sum())
    return float(np.sqrt(max(total, 0.0)))


def dkest_statistic(
    g,
    part,
    tau,
    model_kind="sbm",
    norm_kind="spectral",
    seed=0,
    norm_tol=1e-6,
    norm_max_iter=20000,
):
    """Estimated perturbation-to-gap ratio for a fitted partition at tau.

    The spectral numerator is a Lanczos norm estimate certified to
    relative accuracy norm_tol.  Its memory is O(n x Krylov dimension
    reached); norm_max_iter only caps the iteration.
    """
    if model_kind not in ("sbm", "dsbm"):
        raise SpeclusterError(f"unknown model kind {model_kind!r}")
    if norm_kind not in ("spectral", "frobenius"):
        raise SpeclusterError(f"unknown norm kind {norm_kind!r}")
    bhat, counts = estimate_block_matrix(g, part)
    sample_op = RegularizedLaplacian(g, tau)
    if model_kind == "sbm":
        est = _EstimatedSBMLaplacian(g, part, bhat, tau)
        mu = est.mu_k()
    else:
        est = _EstimatedDSBMLaplacian(g, part, counts, tau)
        mu = est.mu_k(seed=seed)
    if mu < 1e-12:
        raise DegenerateModelError("fitted spectral gap vanished")
    if norm_kind == "spectral":
        num = spectral_norm_diff(sample_op, est, tol=norm_tol, max_iter=norm_max_iter, seed=seed)
    elif model_kind == "sbm":
        num = _frobenius_sbm(sample_op, est)
    else:
        num = _frobenius_dsbm(sample_op, est)
    return float(num / mu)


# ---------------------------------------------------------------------------
# Grid scan


@dataclass
class TauRecord:
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
    meta: dict = field(default_factory=dict)

    def record_at(self, tau):
        for rec in self.records:
            if rec.tau == tau:
                return rec
        raise KeyError(tau)

    def to_csv(self, path):
        digest = config_digest(
            {
                "grid": ",".join(fmt(t) for t in self.grid),
                "k": self.k,
                "model": self.model_kind,
                "norm": self.norm_kind,
                "seed": self.seed,
                **self.meta,
            }
        )
        with open(path, "w") as fh:
            fh.write(f"# specluster v{__version__}\n")
            fh.write(f"# config_hash={digest}\n")
            fh.write(f"# seed={self.seed}\n")
            fh.write("tau,dkest,gn_modularity,nmi,misclassified_fraction,seconds\n")
            for rec in self.records:
                fh.write(
                    ",".join(
                        fmt(v)
                        for v in (
                            rec.tau,
                            rec.dkest,
                            rec.gn_modularity,
                            rec.nmi,
                            rec.misclassified_fraction,
                            rec.seconds,
                        )
                    )
                    + "\n"
                )
            chosen = " ".join(f"{name}={fmt(tau)}" for name, tau in sorted(self.chosen.items()))
            fh.write(f"# chosen {chosen}\n")


def default_tau_grid(g, points=20):
    """Geometric grid from max(1, mean degree / 10) to 10 n, plus tau = 0
    when the graph has no isolated nodes."""
    lo = max(1.0, g.mean_degree / 10.0)
    grid = np.geomspace(lo, 10.0 * g.n, points)
    if g.degrees.min() > 0:
        grid = np.concatenate([[0.0], grid])
    return grid


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
    rsc_options=None,
):
    """Run the clustering pipeline at every tau and evaluate the selectors.

    One clustering seed is shared across grid points so per-tau differences
    reflect tau alone.  Grid points run concurrently (worker count capped
    by SPECLUSTER_THREADS); results merge in grid order.
    """
    grid = np.sort(np.asarray(grid, dtype=np.float64))
    if grid.size == 0:
        raise SpeclusterError("tau grid is empty")
    for crit in criteria:
        if crit not in CRITERIA:
            raise SpeclusterError(f"unknown criterion {crit!r}")
    if "oracle" in criteria and truth is None:
        raise SpeclusterError("oracle criterion needs a reference partition")
    opts = rsc_options or {}

    def eval_point(tau):
        start = time.perf_counter()
        rec = TauRecord(tau=float(tau))
        part = regularized_spectral_clustering(g, k, tau, seed=seed, **opts)
        if "dkest" in criteria:
            try:
                rec.dkest = dkest_statistic(
                    g, part, tau, model_kind=model_kind, norm_kind=norm_kind, seed=seed
                )
            except DegenerateModelError:
                rec.dkest = np.inf
        if "gn" in criteria:
            rec.gn_modularity = modularity(g, part)
        if truth is not None:
            rec.nmi = nmi(part, truth)
            rec.misclassified_fraction = clustering_error(part, truth).misclassified_fraction
        rec.seconds = time.perf_counter() - start
        return rec

    n_workers = max_workers(grid.size, workers)
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            records = list(pool.map(eval_point, grid))
    else:
        records = [eval_point(tau) for tau in grid]

    chosen = {}
    if "dkest" in criteria:
        stats = np.array([r.dkest for r in records])
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
