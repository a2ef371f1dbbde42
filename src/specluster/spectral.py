"""Matrix-free regularized Laplacian, top-K eigensolver, spectral norm of a difference.

The regularized adjacency A + tau J (J = all-ones / n) is dense if
materialized, so the operator keeps A sparse and applies the tau term as a
rank-one correction inside the matvec.  Cost per apply is O(|E| + n).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SingularLaplacianError, SpeclusterError
from .util import rng_from

DENSE_FALLBACK = 512
_BREAKDOWN = 1e-14


class RegularizedLaplacian:
    """Symmetric operator D_tau^{-1/2} (A + tau J) D_tau^{-1/2}.

    D_tau adds tau to every node degree, which are exactly the row sums of
    A + tau J.  The all-ones direction scaled by sqrt(degree + tau) is an
    eigenvector with eigenvalue 1.
    """

    def __init__(self, graph, tau):
        if tau < 0:
            raise SpeclusterError("tau must be non-negative")
        if tau == 0 and graph.degrees.min() == 0:
            raise SingularLaplacianError(
                "graph has isolated nodes; the unregularized Laplacian is "
                "undefined there, pass tau > 0"
            )
        self.graph = graph
        self.tau = float(tau)
        self.inv_sqrt_deg = 1.0 / np.sqrt(graph.degrees + tau)
        self.shape = (graph.n, graph.n)

    def apply(self, x):
        """Full operator, with the rank-one tau J correction."""
        y = self.inv_sqrt_deg * x
        out = self.graph.adjacency @ y
        out += (self.tau / self.graph.n) * y.sum()
        return self.inv_sqrt_deg * out

    def to_dense(self):
        a = self.graph.adjacency.toarray()
        a += self.tau / self.graph.n
        return self.inv_sqrt_deg[:, None] * a * self.inv_sqrt_deg[None, :]


@dataclass(frozen=True)
class EigenBasis:
    """Top eigenpairs: descending eigenvalues, orthonormal vector columns.

    Row i of vectors is the spectral embedding of node i.  residuals holds
    ||Op v - lambda v|| for each retained pair.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray


def _fix_signs(vectors):
    """Make each column's largest-magnitude entry positive (ties: lowest index)."""
    out = vectors.copy()
    for col in range(out.shape[1]):
        idx = int(np.argmax(np.abs(out[:, col])))
        if out[idx, col] < 0:
            out[:, col] = -out[:, col]
    return out


def _as_matvec(obj):
    if isinstance(obj, np.ndarray):
        if obj.ndim != 2 or obj.shape[0] != obj.shape[1]:
            raise SpeclusterError("expected a square matrix")
        return (lambda x: obj @ x), obj.shape[0]
    for name in ("apply", "matvec"):
        fn = getattr(obj, name, None)
        if callable(fn):
            return fn, obj.shape[0]
    raise SpeclusterError(f"cannot interpret {type(obj).__name__} as a linear operator")


def _residuals(mv, vals, vecs):
    return np.array([np.linalg.norm(mv(vecs[:, i]) - vals[i] * vecs[:, i]) for i in range(vals.size)])


def _lanczos(mv, q, rng, start, step, cap):
    """Lanczos with full reorthogonalization from the unit vector q.

    Each basis vector is one row of a buffer that doubles as it fills, so
    memory is O(n x Krylov dimension reached) and cap only bounds the
    iteration.  Yields (values, vectors, basis) each time the dimension
    reaches start, start + step, ...: the ascending eigenpairs of the
    projected tridiagonal and the basis rows, whose Ritz vectors are
    basis.T @ vectors.  The last yield is at min(cap, n); the caller stops
    earlier by leaving the loop.  A breakdown (invariant subspace) restarts
    from a fresh rng direction orthogonal to the basis.
    """
    n = q.size
    cap = min(cap, n)
    rows = np.empty((min(cap, start + 1), n))
    alphas = np.zeros(cap)
    betas = np.zeros(cap)  # betas[j] couples rows j and j + 1
    rows[0] = q
    j = 0
    target = min(cap, start)
    while True:
        while j < target:
            u = mv(rows[j])
            alphas[j] = rows[j] @ u
            r = u - alphas[j] * rows[j]
            if j > 0:
                r -= betas[j - 1] * rows[j - 1]
            j += 1
            basis = rows[:j]
            # full reorthogonalization, applied twice for stability
            for _ in range(2):
                r -= basis.T @ (basis @ r)
            if j == cap:
                break
            beta = np.linalg.norm(r)
            if beta < _BREAKDOWN:
                r = rng.standard_normal(n)
                for _ in range(2):
                    r -= basis.T @ (basis @ r)
                beta = np.linalg.norm(r)
                if beta < _BREAKDOWN:  # the basis spans the whole space
                    cap = j
                    break
                betas[j - 1] = 0.0
            else:
                betas[j - 1] = beta
            if j == rows.shape[0]:
                grown = np.empty((min(cap, 2 * j), n))
                grown[:j] = rows
                rows = grown
            rows[j] = r / beta
        t = np.diag(alphas[:j]) + np.diag(betas[: j - 1], 1) + np.diag(betas[: j - 1], -1)
        values, vectors = np.linalg.eigh(t)
        yield values, vectors, rows[:j]
        if j == cap:
            return
        target = min(cap, j + step)


def _unit_start(rng, n):
    q = rng.standard_normal(n)
    return q / np.linalg.norm(q)


def top_eigenpairs(op, k, tol=1e-8, max_iter=300, seed=0, dense_threshold=DENSE_FALLBACK):
    """K algebraically-largest eigenpairs of a symmetric operator.

    Uses dense symmetric eigendecomposition for small arrays and operators
    with to_dense, and restart-free Lanczos with full reorthogonalization
    otherwise.  The Krylov basis starts at max(2K + 10, 40) vectors and is
    extended by 20 until every retained pair has residual below tol.
    max_iter only caps the Krylov dimension: memory is O(n x Krylov
    dimension reached).  Deterministic given seed.
    """
    mv, n = _as_matvec(op)
    if k < 1 or k > n:
        raise SpeclusterError(f"k={k} out of range for operator of size {n}")

    if n <= dense_threshold and (isinstance(op, np.ndarray) or hasattr(op, "to_dense")):
        vals, vecs = np.linalg.eigh(op if isinstance(op, np.ndarray) else op.to_dense())
        vals = vals[::-1][:k].copy()
        vecs = vecs[:, ::-1][:, :k].copy()
        return EigenBasis(values=vals, vectors=_fix_signs(vecs), residuals=_residuals(mv, vals, vecs))

    rng = rng_from(seed)
    dim0 = min(n, max(2 * k + 10, 40))
    for values, vectors, basis in _lanczos(mv, _unit_start(rng, n), rng, dim0, 20, max(max_iter, dim0)):
        order = np.argsort(values)[::-1][:k]
        vals = values[order]
        vecs = basis.T @ vectors[:, order]
        res = _residuals(mv, vals, vecs)
        if vals.size >= k and np.all(res <= tol):
            return EigenBasis(values=vals, vectors=_fix_signs(vecs), residuals=res)
    raise ConvergenceError(
        f"Lanczos did not reach tol={tol} within Krylov dimension {len(basis)}",
        residuals=res,
    )


def spectral_norm_diff(op_a, op_b, tol=1e-6, max_iter=400, seed=0):
    """Largest |eigenvalue| of the difference of two symmetric operators.

    Accepts dense arrays or matrix-free operators; the difference is only
    ever applied to vectors.  The extreme eigenvalues at both ends of the
    spectrum are located by restart-free Lanczos (plain power iteration
    stalls without a certificate when the top of the noise spectrum is
    nearly tied), extended 12 vectors at a time; the iteration stops once
    the winning end's Ritz residual certifies the requested relative
    accuracy.  max_iter only caps the Krylov dimension: memory is
    O(n x Krylov dimension reached).
    """
    mv_a, n_a = _as_matvec(op_a)
    mv_b, n_b = _as_matvec(op_b)
    if n_a != n_b:
        raise SpeclusterError("operator dimensions differ")
    n = n_a
    mv = lambda v: mv_a(v) - mv_b(v)
    rng = rng_from(seed)
    q = _unit_start(rng, n)
    if np.linalg.norm(mv(q)) < 1e-300:
        return 0.0
    for values, vectors, basis in _lanczos(mv, q, rng, 12, 12, max_iter):
        # Ritz residual of the winning extreme pair
        idx = 0 if abs(values[0]) >= abs(values[-1]) else values.size - 1
        estimate = float(abs(values[idx]))
        vec = basis.T @ vectors[:, idx]
        resid = np.linalg.norm(mv(vec) - values[idx] * vec)
        if resid <= tol * max(estimate, 1e-300) or len(basis) == n:
            return estimate
    raise ConvergenceError(
        f"norm estimate did not certify tol={tol} within Krylov dimension {len(basis)}",
        estimate=estimate,
    )
