"""Matrix-free regularized Laplacian, top-K eigensolver, spectral norm of a difference.

The regularized adjacency A + tau J (J = all-ones / n) is dense if
materialized, so the operator keeps A sparse and applies the tau term as a
rank-one correction inside the matvec.  Cost per apply is O(|E| + n).

Both Krylov computations, the top-K eigenpairs above DENSE_FALLBACK nodes
and the spectral norm of a difference, run scipy's eigsh (ARPACK's
implicitly restarted Lanczos) on a LinearOperator around that matvec, and
each checks the pairs it returns with explicit residuals.  A StartVector
carries the direction one solve found into the start of the next, so a
sequence of nearby operators (a tau grid) needs fewer matvecs.  A norm
estimate is a Ritz value and so never above the norm.  spectral_norm_diff's
stop_above uses that through the one hand-written Krylov loop here: a short
Lanczos run of at most LANCZOS_MAX_STEPS steps, with full
reorthogonalization, whose only job is to prove the norm exceeds a
threshold; where it cannot, ARPACK solves to the full tolerance.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import ConvergenceError, SingularLaplacianError, SpeclusterError
from .util import rng_from

DENSE_FALLBACK = 512
NORM_TOL = 1e-6  # relative residual tolerance of a spectral_norm_diff estimate
LANCZOS_FIRST_CHECK = 6  # first Lanczos step whose Ritz values may settle stop_above
LANCZOS_MAX_STEPS = 20  # Lanczos steps before stop_above falls back to ARPACK


class RegularizedLaplacian:
    """Symmetric operator D_tau^{-1/2} (A + tau J) D_tau^{-1/2}.

    D_tau adds tau to every node degree, which are exactly the row sums of
    A + tau J.  The all-ones direction scaled by sqrt(degree + tau) is an
    eigenvector with eigenvalue 1.
    """

    def __init__(self, graph, tau):
        if not 0 <= tau < np.inf:
            raise SpeclusterError(f"tau must be non-negative and finite, got {tau}")
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


@dataclass
class StartVector:
    """Direction carried from one Krylov solve to the next.

    direction is None until a solve stores the direction it found.  An
    ARPACK solve given this holder starts from its seeded random vector
    plus direction scaled to that vector's norm, which keeps a random
    component along every eigenvector.  spectral_norm_diff's lower-bound
    Lanczos run starts from direction alone, which needs no random
    component: its Ritz values bound the norm from below whatever the
    start.
    """

    direction: np.ndarray | None = None

    def draw(self, rng, n):
        """The seeded random draw of length n, plus the carried direction."""
        v0 = rng.standard_normal(n)
        if self.direction is not None:
            v0 += self.direction * (np.linalg.norm(v0) / np.linalg.norm(self.direction))
        return v0


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
    if callable(getattr(obj, "apply", None)):
        return obj.apply, obj.shape[0]
    raise SpeclusterError(f"cannot interpret {type(obj).__name__} as a linear operator")


def _residuals(mv, vals, vecs):
    return np.array([np.linalg.norm(mv(vecs[:, i]) - vals[i] * vecs[:, i]) for i in range(vals.size)])


def top_eigenpairs(op, k, tol=1e-8, seed=0, start=None):
    """K algebraically-largest eigenpairs of a symmetric operator.

    Uses dense symmetric eigendecomposition for arrays and operators with
    to_dense up to DENSE_FALLBACK nodes, and ARPACK's implicitly restarted
    Lanczos (scipy eigsh) otherwise, from a start vector drawn from seed.
    Every returned pair is checked explicitly: any residual above tol
    raises ConvergenceError.  Deterministic given seed and start.

    The gate is absolute and bounds residuals only.  It does not bound the
    error of the vectors: by Davis-Kahan the angle between the returned
    and the true top-K subspace is bounded only by about residual / gap,
    gap = lambda_K - lambda_{K+1}, so when the gap is small next to tol a
    pair that passes can be far from exact.  On a two-block n=100k graph
    at tau = 1e5 the gap was 1.5e-6; a solve that passed with residual
    7e-9 returned a vector about 1e-3 rad off, and k-means placed 17 nodes
    differently.

    start, a StartVector, warm-starts the Lanczos path: its direction is
    added to the random start, and after a successful solve it holds the
    sum of the K returned (sign-fixed) vectors.  The dense path ignores it.
    """
    mv, n = _as_matvec(op)
    if k < 1 or k > n:
        raise SpeclusterError(f"k={k} out of range for operator of size {n}")

    if n <= DENSE_FALLBACK and (isinstance(op, np.ndarray) or hasattr(op, "to_dense")):
        vals, vecs = np.linalg.eigh(op if isinstance(op, np.ndarray) else op.to_dense())
        vals = vals[::-1][:k].copy()
        vecs = vecs[:, ::-1][:, :k].copy()
        return EigenBasis(values=vals, vectors=_fix_signs(vecs), residuals=_residuals(mv, vals, vecs))

    if k == n:
        raise SpeclusterError(f"k={k} needs k < n for an operator without a dense path")
    lin = LinearOperator((n, n), matvec=mv, dtype=np.float64)
    rng = rng_from(seed)
    if start is None:
        start = StartVector()
    try:
        vals, vecs = eigsh(lin, k, which="LA", tol=tol, v0=start.draw(rng, n), rng=rng)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"ARPACK did not reach tol={tol}",
            residuals=_residuals(mv, exc.eigenvalues, exc.eigenvectors),
        ) from None
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    res = _residuals(mv, vals, vecs)
    if not np.all(res <= tol):
        raise ConvergenceError(f"eigenpair residuals {res.max():.3g} exceed tol={tol}", residuals=res)
    vecs = _fix_signs(vecs)
    start.direction = vecs.sum(axis=1)
    return EigenBasis(values=vals, vectors=vecs, residuals=res)


def _checked_norm_ritz(lin, mv, tol, v0, rng):
    """eigsh's largest-magnitude Ritz pair, its residual checked against tol."""
    try:
        vals, vecs = eigsh(lin, 1, which="LM", tol=tol, v0=v0, rng=rng)
    except ArpackNoConvergence as exc:
        estimate = float(np.max(np.abs(exc.eigenvalues))) if exc.eigenvalues.size else None
        raise ConvergenceError(f"ARPACK norm estimate did not reach tol={tol}", estimate=estimate) from None
    estimate = float(abs(vals[0]))
    vec = vecs[:, 0]
    resid = np.linalg.norm(mv(vec) - vals[0] * vec)
    if resid > tol * max(estimate, 1e-300):
        raise ConvergenceError(
            f"norm estimate residual {resid:.3g} exceeds tol={tol} times the estimate",
            estimate=estimate,
        )
    return estimate, vec


def _lanczos_lower_bound(mv, q, stop_above):
    """A Ritz pair of mv whose |value| exceeds stop_above, or None.

    Plain Lanczos from q with full reorthogonalization (two classical
    Gram-Schmidt passes per step), for at most LANCZOS_MAX_STEPS steps and
    never more than n.  From step LANCZOS_FIRST_CHECK on, and at the last
    step, the tridiagonal projection is solved densely; the first time its
    largest |Ritz value| exceeds stop_above, that value and its Ritz vector
    are returned.  Every Ritz value of a symmetric operator lies between
    its extreme eigenvalues, so the value is a certified lower bound on the
    norm.  Earlier steps are not checked: there the Ritz values are still
    far below the norm and would record a loose bound.  Uses one matvec
    per step.
    """
    steps = min(LANCZOS_MAX_STEPS, q.size)
    basis = np.empty((steps, q.size))
    basis[0] = q / np.linalg.norm(q)
    tri = np.zeros((steps, steps))
    for j in range(steps):
        w = mv(basis[j])
        tri[j, j] = basis[j] @ w
        for _ in range(2):
            w -= basis[: j + 1].T @ (basis[: j + 1] @ w)
        beta = np.linalg.norm(w)
        last = j + 1 == steps or beta == 0  # beta = 0: an invariant subspace, exact Ritz values
        if j + 1 >= LANCZOS_FIRST_CHECK or last:
            vals, vecs = np.linalg.eigh(tri[: j + 1, : j + 1])
            top = int(np.argmax(np.abs(vals)))
            if abs(vals[top]) > stop_above:
                return float(abs(vals[top])), basis[: j + 1].T @ vecs[:, top]
        if last:
            break
        tri[j, j + 1] = tri[j + 1, j] = beta
        basis[j + 1] = w / beta
    return None


def spectral_norm_diff(op_a, op_b, tol=NORM_TOL, seed=0, start=None, stop_above=None):
    """Largest |eigenvalue| of the difference of two symmetric operators.

    Accepts dense arrays or matrix-free operators (any object with apply
    and shape); the difference is only ever applied to vectors.  ARPACK (scipy eigsh) finds the
    largest-magnitude Ritz pair from a start vector drawn from seed, and
    one explicit matvec then checks that pair's residual against tol times
    the estimate.  That shows the estimate is within that distance of *an*
    eigenvalue of the difference, not that it is the extreme one.  It is
    never above the norm, though: every Ritz value of a symmetric operator
    lies between its extreme eigenvalues, so the estimate is a certified
    lower bound at any tol.

    stop_above=None solves to tol directly.  Otherwise a short Lanczos run
    (_lanczos_lower_bound, at most LANCZOS_MAX_STEPS matvecs) starts from
    start's direction, or from the seeded draw when start has none, and
    returns its largest |Ritz value| at the first step from
    LANCZOS_FIRST_CHECK on where that exceeds stop_above: a certified lower
    bound on the norm, with no residual check.  If no step does, ARPACK
    solves to tol from the draw already made, so the result is bitwise
    that of the call without stop_above.  A caller that only needs to know
    whether the norm exceeds a threshold, and its value where it does not,
    passes the threshold.

    start, a StartVector, warm-starts the solve: ARPACK starts from the
    random draw plus its direction, the Lanczos run from its direction
    alone, and after a certified bound or a checked estimate it holds the
    Ritz vector found.  Deterministic given seed, start and stop_above.
    """
    mv_a, n_a = _as_matvec(op_a)
    mv_b, n_b = _as_matvec(op_b)
    if n_a != n_b:
        raise SpeclusterError("operator dimensions differ")
    n = n_a
    mv = lambda v: mv_a(v) - mv_b(v)
    rng = rng_from(seed)
    if start is None:
        start = StartVector()
    v0 = start.draw(rng, n)
    if np.linalg.norm(mv(v0)) < 1e-300:
        return 0.0
    if stop_above is not None:
        bound = _lanczos_lower_bound(mv, v0 if start.direction is None else start.direction, stop_above)
        if bound is not None:
            estimate, start.direction = bound
            return estimate
    lin = LinearOperator((n, n), matvec=mv, dtype=np.float64)
    estimate, start.direction = _checked_norm_ritz(lin, mv, tol, v0, rng)
    return estimate
