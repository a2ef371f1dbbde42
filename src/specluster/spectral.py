"""Matrix-free regularized Laplacian, top-K eigensolver, spectral norm of a difference.

The regularized adjacency A + tau J (J = all-ones / n) is dense if
materialized, so the operator keeps A sparse and applies the tau term as a
rank-one correction inside the matvec.  Cost per apply is O(|E| + n).

Both Krylov computations are written here, on numpy alone.  The top-K
eigenpairs above DENSE_FALLBACK nodes come from a thick-restart Lanczos
run (Wu & Simon 2000): a basis of LANCZOS_BASIS vectors kept orthogonal
by classical Gram-Schmidt with a DGKS correction, restarted from its
K + LANCZOS_KEEP_EXTRA best Ritz vectors, each returned pair checked by an
explicit residual.  The spectral norm of a difference comes from one plain
three-term Lanczos recurrence, stopped on ARPACK's residual estimate read
from its tridiagonal, or, with stop_above, as soon as a Ritz value proves
the norm exceeds a threshold.  A Ritz value is never above the norm.  Each
norm run starts cold from its seeded draw, so its value depends only on
the operators, seed and stop_above.  An eigensolve may take a start
direction, added to its seeded draw, so a solve near a known answer
needs fewer matvecs; the direction is only read.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SingularLaplacianError, SpeclusterError
from .util import rng_from

DENSE_FALLBACK = 512
NORM_TOL = 1e-6  # spectral_norm_diff stops once its Ritz residual estimate is at most this times the value
LANCZOS_FIRST_CHECK = 6  # first Lanczos step whose Ritz values are read, and the check interval after LANCZOS_EVERY_STEP_CHECKS
LANCZOS_EVERY_STEP_CHECKS = 20  # a norm run reads its Ritz values at every step up to this one
LANCZOS_BASIS = 20  # eigensolve basis vectors for K <= 9 (ARPACK's ncv as scipy's eigsh chose it)
LANCZOS_KEEP_EXTRA = 9  # Ritz vectors a restart keeps beyond the K wanted
MAX_RESTARTS = 10_000  # eigensolve restarts before ConvergenceError
DGKS = 0.717  # a Gram-Schmidt pass keeping less than this share of the norm is repeated (ARPACK's constant)


def check_taus(taus):
    """One tau or a grid of them as a float64 array, kept in the order given.

    The one check of the rule every entry point shares: at least one value,
    and every tau non-negative and finite.  The first bad value in the
    order given is named.
    """
    taus = np.asarray(taus, dtype=np.float64)
    if taus.size == 0:
        raise SpeclusterError("tau grid is empty")
    bad = taus[~((taus >= 0) & (taus < np.inf))]
    if bad.size:
        raise SpeclusterError(f"tau must be non-negative and finite, got {bad[0]}")
    return taus


class RegularizedLaplacian:
    """Symmetric operator D_tau^{-1/2} (A + tau J) D_tau^{-1/2}.

    D_tau adds tau to every node degree, which are exactly the row sums of
    A + tau J.  The all-ones direction scaled by sqrt(degree + tau) is an
    eigenvector with eigenvalue 1.
    """

    def __init__(self, graph, tau):
        check_taus(tau)
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
    if callable(getattr(obj, "apply", None)):
        return obj.apply, obj.shape[0]
    raise SpeclusterError(f"cannot interpret {type(obj).__name__} as a linear operator")


def _residuals(mv, vals, vecs):
    return np.array([np.linalg.norm(mv(vecs[:, i]) - vals[i] * vecs[:, i]) for i in range(vals.size)])


def _orthogonalize(basis, w):
    """w less its projection on the orthonormal rows of basis, in place.

    Classical Gram-Schmidt, repeated once when the first pass keeps less
    than DGKS of the norm (Daniel, Gragg, Kaufman & Stewart 1976), as
    ARPACK does.  Returns the projection coefficients and the norm left,
    or None for the norm when the second pass loses as much again: then w
    is rounding noise inside the span, not a new direction.
    """
    before = w @ w
    coef = basis @ w
    w -= coef @ basis
    left = w @ w
    if left > DGKS**2 * before:
        return coef, np.sqrt(left)
    fix = basis @ w
    w -= fix @ basis
    coef += fix
    again = w @ w
    return coef, (np.sqrt(again) if again > DGKS**2 * left else None)


def _thick_restart_lanczos(mv, v0, k, tol, rng):
    """Top-k Ritz values (descending) and vectors (columns) of mv from v0.

    Thick-restart Lanczos (Wu & Simon, SIAM J. Matrix Anal. Appl. 22,
    2000) with full reorthogonalization: the basis holds m vectors, m =
    LANCZOS_BASIS or 2k + 1 if larger, at most n.  Once full, the
    projected matrix's eigenpairs give the Ritz pairs, and the run stops
    when every wanted one's residual estimate beta |y_m| is at most
    tol / 100.  Otherwise it restarts from the k + LANCZOS_KEEP_EXTRA
    largest Ritz vectors plus the residual direction; the projected matrix
    then holds their Ritz values on its diagonal and the residual's
    couplings beta y_m in its row and column.  A breakdown (the new
    direction lies in the span) continues from a fresh draw of rng
    orthogonalized against the basis, as ARPACK does, with coupling 0.
    Raises ConvergenceError with the explicit residuals of the current
    Ritz pairs after MAX_RESTARTS restarts.
    """
    n = v0.size
    m = min(n, max(2 * k + 1, LANCZOS_BASIS))
    keep = min(k + LANCZOS_KEEP_EXTRA, m - 1)
    basis = np.empty((m + 1, n))
    basis[0] = v0 / np.linalg.norm(v0)
    t = np.zeros((m, m))
    first = 0
    for restart in range(MAX_RESTARTS + 1):
        for j in range(first, m):
            w = mv(basis[j])
            alpha = 0.0
            if j > first:  # the three-term step; the pass below only corrects it
                w -= t[j, j - 1] * basis[j - 1]
                alpha = basis[j] @ w
                w -= alpha * basis[j]
            coef, beta = _orthogonalize(basis[: j + 1], w)
            t[j, j] = alpha + coef[j]
            if j + 1 == n:
                beta = 0.0  # the basis spans the space
            elif beta is None:
                w = rng.standard_normal(n)
                _orthogonalize(basis[: j + 1], w)
                _orthogonalize(basis[: j + 1], w)
                w /= np.linalg.norm(w)
                beta = 0.0
            else:
                w /= beta
            basis[j + 1] = w
            if j + 1 < m:
                t[j, j + 1] = t[j + 1, j] = beta
        theta, y = np.linalg.eigh(t)
        top = np.arange(m - 1, m - 1 - keep, -1)  # eigh sorts ascending
        if np.all(beta * np.abs(y[-1, top[:k]]) <= tol / 100):
            break
        if restart == MAX_RESTARTS:
            vals, vecs = theta[top[:k]], basis[:m].T @ y[:, top[:k]]
            raise ConvergenceError(
                f"Lanczos did not reach tol={tol} in {MAX_RESTARTS} restarts",
                residuals=_residuals(mv, vals, vecs),
            )
        basis[:keep] = y[:, top].T @ basis[:m]
        basis[keep] = basis[m]
        t[:] = 0.0
        t.flat[: keep * (m + 1) : m + 1] = theta[top]
        t[keep, :keep] = t[:keep, keep] = beta * y[-1, top]
        first = keep
    return theta[top[:k]], basis[:m].T @ y[:, top[:k]]


def top_eigenpairs(op, k, tol=1e-8, seed=0, start=None):
    """K algebraically-largest eigenpairs of a symmetric operator.

    Uses dense symmetric eigendecomposition for arrays and operators with
    to_dense up to DENSE_FALLBACK nodes, and the package's thick-restart
    Lanczos (_thick_restart_lanczos) otherwise, from a start vector drawn
    from seed.  Every returned pair is checked explicitly: any residual
    above tol raises ConvergenceError.  Deterministic given seed and start.

    The gate is absolute and bounds residuals only.  It does not bound the
    error of the vectors: by Davis-Kahan the angle between the returned
    and the true top-K subspace is bounded only by about residual / gap,
    gap = lambda_K - lambda_{K+1}, so when the gap is small next to tol a
    pair that passes can be far from exact.  On a two-block n=100k graph
    at tau = 1e5 the gap was 1.5e-6; a solve that passed with residual
    7e-9 returned a vector about 1e-3 rad off, and k-means placed 17 nodes
    differently.

    start, a finite, nonzero float n-vector, warm-starts the Lanczos path:
    it is added to the random draw, scaled to the draw's norm, which keeps
    a random component along every eigenvector.  It is only read, and the
    dense path ignores it; any other start raises SpeclusterError.
    """
    mv, n = _as_matvec(op)
    if k < 1 or k > n:
        raise SpeclusterError(f"k={k} out of range for operator of size {n}")
    if start is not None:
        start = np.asarray(start)
        if start.shape != (n,) or start.dtype.kind != "f" or not np.isfinite(start).all() or not start.any():
            raise SpeclusterError(f"start must be a finite, nonzero float vector of length n={n}")

    if n <= DENSE_FALLBACK and (isinstance(op, np.ndarray) or hasattr(op, "to_dense")):
        vals, vecs = np.linalg.eigh(op if isinstance(op, np.ndarray) else op.to_dense())
        vals = vals[::-1][:k].copy()
        vecs = vecs[:, ::-1][:, :k].copy()
        return EigenBasis(values=vals, vectors=_fix_signs(vecs), residuals=_residuals(mv, vals, vecs))

    if k == n:
        raise SpeclusterError(f"k={k} needs k < n for an operator without a dense path")
    rng = rng_from(seed)
    v0 = rng.standard_normal(n)
    if start is not None:
        v0 += start * (np.linalg.norm(v0) / np.linalg.norm(start))
    vals, vecs = _thick_restart_lanczos(mv, v0, k, tol, rng)
    res = _residuals(mv, vals, vecs)
    if not np.all(res <= tol):
        raise ConvergenceError(f"eigenpair residuals {res.max():.3g} exceed tol={tol}", residuals=res)
    return EigenBasis(values=vals, vectors=_fix_signs(vecs), residuals=res)


def _extreme_ritz_pair(alpha, beta, scale):
    """The largest |eigenvalue| theta of the unreduced symmetric tridiagonal
    with diagonal alpha and off-diagonal beta (lists of floats), and s, the
    |last entry| of its unit eigenvector.

    eigvalsh gives both ends of the spectrum; it reads the lower triangle
    only, so the dense matrix gets its diagonal and subdiagonal through
    strided views and nothing else.  The end of larger magnitude, lam,
    then gets the twisted factorization of T - lam I (Dhillon & Parlett
    2004): pivots from the top, d_{i+1} = c_{i+1} - beta_i^2 / d_i with c =
    alpha - lam, and from the bottom, u_i likewise, meet at the twist r
    where |gamma_r| = |d_r + u_r - c_r| is least.  The null vector x with
    x_r = 1 follows from x_i = -(beta_i / d_i) x_{i+1} above r and x_{i+1}
    = -(beta_i / u_{i+1}) x_i below, so s = |x_last| / ||x||, accurate
    wherever the eigenvector is small (a last entry from the bottom pivot
    alone is not).  (T - lam I) x = gamma_r e_r, so the Rayleigh quotient
    lam + gamma_r / ||x||^2 is theta's signed value: one Rayleigh-quotient
    step, which brings eigvalsh's few tens of ulps to LAPACK bisection's
    few.  A pivot that rounds to zero is replaced by 1e-16 * scale, scale
    at least the largest |entry| and positive.
    """
    size = len(alpha)
    if size == 1:
        return abs(alpha[0]), 1.0
    tri = np.zeros((size, size))
    tri.flat[:: size + 1] = alpha
    tri.flat[size :: size + 1] = beta
    lo, hi = np.linalg.eigvalsh(tri)[[0, -1]].tolist()
    lam = lo if abs(lo) >= abs(hi) else hi
    c = (np.asarray(alpha) - lam).tolist()
    b2 = np.square(beta).tolist()
    floor = 1e-16 * scale
    down = [c[0] or floor]
    for ci, bi in zip(c[1:], b2):
        down.append(ci - bi / down[-1] or floor)
    up = [c[-1] or floor]
    for ci, bi in zip(c[-2::-1], b2[::-1]):
        up.append(ci - bi / up[-1] or floor)
    down, up, beta = np.array(down), np.array(up[::-1]), np.asarray(beta)
    gamma = down + up - c
    r = int(np.argmin(np.abs(gamma)))
    above = np.cumprod(beta[r - 1 :: -1] / down[r - 1 :: -1]) if r else beta[:0]
    below = np.cumprod(beta[r:] / up[r + 1 :])
    norm2 = 1.0 + above @ above + below @ below
    last = below[-1] if below.size else 1.0
    return float(abs(lam + gamma[r] / norm2)), float(abs(last) / np.sqrt(norm2))


def _lanczos_norm(mv, v0, stop_above):
    """The largest |Ritz value| of one Lanczos run on mv from v0.

    Every step is the plain three-term recurrence, with no
    reorthogonalization, and holds only the current and previous Lanczos
    vectors and the matvec's result.  From step LANCZOS_FIRST_CHECK on
    (every step up to LANCZOS_EVERY_STEP_CHECKS, every LANCZOS_FIRST_CHECK
    steps after) the tridiagonal gives theta, the largest |Ritz value|,
    and s, the last entry of its eigenvector; earlier Ritz values are
    still far below the norm and would record a loose bound.  theta is
    returned as a certified lower bound once it exceeds stop_above, and as
    the value once beta |s| <= NORM_TOL theta (ARPACK's own residual
    estimate for the Ritz pair).  A breakdown, beta at most 1e-12 times
    the largest |alpha| or beta so far, or step n of an n-by-n operator
    leave an invariant Krylov space, whose Ritz values are eigenvalues:
    the run stops there too, since rounding noise normalized into a basis
    vector can push a Ritz value above the norm.  So every run returns by
    step n.  Uses one matvec per step.
    """
    n = v0.size
    q = v0 / np.linalg.norm(v0)
    del v0  # free a caller's temporary draw
    alpha, beta, scale = [], [], 0.0
    for j in range(n):
        w = mv(q)
        if j:
            w -= beta[-1] * q_prev
        alpha.append(float(q @ w))
        w -= alpha[-1] * q
        b = float(np.linalg.norm(w))
        scale = max(scale, abs(alpha[-1]), b)
        invariant = b <= 1e-12 * scale or j + 1 == n
        if invariant or j + 1 >= LANCZOS_FIRST_CHECK and (
            j < LANCZOS_EVERY_STEP_CHECKS or (j + 1) % LANCZOS_FIRST_CHECK == 0
        ):
            theta, s = _extreme_ritz_pair(alpha, beta, scale)
            if invariant or theta > stop_above or b * s <= NORM_TOL * theta:
                return theta
        beta.append(b)
        w /= b
        q_prev, q = q, w


def spectral_norm_diff(op_a, op_b, seed=0, stop_above=None):
    """Largest |eigenvalue| of the difference of two symmetric operators.

    Accepts dense arrays or matrix-free operators (any object with apply
    and shape); the difference is only ever applied to vectors.  One
    Lanczos run (_lanczos_norm) starts cold from the seeded draw
    rng_from(seed).standard_normal(n), which normalized is uniform on the
    sphere, and stops once its largest |Ritz value|'s residual estimate,
    read from the tridiagonal, is at most NORM_TOL times that value.  That
    places the value near *an* eigenvalue of the difference, not provably
    the extreme one.  It is never above the norm, though: in floating
    point Lanczos keeps its Ritz values inside the spectrum up to
    O(u ||M||) (Paige 1980), so the value is a certified lower bound at
    any tolerance.  A difference that is zero returns 0.0.

    stop_above, when given, also stops the run at the first check where
    the largest |Ritz value| exceeds it, and returns that value: a
    certified lower bound on the norm, not within NORM_TOL of it.  A
    caller that only needs to know whether the norm exceeds a threshold,
    and its value where it does not, passes the threshold.  Where the run
    never exceeds it, the result is bitwise that of the call without
    stop_above.  Deterministic given seed and stop_above.
    """
    mv_a, n_a = _as_matvec(op_a)
    mv_b, n_b = _as_matvec(op_b)
    if n_a != n_b:
        raise SpeclusterError("operator dimensions differ")
    if n_a == 0:
        raise SpeclusterError("operators are empty")
    mv = lambda v: mv_a(v) - mv_b(v)
    stop_above = np.inf if stop_above is None else stop_above
    return _lanczos_norm(mv, rng_from(seed).standard_normal(n_a), stop_above)
