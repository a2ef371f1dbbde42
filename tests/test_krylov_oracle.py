"""The package's own Krylov code against an independent one, at the sizes
the benchmark runs.

scipy's ARPACK wrapper (eigsh) is imported here only, so it stays off the
package's import graph.  On criterion 5's model scaled to n nodes (B x
3000 / n, where the K-th gap at tau = n is the smallest the benchmark
meets), at 5 taus from 1 to n:
- top_eigenpairs, from a cold start and from tau_scan's round-2 anchor,
  gives eigsh's values to 1e-12, and a subspace within the Davis-Kahan
  bound of eigsh's, residual over gap;
- spectral_norm_diff, in full, gives eigsh's largest |eigenvalue| of the
  difference to NORM_TOL, and never more;
- a bound from stop_above is never above eigsh's value.

The n = 100k run is opt-in: pytest -m krylov100k.
"""

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, eigsh

import specluster as sp
from specluster import selection
from specluster.blockmodel import PopulationLaplacian
from specluster.selection import estimate_block_matrix
from specluster.spectral import NORM_TOL, RegularizedLaplacian, spectral_norm_diff, top_eigenpairs

K = 2


def _arpack(matvec, n, which, count):
    """eigsh's count eigenpairs of the symmetric operator matvec, sorted by
    descending value, each value to 1e-13 relative."""
    op = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    v0 = np.random.default_rng(0).standard_normal(n)
    vals, vecs = eigsh(op, k=count, which=which, tol=1e-13, ncv=20, v0=v0)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def _residual_norm(matvec, vals, vecs):
    """Frobenius norm of M V - V diag(vals), a bound on its 2-norm."""
    return float(np.linalg.norm(np.column_stack([matvec(vecs[:, i]) - vals[i] * vecs[:, i] for i in range(vals.size)])))


def check_against_arpack(n):
    b = np.array([[0.01, 0.0025], [0.0025, 0.003]]) * 3000 / n
    g = sp.sample(sp.BlockModel.from_sizes([n // 2, n - n // 2], b), 1)
    grid = np.geomspace(1.0, n, 5)
    pivot = sp.regularized_spectral_clustering(g, K, grid[selection._pivot(grid, g.mean_degree)], seed=0)
    bhat, _ = estimate_block_matrix(g, pivot)
    for tau in grid:
        op = RegularizedLaplacian(g, tau)
        ref_vals, ref_vecs = _arpack(op.apply, n, "LA", K + 1)
        gap = ref_vals[K - 1] - ref_vals[K]
        u = ref_vecs[:, :K]
        ref_res = _residual_norm(op.apply, ref_vals[:K], u)
        for start in (None, np.sqrt(g.degrees + tau) * (1.0 + pivot.labels)):
            basis = top_eigenpairs(op, K, seed=3, start=start)
            assert np.abs(basis.values - ref_vals[:K]).max() <= 1e-12
            # sin of the largest principal angle, as ||(I - U U') V||_2, which
            # keeps its digits where 1 - cos^2 floors near 1e-8
            v = basis.vectors
            sin_theta = np.linalg.norm(v - u @ (u.T @ v), 2)
            assert sin_theta <= (np.linalg.norm(basis.residuals) + ref_res) / gap, (tau, sin_theta, gap)

        fitted = PopulationLaplacian(sp.BlockModel(pivot.labels, bhat), tau)
        diff = lambda x: op.apply(x) - fitted.apply(x)
        ref_norm = float(np.abs(_arpack(diff, n, "LM", 1)[0][0]))
        full = spectral_norm_diff(op, fitted, seed=3)
        assert ref_norm * (1 - NORM_TOL) <= full <= ref_norm * (1 + 1e-12)
        for stop_above in (0.0, 0.9 * ref_norm):
            bound = spectral_norm_diff(op, fitted, seed=3, stop_above=stop_above)
            assert stop_above < bound <= ref_norm * (1 + 1e-12)


def test_krylov_code_matches_arpack_at_15k():
    check_against_arpack(15_000)


@pytest.mark.krylov100k
def test_krylov_code_matches_arpack_at_100k():
    check_against_arpack(100_000)
