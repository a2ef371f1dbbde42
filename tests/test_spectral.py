import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import specluster as sp
from specluster.blockmodel import PopulationLaplacian, full_model
from specluster.graph import build_graph
from specluster import spectral
from specluster.spectral import (
    DENSE_FALLBACK,
    NORM_TOL,
    RegularizedLaplacian,
    spectral_norm_diff,
    top_eigenpairs,
)
from conftest import complete_graph, path_graph, strong_weak_benchmark_params, two_block_benchmark_model


class MatrixFree:
    """A matrix seen only through apply, so it has no dense path."""

    def __init__(self, a):
        self.shape = a.shape
        self.apply = lambda x: a @ x


def dense_regularized(g, tau):
    a = g.adjacency.toarray() + tau / g.n
    inv = 1.0 / np.sqrt(g.degrees + tau)
    return inv[:, None] * a * inv[None, :]


def sample_graph(n=50, seed=0, p_in=0.4, p_out=0.1):
    model = sp.BlockModel.from_sizes([n // 2, n - n // 2], [[p_in, p_out], [p_out, p_in]])
    return sp.sample(model, seed)


# ---------------------------------------------------------------------------
# operator


def test_apply_unit_eigenvector():
    g = path_graph(6)
    op = RegularizedLaplacian(g, 3.0)
    v = np.sqrt(g.degrees + 3.0)
    assert np.linalg.norm(op.apply(v) - v) < 1e-10


def test_apply_path_graph_hand_value():
    # L at tau=0 for 0-1-2 maps the middle basis vector to (1/sqrt2, 0, 1/sqrt2)
    g = path_graph(3)
    op = RegularizedLaplacian(g, 0.0)
    x = np.array([0.0, 1.0, 0.0])
    expected = np.array([1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)])
    assert np.allclose(op.apply(x), expected, atol=1e-14)


def test_apply_matches_dense(rng):
    g = sample_graph()
    for tau in (0.0, 3.0, 50.0):
        op = RegularizedLaplacian(g, tau)
        dense = dense_regularized(g, tau)
        x = rng.standard_normal(g.n)
        assert np.linalg.norm(op.apply(x) - dense @ x) < 1e-12


def test_isolated_node_needs_tau():
    g = build_graph(4, [(0, 1), (1, 2)])  # node 3 isolated
    with pytest.raises(sp.SingularLaplacianError, match="tau > 0"):
        RegularizedLaplacian(g, 0.0)
    RegularizedLaplacian(g, 0.5)  # fine with regularization


@pytest.mark.parametrize("tau", [-1.0, np.nan, np.inf])
def test_tau_must_be_non_negative_and_finite(tau):
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(sp.SpeclusterError, match="non-negative and finite"):
        RegularizedLaplacian(g, tau)


def test_apply_is_linear(rng):
    g = sample_graph(seed=2)
    op = RegularizedLaplacian(g, 2.0)
    a, b = rng.standard_normal(2)
    x, y = rng.standard_normal((2, g.n))
    lhs = op.apply(a * x + b * y)
    rhs = a * op.apply(x) + b * op.apply(y)
    assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_operator_symmetry(rng):
    g = sample_graph(seed=3)
    op = RegularizedLaplacian(g, 1.5)
    x, y = rng.standard_normal((2, g.n))
    assert abs(y @ op.apply(x) - x @ op.apply(y)) < 1e-10


# ---------------------------------------------------------------------------
# eigensolver


def test_top_eigenpairs_complete_graph():
    g = complete_graph(5)
    basis = top_eigenpairs(RegularizedLaplacian(g, 0.0), 1)
    assert basis.values[0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(basis.vectors[:, 0], 1 / np.sqrt(5), atol=1e-10)


def test_dense_and_lanczos_match_brute_force():
    g = sample_graph(n=300, seed=4, p_in=0.2, p_out=0.05)
    op = RegularizedLaplacian(g, 5.0)
    dense = dense_regularized(g, 5.0)
    brute = np.linalg.eigvalsh(dense)[::-1][:4]
    dense_path = top_eigenpairs(op, 4)  # n=300 <= DENSE_FALLBACK
    # a matrix-free wrapper has no dense path, so it takes the Krylov path
    lanczos_path = top_eigenpairs(MatrixFree(dense), 4, seed=11)
    assert np.allclose(dense_path.values, brute, atol=1e-10)
    assert np.allclose(lanczos_path.values, brute, atol=1e-8)


def test_full_spectrum_small_dense():
    g = sample_graph(n=30, seed=5)
    dense = dense_regularized(g, 1.0)
    brute = np.linalg.eigvalsh(dense)[::-1]
    basis = top_eigenpairs(dense, 30)
    assert np.allclose(basis.values, brute, atol=1e-8)


def test_matrix_free_full_spectrum_rejected():
    # Lanczos needs k < n, and a matrix-free operator has no dense path
    g = sample_graph(n=30, seed=5)
    with pytest.raises(sp.SpeclusterError, match="k < n"):
        top_eigenpairs(MatrixFree(dense_regularized(g, 1.0)), 30)


def test_eigenbasis_invariants():
    g = sample_graph(n=600, seed=6, p_in=0.1, p_out=0.02)
    op = RegularizedLaplacian(g, 10.0)
    basis = top_eigenpairs(op, 3, seed=0)
    gram = basis.vectors.T @ basis.vectors
    assert np.allclose(gram, np.eye(3), atol=1e-8)
    assert np.all(basis.residuals <= 1e-7)
    assert np.all(basis.values <= 1 + 1e-8)
    assert np.all(basis.values >= -1 - 1e-8)
    assert np.all(np.diff(basis.values) <= 1e-12)


def test_lanczos_seed_invariance():
    g = sample_graph(n=600, seed=7, p_in=0.1, p_out=0.02)
    op = RegularizedLaplacian(g, 10.0)
    b1 = top_eigenpairs(op, 2, seed=1)
    b2 = top_eigenpairs(op, 2, seed=2)
    assert np.allclose(b1.values, b2.values, atol=1e-8)
    # principal angles between the two 2-dimensional subspaces
    sv = np.linalg.svd(b1.vectors.T @ b2.vectors, compute_uv=False)
    angles = np.arccos(np.clip(sv, -1, 1))
    assert np.max(angles) < 1e-6


def test_sign_convention_deterministic():
    g = sample_graph(n=40, seed=8)
    basis = top_eigenpairs(RegularizedLaplacian(g, 2.0), 3)
    for col in range(3):
        idx = int(np.argmax(np.abs(basis.vectors[:, col])))
        assert basis.vectors[idx, col] > 0


def test_second_eigenvector_separates_blocks_at_large_tau():
    # at large tau the first eigenvector is near constant and the second
    # carries the block split; measured sign agreement on this model is
    # 0.79-0.86 across seeds, so assert a clear majority per seed
    model = two_block_benchmark_model()
    z = model.membership.astype(bool)
    for seed in (3, 5, 12):
        g = sp.sample(model, seed)
        basis = top_eigenpairs(RegularizedLaplacian(g, float(g.n)), 2, seed=0)
        first_spread = basis.vectors[:, 0].std() / abs(basis.vectors[:, 0].mean())
        assert first_spread < 0.05
        signs = basis.vectors[:, 1] > 0
        agreement = max(np.mean(signs == z), np.mean(signs != z))
        assert agreement >= 0.75


def test_convergence_error_carries_residuals():
    g = sample_graph(n=600, seed=9, p_in=0.1, p_out=0.05)
    op = RegularizedLaplacian(g, 1.0)
    # Lanczos reports convergence, and the explicit residual check rejects
    # a tol that no double-precision residual can reach
    with pytest.raises(sp.ConvergenceError) as err:
        top_eigenpairs(op, 3, tol=1e-18)
    assert err.value.residuals is not None
    assert np.any(err.value.residuals > 1e-18)


def _sin_to_span(vectors, span):
    """Sine of the largest principal angle from vectors' columns to the
    span of span's orthonormal columns."""
    return np.linalg.norm(vectors - span @ (span.T @ vectors), 2)


def _assert_matches_dense(basis, dense):
    # top-K values within the gate, and the subspace within Davis-Kahan's
    # residual / gap of dense eigh's
    k = basis.values.size
    vals, vecs = np.linalg.eigh(dense)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    assert np.allclose(basis.values, vals[:k], rtol=0, atol=1e-8)
    gap = vals[k - 1] - vals[k]
    assert _sin_to_span(basis.vectors, vecs[:, :k]) <= 2 * np.sqrt(k) * basis.residuals.max() / gap + 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_lanczos_matches_dense_eigh(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(DENSE_FALLBACK + 1, 1000))
    blocks = int(rng.integers(2, 5))
    b = np.full((blocks, blocks), rng.uniform(0.002, 0.01)) + np.diag(np.full(blocks, rng.uniform(0.02, 0.06)))
    sizes = [n // blocks] * (blocks - 1) + [n - (blocks - 1) * (n // blocks)]
    g = sp.sample(sp.BlockModel.from_sizes(sizes, b), seed)
    tau = float(rng.choice([0.0, 1.0, 30.0, float(n)])) if g.degrees.min() > 0 else 1.0
    op = RegularizedLaplacian(g, tau)
    _assert_matches_dense(top_eigenpairs(op, int(rng.integers(2, 6)), seed=seed), op.to_dense())


def test_lanczos_matches_dense_eigh_on_clustered_top_eigenvalues():
    # the strong/weak benchmark at a large tau: below the leading 1, the
    # next eigenvalues lie within 4e-4 of each other, with gaps down to 3e-5
    g = sp.sample(full_model(strong_weak_benchmark_params()), 0)
    op = RegularizedLaplacian(g, 2000.0)
    dense = op.to_dense()
    for k in (2, 3, 5):
        _assert_matches_dense(top_eigenpairs(op, k), dense)


def test_lanczos_finds_every_copy_of_a_repeated_eigenvalue():
    # three disjoint components: at tau = 0 eigenvalue 1 has multiplicity
    # three, its eigenspace spanned by sqrt(degree) on each component.  A
    # Krylov space holds one direction of it; the other copies enter
    # through rounding and restarts
    model = sp.BlockModel.from_sizes([300] * 3, np.diag([0.05] * 3))
    g = sp.sample(model, 1)
    op = RegularizedLaplacian(g, 0.0)
    vals, vecs = np.linalg.eigh(op.to_dense())
    vals, vecs = vals[::-1], vecs[:, ::-1]
    assert vals[3] < 1 - 0.1  # each component is connected
    ones = np.zeros((g.n, 3))
    for c in range(3):
        on = model.membership == c
        ones[on, c] = np.sqrt(g.degrees[on]) / np.sqrt(g.degrees[on].sum())
    for k in (2, 3, 4):
        for seed in range(3):
            basis = top_eigenpairs(op, k, seed=seed)
            top = min(k, 3)
            assert np.allclose(basis.values[:top], 1.0, rtol=0, atol=1e-10)
            assert _sin_to_span(basis.vectors[:, :top], ones) <= 1e-8
            if k == 4:
                assert basis.values[3] == pytest.approx(vals[3], abs=1e-8)
                assert _sin_to_span(basis.vectors[:, 3:], vecs[:, 3:4]) <= 1e-6


def test_k_out_of_range():
    g = path_graph(4)
    with pytest.raises(sp.SpeclusterError):
        top_eigenpairs(RegularizedLaplacian(g, 1.0), 5)


# ---------------------------------------------------------------------------
# norms


def test_spectral_norm_diff_identical_is_zero():
    g = sample_graph(seed=10)
    op = RegularizedLaplacian(g, 2.0)
    assert spectral_norm_diff(op, op) == 0.0


def test_spectral_norm_diff_diagonal():
    a = np.diag([3.0, -5.0])
    b = np.zeros((2, 2))
    assert spectral_norm_diff(a, b) == pytest.approx(5.0, rel=1e-6)


def test_spectral_norm_diff_matches_dense(rng):
    a = rng.standard_normal((40, 40))
    a = (a + a.T) / 2
    b = rng.standard_normal((40, 40))
    b = (b + b.T) / 2
    exact = np.max(np.abs(np.linalg.eigvalsh(a - b)))
    assert spectral_norm_diff(a, b) == pytest.approx(exact, rel=1e-6)


def _sweep_difference(kind, n, rng):
    """A symmetric n x n difference: random, with a clustered top |eigenvalue|, or rank two."""
    if kind == "random":
        a = rng.standard_normal((n, n))
        return (a + a.T) / 2
    if kind == "clustered-top":
        vals = rng.uniform(-0.5, 0.5, n)
        vals[: min(3, n)] = (1.0 - 1e-9 * np.arange(min(3, n))) * rng.choice([-1.0, 1.0])
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return (q * vals) @ q.T
    u, v = rng.standard_normal((2, n))
    return np.outer(u, u) - 0.5 * np.outer(v, v)


@pytest.mark.parametrize("kind", ["random", "clustered-top", "rank-two"])
def test_norm_never_exceeds_the_dense_norm_on_small_differences(kind):
    # n on both sides of LANCZOS_EVERY_STEP_CHECKS: below it every step is
    # checked, beyond it every LANCZOS_FIRST_CHECK steps and at step n
    assert spectral.LANCZOS_EVERY_STEP_CHECKS in range(2, 60)
    for n in range(2, 60):
        for seed in range(30):
            diff = _sweep_difference(kind, n, np.random.default_rng([n, seed]))
            exact = np.abs(np.linalg.eigvalsh(diff)).max()
            zero = np.zeros((n, n))
            full = spectral_norm_diff(diff, zero, seed=seed)
            assert exact * (1 - 1e-6) <= full <= exact * (1 + 1e-12)
            for stop_above in (0.0, exact / 2):
                bound = spectral_norm_diff(diff, zero, seed=seed, stop_above=stop_above)
                assert bound <= exact * (1 + 1e-12)


def test_extreme_ritz_pair_agrees_with_eigh_tridiagonal():
    # the norm's theta and s against LAPACK's bisection and inverse
    # iteration: theta to 4 ulp of max |T| on every input, and s to 1e-10
    # wherever T is unreduced (every off-diagonal nonzero), as every
    # tridiagonal of a norm run is
    rng = np.random.default_rng(60)
    for size in range(1, 61):
        for trial in range(6):
            d = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4)
            e = np.abs(rng.standard_normal(size - 1))
            if trial == 1:
                e[rng.random(size - 1) < 0.3] = 0.0  # split into blocks
            if trial == 2:
                d[:] = 0.0  # a zero difference: every Ritz value is 0
                e[:] = 0.0
            scale = max(np.abs(d).max(), e.max(initial=0.0))
            if scale == 0.0 and size > 1:
                continue  # a run on a zero difference stops at its first step
            theta, s = spectral._extreme_ritz_pair(d.tolist(), e.tolist(), scale)
            ends = [eigh_tridiagonal(d, e, select="i", select_range=(i, i)) for i in (0, size - 1)]
            vals, vecs = max(ends, key=lambda pair: abs(pair[0][0]))
            assert abs(theta - abs(vals[0])) <= 4 * np.spacing(scale)
            if trial not in (1, 2):
                assert abs(s - abs(vecs[-1, 0])) <= 1e-10


def test_spectral_norm_diff_dimension_mismatch():
    with pytest.raises(sp.SpeclusterError):
        spectral_norm_diff(np.eye(3), np.eye(4))


def test_spectral_norm_diff_rejects_empty_operators():
    with pytest.raises(sp.SpeclusterError, match="empty"):
        spectral_norm_diff(np.zeros((0, 0)), np.zeros((0, 0)))


def test_norm_memory_is_far_below_dense():
    # a run holds two Lanczos vectors and the matvec's result, never a
    # stored basis: at most 8 n-vectors with both operators' temporaries
    model = two_block_benchmark_model()
    g = sp.sample(model, 0)
    sample_op = RegularizedLaplacian(g, 50.0)
    pop = PopulationLaplacian(model, 50.0)
    tracemalloc.start()
    try:
        spectral_norm_diff(sample_op, pop)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (8 * g.n) + 64 * 1024


def test_rank_one_operator_above_dense_fallback():
    # a rank-one operator exhausts its Krylov space after two vectors: the
    # eigensolve's Lanczos must restart from a fresh direction, and the
    # norm's Lanczos run stops at that breakdown (a residual of rounding
    # noise normalized into a third basis vector once grew the
    # tridiagonal's top eigenvalue to ~10, above the norm)
    n = DENSE_FALLBACK + 88
    a = np.zeros((n, n))
    a[0, 0] = 5.0
    for seed in range(50):
        for stop_above in (None, 0.0, 2.5, 4.9):
            got = spectral_norm_diff(a, np.zeros((n, n)), seed=seed, stop_above=stop_above)
            assert got == pytest.approx(5.0, rel=1e-12, abs=0)
    basis = top_eigenpairs(a, 3)
    assert np.allclose(basis.vectors.T @ basis.vectors, np.eye(3), atol=1e-12)
    assert np.allclose(basis.values, [5.0, 0.0, 0.0], atol=1e-12)
    assert np.all(basis.residuals <= 1e-8)
    # the restart directions come from seed, so the answer repeats bitwise
    assert np.array_equal(top_eigenpairs(a, 3).vectors, basis.vectors)


@pytest.mark.parametrize("n", [4, 12, DENSE_FALLBACK + 88])
def test_lanczos_bound_survives_breakdown_on_a_rank_one_difference(n):
    # a rank-one operator's Krylov space is invariant after two steps, so
    # the run stops at that breakdown, before its first regular check,
    # with a value at most the norm
    for seed in range(20):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(n)
        a = np.outer(u, u) * (1.0 if seed % 2 else -1.0)
        exact = np.linalg.norm(a, 2)
        for stop_above in (0.0, 0.5 * exact):
            got = spectral_norm_diff(a, np.zeros((n, n)), seed=seed, stop_above=stop_above)
            assert stop_above < got <= exact * (1 + 1e-12)
    # three nonzeros: the draw's part off them and the three coordinates
    # span an invariant space, so a lone call stops after four matvecs
    diag = np.zeros(n)
    diag[[0, n // 2, n - 1]] = [1.0, -4.0, 2.5]
    op = _CountingDiagonal(diag)
    assert spectral_norm_diff(op, np.zeros((n, n))) == pytest.approx(4.0, rel=1e-12, abs=0)
    assert op.applies == 4


class _CountingDiagonal:
    def __init__(self, diag):
        self.diag, self.shape, self.applies = diag, (diag.size, diag.size), 0

    def apply(self, x):
        self.applies += 1
        return self.diag * x


def test_norm_stops_at_step_n_of_an_n_by_n_difference():
    # found by the small-n sweep above with the step-n stop removed: the
    # clustered top eigenvalues cost the plain recurrence its orthogonality,
    # so beta at step n is 2e-5 of the largest alpha, far above the
    # breakdown threshold, and the run went on to six matvecs
    n, seed = 4, 14
    diff = _sweep_difference("clustered-top", n, np.random.default_rng([n, seed]))
    applies = []

    class Counting:
        shape = diff.shape

        def apply(self, x):
            applies.append(1)
            return diff @ x

    got = spectral_norm_diff(Counting(), np.zeros((n, n)), seed=seed)
    assert len(applies) <= n
    assert got == pytest.approx(np.linalg.norm(diff, 2), rel=NORM_TOL, abs=0)


def test_norm_residual_check_accepts_an_eigenvalue_below_the_norm():
    # the certificate is one-sided: a start orthogonal to the top
    # eigenvector of a diagonal operator keeps the whole Krylov space
    # orthogonal to it, and the residual test then accepts the second
    # eigenvalue, which is a lower bound on the norm and not the norm
    n = DENSE_FALLBACK + 88
    diag = np.concatenate([[2.0, 1.0], np.linspace(-0.5, 0.5, n - 2)])
    v0 = np.random.default_rng(0).standard_normal(n)
    v0[0] = 0.0
    estimate = spectral._lanczos_norm(lambda x: diag * x, v0, np.inf)
    assert estimate == pytest.approx(1.0, rel=NORM_TOL)
    assert estimate < np.linalg.norm(np.diag(diag), 2) == 2.0


def test_frobenius_dominates_spectral(rng):
    a = rng.standard_normal((40, 40))
    a = (a + a.T) / 2
    b = rng.standard_normal((40, 40))
    b = (b + b.T) / 2
    assert np.linalg.norm(a - b) >= spectral_norm_diff(a, b) - 1e-9
