import tracemalloc

import numpy as np
import pytest

import specluster as sp
from specluster.spectral import DENSE_FALLBACK
from conftest import complete_graph, path_graph, two_block_benchmark_model


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
    op = sp.RegularizedLaplacian(g, 3.0)
    v = np.sqrt(g.degrees + 3.0)
    assert np.linalg.norm(op.apply(v) - v) < 1e-10


def test_apply_path_graph_hand_value():
    # L at tau=0 for 0-1-2 maps the middle basis vector to (1/sqrt2, 0, 1/sqrt2)
    g = path_graph(3)
    op = sp.RegularizedLaplacian(g, 0.0)
    x = np.array([0.0, 1.0, 0.0])
    expected = np.array([1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)])
    assert np.allclose(op.apply(x), expected, atol=1e-14)


def test_apply_matches_dense(rng):
    g = sample_graph()
    for tau in (0.0, 3.0, 50.0):
        op = sp.RegularizedLaplacian(g, tau)
        dense = dense_regularized(g, tau)
        x = rng.standard_normal(g.n)
        assert np.linalg.norm(op.apply(x) - dense @ x) < 1e-12


def test_apply_deg_variant():
    g = sample_graph(seed=1)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(g.n)
    op0 = sp.RegularizedLaplacian(g, 0.0)
    assert np.allclose(op0.apply(x), op0.apply_deg_variant(x), atol=1e-14)
    op = sp.RegularizedLaplacian(g, 3.0)
    inv = 1.0 / np.sqrt(g.degrees + 3.0)
    dense = inv[:, None] * g.adjacency.toarray() * inv[None, :]
    assert np.linalg.norm(op.apply_deg_variant(x) - dense @ x) < 1e-12
    huge = sp.RegularizedLaplacian(g, 1e12)
    assert np.max(np.abs(huge.apply_deg_variant(x))) < 1e-9


def test_isolated_node_needs_tau():
    g = sp.build_graph(4, [(0, 1), (1, 2)])  # node 3 isolated
    with pytest.raises(sp.SingularLaplacianError, match="tau > 0"):
        sp.RegularizedLaplacian(g, 0.0)
    sp.RegularizedLaplacian(g, 0.5)  # fine with regularization


def test_apply_is_linear(rng):
    g = sample_graph(seed=2)
    op = sp.RegularizedLaplacian(g, 2.0)
    a, b = rng.standard_normal(2)
    x, y = rng.standard_normal((2, g.n))
    lhs = op.apply(a * x + b * y)
    rhs = a * op.apply(x) + b * op.apply(y)
    assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_operator_symmetry(rng):
    g = sample_graph(seed=3)
    op = sp.RegularizedLaplacian(g, 1.5)
    x, y = rng.standard_normal((2, g.n))
    assert abs(y @ op.apply(x) - x @ op.apply(y)) < 1e-10


# ---------------------------------------------------------------------------
# eigensolver


def test_top_eigenpairs_complete_graph():
    g = complete_graph(5)
    basis = sp.top_eigenpairs(sp.RegularizedLaplacian(g, 0.0), 1)
    assert basis.values[0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(basis.vectors[:, 0], 1 / np.sqrt(5), atol=1e-10)


def test_dense_and_lanczos_match_brute_force():
    g = sample_graph(n=300, seed=4, p_in=0.2, p_out=0.05)
    op = sp.RegularizedLaplacian(g, 5.0)
    brute = np.linalg.eigvalsh(dense_regularized(g, 5.0))[::-1][:4]
    dense_path = sp.top_eigenpairs(op, 4)  # n=300 <= dense threshold
    lanczos_path = sp.top_eigenpairs(op, 4, dense_threshold=0, seed=11)
    assert np.allclose(dense_path.values, brute, atol=1e-10)
    assert np.allclose(lanczos_path.values, brute, atol=1e-8)


def test_lanczos_full_spectrum_small():
    g = sample_graph(n=30, seed=5)
    op = sp.RegularizedLaplacian(g, 1.0)
    brute = np.linalg.eigvalsh(dense_regularized(g, 1.0))[::-1]
    basis = sp.top_eigenpairs(op, 30, dense_threshold=0, max_iter=60)
    assert np.allclose(basis.values, brute, atol=1e-8)


def test_eigenbasis_invariants():
    g = sample_graph(n=600, seed=6, p_in=0.1, p_out=0.02)
    op = sp.RegularizedLaplacian(g, 10.0)
    basis = sp.top_eigenpairs(op, 3, seed=0)
    gram = basis.vectors.T @ basis.vectors
    assert np.allclose(gram, np.eye(3), atol=1e-8)
    assert np.all(basis.residuals <= 1e-7)
    assert np.all(basis.values <= 1 + 1e-8)
    assert np.all(basis.values >= -1 - 1e-8)
    assert np.all(np.diff(basis.values) <= 1e-12)


def test_lanczos_seed_invariance():
    g = sample_graph(n=600, seed=7, p_in=0.1, p_out=0.02)
    op = sp.RegularizedLaplacian(g, 10.0)
    b1 = sp.top_eigenpairs(op, 2, seed=1)
    b2 = sp.top_eigenpairs(op, 2, seed=2)
    assert np.allclose(b1.values, b2.values, atol=1e-8)
    # principal angles between the two 2-dimensional subspaces
    sv = np.linalg.svd(b1.vectors.T @ b2.vectors, compute_uv=False)
    angles = np.arccos(np.clip(sv, -1, 1))
    assert np.max(angles) < 1e-6


def test_sign_convention_deterministic():
    g = sample_graph(n=40, seed=8)
    basis = sp.top_eigenpairs(sp.RegularizedLaplacian(g, 2.0), 3)
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
        basis = sp.top_eigenpairs(sp.RegularizedLaplacian(g, float(g.n)), 2, seed=0)
        first_spread = basis.vectors[:, 0].std() / abs(basis.vectors[:, 0].mean())
        assert first_spread < 0.05
        signs = basis.vectors[:, 1] > 0
        agreement = max(np.mean(signs == z), np.mean(signs != z))
        assert agreement >= 0.75


def test_convergence_error_carries_residuals():
    g = sample_graph(n=600, seed=9, p_in=0.1, p_out=0.05)
    op = sp.RegularizedLaplacian(g, 1.0)
    with pytest.raises(sp.ConvergenceError) as err:
        sp.top_eigenpairs(op, 30, tol=1e-14, max_iter=32, dense_threshold=0)
    assert err.value.residuals is not None


def test_k_out_of_range():
    g = path_graph(4)
    with pytest.raises(sp.SpeclusterError):
        sp.top_eigenpairs(sp.RegularizedLaplacian(g, 1.0), 5)


# ---------------------------------------------------------------------------
# norms


def test_spectral_norm_diff_identical_is_zero():
    g = sample_graph(seed=10)
    op = sp.RegularizedLaplacian(g, 2.0)
    assert sp.spectral_norm_diff(op, op) == 0.0


def test_spectral_norm_diff_diagonal():
    a = np.diag([3.0, -5.0])
    b = np.zeros((2, 2))
    assert sp.spectral_norm_diff(a, b) == pytest.approx(5.0, rel=1e-6)


def test_spectral_norm_diff_matches_dense(rng):
    a = rng.standard_normal((40, 40))
    a = (a + a.T) / 2
    b = rng.standard_normal((40, 40))
    b = (b + b.T) / 2
    exact = np.max(np.abs(np.linalg.eigvalsh(a - b)))
    assert sp.spectral_norm_diff(a, b) == pytest.approx(exact, rel=1e-6)


def test_spectral_norm_diff_dimension_mismatch():
    with pytest.raises(sp.SpeclusterError):
        sp.spectral_norm_diff(np.eye(3), np.eye(4))


def test_norm_memory_does_not_depend_on_cap():
    # the Krylov basis grows with the dimension reached, never to the cap
    model = two_block_benchmark_model()
    g = sp.sample(model, 0)
    sample_op = sp.RegularizedLaplacian(g, 50.0)
    pop = sp.PopulationLaplacian(model, 50.0)
    capped = sp.spectral_norm_diff(sample_op, pop, max_iter=400)
    tracemalloc.start()
    try:
        uncapped = sp.spectral_norm_diff(sample_op, pop, max_iter=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.n * g.n * 8 / 4
    assert uncapped == capped


def test_breakdown_restart_on_rank_deficient_operator():
    # a rank-one operator exhausts its Krylov space after two vectors, so
    # both callers go through the breakdown restart
    n = DENSE_FALLBACK + 88
    a = np.zeros((n, n))
    a[0, 0] = 5.0
    assert abs(sp.spectral_norm_diff(a, np.zeros((n, n))) - 5.0) <= 1e-12
    basis = sp.top_eigenpairs(a, 3)
    assert np.allclose(basis.vectors.T @ basis.vectors, np.eye(3), atol=1e-12)
    assert np.allclose(basis.values, [5.0, 0.0, 0.0], atol=1e-12)
    assert np.all(basis.residuals <= 1e-8)


def test_frobenius_norm_diff():
    assert sp.frobenius_norm_diff(np.eye(4), np.eye(4)) == 0.0
    e11 = np.zeros((3, 3))
    e11[0, 0] = 1.0
    assert sp.frobenius_norm_diff(e11, np.zeros((3, 3))) == pytest.approx(1.0)


def test_frobenius_dominates_spectral(rng):
    a = rng.standard_normal((40, 40))
    a = (a + a.T) / 2
    b = rng.standard_normal((40, 40))
    b = (b + b.T) / 2
    assert sp.frobenius_norm_diff(a, b) >= sp.spectral_norm_diff(a, b) - 1e-9


def test_eigenbasis_csv_roundtrip(tmp_path):
    g = sample_graph(n=30, seed=13)
    basis = sp.top_eigenpairs(sp.RegularizedLaplacian(g, 1.0), 3)
    path = tmp_path / "basis.csv"
    sp.save_eigenbasis(basis, path)
    loaded = sp.load_eigenbasis(path)
    assert np.array_equal(loaded.values, basis.values)
    assert np.array_equal(loaded.vectors, basis.vectors)
