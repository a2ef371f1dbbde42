
import hashlib
import multiprocessing
import os
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import specluster as sp
from conftest import two_block_benchmark_model, two_cliques
from specluster import selection, spectral
from specluster.blockmodel import PopulationLaplacian
from specluster.graph import build_graph
from specluster.selection import _EstimatedDSBMLaplacian, dkest_statistic, estimate_block_matrix
from specluster.spectral import DENSE_FALLBACK, RegularizedLaplacian, spectral_norm_diff


def two_triangles():
    return build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


def dense_estimated_sbm(g, labels, bhat, tau):
    """Independent dense construction of the fitted population Laplacian."""
    p = bhat[labels][:, labels]
    d = p.sum(axis=1) + tau
    inv = 1.0 / np.sqrt(d)
    return inv[:, None] * (p + tau / g.n) * inv[None, :]


def dense_estimated_dsbm(g, labels, counts, tau):
    row = counts.sum(axis=1)
    theta = g.degrees / row[labels]
    p = theta[:, None] * counts[labels][:, labels] * theta[None, :]
    p = np.minimum(p, 1.0)
    inv = 1.0 / np.sqrt(g.degrees + tau)
    return inv[:, None] * (p + tau / g.n) * inv[None, :]


def hub_graph():
    """Degree-heterogeneous graph that forces probability clamping."""
    edges = [(0, j) for j in range(1, 30)]  # node 0 is a hub
    edges += [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (30, 31)]
    edges += [(30, j) for j in range(32, 40)]
    return build_graph(40, edges)


# ---------------------------------------------------------------------------
# fitted block matrix


def test_estimate_block_matrix_two_triangles():
    g = two_triangles()
    part = sp.Partition(np.repeat([0, 1], 3), 2)
    bhat, counts = estimate_block_matrix(g, part)
    assert np.allclose(bhat, [[6 / 9, 0.0], [0.0, 6 / 9]])
    assert np.allclose(counts, [[6.0, 0.0], [0.0, 6.0]])


def test_estimate_block_matrix_no_edges_is_zero():
    g = build_graph(4, np.empty((0, 2), dtype=int))
    part = sp.Partition(np.array([0, 0, 1, 1]), 2)
    bhat, counts = estimate_block_matrix(g, part)
    assert np.all(bhat == 0.0)
    assert np.all(counts == 0.0)


def test_estimate_block_matrix_single_cluster():
    g = two_triangles()
    part = sp.Partition(np.zeros(6, dtype=int), 1)
    bhat, _ = estimate_block_matrix(g, part)
    assert bhat[0, 0] == pytest.approx(2 * g.num_edges / g.n**2)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_estimate_block_matrix_counts_like_a_loop(k):
    model = sp.BlockModel.from_sizes([40] * k, np.full((k, k), 0.1) + 0.3 * np.eye(k))
    g = sp.sample(model, k)
    part = sp.Partition(np.random.default_rng(k).permutation(model.membership), k)
    want = np.zeros((k, k))
    for i, j in g.edges:
        want[part.labels[i], part.labels[j]] += 1.0
        want[part.labels[j], part.labels[i]] += 1.0
    bhat, counts = estimate_block_matrix(g, part)
    assert np.array_equal(counts, want)
    sizes = np.bincount(part.labels, minlength=k)
    assert np.array_equal(bhat, want / np.outer(sizes, sizes))


def test_estimate_block_matrix_empty_cluster():
    g = two_triangles()
    part = sp.Partition(np.zeros(6, dtype=int), 2)
    with pytest.raises(sp.EmptyClusterError, match="cluster 1"):
        estimate_block_matrix(g, part)


# ---------------------------------------------------------------------------
# fitted Laplacian operators vs dense oracles


def sample_two_block(n=60, seed=0):
    model = sp.BlockModel.from_sizes([n // 2, n - n // 2], [[0.5, 0.1], [0.1, 0.4]])
    g = sp.sample(model, seed)
    part = sp.Partition(model.membership, 2)
    return g, part


def test_estimated_sbm_operator_matches_dense(rng):
    g, part = sample_two_block()
    bhat, _ = estimate_block_matrix(g, part)
    fitted = sp.BlockModel(part.labels, bhat)
    for tau in (0.5, 5.0, 100.0):
        est = PopulationLaplacian(fitted, tau)
        dense = dense_estimated_sbm(g, part.labels, bhat, tau)
        x = rng.standard_normal(g.n)
        assert np.linalg.norm(est.apply(x) - dense @ x) < 1e-12
        assert np.linalg.norm(est.to_dense() - dense) < 1e-12
        # K-th largest over the full spectrum, zeros included
        vals = np.sort(np.linalg.eigvalsh(dense))[::-1]
        assert sp.eigen_gap(fitted, tau) == pytest.approx(vals[1], abs=1e-10)


def test_estimated_dsbm_operator_matches_dense_without_clamps(rng):
    g, part = sample_two_block(seed=5)
    _, counts = estimate_block_matrix(g, part)
    for tau in (0.5, 12.0):
        est = _EstimatedDSBMLaplacian(g, part, counts, tau)
        assert est.excess is None
        dense = dense_estimated_dsbm(g, part.labels, counts, tau)
        x = rng.standard_normal(g.n)
        assert np.linalg.norm(est.apply(x) - dense @ x) < 1e-12
        vals = np.sort(np.linalg.eigvalsh(dense))[::-1]
        assert est.mu_k() == pytest.approx(vals[1], abs=1e-10)


def test_dsbm_fitted_rows_reproduce_degrees():
    g, part = sample_two_block(seed=4)
    _, counts = estimate_block_matrix(g, part)
    est = _EstimatedDSBMLaplacian(g, part, counts, 3.0)
    labels = part.labels
    p = est.theta[:, None] * counts[labels][:, labels] * est.theta[None, :]
    assert np.max(np.abs(p.sum(axis=1) - g.degrees)) < 1e-10


def test_dsbm_clamping_matches_dense(rng):
    g = hub_graph()
    part = sp.Partition((np.arange(40) >= 30).astype(int), 2)
    _, counts = estimate_block_matrix(g, part)
    for tau in (0.5, 4.0):
        est = _EstimatedDSBMLaplacian(g, part, counts, tau)
        assert est.excess is not None
        dense = dense_estimated_dsbm(g, part.labels, counts, tau)
        x = rng.standard_normal(g.n)
        assert np.linalg.norm(est.apply(x) - dense @ x) < 1e-12
        assert np.linalg.norm(est.to_dense() - dense) < 1e-12
        vals = np.sort(np.linalg.eigvalsh(dense))[::-1]
        assert est.mu_k() == pytest.approx(vals[1], abs=1e-8)


def test_dsbm_fit_apply_peaks_no_higher_than_the_plain_fit(rng):
    # n-vectors above numpy's 256 kB, so that it reuses temporaries in place
    n = 50_000
    model = sp.BlockModel.from_sizes([n // 2, n // 2], [[10 / n, 2 / n], [2 / n, 10 / n]])
    g = sp.sample(model, 0)
    part = sp.Partition(model.membership, 2)
    bhat, counts = estimate_block_matrix(g, part)
    x = rng.standard_normal(n)

    def apply_peak(op):
        op.apply(x)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            op.apply(x)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    dsbm = apply_peak(_EstimatedDSBMLaplacian(g, part, counts, 3.0))
    plain = apply_peak(PopulationLaplacian(sp.BlockModel(part.labels, bhat), 3.0))
    # both hold two n-vectors at their peak (the result among them); the
    # 4 kB allow for K-sized temporaries, far below one n-vector
    assert plain >= 2 * 8 * n
    assert dsbm <= plain + 4096, (dsbm, plain)


def test_dsbm_clamped_fit_builds_its_sparse_excess_once_at_construction(monkeypatch, rng):
    built = []
    real_coo = selection.sparse.coo_array

    def counting(*args, **kwargs):
        built.append(None)
        return real_coo(*args, **kwargs)

    monkeypatch.setattr(selection.sparse, "coo_array", counting)
    g = hub_graph()
    part = sp.Partition((np.arange(40) >= 30).astype(int), 2)
    _, counts = estimate_block_matrix(g, part)
    est = _EstimatedDSBMLaplacian(g, part, counts, 0.5)
    excess = est.excess
    assert excess is not None and len(built) == 1
    est.mu_k()
    x = rng.standard_normal(g.n)
    for _ in range(2):
        assert np.linalg.norm(est.apply(x) - est.to_dense() @ x) < 1e-12
    assert est.excess is excess and len(built) == 1


def test_dsbm_excess_holds_every_clamped_entry_of_the_dense_fit():
    # hub_graph clamps diagonal and off-diagonal pairs; the star clamps
    # pairs on a single hub next to a zero-theta cluster
    fits = [(hub_graph(), sp.Partition((np.arange(40) >= 30).astype(int), 2)), star_with_isolated_cluster()]
    for g, part in fits:
        _, counts = estimate_block_matrix(g, part)
        est = _EstimatedDSBMLaplacian(g, part, counts, 2.0)
        raw = est.theta[:, None] * counts[part.labels][:, part.labels] * est.theta[None, :]
        dense = est.excess.toarray()
        assert np.array_equal(dense != 0, raw > 1)
        assert np.array_equal(dense, dense.T)
        assert np.allclose(dense[raw > 1], raw[raw > 1] - 1.0, rtol=1e-14, atol=0)
        assert est.clamped_entries == np.count_nonzero(np.triu(raw > 1)) > 0


def dcsbm_model(n, k=3, alpha=2.5, degree=15.0):
    """Degree-corrected k-block model with in/out ratio 6, mean degree
    about degree and Pareto(alpha) quantile thetas, capped so every
    probability is <= 1."""
    c = degree / (n * 8.0 / 3.0)
    b = np.full((k, k), c)
    np.fill_diagonal(b, 6.0 * c)
    base = sp.BlockModel.from_sizes([n // k] * k, b)
    m = n // k
    quantiles = (1.0 - (np.arange(m) + 0.5) / m) ** (-1.0 / alpha)
    theta = np.tile(quantiles / quantiles.mean(), k)
    np.minimum(theta, np.sqrt(1.0 / b.max()), out=theta)
    return sp.DegreeCorrectedModel(base=base, theta=theta)


@pytest.mark.parametrize("seed", [0, 1, 3])  # seed 2's true fit clamps a hub pair
def test_dsbm_mu_k_keeps_full_precision(seed):
    # the block columns a theta of the factored reduction are tiny next to
    # its all-a column; without rescaling, mu_k lost ~1e-9 relative here
    model = dcsbm_model(3000)
    g = sp.sample(model, seed)
    part = sp.Partition(model.base.membership, 3)
    _, counts = estimate_block_matrix(g, part)
    omega = np.random.default_rng(seed).standard_normal((g.n, 8))
    for tau in (1.0, 3.67, 13.5, 49.5):
        est = _EstimatedDSBMLaplacian(g, part, counts, tau)
        assert est.excess is None
        # independent oracle: the fit has rank <= K+1 = 4, so an 8-column
        # range projection of the dense matrix captures it; the residual
        # check proves that it did
        p = est.to_dense()
        q, _ = np.linalg.qr(p @ omega)
        core = q.T @ p @ q
        p_norm = np.linalg.norm(p)
        p -= (q @ core) @ q.T
        assert np.linalg.norm(p) <= 1e-12 * p_norm
        exact = np.sort(np.append(np.linalg.eigvalsh(core), 0.0))[::-1][2]
        assert est.mu_k() == pytest.approx(exact, rel=1e-12)


def test_dsbm_mu_k_with_a_cluster_of_isolated_nodes():
    # theta = 0 on cluster 2 leaves a zero on the diagonal of the reduction
    g = build_graph(12, two_cliques(4).edges)
    part = sp.Partition(np.repeat([0, 1, 2], 4), 3)
    _, counts = estimate_block_matrix(g, part)
    for tau in (0.5, 6.0):
        est = _EstimatedDSBMLaplacian(g, part, counts, tau)
        assert np.all(est.theta[8:] == 0)
        vals = np.sort(np.linalg.eigvalsh(est.to_dense()))[::-1]
        assert est.mu_k() == pytest.approx(vals[2], abs=1e-12)


def test_dsbm_dkest_at_tau_zero_with_an_isolated_node_is_singular():
    # the sample Laplacian refuses a zero regularized degree before the fit is built
    g = build_graph(9, two_cliques(4).edges)
    part = sp.Partition(np.repeat([0, 1], [4, 5]), 2)
    with pytest.raises(sp.SingularLaplacianError, match="isolated nodes"):
        dkest_statistic(g, part, 0.0, model_kind="dsbm")


def dense_mu_k(est):
    return np.sort(np.linalg.eigvalsh(est.to_dense()))[::-1][est.k - 1]


def hub_nodes(est):
    return np.flatnonzero(np.diff(est.excess.indptr))


def diagonal_clamps(est):
    entries = est.excess.tocoo()
    return np.count_nonzero(entries.row == entries.col)


def unclamped_reduction(est):
    """mu_k's (K+1)-dimensional reduction as written for fits without
    clamped pairs, before clamped fits shared it."""
    a2 = est.inv_sqrt_deg**2
    s = np.zeros((est.k + 1, est.k + 1))
    diag = np.bincount(est.labels, weights=a2 * est.theta**2, minlength=est.k)
    cross = np.bincount(est.labels, weights=a2 * est.theta, minlength=est.k)
    s[np.diag_indices(est.k)] = diag
    s[: est.k, est.k] = cross
    s[est.k, : est.k] = cross
    s[est.k, est.k] = a2.sum()
    m = np.zeros_like(s)
    m[: est.k, : est.k] = est.counts
    m[est.k, est.k] = est.tau / est.n
    scale = np.sqrt(np.diag(s))
    scale[scale == 0] = 1.0
    s /= np.outer(scale, scale)
    m *= np.outer(scale, scale)
    vals, vecs = np.linalg.eigh(s)
    root = vecs @ (np.sqrt(np.clip(vals, 0, None))[:, None] * vecs.T)
    eigs = np.linalg.eigvalsh(root @ m @ root)
    return float(np.sort(eigs)[::-1][est.k - 1])


def star_with_isolated_cluster():
    """Cluster 0 is one hub joined to all of cluster 1 (29 nodes, a few of
    them also on short paths); cluster 2 holds five isolated nodes, so its
    theta is all zero."""
    edges = [(0, j) for j in range(1, 30)] + [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7)]
    g = build_graph(35, edges)
    return g, sp.Partition(np.repeat([0, 1, 2], [1, 29, 5]), 3)


def relabeled(part, perm):
    return sp.Partition(np.asarray(perm)[part.labels], part.k)


def check_reduction(g, part, perm):
    """Fits at tau 0.5, 5, 50 and n whose mu_k matches dense eigvalsh and
    is unchanged when the clusters are renamed by perm."""
    other = relabeled(part, perm)
    _, counts = estimate_block_matrix(g, part)
    _, other_counts = estimate_block_matrix(g, other)
    fits = []
    for tau in (0.5, 5.0, 50.0, float(g.n)):
        est = _EstimatedDSBMLaplacian(g, part, counts, tau)
        mu = est.mu_k()
        assert mu == pytest.approx(dense_mu_k(est), rel=1e-12)
        assert _EstimatedDSBMLaplacian(g, other, other_counts, tau).mu_k() == pytest.approx(mu, rel=1e-13)
        fits.append(est)
    return fits


@pytest.mark.parametrize(
    ("n", "alpha", "degree", "seed"),
    [(900, 1.5, 40.0, 0), (1200, 1.2, 15.0, 1), (1500, 1.2, 40.0, 1)],
)
def test_dsbm_mu_k_reduction_matches_dense_with_clamped_hubs(n, alpha, degree, seed):
    # heavy-tailed thetas: 70-230 clamped pairs on 25-45 hubs, some on the diagonal
    model = dcsbm_model(n, alpha=alpha, degree=degree)
    g = sp.sample(model, seed)
    for est in check_reduction(g, sp.Partition(model.base.membership, 3), [2, 0, 1]):
        assert hub_nodes(est).size >= 10 and diagonal_clamps(est)


def test_dsbm_mu_k_reduction_with_diagonal_clamps():
    part = sp.Partition((np.arange(40) >= 30).astype(int), 2)
    for est in check_reduction(hub_graph(), part, [1, 0]):
        assert diagonal_clamps(est)


def test_dsbm_mu_k_reduction_with_a_single_hub_cluster_and_a_zero_theta_cluster():
    g, part = star_with_isolated_cluster()
    for est in check_reduction(g, part, [1, 2, 0]):
        entries = est.excess.tocoo()
        assert entries.nnz and np.all((entries.row == 0) | (entries.col == 0)) and np.all(est.theta[30:] == 0)


def test_dsbm_mu_k_without_clamps_is_the_unclamped_reduction():
    fits = []
    model = dcsbm_model(3000)
    for seed in (0, 1, 3):
        fits.append((sp.sample(model, seed), sp.Partition(model.base.membership, 3)))
    fits.append(sample_two_block(seed=5))
    fits.append((build_graph(12, two_cliques(4).edges), sp.Partition(np.repeat([0, 1, 2], 4), 3)))
    for g, part in fits:
        _, counts = estimate_block_matrix(g, part)
        for tau in (0.5, 3.67, 49.5, float(g.n)):
            est = _EstimatedDSBMLaplacian(g, part, counts, tau)
            assert est.excess is None
            assert est.mu_k() == unclamped_reduction(est)


# ---------------------------------------------------------------------------
# the statistic


def test_dkest_zero_for_edgeless_graph():
    g = build_graph(5, np.empty((0, 2), dtype=int))
    part = sp.Partition(np.zeros(5, dtype=int), 1)
    assert dkest_statistic(g, part, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_dkest_numerators_match_dense(rng):
    g, part = sample_two_block(seed=5)
    tau = 4.0
    bhat, counts = estimate_block_matrix(g, part)
    sample_dense = RegularizedLaplacian(g, tau).to_dense()
    for kind, dense_est in (
        ("sbm", dense_estimated_sbm(g, part.labels, bhat, tau)),
        ("dsbm", dense_estimated_dsbm(g, part.labels, counts, tau)),
    ):
        diff = sample_dense - dense_est
        exact_spec = np.max(np.abs(np.linalg.eigvalsh(diff)))
        exact_frob = np.sqrt((diff * diff).sum())
        mu = np.sort(np.linalg.eigvalsh(dense_est))[::-1][1]
        got_spec = dkest_statistic(g, part, tau, model_kind=kind, norm_kind="spectral")
        got_frob = dkest_statistic(g, part, tau, model_kind=kind, norm_kind="frobenius")
        assert got_spec == pytest.approx(exact_spec / mu, rel=1e-6)
        assert got_frob == pytest.approx(exact_frob / mu, rel=1e-10)
        assert got_frob >= got_spec - 1e-9


def test_dkest_frobenius_matches_dense_with_clamps(rng):
    g = hub_graph()
    part = sp.Partition((np.arange(40) >= 30).astype(int), 2)
    tau = 2.0
    _, counts = estimate_block_matrix(g, part)
    sample_dense = RegularizedLaplacian(g, tau).to_dense()
    dense_est = dense_estimated_dsbm(g, part.labels, counts, tau)
    diff = sample_dense - dense_est
    mu = np.sort(np.linalg.eigvalsh(dense_est))[::-1][1]
    got = dkest_statistic(g, part, tau, model_kind="dsbm", norm_kind="frobenius")
    assert got == pytest.approx(np.sqrt((diff * diff).sum()) / mu, rel=1e-10)


def hub_joined_graph():
    """n=600 two-block graph plus a hub joined to every odd node; the
    degree-corrected fit clamps 53 pairs on 53 hub nodes."""
    n = 600
    model = sp.BlockModel.from_sizes([n // 2, n // 2], [[0.03, 0.006], [0.006, 0.03]])
    edges = {tuple(sorted(map(int, e))) for e in sp.sample(model, 1).edges}
    edges |= {(0, j) for j in range(1, n, 2)}
    return build_graph(n, sorted(edges)), sp.Partition(model.membership, 2)


def test_krylov_mu_k_and_numerators_match_dense_above_dense_fallback():
    # n=600 with a hub joined to every odd node: the degree-corrected fit
    # clamps pairs on 53 hubs, so mu_k takes the closed-form reduction
    # (K+1+h = 56 columns, below DENSE_FALLBACK); the numerators run Lanczos
    g, part = hub_joined_graph()
    assert g.n > DENSE_FALLBACK
    bhat, counts = estimate_block_matrix(g, part)
    for tau in (0.5, 60.0):
        est = _EstimatedDSBMLaplacian(g, part, counts, tau)
        assert est.excess is not None
        exact_mu = np.sort(np.linalg.eigvalsh(est.to_dense()))[::-1][1]
        assert est.mu_k() == pytest.approx(exact_mu, rel=1e-8)
        sample_op = RegularizedLaplacian(g, tau)
        for fitted in (PopulationLaplacian(sp.BlockModel(part.labels, bhat), tau), est):
            diff = sample_op.to_dense() - fitted.to_dense()
            exact = np.max(np.abs(np.linalg.eigvalsh(diff)))
            assert spectral_norm_diff(sample_op, fitted) == pytest.approx(exact, rel=1e-8)


@pytest.mark.parametrize("norm_kind", ["spectral", "frobenius"])
def test_dsbm_dkest_runs_no_eigensolver_for_mu_k(monkeypatch, norm_kind):
    # above DENSE_FALLBACK nodes a Krylov mu_k would run the thick-restart
    # Lanczos; the spectral numerator runs its own three-term loop instead
    g, part = hub_joined_graph()

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    monkeypatch.setattr(spectral, "_thick_restart_lanczos", refuse)
    for tau in (0.5, 60.0):
        got = dkest_statistic(g, part, tau, model_kind="dsbm", norm_kind=norm_kind)
        assert np.isfinite(got) and got > 0


def test_dsbm_mu_k_falls_back_to_krylov_beyond_dense_fallback(monkeypatch):
    g, part = hub_joined_graph()
    _, counts = estimate_block_matrix(g, part)
    calls = []
    real = selection.top_eigenpairs

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(selection, "top_eigenpairs", spy)
    for tau in (0.5, 60.0):
        est = _EstimatedDSBMLaplacian(g, part, counts, tau)
        columns = est.k + 1 + hub_nodes(est).size
        monkeypatch.setattr(selection, "DENSE_FALLBACK", columns)
        reduced = est.mu_k()
        assert not calls
        monkeypatch.setattr(selection, "DENSE_FALLBACK", columns - 1)
        assert est.mu_k() == pytest.approx(reduced, rel=1e-9)
        assert len(calls) == 1
        calls.clear()


def four_cycle():
    """0-1-3-2-0: every 2-2 split has equal within and between densities."""
    return build_graph(4, [(0, 1), (2, 3), (0, 2), (1, 3)])


@pytest.mark.parametrize("model_kind", ["sbm", "dsbm"])
@pytest.mark.parametrize("norm_kind", ["spectral", "frobenius"])
def test_dkest_rank_deficient_fit_raises(model_kind, norm_kind):
    g = four_cycle()
    part = sp.Partition(np.array([0, 0, 1, 1]), 2)
    bhat, _ = estimate_block_matrix(g, part)
    assert np.linalg.matrix_rank(bhat) == 1
    with pytest.raises(sp.DegenerateModelError):
        dkest_statistic(g, part, 1.0, model_kind=model_kind, norm_kind=norm_kind)


def test_scan_records_infinite_dkest_for_rank_deficient_fits():
    scan = sp.tau_scan(four_cycle(), 2, [0.5, 2.0, 8.0], seed=0)
    assert all(rec.dkest == np.inf for rec in scan.records)
    # no finite statistic, so DKest chooses nothing; the other selectors still do
    assert "dkest" not in scan.chosen
    assert "gn" in scan.chosen


def test_dkest_prefers_regularization_on_sparse_model():
    # unbalanced block degrees (18.75 vs 8.25): the regime where the
    # unregularized Laplacian concentrates poorly
    model = sp.BlockModel.from_sizes([500, 500], [[0.03, 0.0075], [0.0075, 0.009]])
    truth = sp.Partition(model.membership, 2)
    lo, hi = [], []
    for seed in range(20):
        g = sp.sample(model, seed)
        if g.degrees.min() == 0:
            continue
        lo.append(dkest_statistic(g, truth, 0.0))
        hi.append(dkest_statistic(g, truth, float(g.n)))
    assert len(lo) >= 10
    assert np.mean(hi) < np.mean(lo)


# ---------------------------------------------------------------------------
# the scan


def test_scan_single_point_grid():
    g = two_cliques(5)
    truth = sp.Partition(np.repeat([0, 1], 5), 2)
    scan = sp.tau_scan(g, 2, [1.5], criteria=("dkest", "gn", "oracle"), truth=truth, seed=0)
    assert scan.chosen == {"dkest": 1.5, "gn": 1.5, "oracle": 1.5}
    assert scan.records[0].nmi == 1.0


def test_scan_requires_truth_for_oracle():
    g = two_cliques(4)
    with pytest.raises(sp.SpeclusterError, match="oracle"):
        sp.tau_scan(g, 2, [1.0], criteria=("oracle",))


@pytest.mark.parametrize(
    "criteria, kinds, message",
    [
        (("gn",), {"model_kind": "bogus", "norm_kind": "nope"}, "model kind 'bogus'"),
        (("dkest", "gn"), {"norm_kind": "nope"}, "norm kind 'nope'"),
    ],
    ids=["without-dkest", "with-dkest"],
)
def test_scan_rejects_unknown_kinds_before_clustering(monkeypatch, criteria, kinds, message):
    def refuse(*args, **kwargs):
        raise AssertionError("clustered before the kinds were checked")

    monkeypatch.setattr(selection, "regularized_spectral_clustering", refuse)
    with pytest.raises(sp.SpeclusterError, match=message):
        sp.tau_scan(two_cliques(4), 2, [0.5, 1.0, 8.0], criteria=criteria, **kinds)


@pytest.mark.parametrize("tau", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
def test_scan_rejects_a_bad_tau_before_clustering(monkeypatch, tau):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("clustered before the grid was checked")

    monkeypatch.setattr(selection, "regularized_spectral_clustering", spy)
    with pytest.raises(sp.SpeclusterError, match=f"tau must be non-negative and finite, got {tau}"):
        sp.tau_scan(two_cliques(4), 2, [1.0, 5.0, 50.0, tau])
    assert not calls


@pytest.mark.parametrize("criteria", [("gn",), ("dkest", "gn", "oracle")])
def test_scan_rejects_a_truth_of_another_node_count_before_clustering(monkeypatch, criteria):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("clustered before the reference partition was checked")

    monkeypatch.setattr(selection, "regularized_spectral_clustering", spy)
    g = two_cliques(4)
    truth = sp.Partition(np.repeat([0, 1], [4, 5]), 2)
    with pytest.raises(sp.SpeclusterError, match="reference partition covers 9 nodes; the graph has 8"):
        sp.tau_scan(g, 2, [0.5, 1.0, 8.0], criteria=criteria, truth=truth)
    assert not calls


def test_scan_reproducible(rng):
    model = sp.BlockModel.from_sizes([40, 40], [[0.4, 0.05], [0.05, 0.4]])
    g = sp.sample(model, 1)
    truth = sp.Partition(model.membership, 2)
    grid = [0.0, 2.0, 20.0, 200.0]
    runs = [
        sp.tau_scan(g, 2, grid, criteria=("dkest", "gn", "oracle"), truth=truth, seed=5)
        for _ in range(2)
    ]
    for rec_a, rec_b in zip(runs[0].records, runs[1].records):
        for field in ("tau", "dkest", "gn_modularity", "nmi", "misclassified_fraction"):
            va, vb = getattr(rec_a, field), getattr(rec_b, field)
            assert (np.isnan(va) and np.isnan(vb)) or va == vb
    assert runs[0].chosen == runs[1].chosen
    # each selector's choice attains its extreme over the grid
    scan = runs[0]
    assert scan.record_at(scan.chosen["dkest"]).dkest == min(r.dkest for r in scan.records)
    assert scan.record_at(scan.chosen["gn"]).gn_modularity == max(
        r.gn_modularity for r in scan.records
    )
    assert scan.record_at(scan.chosen["oracle"]).nmi == max(r.nmi for r in scan.records)


def pinned_scan_records(model_kind, norm_kind):
    """repr of a small scan's records and choices, without the wall-clock
    seconds."""
    if model_kind == "sbm":
        model, k = sp.BlockModel.from_sizes([300, 300], [[0.04, 0.01], [0.01, 0.02]]), 2
        truth = sp.Partition(model.membership, k)
    else:
        m, c = 150, 0.01
        b = np.full((3, 3), c) + np.diag(np.full(3, 4.0 * c))
        quantiles = (1.0 - (np.arange(m) + 0.5) / m) ** (-1.0 / 2.5)
        theta = np.minimum(np.tile(quantiles / quantiles.mean(), 3), np.sqrt(1.0 / b.max()))
        base, k = sp.BlockModel.from_sizes([m] * 3, b), 3
        model = sp.DegreeCorrectedModel(base=base, theta=theta)
        truth = sp.Partition(base.membership, k)
    g = sp.sample(model, 4)
    grid = sp.default_tau_grid(g, points=7)
    scan = sp.tau_scan(
        g, k, grid, criteria=("dkest", "gn", "oracle"), truth=truth,
        model_kind=model_kind, norm_kind=norm_kind, seed=2,
    )
    fields = ("tau", "dkest", "dkest_bound", "gn_modularity", "nmi", "misclassified_fraction")
    rows = [tuple(float(getattr(rec, f)) for f in fields) for rec in scan.records]
    return repr((rows, sorted(scan.chosen.items())))


def pinned_experiment_csv(tmp_path):
    """A two-replicate experiment's CSV, without its version line."""
    path = tmp_path / "pinned.csv"
    cfg = sp.ExperimentConfig(
        n=600, k=2, inside_weights=(1.0, 0.5), out_in_ratio=4.0, target_degree=12.0,
        tau_grid=np.geomspace(1.0, 600.0, 8), replicates=2, seed=3,
    )
    sp.run_experiment(cfg, out_path=path)
    return "".join(path.read_text().splitlines(keepends=True)[1:])


_PINNED_SCAN_OUTPUTS = {
    "experiment-csv": "f0fedc0c7fc63e1bbbbcbb1f72f85a8b6bab53b9a8031fc37c8dacf33e4dbf10",
    "sbm-spectral": "7559826799f7638218a994b2a1b51f559a606386219724d018d77562f75af3b4",
    "dsbm-frobenius": "cf8306da285a5568e794d305ee94de7e25e6b453931540ebccb3a966823945d3",
    # the same graph with round 2 forked: its records equal the one-process scan's
    "sbm-spectral-forked": "7559826799f7638218a994b2a1b51f559a606386219724d018d77562f75af3b4",
}


@pytest.mark.parametrize("case", list(_PINNED_SCAN_OUTPUTS))
def test_scan_outputs_are_pinned(monkeypatch, tmp_path, case):
    # a scan's exact outputs, so that a change meant to keep them can be
    # checked against earlier commits: a change that moves any of these
    # bytes must re-baseline the digests and say so
    if case == "experiment-csv":
        text = pinned_experiment_csv(tmp_path)
    else:
        if case.endswith("-forked"):  # round 2 forked, as on a graph of FORK_MIN_NODES or more
            monkeypatch.setattr(selection, "FORK_MIN_NODES", 0)
        text = pinned_scan_records(*case.split("-")[:2])
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_SCAN_OUTPUTS[case]


def lanczos_graphs():
    """A two-block SBM graph and a three-block degree-corrected one, both
    above DENSE_FALLBACK so every eigensolve runs Lanczos."""
    sbm = sp.BlockModel.from_sizes([350, 350], [[0.03, 0.008], [0.008, 0.015]])
    m, c = 250, 0.006
    b = np.full((3, 3), c) + np.diag(np.full(3, 5.0 * c))
    quantiles = (1.0 - (np.arange(m) + 0.5) / m) ** (-1.0 / 2.5)
    theta = np.minimum(np.tile(quantiles / quantiles.mean(), 3), np.sqrt(1.0 / b.max()))
    dsbm = sp.DegreeCorrectedModel(base=sp.BlockModel.from_sizes([m] * 3, b), theta=theta)
    return [(sp.sample(sbm, 2), 2, "sbm"), (sp.sample(dsbm, 2), 3, "dsbm")]


def pivot_index(grid, mean_degree):
    """Index of the grid point nearest mean_degree on a log scale: the
    first of ties, else the first point."""
    pivot, nearest = 0, np.inf
    for i, tau in enumerate(grid):
        if tau > 0 and mean_degree > 0 and abs(np.log(tau / mean_degree)) < nearest:
            pivot, nearest = i, abs(np.log(tau / mean_degree))
    return pivot


def test_pivot_is_the_nearest_grid_point_on_a_log_scale():
    pivot = selection._pivot
    assert pivot(np.array([0.0, 1.0, 4.0, 9.0]), 2.0) == 1  # a tie: the lower tau
    assert pivot(np.array([0.0, 1.0, 3.0, 9.0]), 2.0) == 2
    assert pivot(np.array([0.0, 5.0]), 0.0) == 0  # no finite distance: the first point
    assert pivot(np.array([0.0]), 3.0) == 0
    for grid, mean_degree in ((np.geomspace(0.1, 300.0, 17), 4.59), (np.array([0.0, 2.0, 9.0]), 4.0)):
        assert pivot(grid, mean_degree) == pivot_index(grid, mean_degree)


def test_scan_runs_the_pivot_before_every_other_point(monkeypatch):
    g = sp.load_edge_list(_DATA / "karate_edges.txt")
    grid = sp.default_tau_grid(g)
    events = []
    real_rsc, real_dkest = selection.regularized_spectral_clustering, selection.dkest_statistic

    def clustering(*args, **kwargs):
        events.append(("cluster", args[2], kwargs["start"] is None))
        return real_rsc(*args, **kwargs)

    def dkest(*args, **kwargs):
        events.append(("dkest", args[2], kwargs["above"] is None))
        return real_dkest(*args, **kwargs)

    monkeypatch.setattr(selection, "regularized_spectral_clustering", clustering)
    monkeypatch.setattr(selection, "dkest_statistic", dkest)
    scan = sp.tau_scan(g, 2, grid, criteria=("dkest", "gn"), seed=0)
    pivot = scan.grid[pivot_index(scan.grid, g.mean_degree)]
    assert 0 < pivot_index(scan.grid, g.mean_degree) < grid.size - 1  # the pivot is inside the grid
    # round 1: the pivot's cold clustering and its DKest without a threshold
    assert events[:2] == [("cluster", pivot, True), ("dkest", pivot, True)]
    # round 2: every other point once, anchored, and against the pivot's value
    rest = {(kind, tau): cold for kind, tau, cold in events[2:]}
    assert len(rest) == len(events) - 2 == 2 * (grid.size - 1)
    assert rest == {(kind, tau): False for tau in scan.grid if tau != pivot for kind in ("cluster", "dkest")}


_KARATE_GRIDS = {
    "default-grid": None,  # default_tau_grid: tau = 0, then 1 .. 10 n
    "one-point": [3.0],
    "pivot-first": np.geomspace(10.0, 340.0, 5),  # all above the mean degree 4.59
    "pivot-last": np.geomspace(0.1, 3.0, 5),  # all below it
}


def spy_norm(monkeypatch):
    """{tau: (stop_above, the run stopped above it)} of every
    spectral_norm_diff call tau_scan makes in this process."""
    calls = {}
    real_norm = selection.spectral_norm_diff

    def spy(sample_op, fitted, stop_above=None, **kwargs):
        out = real_norm(sample_op, fitted, stop_above=stop_above, **kwargs)
        assert sample_op.tau not in calls  # one norm call per grid point
        calls[sample_op.tau] = (stop_above, stop_above is not None and out > stop_above)
        return out

    monkeypatch.setattr(selection, "spectral_norm_diff", spy)
    return calls


@pytest.mark.parametrize("norm_kind", ["spectral", "frobenius"])
@pytest.mark.parametrize("case", list(_KARATE_GRIDS))
def test_scan_evaluates_dkest_outward_from_the_pivot(monkeypatch, case, norm_kind):
    # the pivot's DKest is solved in full; every other point's is solved
    # against the pivot's value, and marked where its run stopped above it
    g = sp.load_edge_list(_DATA / "karate_edges.txt")
    truth = sp.load_partition(_DATA / "karate_labels.txt")
    grid = _KARATE_GRIDS[case]
    grid = sp.default_tau_grid(g) if grid is None else grid
    calls = spy_norm(monkeypatch)
    scan = sp.tau_scan(
        g, 2, grid, criteria=("dkest", "gn", "oracle"), truth=truth, norm_kind=norm_kind, seed=0
    )
    monkeypatch.undo()
    pivot = pivot_index(scan.grid, g.mean_degree)
    if case == "pivot-first":
        assert pivot == 0
    if case == "pivot-last":
        assert pivot == len(grid) - 1
    top = scan.records[pivot].dkest
    if norm_kind == "spectral":
        assert sorted(calls) == list(scan.grid)
        assert calls[scan.grid[pivot]] == (None, False)
        for rec in scan.records:
            if rec.tau != scan.grid[pivot]:
                assert calls[rec.tau][0] is not None
                assert calls[rec.tau][1] == rec.dkest_bound
    else:
        assert not calls
    assert not scan.records[pivot].dkest_bound
    if case != "one-point":
        assert any(rec.dkest_bound for rec in scan.records) == (norm_kind == "spectral")
    for rec in scan.records:
        part = sp.regularized_spectral_clustering(g, 2, rec.tau, seed=0)
        assert rec.gn_modularity == selection.modularity(g, part)
        assert rec.nmi == sp.nmi(part, truth)
        assert rec.misclassified_fraction == sp.clustering_error(part, truth).misclassified_fraction
        lone = dkest_statistic(g, part, rec.tau, norm_kind=norm_kind)
        if rec.dkest_bound:
            assert top * (1 + 1e-6) < rec.dkest <= lone * (1 + 1e-12)
        else:
            # every norm run starts cold: a full-precision record is the lone call, bitwise
            assert rec.dkest == lone


def spy_clustering(monkeypatch):
    """{tau: (partition, eig start)} of every clustering tau_scan makes in
    this process."""
    made = {}
    real_rsc = selection.regularized_spectral_clustering

    def recording(*args, **kwargs):
        part = real_rsc(*args, **kwargs)
        made[args[2]] = (part, kwargs["start"])
        return part

    monkeypatch.setattr(selection, "regularized_spectral_clustering", recording)
    return made


@pytest.mark.parametrize("case", [0, 1])
def test_scan_warm_start_matches_lone_calls(monkeypatch, case):
    g, k, model_kind = lanczos_graphs()[case]
    assert g.n > DENSE_FALLBACK
    grid = np.geomspace(1.0, g.n, 8)
    applies = [0]
    real_apply = RegularizedLaplacian.apply

    def counting(self, x):
        applies[0] += 1
        return real_apply(self, x)

    monkeypatch.setattr(RegularizedLaplacian, "apply", counting)
    real_rsc = selection.regularized_spectral_clustering
    made = spy_clustering(monkeypatch)
    scan = sp.tau_scan(g, k, grid, criteria=("dkest",), model_kind=model_kind, seed=7)
    warm_applies, applies[0] = applies[0], 0
    chosen = scan.record_at(scan.chosen["dkest"]).dkest
    pivot = pivot_index(scan.grid, g.mean_degree)
    pivot_labels = made[scan.grid[pivot]][0].labels
    lone = []
    for i, rec in enumerate(scan.records):
        part, start = made[rec.tau]
        if i == pivot:
            assert start is None
        else:
            # the anchor: sqrt(d + tau) times 1 + the pivot's label
            assert np.array_equal(start, np.sqrt(g.degrees + rec.tau) * (1.0 + pivot_labels))
        cold_part = real_rsc(g, k, rec.tau, seed=7)
        cold = dkest_statistic(g, cold_part, rec.tau, model_kind=model_kind, seed=7)
        lone.append(cold)
        assert np.array_equal(part.labels, cold_part.labels)
        if i == pivot:
            assert rec.dkest == cold  # the pivot: the lone call, bitwise
        # full precision, or a Lanczos lower bound that certifies a losing tau
        if rec.dkest_bound:
            assert chosen * (1 + 1e-6) < rec.dkest <= cold * (1 + 1e-12)
        else:
            assert rec.dkest == cold
    assert chosen == min(lone)
    assert scan.chosen["dkest"] == grid[int(np.argmin(lone))]
    assert warm_applies < applies[0]


@pytest.mark.parametrize("case", ["karate", "above-dense-fallback"])
def test_dkest_is_its_lone_call_wherever_the_pivot_lies(monkeypatch, case):
    # every norm run starts cold from its seeded draw, so moving the pivot
    # changes only which records are certified bounds: every
    # full-precision record is its lone call, bitwise, and the choice stays
    if case == "karate":
        g = sp.load_edge_list(_DATA / "karate_edges.txt")
        k, model_kind, grid = 2, "sbm", sp.default_tau_grid(g)
        pivots = range(0, grid.size, 4)
    else:
        g, k, model_kind = lanczos_graphs()[0]
        assert g.n > DENSE_FALLBACK
        grid = np.geomspace(1.0, g.n, 8)
        pivots = [0, 3, grid.size - 1]
    lone = [
        dkest_statistic(g, sp.regularized_spectral_clustering(g, k, tau, seed=0), tau, model_kind=model_kind)
        for tau in grid
    ]
    minima, full = set(), set()
    for pivot in pivots:
        monkeypatch.setattr(selection, "_pivot", lambda grid, mean_degree: pivot)
        calls = spy_norm(monkeypatch)
        scan = sp.tau_scan(g, k, grid, criteria=("dkest",), model_kind=model_kind, seed=0)
        monkeypatch.undo()
        assert calls[scan.grid[pivot]] == (None, False)
        assert not scan.records[pivot].dkest_bound
        for rec, want in zip(scan.records, lone):
            assert rec.dkest_bound == calls[rec.tau][1]
            if rec.dkest_bound:
                assert scan.records[pivot].dkest * (1 + 1e-6) < rec.dkest <= want * (1 + 1e-12)
            else:
                assert rec.dkest == want
                full.add(rec.tau)
        minima.add((scan.chosen["dkest"], scan.record_at(scan.chosen["dkest"]).dkest))
    assert minima == {(grid[int(np.argmin(lone))], min(lone))}
    assert len(full) > len(pivots)  # the pivots solved different points in full


def fitted_pair(model_kind, tau):
    """Sample Laplacian and a fitted one (plain or degree-corrected) at
    n=600, above DENSE_FALLBACK, for a partition from the pipeline."""
    model = sp.BlockModel.from_sizes([300, 300], [[0.04, 0.01], [0.01, 0.02]])
    g = sp.sample(model, 3)
    part = sp.regularized_spectral_clustering(g, 2, 5.0, seed=0)
    bhat, counts = estimate_block_matrix(g, part)
    if model_kind == "sbm":
        fitted = PopulationLaplacian(sp.BlockModel(part.labels, bhat), tau)
    else:
        fitted = _EstimatedDSBMLaplacian(g, part, counts, tau)
    return RegularizedLaplacian(g, tau), fitted


@pytest.mark.parametrize("model_kind", ["sbm", "dsbm"])
@pytest.mark.parametrize("tau", [1.0, 30.0, 600.0])
def test_norm_stop_above_certifies_a_lower_bound(monkeypatch, model_kind, tau):
    sample_op, fitted = fitted_pair(model_kind, tau)
    assert sample_op.shape[0] > DENSE_FALLBACK
    exact = np.linalg.norm(sample_op.to_dense() - fitted.to_dense(), 2)
    applies = [0]
    real_apply = RegularizedLaplacian.apply

    def counting(self, x):
        applies[0] += 1
        return real_apply(self, x)

    monkeypatch.setattr(RegularizedLaplacian, "apply", counting)
    lone = spectral_norm_diff(sample_op, fitted)
    lone_applies, applies[0] = applies[0], 0
    # stop_above=None is the plain call, bitwise
    assert spectral_norm_diff(sample_op, fitted, stop_above=None) == lone
    applies[0] = 0
    # a threshold of 0: the run stops at its first check, with a certified
    # bound never above the norm (a Ritz value lies inside the spectrum)
    bound = spectral_norm_diff(sample_op, fitted, stop_above=0.0)
    assert 0.0 < bound <= exact * (1 + 1e-12)
    assert applies[0] <= spectral.LANCZOS_FIRST_CHECK < lone_applies
    # a threshold the norm cannot reach: the lone call's run, bitwise
    full = spectral_norm_diff(sample_op, fitted, stop_above=1e300)
    assert full == lone
    assert lone <= exact * (1 + 1e-12)


_CERTIFICATE_SEEDS = {12: range(10), 300: range(6), 1000: range(1)}  # n: graph seeds


@pytest.mark.parametrize("n", list(_CERTIFICATE_SEEDS))
@pytest.mark.parametrize("model_kind", ["sbm", "dsbm"])
def test_lanczos_bound_never_exceeds_the_dense_norm(monkeypatch, model_kind, n):
    # every result, certified or converged, is a Ritz value and so at most
    # the dense 2-norm: plain and degree-corrected fits, tau from 1 to n,
    # and n = 12 below LANCZOS_EVERY_STEP_CHECKS, where a run may stop at
    # step n.  A threshold of 0 is settled at the first check; without a
    # reachable threshold the run converges to the norm.
    applies = [0]
    real_apply = RegularizedLaplacian.apply

    def counting(self, x):
        applies[0] += 1
        return real_apply(self, x)

    monkeypatch.setattr(RegularizedLaplacian, "apply", counting)
    b = np.minimum(np.array([[3.0, 1.0], [1.0, 2.0]]) * 6.0 / n, 1.0)
    for graph_seed in _CERTIFICATE_SEEDS[n]:
        g = sp.sample(sp.BlockModel.from_sizes([n // 2, n - n // 2], b), graph_seed)
        part = sp.regularized_spectral_clustering(g, 2, 5.0, seed=0)
        bhat, counts = estimate_block_matrix(g, part)
        for tau in np.geomspace(1.0, n, 5):
            sample_op = RegularizedLaplacian(g, tau)
            if model_kind == "sbm":
                fitted = PopulationLaplacian(sp.BlockModel(part.labels, bhat), tau)
            else:
                fitted = _EstimatedDSBMLaplacian(g, part, counts, tau)
            exact = np.linalg.norm(sample_op.to_dense() - fitted.to_dense(), 2)
            for stop_above in (0.0, 0.9 * exact, 0.999 * exact, None, 1e300):
                applies[0] = 0
                got = spectral_norm_diff(sample_op, fitted, seed=graph_seed, stop_above=stop_above)
                if stop_above is None or stop_above == 1e300:
                    assert exact * (1 - 1e-6) <= got <= exact * (1 + 1e-12)
                else:
                    assert stop_above < got <= exact * (1 + 1e-12)
                if stop_above == 0.0:
                    assert applies[0] <= spectral.LANCZOS_FIRST_CHECK


@pytest.mark.parametrize("case", ["karate-sbm", "karate-dsbm", "criterion-5"])
def test_scan_choice_is_the_argmin_of_lone_calls(monkeypatch, case):
    if case == "criterion-5":
        g = sp.sample(two_block_benchmark_model(), 0)
        grid, model_kind = np.geomspace(1.0, g.n, 20), "sbm"
    else:
        g = sp.load_edge_list(_DATA / "karate_edges.txt")
        grid, model_kind = sp.default_tau_grid(g), case.split("-")[1]
    calls = spy_norm(monkeypatch)
    scan = sp.tau_scan(g, 2, grid, criteria=("dkest",), model_kind=model_kind, seed=0)
    monkeypatch.undo()
    # the pivot's norm has no threshold and converges; every other one is
    # solved against the pivot's value
    pivot = scan.grid[pivot_index(scan.grid, g.mean_degree)]
    assert calls.pop(pivot) == (None, False)
    assert all(bound is not None for bound, _ in calls.values())
    certified = {tau for tau, (_, stopped) in calls.items() if stopped}
    assert certified == {rec.tau for rec in scan.records if rec.dkest_bound}
    lone = [
        dkest_statistic(g, sp.regularized_spectral_clustering(g, 2, tau, seed=0), tau, model_kind=model_kind)
        for tau in scan.grid
    ]
    assert scan.chosen["dkest"] == scan.grid[int(np.argmin(lone))]
    chosen = scan.record_at(scan.chosen["dkest"]).dkest
    assert chosen == min(lone)
    for rec, want in zip(scan.records, lone):
        if rec.dkest_bound:
            assert chosen * (1 + 1e-6) < rec.dkest <= want * (1 + 1e-12)
        else:
            assert rec.dkest == want
    if case == "criterion-5":
        # most losing points are settled by the bound, and tightly: from a
        # cold start the loosest bound on criterion 5's ten graphs is 0.880
        # of its statistic (this graph's: 0.9505)
        assert len(certified) >= len(grid) // 2
        assert all(scan.record_at(tau).dkest >= 0.88 * want for tau, want in zip(scan.grid, lone) if tau in certified)


@pytest.mark.parametrize("fork_min_nodes", [selection.FORK_MIN_NODES, 0], ids=["in-process", "forked"])
def test_scan_starts_no_thread(monkeypatch, fork_min_nodes):
    # no thread, whatever SPECLUSTER_THREADS or workers= say: a thread pool's
    # malloc arenas raise peak RSS, and forking a threaded process can deadlock
    def refuse(self):
        raise AssertionError("tau_scan started a thread")

    monkeypatch.setenv("SPECLUSTER_THREADS", "2")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(selection, "FORK_MIN_NODES", fork_min_nodes)
    model = sp.BlockModel.from_sizes([30, 30], [[0.4, 0.05], [0.05, 0.4]])
    g = sp.sample(model, 1)
    truth = sp.Partition(model.membership, 2)
    for workers in (None, 2):
        scan = sp.tau_scan(g, 2, [1.0, 10.0, 100.0], truth=truth, seed=3, workers=workers)
        assert len(scan.records) == 3
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [0, -1, True, 1.5, "2"])
def test_scan_refuses_a_bad_worker_count_before_clustering(monkeypatch, workers):
    def refuse(*args, **kwargs):
        raise AssertionError("clustered before the worker count was checked")

    monkeypatch.setattr(selection, "regularized_spectral_clustering", refuse)
    for fork_min_nodes in (selection.FORK_MIN_NODES, 0):  # round 2 in this process, then forked
        monkeypatch.setattr(selection, "FORK_MIN_NODES", fork_min_nodes)
        with pytest.raises(sp.SpeclusterError, match="workers must be None or an integer of at least 1"):
            sp.tau_scan(two_cliques(4), 2, [0.5, 1.0, 8.0], workers=workers)


def record_rounds(monkeypatch):
    """A list that gets, per fork_map call of tau_scan, its taus and its
    worker count."""
    rounds = []
    real_fork_map = selection.fork_map

    def recording(fn, items, workers):
        rounds.append(([float(tau) for tau in items], workers))
        return real_fork_map(fn, items, workers)

    monkeypatch.setattr(selection, "fork_map", recording)
    return rounds


def scan_outputs(scan, tmp_path):
    """A scan's records, less the wall-clock seconds, its choices and its
    CSV's bytes less the seconds column."""
    fields = ("tau", "dkest", "dkest_bound", "gn_modularity", "nmi", "misclassified_fraction")
    path = tmp_path / "scan.csv"
    scan.to_csv(path)
    rows = [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
    return [tuple(getattr(rec, f) for f in fields) for rec in scan.records], scan.chosen, rows


@pytest.mark.parametrize("case", [0, 1], ids=["sbm-spectral", "dsbm-frobenius"])
def test_forked_scan_gives_the_one_process_outputs(monkeypatch, tmp_path, case):
    # every record depends on the pivot and its own tau alone, so no split
    # of round 2 (fork_map deals child j of p the points j, j + p, ...)
    # moves a byte
    g, k, model_kind = lanczos_graphs()[case]
    norm_kind = "spectral" if model_kind == "sbm" else "frobenius"
    truth = sp.Partition(np.arange(g.n) * k // g.n, k)
    starts = []
    real_start = multiprocessing.process.BaseProcess.start

    def counting(self):
        starts.append(self)
        return real_start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting)
    grid = np.geomspace(1.0, g.n, 7)
    outputs = []
    for fork_min_nodes in (selection.FORK_MIN_NODES, 0):
        monkeypatch.setattr(selection, "FORK_MIN_NODES", fork_min_nodes)
        for workers in (1, 2, 3, None):
            scan = sp.tau_scan(
                g, k, grid, criteria=("dkest", "gn", "oracle"), truth=truth,
                model_kind=model_kind, norm_kind=norm_kind, seed=7, workers=workers,
            )
            outputs.append(scan_outputs(scan, tmp_path))
    assert all(out == outputs[0] for out in outputs)
    assert len(starts) >= 2 + 3  # workers=2 and workers=3 forked round 2
    assert multiprocessing.active_children() == []


def test_experiment_csv_is_the_same_at_every_worker_count(monkeypatch, tmp_path):
    cfg = sp.ExperimentConfig(
        n=600, k=2, inside_weights=(1.0, 0.5), out_in_ratio=4.0, target_degree=12.0,
        tau_grid=np.geomspace(1.0, 600.0, 6), replicates=3, seed=5,
    )
    texts = set()
    for fork_min_nodes in (selection.FORK_MIN_NODES, 0):
        monkeypatch.setattr(selection, "FORK_MIN_NODES", fork_min_nodes)
        for workers in (1, 2, 3, None):
            path = tmp_path / f"{fork_min_nodes}-{workers}.csv"
            sp.run_experiment(cfg, out_path=path, workers=workers)
            texts.add(path.read_bytes())
    assert len(texts) == 1
    assert multiprocessing.active_children() == []


def test_forked_scan_raises_a_child_error_and_leaves_no_process(monkeypatch):
    real = selection.regularized_spectral_clustering

    def broken_at_the_top(g, k, tau, **kwargs):
        if tau == 100.0:
            raise RuntimeError(f"not a specluster error, pid {os.getpid()}")
        return real(g, k, tau, **kwargs)

    monkeypatch.setattr(selection, "regularized_spectral_clustering", broken_at_the_top)
    monkeypatch.setattr(selection, "FORK_MIN_NODES", 0)
    with pytest.raises(RuntimeError, match="not a specluster error") as info:
        sp.tau_scan(two_cliques(5), 2, [1.0, 3.0, 10.0, 100.0], workers=2)
    assert str(info.value) != f"not a specluster error, pid {os.getpid()}"  # raised in a child
    assert multiprocessing.active_children() == []


def test_forked_scan_names_the_exit_code_of_a_child_that_died(monkeypatch):
    real = selection.regularized_spectral_clustering

    def dying_at_the_top(g, k, tau, **kwargs):
        if tau == 100.0:
            os._exit(3)
        return real(g, k, tau, **kwargs)

    monkeypatch.setattr(selection, "regularized_spectral_clustering", dying_at_the_top)
    monkeypatch.setattr(selection, "FORK_MIN_NODES", 0)
    with pytest.raises(sp.SpeclusterError, match="exited with code 3 before it answered"):
        sp.tau_scan(two_cliques(5), 2, [1.0, 3.0, 10.0, 100.0], workers=2)
    assert multiprocessing.active_children() == []


def test_scan_below_the_fork_size_starts_no_process(monkeypatch):
    def refuse(self):
        raise AssertionError("tau_scan started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    rounds = record_rounds(monkeypatch)
    g = two_cliques(5)
    assert g.n < selection.FORK_MIN_NODES
    for workers in (1, 2, None):
        scan = sp.tau_scan(g, 2, [100.0, 1.0, 10.0, 3.0], workers=workers)
        assert len(scan.records) == 4
        # round 1, the pivot nearest the mean degree 4, is given workers to
        # check; round 2 runs here
        assert rounds.pop(0) == ([3.0], workers)
        assert rounds.pop(0) == ([1.0, 10.0, 100.0], 1)


def test_scan_csv_format(tmp_path):
    g = two_cliques(5)
    truth = sp.Partition(np.repeat([0, 1], 5), 2)
    scan = sp.tau_scan(g, 2, [1.0, 10.0], criteria=("dkest", "gn", "oracle"), truth=truth, seed=0)
    path = tmp_path / "scan.csv"
    scan.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# specluster v")
    assert lines[1].startswith("# config_hash=")
    assert lines[2] == "# seed=0"
    assert lines[3] == "tau,dkest,dkest_bound,gn_modularity,nmi,misclassified_fraction,seconds"
    assert len([l for l in lines if not l.startswith("#")]) == 3  # header + 2 rows
    assert lines[-1].startswith("# chosen ")


def test_default_grid_structure():
    g = two_cliques(6)
    grid = sp.default_tau_grid(g, points=10)
    assert grid[0] == 0.0  # no isolated nodes
    assert grid[-1] == pytest.approx(10.0 * g.n)
    assert grid.size == 11
    lonely = build_graph(4, [(0, 1), (1, 2)])
    grid2 = sp.default_tau_grid(lonely, points=5)
    assert grid2[0] > 0.0


def test_scan_empty_grid_rejected():
    g = two_cliques(4)
    with pytest.raises(sp.SpeclusterError, match="empty"):
        sp.tau_scan(g, 2, [])


_DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("model_kind", ["sbm", "dsbm"])
@pytest.mark.parametrize("norm_kind", ["spectral", "frobenius"])
def test_karate_club_dkest_choice(model_kind, norm_kind):
    # Zachary's karate club, a real network with two known factions; the
    # DKest choice misplaces at most one of its 34 members for every fit
    g = sp.load_edge_list(_DATA / "karate_edges.txt")
    truth = sp.load_partition(_DATA / "karate_labels.txt")
    assert (g.n, g.num_edges) == (34, 78)
    scan = sp.tau_scan(
        g,
        2,
        sp.default_tau_grid(g),
        criteria=("dkest",),
        truth=truth,
        model_kind=model_kind,
        norm_kind=norm_kind,
        seed=0,
    )
    assert all(np.isfinite(rec.dkest) for rec in scan.records)
    misplaced = scan.record_at(scan.chosen["dkest"]).misclassified_fraction * g.n
    assert misplaced <= 1 + 1e-9
