import numpy as np
import pytest

import specluster as sp
from conftest import random_full_rank_model, strong_weak_benchmark_params, two_block_benchmark_model
from specluster import blockmodel
from specluster.blockmodel import DENSE_CAP, PopulationLaplacian, edge_probabilities, full_model


def dense_top_eigvecs(model, tau, k):
    lap = sp.population_laplacian(model, tau)
    vals, vecs = np.linalg.eigh(lap)
    return vals[::-1], vecs[:, ::-1][:, :k]


# ---------------------------------------------------------------------------
# sampling


def test_sample_all_ones_block_is_complete():
    model = sp.BlockModel.from_sizes([5], [[1.0]])
    g = sp.sample(model, 0)
    assert g.num_edges == 10
    assert sp.degree_extremes(g) == (4, 4)


def test_sample_zero_block_is_empty():
    model = sp.BlockModel.from_sizes([5], [[0.0]])
    g = sp.sample(model, 0)
    assert g.num_edges == 0


def test_sample_is_reproducible_and_symmetric():
    model = sp.BlockModel.from_sizes([40, 60], [[0.3, 0.05], [0.05, 0.2]])
    g1 = sp.sample(model, 7)
    g2 = sp.sample(model, 7)
    assert np.array_equal(g1.edges, g2.edges)
    adj = g1.adjacency
    assert (adj != adj.T).nnz == 0
    assert adj.diagonal().sum() == 0


def test_sample_block_mean_degrees_within_three_sigma():
    model = two_block_benchmark_model()
    z = model.membership
    expected = sp.block_degrees(model) - np.diag(model.block_matrix)  # no self loops
    sizes = model.block_sizes
    for seed in range(20):
        g = sp.sample(model, seed)
        for k in range(2):
            mean_deg = g.degrees[z == k].mean()
            # block mean averages n_k weakly correlated degrees
            sigma = np.sqrt(2.0 * expected[k] / sizes[k])
            assert abs(mean_deg - expected[k]) <= 3 * sigma


def test_sample_bernoulli_and_binomial_paths_agree_in_moments():
    # p=0.5 exercises the dense Bernoulli path, p=0.05 the binomial one
    for p, seed in ((0.5, 1), (0.05, 2)):
        model = sp.BlockModel.from_sizes([80, 80], [[p, p / 2], [p / 2, p]])
        count = sp.sample(model, seed).num_edges
        npairs_in = 2 * (80 * 79 // 2)
        npairs_out = 80 * 80
        mean = npairs_in * p + npairs_out * p / 2
        assert abs(count - mean) <= 4 * np.sqrt(mean)


def test_degree_corrected_sampling_matches_probabilities():
    base = sp.BlockModel.from_sizes([100, 100], [[0.4, 0.1], [0.1, 0.4]])
    rng = np.random.default_rng(3)
    theta = rng.uniform(0.5, 1.5, size=200)
    model = sp.DegreeCorrectedModel(base=base, theta=theta)
    p = edge_probabilities(model)
    expected = (p.sum() - np.trace(p)) / 2
    counts = [sp.sample(model, s).num_edges for s in range(5)]
    assert abs(np.mean(counts) - expected) <= 4 * np.sqrt(expected / 5)


def hub_heavy_model():
    # Pareto(1.5) quantiles capped at the third largest: theta spans a factor
    # above 16 in each block, so each block has at least 4 theta bands.  The
    # top three nodes of block 0 reach the validator's bound B theta^2 = 1,
    # while the low bands have cell probabilities far below 0.1, so both
    # the Bernoulli and the binomial cell paths run.
    sizes = (300, 200)
    theta = []
    for m in sizes:
        q = (1.0 - (np.arange(m) + 0.5) / m) ** (-1.0 / 1.5)
        theta.append(np.minimum(q / q[-3], 1.0))
    theta = np.concatenate(theta)
    base = sp.BlockModel.from_sizes(sizes, [[1.0, 0.2], [0.2, 0.6]])
    return sp.DegreeCorrectedModel(base=base, theta=theta)


def test_degree_corrected_sampling_hub_heavy_moments():
    model = hub_heavy_model()
    z = model.base.membership
    for blk in range(2):
        t = model.theta[z == blk]
        assert t.max() / t.min() >= 16
    p = edge_probabilities(model)
    np.fill_diagonal(p, 0.0)
    var = p * (1 - p)
    hubs = np.argsort(-model.theta, kind="stable")[:5]
    pairs = [(0, 0), (0, 1), (1, 1)]

    def block_pair_sums(m):
        out = []
        for a, b in pairs:
            s = m[np.ix_(z == a, z == b)].sum()
            out.append(s / 2 if a == b else s)
        return np.array(out)

    seeds = range(20)
    counts = np.zeros((len(seeds), len(pairs)))
    hub_degrees = np.zeros((len(seeds), hubs.size))
    top = np.flatnonzero((z == 0) & (model.theta == 1.0))
    assert top.size >= 2
    for row, seed in enumerate(seeds):
        g = sp.sample(model, seed)
        ez = np.sort(z[g.edges], axis=1)
        counts[row] = [np.count_nonzero((ez[:, 0] == a) & (ez[:, 1] == b)) for a, b in pairs]
        hub_degrees[row] = g.degrees[hubs]
        # B theta_i theta_j = 1 for the top pair: it is an edge in every draw
        assert g.adjacency[top[0], top[1]] == 1
    n_draws = len(seeds)
    mean_sigma = np.sqrt(block_pair_sums(var) / n_draws)
    assert np.all(np.abs(counts.mean(axis=0) - block_pair_sums(p)) <= 4 * mean_sigma)
    hub_sigma = np.sqrt(var[hubs].sum(axis=1) / n_draws)
    assert np.all(np.abs(hub_degrees.mean(axis=0) - p[hubs].sum(axis=1)) <= 4 * hub_sigma)
    assert np.array_equal(sp.sample(model, 7).edges, sp.sample(model, 7).edges)


def reference_distinct_indices(rng, total, m):
    """blockmodel._distinct_indices as written with np.unique."""
    if m <= 0:
        return np.empty(0, dtype=np.int64)
    if m >= total:
        return np.arange(total, dtype=np.int64)
    if m > total // 2:
        return rng.permutation(total)[:m].astype(np.int64)
    out = np.unique(rng.integers(0, total, size=m))
    while out.size < m:
        extra = rng.integers(0, total, size=2 * (m - out.size) + 8)
        out = np.unique(np.concatenate([out, extra]))
    if out.size > m:
        out = out[rng.permutation(out.size)[:m]]
    return out


def first_draw_collides(seed, total, m):
    return np.unique(np.random.default_rng(seed).integers(0, total, size=m)).size < m


@pytest.mark.parametrize(
    "total, m",
    [
        (50, 0),
        (50, 1),
        (50, 50),
        (50, 60),
        (50, 26),  # m > total // 2: a permutation prefix
        (1000, 400),  # many collisions: the top-up loop runs
        (10**6, 5000),  # a few collisions
        (2**33 + 5, 3000),  # indices above 2**32
    ],
)
@pytest.mark.parametrize("seed", range(4))
def test_distinct_indices_matches_np_unique_reference(total, m, seed):
    if (total, m) in ((1000, 400), (10**6, 5000)):
        assert first_draw_collides(seed, total, m)
    rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    out = blockmodel._distinct_indices(rng, total, m)
    ref = reference_distinct_indices(ref_rng, total, m)
    assert out.dtype == ref.dtype == np.int64
    assert np.array_equal(out, ref)
    assert np.unique(out).size == out.size == min(max(m, 0), total)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sorted_distinct_matches_np_unique(rng):
    for size in (0, 1, 2, 7, 1000):
        a = rng.integers(0, 10, size=size)
        assert np.array_equal(blockmodel._sorted_distinct(a), np.unique(a))


def test_sample_matches_the_np_unique_reference(monkeypatch):
    models = [hub_heavy_model(), sp.BlockModel.from_sizes([300, 200], [[0.05, 0.01], [0.01, 0.08]])]
    new = [sp.sample(model, seed) for model in models for seed in range(3)]
    monkeypatch.setattr(blockmodel, "_distinct_indices", reference_distinct_indices)
    old = [sp.sample(model, seed) for model in models for seed in range(3)]
    for g_new, g_old in zip(new, old):
        assert np.array_equal(g_new.edges, g_old.edges)
        assert np.array_equal(g_new.adjacency.indices, g_old.adjacency.indices)


# ---------------------------------------------------------------------------
# edge probabilities and population Laplacian


def test_edge_probabilities_single_block_constant():
    model = sp.BlockModel.from_sizes([4], [[0.3]])
    assert np.allclose(edge_probabilities(model), 0.3)


def test_edge_probabilities_two_blocks_explicit():
    model = sp.BlockModel.from_sizes([2, 1], [[0.8, 0.1], [0.1, 0.5]])
    expected = np.array(
        [[0.8, 0.8, 0.1], [0.8, 0.8, 0.1], [0.1, 0.1, 0.5]]
    )
    assert np.array_equal(edge_probabilities(model), expected)


def test_edge_probabilities_unit_theta_matches_plain():
    base = sp.BlockModel.from_sizes([3, 3], [[0.5, 0.2], [0.2, 0.4]])
    model = sp.DegreeCorrectedModel(base=base, theta=np.ones(6))
    assert np.array_equal(edge_probabilities(model), edge_probabilities(base))


def test_edge_probabilities_size_cap():
    # raises before allocating the dense matrix
    model = sp.BlockModel.from_sizes([DENSE_CAP + 1], [[0.1]])
    with pytest.raises(sp.SizeCapError):
        edge_probabilities(model)


def test_population_laplacian_single_block_tau_zero():
    model = sp.BlockModel.from_sizes([8], [[0.4]])
    lap = sp.population_laplacian(model, 0.0)
    assert np.allclose(lap, 1.0 / 8, atol=1e-12)


def test_population_laplacian_unit_eigenvector(rng):
    model = random_full_rank_model(rng)
    for tau in (0.0, 7.0):
        lap = sp.population_laplacian(model, tau)
        d = edge_probabilities(model).sum(axis=1) + tau
        v = np.sqrt(d)
        assert np.linalg.norm(lap @ v - v) / np.linalg.norm(v) < 1e-10


def test_population_laplacian_rank_matches_regularized_block_matrix(rng):
    for _ in range(5):
        model = random_full_rank_model(rng, max_n=150, max_k=4)
        tau = float(rng.uniform(0, model.n))
        lap = sp.population_laplacian(model, tau)
        vals = np.linalg.eigvalsh(lap)
        rank_lap = int((np.abs(vals) > 1e-10).sum())
        bt = model.block_matrix + tau / model.n
        rank_bt = np.linalg.matrix_rank(bt, tol=1e-10)
        assert rank_lap == rank_bt


def test_population_laplacian_spectrum_in_unit_interval(rng):
    for _ in range(5):
        model = random_full_rank_model(rng, max_n=150, max_k=4)
        for tau in (0.0, 5.0, float(model.n)):
            vals = np.linalg.eigvalsh(sp.population_laplacian(model, tau))
            assert vals.min() >= -1 - 1e-10
            assert abs(vals.max() - 1.0) <= 1e-10


def test_matrix_free_population_laplacian_matches_dense(rng):
    model = random_full_rank_model(rng, max_n=120, max_k=3)
    op = PopulationLaplacian(model, 4.0)
    dense = sp.population_laplacian(model, 4.0)
    x = rng.standard_normal(model.n)
    assert np.linalg.norm(op.apply(x) - dense @ x) < 1e-10


# ---------------------------------------------------------------------------
# block-reduced spectrum


def test_reduced_laplacian_single_block_is_one():
    model = sp.BlockModel.from_sizes([10], [[0.25]])
    for tau in (0.0, 3.0, 1e6):
        assert np.allclose(sp.reduced_spectrum(model, tau), 1.0)
        assert sp.eigen_gap(model, tau) == pytest.approx(1.0)


def test_reduced_spectrum_matches_dense_nonzero_eigenvalues(rng):
    model = sp.BlockModel.from_sizes([25, 35], np.array([[0.6, 0.1], [0.1, 0.45]]))
    for tau in (0.0, 7.0, 60.0):
        reduced = sp.reduced_spectrum(model, tau)
        dense_vals = np.linalg.eigvalsh(sp.population_laplacian(model, tau))[::-1]
        assert np.allclose(reduced, dense_vals[:2], atol=1e-8)


def test_reduced_spectrum_matches_dense_many_models(rng):
    for _ in range(10):
        model = random_full_rank_model(rng, max_n=200, max_k=5)
        k = model.num_blocks
        for tau in (0.0, 5.0, float(model.n)):
            reduced = np.sort(sp.reduced_spectrum(model, tau))
            dense_vals = np.linalg.eigvalsh(sp.population_laplacian(model, tau))
            nonzero = np.sort(dense_vals[np.argsort(np.abs(dense_vals))[::-1][:k]])
            assert np.allclose(reduced, nonzero, atol=1e-8)


def test_eigen_gap_errors_on_rank_deficient_model():
    # second row is half the first, so B is singular and tau=0 keeps it so
    model = sp.BlockModel.from_sizes([10, 10], [[0.4, 0.2], [0.2, 0.1]])
    with pytest.raises(sp.DegenerateModelError):
        sp.eigen_gap(model, 0.0)


def test_strong_weak_repeated_gap_formula():
    params = strong_weak_benchmark_params()
    model = sp.merged_model(params)
    for tau in (0.0, 50.0, 2000.0):
        vals = sp.reduced_spectrum(model, tau)
        expected = params.strong_size * (params.p_strong - params.q) / (params.strong_degree + tau)
        # eigenvalue with multiplicity K-1 = 1 sits between the top and last
        assert np.any(np.isclose(vals, expected, atol=1e-10))


# ---------------------------------------------------------------------------
# population centers


def test_center_distances_equal_blocks():
    model = sp.BlockModel.from_sizes([20, 20, 20], np.eye(3) * 0.4 + 0.05)
    dist = sp.center_distances(model)
    off = dist[~np.eye(3, dtype=bool)]
    assert np.allclose(off, np.sqrt(2 / 20))
    assert np.all(np.diag(dist) == 0)


def test_center_distances_formula():
    model = sp.BlockModel.from_sizes([30, 40, 50], np.eye(3) * 0.5 + 0.05)
    dist = sp.center_distances(model)
    assert dist[0, 1] == pytest.approx(np.sqrt(1 / 30 + 1 / 40), abs=1e-15)
    assert dist[1, 2] == pytest.approx(np.sqrt(1 / 40 + 1 / 50), abs=1e-15)


def test_center_distances_match_dense_eigenvectors_any_tau():
    model = sp.BlockModel.from_sizes([30, 40, 50], np.array(
        [[0.5, 0.08, 0.05], [0.08, 0.45, 0.06], [0.05, 0.06, 0.4]]
    ))
    z = model.membership
    expected = sp.center_distances(model)
    reps = [int(np.flatnonzero(z == k)[0]) for k in range(3)]
    for tau in (0.0, 5.0, 50.0):
        _, vecs = dense_top_eigvecs(model, tau, 3)
        for a in range(3):
            for b in range(3):
                got = np.linalg.norm(vecs[reps[a]] - vecs[reps[b]])
                assert got == pytest.approx(expected[a, b], abs=1e-8)
        # rows are identical within a block
        for k in range(3):
            rows = vecs[z == k]
            assert np.max(np.abs(rows - rows[0])) < 1e-8


# ---------------------------------------------------------------------------
# strong/weak closed forms


def test_strong_weak_spectrum_matches_dense():
    params = strong_weak_benchmark_params()
    model = sp.merged_model(params)
    for tau in (0.0, 10.0, 2000.0):
        mu1, mu_rep, mu_last = sp.strong_weak_spectrum(params, tau)
        closed = np.sort(np.r_[mu1, [mu_rep] * (params.num_strong - 1), mu_last])
        dense_vals = np.linalg.eigvalsh(sp.population_laplacian(model, tau))
        k_all = params.num_strong + 1
        nonzero = np.sort(dense_vals[np.argsort(np.abs(dense_vals))[::-1][:k_all]])
        assert np.allclose(closed, nonzero, atol=1e-8)


def test_strong_weak_spectrum_no_weak_nodes():
    params = sp.StrongWeakParams(
        num_strong=3, strong_size=50, p_strong=0.3, q=0.1, b_sw=0.0, num_weak_nodes=0
    )
    mu1, mu_rep, mu_last = sp.strong_weak_spectrum(params, 5.0)
    assert mu1 == 1.0
    assert mu_last == 0.0
    model = sp.merged_model(params)
    vals = sp.reduced_spectrum(model, 5.0)
    assert np.allclose(np.sort(vals[1:]), mu_rep, atol=1e-12)


def test_strong_weak_gap_large_tau_limit():
    params = strong_weak_benchmark_params()
    tau = 1e9
    _, mu_rep, mu_last = sp.strong_weak_spectrum(params, tau)
    got = tau * (mu_rep - mu_last)
    ds, dw = params.strong_degree, params.weak_degree
    nw = params.num_weak_nodes
    expected = params.strong_size * (params.p_strong - params.q) - (
        nw * (1 - params.b_sw) + nw / params.n * (ds - dw)
    )
    assert got == pytest.approx(expected, rel=1e-4)


def test_full_model_shapes():
    params = strong_weak_benchmark_params()
    model = full_model(params)
    assert model.n == 2000
    assert model.num_blocks == 5
    assert model.block_sizes.tolist() == [800, 800, 134, 133, 133]
    # strong/strong and strong/weak entries
    assert model.block_matrix[0, 1] == params.q
    assert model.block_matrix[0, 3] == params.b_sw


# ---------------------------------------------------------------------------
# validation and config files


def test_blockmodel_validation():
    with pytest.raises(sp.SpeclusterError, match="symmetric"):
        sp.BlockModel.from_sizes([2, 2], [[0.5, 0.1], [0.2, 0.5]])
    with pytest.raises(sp.SpeclusterError, match="non-empty"):
        sp.BlockModel(membership=np.zeros(4, dtype=int), block_matrix=np.eye(2) * 0.5)
    with pytest.raises(sp.SpeclusterError, match="\\[0, 1\\]"):
        sp.BlockModel.from_sizes([2], [[1.5]])
    for bad in (np.nan, np.inf):  # a symmetric-looking NaN must not read as asymmetry
        with pytest.raises(sp.SpeclusterError, match="\\[0, 1\\]"):
            sp.BlockModel.from_sizes([2, 2], [[0.5, bad], [bad, 0.5]])


def test_degree_corrected_validation():
    base = sp.BlockModel.from_sizes([2, 2], [[0.9, 0.1], [0.1, 0.9]])
    with pytest.raises(sp.SpeclusterError, match="positive"):
        sp.DegreeCorrectedModel(base=base, theta=np.array([1.0, 0.0, 1.0, 1.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(sp.SpeclusterError, match="positive and finite"):
            sp.DegreeCorrectedModel(base=base, theta=np.array([1.0, bad, 1.0, 1.0]))
    with pytest.raises(sp.SpeclusterError, match="above 1"):
        sp.DegreeCorrectedModel(base=base, theta=np.array([2.0, 1.0, 1.0, 1.0]))


def test_model_config_roundtrip(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text(
        "# demo model\nn = 6\nk = 2\nsizes = 4,2\nb = 0.5,0.1,0.1,0.4\n"
    )
    model = sp.load_model_config(cfg)
    assert model.n == 6
    assert model.block_sizes.tolist() == [4, 2]
    assert model.block_matrix[0, 1] == 0.1


def test_model_config_weights(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("n = 10\nk = 2\nweights = 3,2\nb = 0.5,0.1,0.1,0.4\n")
    model = sp.load_model_config(cfg)
    assert model.block_sizes.tolist() == [6, 4]


def test_model_config_theta_file(tmp_path):
    theta = tmp_path / "theta.txt"
    theta.write_text("".join("1.0\n" for _ in range(6)))
    cfg = tmp_path / "model.cfg"
    cfg.write_text("n = 6\nk = 1\nsizes = 6\nb = 0.5\ntheta_file = theta.txt\n")
    model = sp.load_model_config(cfg)
    assert isinstance(model, sp.DegreeCorrectedModel)


def test_model_config_errors(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("n = 6\nk = 2\nsizes = 4,2\n")
    with pytest.raises(sp.ConfigError, match="missing key"):
        sp.load_model_config(cfg)
    cfg.write_text("n = 6\nk = 2\nsizes = 4,3\nb = 0.5,0.1,0.1,0.4\n")
    with pytest.raises(sp.ConfigError, match="sizes sum"):
        sp.load_model_config(cfg)
    cfg.write_text("n = 6\nk = 2\nsizes = 4,2\nb = 0.5,0.1\n")
    with pytest.raises(sp.ConfigError, match="entries"):
        sp.load_model_config(cfg)


@pytest.mark.parametrize(
    "line, message",
    [
        ("sizes = 4,two", "invalid literal"),
        ("sizes = 4.5,1.5", "invalid literal"),
        ("weights = 3,x", "could not convert"),
        ("weights = 3,-1", "weights must be positive"),
        ("weights = 1000,1", "a block received zero nodes"),
    ],
)
def test_model_config_bad_block_sizes_name_the_file(tmp_path, line, message):
    cfg = tmp_path / "model.cfg"
    cfg.write_text(f"n = 6\nk = 2\n{line}\nb = 0.5,0.1,0.1,0.4\n")
    with pytest.raises(sp.ConfigError, match=f"model.cfg: {message}"):
        sp.load_model_config(cfg)
