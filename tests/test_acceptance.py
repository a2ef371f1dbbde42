"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  Some
criteria are stochastic; all seeds are fixed so results are reproducible.
"""

import itertools
import os
import time

import numpy as np
import pytest

import specluster as sp
from conftest import (
    random_full_rank_model,
    strong_weak_benchmark_params,
    two_block_benchmark_model,
)
from specluster.blockmodel import PopulationLaplacian, full_model
from specluster.bounds import mixing_moments
from specluster.clustering import kmeans
from specluster.spectral import RegularizedLaplacian, spectral_norm_diff


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {desc} {detail}".rstrip())
    return ok


# ---------------------------------------------------------------------------


def test_criterion_01_reduced_spectrum_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        model = random_full_rank_model(rng, max_n=300, max_k=5)
        k = model.num_blocks
        for tau in (0.0, 5.0, float(model.n)):
            reduced = np.sort(sp.reduced_spectrum(model, tau))
            dense = np.linalg.eigvalsh(sp.population_laplacian(model, tau))
            nonzero = np.sort(dense[np.argsort(np.abs(dense))[::-1][:k]])
            worst = max(worst, float(np.abs(reduced - nonzero).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30
    assert report(
        1,
        "block-reduced spectrum matches dense population eigenvalues",
        ok,
        f"(worst dev {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_02_center_distance_exactness():
    worst = 0.0
    models = [
        sp.BlockModel.from_sizes([30, 70], [[0.6, 0.1], [0.1, 0.35]]),
        sp.BlockModel.from_sizes([30, 40, 50], np.array(
            [[0.5, 0.08, 0.05], [0.08, 0.45, 0.06], [0.05, 0.06, 0.4]]
        )),
        sp.BlockModel.from_sizes(
            [20, 25, 30, 35, 40],
            np.eye(5) * 0.4 + 0.05,
        ),
    ]
    for model in models:
        k = model.num_blocks
        z = model.membership
        reps = [int(np.flatnonzero(z == c)[0]) for c in range(k)]
        expected = sp.center_distances(model)
        per_tau = []
        for tau in (0.0, 5.0, float(model.n)):
            _, vecs = np.linalg.eigh(sp.population_laplacian(model, tau))
            top = vecs[:, ::-1][:, :k]
            got = np.zeros((k, k))
            for a in range(k):
                for b in range(k):
                    got[a, b] = np.linalg.norm(top[reps[a]] - top[reps[b]])
            per_tau.append(got)
            worst = max(worst, float(np.abs(got - expected).max()))
        for other in per_tau[1:]:
            worst = max(worst, float(np.abs(other - per_tau[0]).max()))
    ok = worst <= 1e-8
    assert report(
        2,
        "population center distances equal sqrt(1/n_k + 1/n_l), any tau",
        ok,
        f"(worst dev {worst:.2e})",
    )


def test_criterion_03_strong_weak_closed_forms():
    params = strong_weak_benchmark_params()
    model = sp.merged_model(params)
    worst = 0.0
    for tau in (0.0, 10.0, 2000.0):
        mu1, mu_rep, mu_last = sp.strong_weak_spectrum(params, tau)
        closed = np.sort(np.r_[mu1, [mu_rep] * (params.num_strong - 1), mu_last])
        dense = np.linalg.eigvalsh(sp.population_laplacian(model, tau))
        k_all = params.num_strong + 1
        nonzero = np.sort(dense[np.argsort(np.abs(dense))[::-1][:k_all]])
        worst = max(worst, float(np.abs(closed - nonzero).max()))
    ok = worst <= 1e-8
    assert report(
        3,
        "strong/weak closed-form spectrum matches dense eigendecomposition",
        ok,
        f"(worst dev {worst:.2e})",
    )


def test_criterion_04_concentration_monte_carlo():
    start = time.perf_counter()
    model = sp.BlockModel.from_sizes([250, 250], [[0.08, 0.02], [0.02, 0.08]])
    tau = 64 * np.log(model.n)
    d_min, d_max = sp.population_degree_extremes(model)
    eps = sp.concentration_bound(model.n, d_min, d_max, tau)
    pop = PopulationLaplacian(model, tau)
    hits = 0
    for trial in range(50):
        g = sp.sample(model, 400 + trial)
        dist = spectral_norm_diff(RegularizedLaplacian(g, tau), pop, seed=trial)
        hits += dist <= eps
    elapsed = time.perf_counter() - start
    ok = hits >= 49 and elapsed < 120
    assert report(
        4,
        "sample Laplacian concentrates within the bound",
        ok,
        f"({hits}/50 within eps={eps:.3f}, {elapsed:.1f}s)",
    )


def _benchmark_seeds_without_isolated(model, count):
    seeds = []
    seed = 0
    graphs = {}
    while len(seeds) < count:
        g = sp.sample(model, seed)
        if g.degrees.min() > 0:
            seeds.append(seed)
            graphs[seed] = g
        seed += 1
    return seeds, graphs


def test_criterion_05_benchmark_reproduction():
    start = time.perf_counter()
    model = two_block_benchmark_model()
    truth = sp.Partition(model.membership, 2)
    seeds, graphs = _benchmark_seeds_without_isolated(model, 10)
    grid = np.geomspace(1.0, float(model.n), 20)
    mf_zero, mf_full, mf_chosen = [], [], []
    for seed in seeds:
        g = graphs[seed]
        part0 = sp.regularized_spectral_clustering(g, 2, 0.0, seed=seed)
        mf_zero.append(sp.clustering_error(part0, truth).misclassified_fraction)
        scan = sp.tau_scan(
            g, 2, grid, criteria=("dkest",), truth=truth, seed=seed
        )
        mf_full.append(scan.records[-1].misclassified_fraction)  # tau = n endpoint
        mf_chosen.append(scan.record_at(scan.chosen["dkest"]).misclassified_fraction)
    m0, mn, mc = np.mean(mf_zero), np.mean(mf_full), np.mean(mf_chosen)
    elapsed = time.perf_counter() - start
    ok_zero = m0 >= 0.20
    ok_full = mn <= 0.10
    ok_chosen = mc <= 0.10
    ok_time = elapsed < 300
    detail = (
        f"(mean misclassified: tau=0 {m0:.3f} [need >= 0.20], "
        f"tau=n {mn:.3f} [need <= 0.10], dkest-tau {mc:.3f} [need <= 0.10], "
        f"{elapsed:.0f}s)"
    )
    assert report(
        5,
        "sparse two-block benchmark reproduction",
        ok_zero and ok_full and ok_chosen and ok_time,
        detail,
    )


def test_criterion_06_strong_weak_reproduction():
    model = full_model(strong_weak_benchmark_params())
    labels = np.full(model.n, -1)
    labels[:800] = 0
    labels[800:1600] = 1
    truth = sp.Partition(labels, 2)
    mf_zero, mf_full = [], []
    seed = 0
    while len(mf_zero) < 10:
        g = sp.sample(model, seed)
        seed += 1
        if g.degrees.min() == 0:
            continue
        part0 = sp.regularized_spectral_clustering(g, 2, 0.0, seed=seed)
        partn = sp.regularized_spectral_clustering(g, 2, float(model.n), seed=seed)
        mf_zero.append(sp.clustering_error(part0, truth).misclassified_fraction)
        mf_full.append(sp.clustering_error(partn, truth).misclassified_fraction)
    m0, mn = np.mean(mf_zero), np.mean(mf_full)
    ok_zero = m0 >= 0.40
    ok_full = mn <= 0.25
    detail = (
        f"(mean strong-node misclassified: tau=0 {m0:.3f} [need >= 0.40], "
        f"tau=n {mn:.3f} [need <= 0.25])"
    )
    assert report(6, "strong/weak benchmark reproduction", ok_zero and ok_full, detail)


def test_criterion_07_large_tau_insensitivity():
    model = two_block_benchmark_model()
    truth = sp.Partition(model.membership, 2)
    diffs = []
    for seed in range(10):
        g = sp.sample(model, 700 + seed)
        nmis = []
        for tau in (10.0 * model.n, 100.0 * model.n):
            part = sp.regularized_spectral_clustering(g, 2, tau, seed=seed)
            nmis.append(sp.nmi(part, truth))
        diffs.append(abs(nmis[0] - nmis[1]))
    mean_diff = float(np.mean(diffs))
    ratios = [sp.theory_report(model, tau).delta_tau for tau in (1e8, 1e9)]
    ratio_drift = abs(ratios[0] - ratios[1]) / abs(ratios[1])
    ok = mean_diff <= 0.02 and ratio_drift < 1e-3
    assert report(
        7,
        "clustering and the perturbation ratio stabilize at large tau",
        ok,
        f"(mean |NMI(10n)-NMI(100n)| {mean_diff:.4f}, ratio drift {ratio_drift:.2e})",
    )


def test_criterion_08_limit_identities():
    rng = np.random.default_rng(808)
    worst_identity = 0.0
    for _ in range(100):
        sizes = rng.integers(200, 800, size=2)
        q = float(rng.uniform(0.001, 0.02))
        p = q + rng.uniform(0.005, 0.1, size=2)
        b = np.full((2, 2), q)
        np.fill_diagonal(b, p)
        model = sp.BlockModel.from_sizes(sizes, b)
        m1, m1t, m2 = mixing_moments(model)
        w = model.weights
        gamma = model.block_sizes * (p - q)
        coeff = (m1t * m1 - m2) / m1
        closed = 1.0 / (w[1] * gamma[0] + w[0] * gamma[1])
        worst_identity = max(worst_identity, abs(coeff - closed) / closed)
    worst_trace = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 5))
        sizes = rng.integers(100, 500, size=k)
        q = float(rng.uniform(0.0, 0.02))
        p = q + rng.uniform(0.01, 0.1, size=k)
        b = np.full((k, k), q)
        np.fill_diagonal(b, p)
        model = sp.BlockModel.from_sizes(sizes, b)
        tau = 1e8
        numeric = np.sum(1 / sp.reduced_spectrum(model, tau)) / tau
        limit = sp.trace_inverse_limit(model)
        worst_trace = max(worst_trace, abs(numeric - limit) / abs(limit))
    ok = worst_identity <= 1e-12 and worst_trace <= 1e-5
    assert report(
        8,
        "two-block limit identity and inverse-trace limit",
        ok,
        f"(identity dev {worst_identity:.2e}, trace dev {worst_trace:.2e})",
    )


def _exhaustive_bottleneck(est, truth):
    mask = truth.labels >= 0
    k = max(est.k, truth.k)
    best = np.inf
    for perm in itertools.permutations(range(k)):
        worst = 0.0
        for a in range(k):
            ref = set(np.flatnonzero(mask & (truth.labels == a)))
            got = set(np.flatnonzero(est.labels == perm[a])) if perm[a] < est.k else set()
            if not ref:
                worst = max(worst, 0.0 if not got else np.inf)
                continue
            worst = max(worst, (len(ref - got) + len(got - ref)) / len(ref))
        best = min(best, worst)
    return best


def _brute_force_kmeans(points, k):
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    total = k**n
    codes = np.arange(total)
    labels = np.empty((total, n), dtype=np.int8)
    for pos in range(n):
        labels[:, pos] = codes % k
        codes //= k
    normsq = (x * x).sum(axis=1)
    obj = np.zeros(total)
    for c in range(k):
        mask = (labels == c).astype(np.float64)
        counts = mask.sum(axis=1)
        sums = mask @ x
        obj += mask @ normsq - np.divide(
            (sums * sums).sum(axis=1), counts, out=np.zeros(total), where=counts > 0
        )
    return float(obj.min())


def test_criterion_09_metric_oracles():
    rng = np.random.default_rng(909)
    exact = True
    for _ in range(200):
        n = int(rng.integers(6, 41))
        k_t = int(rng.integers(2, 7))
        k_e = int(rng.integers(2, 7))
        truth_labels = rng.integers(0, k_t, size=n)
        while np.unique(truth_labels).size < k_t:
            truth_labels = rng.integers(0, k_t, size=n)
        est = sp.Partition(rng.integers(0, k_e, size=n), k_e)
        truth = sp.Partition(truth_labels, k_t)
        got = sp.clustering_error(est, truth).error
        want = _exhaustive_bottleneck(est, truth)
        if not np.isclose(got, want, atol=0, rtol=0):
            exact = False
            break
    km_ok = True
    for trial in range(3):
        centers = np.array([[0.0, 0.0], [4.0, 4.0], [8.0, 0.0]])
        pts = np.repeat(centers, 4, axis=0) + rng.normal(scale=0.9, size=(12, 2))
        brute = _brute_force_kmeans(pts, 3)
        _, obj = kmeans(pts, 3, restarts=40, seed=trial)
        if not np.isclose(obj, brute, rtol=1e-9, atol=1e-12):
            km_ok = False
            break
    ok = exact and km_ok
    assert report(
        9,
        "clustering error equals brute force; kmeans attains enumeration minimum",
        ok,
    )


def _panel_config(lam, out):
    return sp.ExperimentConfig(
        n=900,
        k=3,
        inside_weights=(1.0, 1.0, 1.0),
        out_in_ratio=6.0,
        target_degree=lam,
        tau_grid=np.geomspace(1.0, 9000.0, 12),
        replicates=10,
        seed=1000 + int(lam),
        output_path=out,
    )


def test_criterion_10_dkest_vs_modularity(tmp_path):
    start = time.perf_counter()
    ok = True
    details = []
    for lam in (10.0, 20.0, 30.0):
        cfg = _panel_config(lam, str(tmp_path / f"panel{int(lam)}.csv"))
        result = sp.run_experiment(cfg)
        dk = result.mean_nmi("dkest")
        gn = result.mean_nmi("gn")
        details.append(f"lambda={lam:g}: dkest {dk:.3f} vs gn {gn:.3f}")
        if not dk >= gn - 0.05:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 900
    assert report(
        10,
        "tau selected by the perturbation estimate keeps up with modularity",
        ok,
        f"({'; '.join(details)}; {elapsed:.0f}s)",
    )


_POLBLOGS_EDGES = os.environ.get(
    "SPECLUSTER_POLBLOGS_EDGES", os.path.join(os.path.dirname(__file__), "data", "polblogs_edges.txt")
)
_POLBLOGS_LABELS = os.environ.get(
    "SPECLUSTER_POLBLOGS_LABELS", os.path.join(os.path.dirname(__file__), "data", "polblogs_labels.txt")
)


@pytest.mark.skipif(
    not (os.path.exists(_POLBLOGS_EDGES) and os.path.exists(_POLBLOGS_LABELS)),
    reason="political blogs data not supplied",
)
def test_criterion_11_political_blogs_optional():
    truth = sp.load_partition(_POLBLOGS_LABELS)
    g = sp.load_edge_list(_POLBLOGS_EDGES, n_hint=truth.n)
    part0 = sp.regularized_spectral_clustering(g, 2, 0.0, seed=0)
    acc0 = 1.0 - sp.clustering_error(part0, truth).misclassified_fraction
    grid = np.geomspace(0.25, 10.0 * g.n, 25)
    scan_sbm = sp.tau_scan(g, 2, grid, criteria=("dkest",), truth=truth, seed=0)
    acc_sbm = 1.0 - scan_sbm.record_at(scan_sbm.chosen["dkest"]).misclassified_fraction
    scan_dsbm = sp.tau_scan(
        g, 2, grid, criteria=("dkest",), truth=truth, model_kind="dsbm", seed=0
    )
    acc_dsbm = 1.0 - scan_dsbm.record_at(scan_dsbm.chosen["dkest"]).misclassified_fraction
    ok = abs(acc0 - 0.51) <= 0.05 and acc_sbm >= 0.75 and acc_dsbm >= 0.90
    assert report(
        11,
        "political blogs accuracy at tau=0 / plain fit / degree-corrected fit",
        ok,
        f"(acc {acc0:.3f} / {acc_sbm:.3f} / {acc_dsbm:.3f})",
    )
