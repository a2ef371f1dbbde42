import copy
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import specluster as sp
from specluster import clustering
from specluster.clustering import kmeans
from specluster.graph import build_graph
from specluster.spectral import RegularizedLaplacian, top_eigenpairs
from specluster.util import seed_sequence
from conftest import two_cliques


def brute_force_kmeans_minimum(points, k):
    """Minimum of the K-means objective over every labeling, by enumeration.

    Vectorized over all k^n labelings; independent of the Lloyd code path.
    """
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    total = k**n
    codes = np.arange(total)
    labels = np.empty((total, n), dtype=np.int8)
    for pos in range(n):
        labels[:, pos] = codes % k
        codes //= k
    normsq = (x * x).sum(axis=1)
    best = np.full(total, 0.0)
    for c in range(k):
        mask = (labels == c).astype(np.float64)
        counts = mask.sum(axis=1)
        sums = mask @ x
        within = mask @ normsq - np.divide(
            (sums * sums).sum(axis=1), counts, out=np.zeros(total), where=counts > 0
        )
        best += within
    return float(best.min())


def reference_kmeans(points, k, restarts=20, max_iter=100, seed=0, steps=None):
    """Lloyd with masked cluster means, row-wise argmin and the full
    objective every iteration, on kmeans's seeding and seed streams.
    steps, a list, gets the number of Lloyd steps of each restart."""
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    best_labels, best_obj = None, np.inf
    for child in seed_sequence(seed).spawn(restarts):
        centers = clustering._kmeanspp_init(x, k, np.random.default_rng(child))
        prev_labels, prev_obj = None, np.inf
        for step in range(max_iter):
            d2 = (
                (x * x).sum(axis=1)[:, None]
                - 2.0 * (x @ centers.T)
                + (centers * centers).sum(axis=1)[None, :]
            )
            np.maximum(d2, 0.0, out=d2)
            labels = np.argmin(d2, axis=1)
            counts = np.bincount(labels, minlength=k)
            repaired = bool(np.any(counts == 0))
            assigned = d2[np.arange(n), labels]
            for c in np.flatnonzero(counts == 0):
                cand = int(np.argmax(assigned))
                labels[cand] = c
                assigned[cand] = -np.inf
            for c in range(k):
                centers[c] = x[labels == c].mean(axis=0)
            obj = clustering.kmeans_objective(x, labels, k)
            assert repaired or obj <= prev_obj + 1e-9 * max(1.0, prev_obj)
            if prev_labels is not None and np.array_equal(labels, prev_labels):
                break
            prev_labels, prev_obj = labels, obj
        if steps is not None:
            steps.append(step + 1)
        if obj < best_obj:
            best_labels, best_obj = labels, obj
    return best_labels, best_obj


def reference_kmeanspp_init(x, k, rng, sqdist=lambda diff: (diff**2).sum(axis=1)):
    """k-means++ seeding with row-wise distance sums, by default numpy's
    row sum (pairwise from d = 8)."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = sqdist(x - centers[0])
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[c] = x[idx]
        d2 = np.minimum(d2, sqdist(x - centers[c]))
    return centers


def sequential_sqdist(diff):
    """Squared distances summed one coordinate after the other."""
    return reduce(np.add, (diff**2).T)


class RecordingRng:
    """A Generator that keeps every probability vector passed to choice,
    or to clustering._weighted_index once record_weighted_index is on."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.p = []

    def integers(self, n):
        return self.rng.integers(n)

    def random(self):
        return self.rng.random()

    def choice(self, n, p):
        self.p.append(p.copy())
        return self.rng.choice(n, p=p)


def record_weighted_index(monkeypatch):
    draw = clustering._weighted_index

    def recording(rng, p):
        rng.p.append(p.copy())
        return draw(rng, p)

    monkeypatch.setattr(clustering, "_weighted_index", recording)


def assert_matches_reference(points, k, seed, restarts=20, max_iter=100):
    part, obj = kmeans(points, k, restarts=restarts, max_iter=max_iter, seed=seed)
    ref_labels, ref_obj = reference_kmeans(points, k, restarts=restarts, max_iter=max_iter, seed=seed)
    assert np.array_equal(part.labels, ref_labels)
    assert obj == ref_obj  # bitwise: same arithmetic in the same order


def restart_outcomes(points, k, **kwargs):
    """kmeans(points, k, **kwargs) with _lloyd wrapped.  Returns the result
    and, per restart, the labels it returned (None once it merged) and the
    labels it returns when run alone, with no earlier restart seen."""
    runs = []
    real_lloyd = clustering._lloyd

    def recording(x, xt, xx, k, rng, max_iter, seen):
        alone = real_lloyd(x, xt, xx, k, copy.deepcopy(rng), max_iter, {})[0]
        out = real_lloyd(x, xt, xx, k, rng, max_iter, seen)
        runs.append((out[0], alone))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering, "_lloyd", recording)
        result = kmeans(points, k, **kwargs)
    return result, runs


def merge_kinds(runs, k):
    """Per merged restart, "exact" if run alone it ends in labels an earlier
    restart ends in alone, else "complement" (asserted, K = 2 only).  A
    restart that did not merge must return what it returns alone."""
    kinds = []
    for r, (labels, alone) in enumerate(runs):
        if labels is not None:
            assert np.array_equal(labels, alone)
            continue
        earlier = [a for _, a in runs[:r]]
        if any(np.array_equal(alone, a) for a in earlier):
            kinds.append("exact")
        else:
            assert k == 2 and any(np.array_equal(1 - alone, a) for a in earlier)
            kinds.append("complement")
    return kinds


def assign_calls(call):
    """Lloyd steps taken by call(): its calls to _assign."""
    calls = []
    real_assign = clustering._assign

    def counting(*args):
        calls.append(None)
        return real_assign(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering, "_assign", counting)
        call()
    return len(calls)


def test_kmeans_separated_clusters():
    pts = np.array([[0.0, 0.0]] * 5 + [[10.0, 10.0]] * 5)
    part, obj = kmeans(pts, 2, seed=0)
    assert obj == pytest.approx(0.0, abs=1e-12)
    assert len(set(part.labels[:5])) == 1
    assert len(set(part.labels[5:])) == 1
    assert part.labels[0] != part.labels[5]


def test_kmeans_single_cluster_objective_is_variance(rng):
    pts = rng.standard_normal((20, 3))
    _, obj = kmeans(pts, 1, seed=0)
    assert obj == pytest.approx(((pts - pts.mean(axis=0)) ** 2).sum(), rel=1e-12)


def test_kmeans_matches_exhaustive_minimum(rng):
    centers = np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 0.0]])
    pts = np.repeat(centers, 4, axis=0) + 0.8 * rng.standard_normal((12, 2))
    brute = brute_force_kmeans_minimum(pts, 3)
    _, obj = kmeans(pts, 3, restarts=30, seed=1)
    assert obj == pytest.approx(brute, rel=1e-9)


def test_kmeans_matches_exhaustive_minimum_hard_instances(rng):
    for trial in range(5):
        pts = rng.standard_normal((9, 2))
        brute = brute_force_kmeans_minimum(pts, 3)
        _, obj = kmeans(pts, 3, restarts=50, seed=trial)
        assert obj <= brute * (1 + 1e-9) + 1e-12
        assert obj >= brute - 1e-9


def test_kmeans_recovers_duplicated_rows():
    pts = np.repeat(np.array([[0.0], [1.0], [2.0]]), 5, axis=0)
    part, obj = kmeans(pts, 3, seed=0)
    assert obj == pytest.approx(0.0, abs=1e-15)
    assert len(np.unique(part.labels[:5])) == 1
    assert len(np.unique([part.labels[0], part.labels[5], part.labels[10]])) == 3


def test_kmeans_deterministic_and_needs_enough_points():
    pts = np.random.default_rng(0).standard_normal((30, 2))
    p1, o1 = kmeans(pts, 4, seed=9)
    p2, o2 = kmeans(pts, 4, seed=9)
    assert o1 == o2
    assert np.array_equal(p1.labels, p2.labels)
    with pytest.raises(sp.SpeclusterError):
        kmeans(pts[:3], 4)


def test_seed_sequence_argument_is_not_advanced():
    pts = np.random.default_rng(0).standard_normal((40, 3))
    ss = np.random.SeedSequence(11)
    first = kmeans(pts, 6, restarts=2, max_iter=2, seed=ss)
    second = kmeans(pts, 6, restarts=2, max_iter=2, seed=ss)
    assert first[1] == second[1]
    assert np.array_equal(first[0].labels, second[0].labels)
    g = two_cliques(6)
    parts = [sp.regularized_spectral_clustering(g, 2, 1.0, seed=ss).labels for _ in range(2)]
    assert np.array_equal(parts[0], parts[1])
    assert ss.n_children_spawned == 0
    assert seed_sequence(ss).state == ss.state  # an equivalent copy


def test_lloyd_objective_increase_raises(monkeypatch):
    # the descent check must be a real error, not an assert that -O strips
    real_assign = clustering._assign
    calls = iter(range(1, 1000))

    def growing(xt, centers):
        labels, e_min = real_assign(xt, centers)
        return labels, e_min + next(calls)

    monkeypatch.setattr(clustering, "_assign", growing)
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
    with pytest.raises(sp.ConvergenceError, match="objective increased"):
        kmeans(pts, 2, restarts=1, seed=0)


def test_assign_ties_go_to_lowest_index():
    xt = np.array([[0.0, 2.0]])
    labels, e_min = clustering._assign(xt[:, :1], np.array([[-1.0], [1.0]]))
    assert labels.tolist() == [0]
    assert e_min.tolist() == [1.0]
    # distances 9, 1, 1 from 0.0 and 1, 9, 1 from 2.0 (e = distance - |x|^2)
    labels, e_min = clustering._assign(xt, np.array([[3.0], [-1.0], [1.0]]))
    assert labels.tolist() == [1, 0]
    assert e_min.tolist() == [1.0, -3.0]


def running_minimum_assign(xt, centers):
    """e = -2 c.x + |c|^2, with the -2 applied after the product, then a
    running minimum over the centers with strict <; also returns e."""
    e = centers @ xt
    e *= -2.0
    e += (centers * centers).sum(axis=1)[:, None]
    labels = np.zeros(xt.shape[1], dtype=np.int64)
    e_min = e[0].copy()
    for c in range(1, centers.shape[0]):
        np.putmask(labels, e[c] < e_min, c)
        np.minimum(e_min, e[c], out=e_min)
    return labels, e_min, e


@pytest.mark.parametrize("k", [2, 3])
def test_assign_matches_running_minimum_reference(k):
    rng = np.random.default_rng(0)
    centers = rng.standard_normal((k, 3)) * 7.0
    centers[1, 0] = -centers[0, 0]
    centers[1, 1:] = centers[0, 1:]
    x = np.vstack(
        [
            rng.standard_normal((200, 3)) * 7.0,
            # on a center up to 1e-9: distances that round below zero
            centers[rng.integers(k, size=100)] + 1e-9 * rng.standard_normal((100, 3)),
            # first coordinate 0: exactly as far from center 0 as from center 1
            np.column_stack([np.zeros(50), rng.standard_normal((50, 2))]),
        ]
    )
    xt = np.ascontiguousarray(x.T)
    xx = (x * x).sum(axis=1)
    want_labels, want_e_min, e = running_minimum_assign(xt, centers)
    assert (e + xx < 0).any()
    ties = e[0] == e[1]
    assert ties.sum() >= 50
    if k == 2:
        assert not want_labels[ties].any()  # a tie goes to center 0
    labels, e_min = clustering._assign(xt, centers)
    assert labels.dtype == np.uint8
    assert np.array_equal(labels, want_labels)
    assert np.array_equal(e_min, want_e_min)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kmeans_rejects_non_finite_points(bad):
    pts = np.random.default_rng(0).standard_normal((10, 2))
    pts[3, 1] = bad
    with pytest.raises(sp.SpeclusterError, match="finite"):
        kmeans(pts, 2, seed=0)


def test_kmeans_matches_reference_on_sbm_embeddings():
    model = sp.BlockModel.from_sizes([150, 150, 100], np.full((3, 3), 0.02) + np.diag([0.1, 0.06, 0.08]))
    g = sp.sample(model, 0)
    for tau in (1.0, 20.0, 400.0):
        vectors = top_eigenpairs(RegularizedLaplacian(g, tau), 3, seed=0).vectors
        assert_matches_reference(vectors, 3, seed=int(tau))


@pytest.mark.parametrize("k", [4, 5])
def test_kmeans_matches_reference_beyond_three_clusters(k):
    model = sp.BlockModel.from_sizes([80] * k, np.full((k, k), 0.02) + np.diag(np.full(k, 0.1)))
    g = sp.sample(model, k)
    for tau in (2.0, 50.0):
        vectors = top_eigenpairs(RegularizedLaplacian(g, tau), k, seed=0).vectors
        assert_matches_reference(vectors, k, seed=int(tau))


def test_kmeans_past_256_clusters_returns_int64_labels(rng):
    # K - 1 = 256 does not fit in one byte: the Lloyd steps run on uint16
    points = rng.standard_normal((300, 2))
    part, obj = kmeans(points, 257, restarts=3, seed=0)
    assert part.labels.dtype == np.int64
    assert part.labels.max() == 256
    ref_labels, ref_obj = reference_kmeans(points, 257, restarts=3, seed=0)
    assert np.array_equal(part.labels, ref_labels)
    assert obj == ref_obj


def test_kmeans_matches_reference_with_empty_cluster_repair():
    # k=4 on three distinct rows and k=3 on identical points leave a cluster
    # empty, so the repair runs
    repeated = np.repeat(np.array([[0.0], [1.0], [2.0]]), 5, axis=0)
    for k in (3, 4):
        assert_matches_reference(repeated, k, seed=0)
    assert_matches_reference(np.zeros((6, 2)), 3, seed=0, restarts=2)


def dcsbm_embeddings(taus):
    """Unnormalized spectral embeddings of one n=600 degree-corrected
    3-block graph (Pareto(2.5) theta, in/out ratio 6, mean degree 15), where
    k-means restarts end in several different local optima."""
    n, k = 600, 3
    m = n // k
    c = 15.0 / (n * 8.0 / 3.0)
    b = np.full((k, k), c) + np.diag(np.full(k, 5.0 * c))
    quantiles = (1.0 - (np.arange(m) + 0.5) / m) ** (-1.0 / 2.5)
    theta = np.minimum(np.tile(quantiles / quantiles.mean(), k), np.sqrt(1.0 / b.max()))
    model = sp.DegreeCorrectedModel(base=sp.BlockModel.from_sizes([m] * k, b), theta=theta)
    g = sp.sample(model, 0)
    return [top_eigenpairs(RegularizedLaplacian(g, tau), k, seed=0).vectors for tau in taus]


def test_kmeans_matches_reference_with_many_moves():
    for i, vectors in enumerate(dcsbm_embeddings((2.0, 10.0, 50.0))):
        single = {round(kmeans(vectors, 3, restarts=1, seed=s)[1], 9) for s in range(20)}
        assert len(single) >= 2  # restarts reach different local optima
        assert_matches_reference(vectors, 3, seed=i)


@pytest.mark.parametrize("max_iter", [1, 2, 3])
def test_kmeans_matches_reference_when_restarts_stop_early(max_iter):
    inputs = [(v, 3) for v in dcsbm_embeddings((10.0,))]
    repeated = np.repeat(np.array([[0.0], [1.0], [2.0]]), 5, axis=0)
    inputs += [(repeated, 3), (repeated, 4), (np.zeros((6, 2)), 3)]
    for seed, (points, k) in enumerate(inputs):
        assert_matches_reference(points, k, seed=seed, max_iter=max_iter)


def test_kmeans_scores_only_restarts_that_can_win(monkeypatch, rng):
    calls = []
    real_objective = clustering.kmeans_objective

    def counting(points, labels, k):
        calls.append(labels)
        return real_objective(points, labels, k)

    monkeypatch.setattr(clustering, "kmeans_objective", counting)
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    blobs = np.repeat(centers, 30, axis=0) + 0.5 * rng.standard_normal((90, 2))
    for k in (1, 3):
        calls.clear()
        part, obj = kmeans(blobs, k, seed=4)
        scored = len(calls)
        ref_labels, ref_obj = reference_kmeans(blobs, k, seed=4)
        assert np.array_equal(part.labels, ref_labels)
        assert obj == ref_obj
        if k == 1:
            assert scored == 1  # every restart ends in the same labels
        else:
            # restarts find the same partition under different label
            # permutations; those are scored, and the lowest index wins ties
            assert 1 < scored < 20
            assert len({tuple(lab.tolist()) for lab in calls}) > 1


def test_kmeans_two_clusters_skips_the_complement_of_the_best(monkeypatch, rng):
    calls = []
    real_objective = clustering.kmeans_objective

    def counting(points, labels, k):
        calls.append(labels)
        return real_objective(points, labels, k)

    monkeypatch.setattr(clustering, "kmeans_objective", counting)
    blobs = np.repeat([[0.0, 0.0], [6.0, 0.0]], 40, axis=0) + 0.5 * rng.standard_normal((80, 2))
    (part, obj), outcomes = restart_outcomes(blobs, 2, seed=4)
    # run alone, every restart ends in the same partition, under both
    # labelings; all but the first merge, one of them through the complement
    runs = [alone for _, alone in outcomes]
    assert {tuple(lab.tolist()) for lab in runs} == {tuple(runs[0]), tuple(1 - runs[0])}
    assert merge_kinds(outcomes, 2).count("complement") >= 1
    assert len(calls) == 1
    monkeypatch.undo()
    ref_labels, ref_obj = reference_kmeans(blobs, 2, seed=4)
    assert np.array_equal(part.labels, ref_labels)
    assert obj == ref_obj
    assert clustering.kmeans_objective(blobs, 1 - ref_labels, 2) == ref_obj


@pytest.mark.parametrize("k, kind", [(2, "complement"), (3, "exact")])
def test_kmeans_merged_restarts_match_reference(k, kind):
    # restarts that reach labels an earlier restart passed through stop
    # there; the result stays bitwise the reference's, in fewer steps
    vectors = dcsbm_embeddings((10.0,))[0][:, :k]
    (part, obj), runs = restart_outcomes(vectors, k, seed=0)
    assert kind in merge_kinds(runs, k)
    ref_steps = []
    ref_labels, ref_obj = reference_kmeans(vectors, k, seed=0, steps=ref_steps)
    assert np.array_equal(part.labels, ref_labels)
    assert obj == ref_obj
    assert assign_calls(lambda: kmeans(vectors, k, seed=0)) < sum(ref_steps)


def test_kmeans_merges_nothing_on_repair_inputs():
    # k=4 on three distinct rows and k=3 on identical points repair an empty
    # cluster up to the last step, so no restart ends with a finite bound,
    # none is remembered and none merges; k=3 on the three rows converges
    # without a repair, and restarts merge
    repeated = np.repeat(np.array([[0.0], [1.0], [2.0]]), 5, axis=0)
    cases = [(repeated, 4, 20, False), (np.zeros((6, 2)), 3, 2, False), (repeated, 3, 20, True)]
    for points, k, restarts, merges in cases:
        (part, obj), runs = restart_outcomes(points, k, restarts=restarts, seed=0)
        assert bool(merge_kinds(runs, k)) == merges
        ref_labels, ref_obj = reference_kmeans(points, k, restarts=restarts, seed=0)
        assert np.array_equal(part.labels, ref_labels)
        assert obj == ref_obj


def test_lloyd_merges_only_when_it_would_converge_within_max_iter():
    x = dcsbm_embeddings((10.0,))[0]
    xt, xx = np.ascontiguousarray(x.T), (x * x).sum(axis=1)
    children = seed_sequence(0).spawn(20)

    def run(r, max_iter, seen):
        return clustering._lloyd(x, xt, xx, 3, np.random.default_rng(children[r]), max_iter, seen)

    seen = {}
    for r in range(20):
        before = dict(seen)
        if run(r, 100, seen)[0] is None:
            break
    alone_labels, alone_bound = run(r, 100, {})
    assert np.isfinite(alone_bound)
    end = assign_calls(lambda: run(r, 100, {})) - 1  # run alone, it converges at this step
    assert end >= 2
    assert run(r, end + 1, dict(before))[0] is None
    # one step fewer and it would stop at max_iter: it runs on, unscored
    # labels and all, and what it passed through is not remembered
    last = dict(before)
    labels, bound = run(r, end, last)
    assert bound == -np.inf
    assert np.array_equal(labels, run(r, end, {})[0])
    assert last == before


@pytest.mark.parametrize("name", ["k", "restarts", "max_iter"])
def test_kmeans_rejects_counts_below_one(name):
    pts = np.random.default_rng(0).standard_normal((10, 2))
    with pytest.raises(sp.SpeclusterError, match=f"{name} >= 1"):
        kmeans(pts, **{"k": 2, name: 0})


@pytest.mark.parametrize("k", range(2, 8))
def test_kmeanspp_init_matches_row_sum_below_d8(monkeypatch, k):
    record_weighted_index(monkeypatch)
    for seed in range(4):
        x = np.random.default_rng(seed).standard_normal((300, k)) * np.linspace(0.5, 3.0, k)
        got_rng, ref_rng = RecordingRng(seed), RecordingRng(seed)
        centers = clustering._kmeanspp_init(x, k, got_rng)
        assert np.array_equal(centers, reference_kmeanspp_init(x, k, ref_rng))
        assert all(np.array_equal(a, b) for a, b in zip(got_rng.p, ref_rng.p, strict=True))


@pytest.mark.parametrize("k", [8, 9, 12])
def test_kmeanspp_init_sums_coordinates_in_order_from_d8(monkeypatch, k):
    # numpy's row sum turns pairwise at d = 8; the init keeps summing one
    # coordinate after the other, so its probabilities can move in the last bits
    record_weighted_index(monkeypatch)
    for seed in range(4):
        x = np.random.default_rng(seed).standard_normal((300, k)) * np.linspace(0.5, 3.0, k)
        got_rng, seq_rng, row_rng = RecordingRng(seed), RecordingRng(seed), RecordingRng(seed)
        centers = clustering._kmeanspp_init(x, k, got_rng)
        assert np.array_equal(centers, reference_kmeanspp_init(x, k, seq_rng, sequential_sqdist))
        assert all(np.array_equal(a, b) for a, b in zip(got_rng.p, seq_rng.p, strict=True))
        # here no draw lands within rounding of a cumulative boundary, so the
        # row-sum seeding picks the same rows
        assert np.array_equal(centers, reference_kmeanspp_init(x, k, row_rng))
        for a, b in zip(got_rng.p, row_rng.p, strict=True):
            np.testing.assert_allclose(a, b, rtol=1e-14, atol=0)


def test_weighted_index_is_rng_choice():
    # the same index and the same generator state as one rng.choice draw,
    # also where the weights have zeros or a single positive entry
    gen = np.random.default_rng(100)
    with_zeros = gen.random(50)
    with_zeros[::3] = 0.0
    single = np.zeros(9)
    single[6] = 2.5
    mostly_zero = gen.random(3000)
    mostly_zero[:2990] = 0.0
    squared_norms = (gen.standard_normal((400, 3)) ** 2).sum(axis=1)
    for seed in range(250):
        for w in (with_zeros, single, mostly_zero, squared_norms):
            p = w / w.sum()
            got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            idx = clustering._weighted_index(got_rng, p)
            assert idx == ref_rng.choice(p.size, p=p)
            assert p[idx] > 0
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def test_kmeans_all_identical_points_keeps_k_clusters():
    pts = np.zeros((6, 2))
    part, obj = kmeans(pts, 3, restarts=2, seed=0)
    assert obj == 0.0
    assert np.bincount(part.labels, minlength=3).min() >= 1


def test_rsc_two_cliques_exact():
    g = two_cliques(5)
    truth = sp.Partition(np.repeat([0, 1], 5), 2)
    part = sp.regularized_spectral_clustering(g, 2, 0.0, seed=0)
    report = sp.clustering_error(part, truth)
    assert report.error == 0.0
    assert report.misclassified_fraction == 0.0


def test_rsc_relabeling_invariance(rng):
    g = two_cliques(5)
    perm = rng.permutation(10)
    # relabel nodes by perm: edge (i, j) -> (perm[i], perm[j])
    edges = np.column_stack([perm[g.edges[:, 0]], perm[g.edges[:, 1]]])
    g_perm = build_graph(10, edges)
    part = sp.regularized_spectral_clustering(g, 2, 0.5, seed=0)
    part_perm = sp.regularized_spectral_clustering(g_perm, 2, 0.5, seed=0)
    # labels at corresponding nodes agree up to a relabeling of the clusters
    relabeled = sp.Partition(part_perm.labels[perm], 2)
    assert sp.clustering_error(relabeled, part).error == 0.0


def test_rsc_labels_count_up_in_order_of_first_node(monkeypatch):
    model = sp.BlockModel.from_sizes([30, 30, 30], np.full((3, 3), 0.03) + np.diag([0.4, 0.3, 0.35]))
    perm = np.random.default_rng(5).permutation(90)
    g0 = sp.sample(model, 5)
    g = build_graph(90, perm[g0.edges])
    raw = []
    real_kmeans = clustering.kmeans

    def recording(*args, **kwargs):
        out = real_kmeans(*args, **kwargs)
        raw.append(out[0].labels)
        return out

    monkeypatch.setattr(clustering, "kmeans", recording)
    for seed in range(6):
        labels = sp.regularized_spectral_clustering(g, 3, 2.0, seed=seed).labels
        values, first = np.unique(labels, return_index=True)
        assert values.tolist() == [0, 1, 2]
        assert first[0] == 0 and np.all(np.diff(first) > 0)
        # the same set partition k-means returned, renumbered
        pairs = {(a, b) for a, b in zip(raw[-1].tolist(), labels.tolist())}
        assert len(pairs) == 3 and len({a for a, _ in pairs}) == 3


def test_rsc_needs_tau_for_isolated_nodes():
    g = build_graph(6, [(0, 1), (1, 2), (3, 4)])  # node 5 isolated
    with pytest.raises(sp.SingularLaplacianError):
        sp.regularized_spectral_clustering(g, 2, 0.0)


def test_partition_file_roundtrip(tmp_path):
    part = sp.Partition(np.array([0, 1, 1, 0, -1]), 2)
    path = tmp_path / "labels.txt"
    sp.save_partition(part, path)
    loaded = sp.load_partition(path)
    assert np.array_equal(loaded.labels, part.labels)


def test_partition_file_non_ascii_text(tmp_path):
    path = tmp_path / "labels.txt"
    # np.loadtxt read the second line as label 472
    path.write_text("0\n1\u01fe\n", encoding="utf-8")
    with pytest.raises(sp.SpeclusterError, match=r"labels.txt:2: "):
        sp.load_partition(path)
    path.write_text("# r\u00e9seau\n0\n1  # \u00e9tiquette\n\n1\n", encoding="utf-8")
    assert sp.load_partition(path).labels.tolist() == [0, 1, 1]
    path.write_text("# r\u00e9seau\n0\n99999999999999999999\n", encoding="utf-8")
    with pytest.raises(sp.SpeclusterError, match=r"labels.txt:3: label outside int64"):
        sp.load_partition(path)


@pytest.mark.parametrize("line", ["x", "1 2", "1.0", "99999999999999999999", "-99999999999999999999"])
def test_partition_file_bad_line_names_it(tmp_path, line):
    path = tmp_path / "labels.txt"
    path.write_text(f"# labels\n0\n{line}\n1\n")
    with pytest.raises(sp.SpeclusterError, match=r"labels.txt:3: "):
        sp.load_partition(path)


def test_partition_file_without_labels_names_it(tmp_path):
    path = tmp_path / "labels.txt"
    for text in ("", "\n\n", "# labels\n  # none yet\n\n"):
        path.write_text(text)
        with pytest.raises(sp.SpeclusterError, match=r"labels.txt: no labels"):
            sp.load_partition(path)


def test_partition_file_that_crashed_loadtxt(tmp_path):
    # np.loadtxt on this text killed the interpreter with SIGSEGV, so the
    # load runs in a child process
    path = tmp_path / "labels.txt"
    path.write_text("1\U0010ffff2\n", encoding="utf-8")
    code = (
        "import sys, specluster as sp\n"
        "try:\n"
        "    sp.load_partition(sys.argv[1])\n"
        "except sp.SpeclusterError as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(sp.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code, str(path)], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0, done.stderr
    assert "labels.txt:1: " in done.stdout


def test_partition_validation():
    with pytest.raises(sp.SpeclusterError):
        sp.Partition(np.array([0, 2]), 2)
    with pytest.raises(sp.SpeclusterError):
        sp.Partition(np.array([0, -2]), 2)
