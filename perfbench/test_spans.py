"""Self-test of the benchmark's span arithmetic and wrappers.

    python3 -m pytest -q perfbench/test_spans.py
"""

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import specluster as sp  # noqa: E402
from specluster import blockmodel, clustering, experiments, graph, selection, spectral  # noqa: E402

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times, worker_busy_frac  # noqa: E402


def two_thread_tree():
    """A scan span on the main thread whose grid points ran on two workers:
    worker B covers [0, 9], worker C covers [1, 8]; their union is [0, 9]."""
    a, b, c = 1, 2, 3
    return [
        Span("selection.tau_scan", 0.0, 10.0, None, a),  # 0
        Span("clustering.rsc", 0.0, 4.0, 0, b),  # 1
        Span("clustering.kmeans", 0.5, 3.5, 1, b),  # 2
        Span("spectral.eig", 3.5, 4.0, 1, b),  # 3
        Span("selection.dkest", 4.0, 9.0, 0, b),  # 4
        Span("spectral.norm", 5.0, 8.0, 4, b),  # 5
        Span("clustering.rsc", 1.0, 6.0, 0, c),  # 6
        Span("selection.dkest", 6.0, 8.0, 0, c),  # 7
    ]


def test_self_time_subtracts_union_of_children_across_threads():
    selfs = self_times(two_thread_tree())
    assert selfs == pytest.approx([1.0, 0.5, 3.0, 0.5, 2.0, 3.0, 5.0, 2.0])


def test_self_time_clips_children_to_the_parent_interval():
    spans = [Span("outer", 0.0, 2.0, None, 1), Span("inner", 1.5, 3.0, 0, 1)]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_worker_busy_frac_sums_child_time_over_workers_times_wall():
    # children: 4 + 5 (worker B) + 5 + 2 (worker C) = 16 over 2 x 10
    assert worker_busy_frac(two_thread_tree(), "selection.tau_scan", workers=2) == pytest.approx(0.8)
    assert worker_busy_frac(two_thread_tree(), "absent", workers=2) == 0.0


def test_tracer_keeps_one_span_stack_per_thread():
    tracer = Tracer()
    seen = {}

    def work(tag):
        with tracer.span(f"outer-{tag}"):
            with tracer.span(f"inner-{tag}") as inner:
                seen[tag] = inner.parent

    threads = [threading.Thread(target=work, args=(t,)) for t in "xy"]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    names = [s.name for s in tracer.spans]
    for tag in "xy":
        assert tracer.spans[seen[tag]].name == f"outer-{tag}"
        assert tracer.spans[names.index(f"outer-{tag}")].parent is None


def test_wrappers_record_layers_and_are_removed_after_the_run():
    owners = (blockmodel, graph, experiments, selection, clustering, spectral.RegularizedLaplacian)
    before = {(o, k): v for o in owners for k, v in vars(o).items() if callable(v)}
    model = sp.BlockModel.from_sizes([300, 300], [[0.06, 0.01], [0.01, 0.04]])
    truth = sp.Partition(model.membership, 2)
    tracer = Tracer()
    captured = {}
    with layers.install(tracer, captured) as wrappers:
        assert selection.dkest_statistic is not before[(selection, "dkest_statistic")]
        g = blockmodel.sample(model, 3)
        scan = selection.tau_scan(g, 2, [5.0, 50.0], truth=truth, seed=3, workers=1)
    assert wrappers.restored()
    after = {(o, k): v for o in owners for k, v in vars(o).items() if callable(v)}
    assert after == before

    metrics = layers.layer_metrics(tracer.spans, workers=1, dkest_inf=0, csv_bytes=0, overhead_frac=0.0)
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["blockmodel.edges"] == g.num_edges
    assert metrics["clustering.kmeans_calls"] == 2
    assert metrics["spectral.norm_calls"] == 2
    assert metrics["spectral.norm_matvecs"] > 0
    assert 0.0 < metrics["selection.worker_busy_frac"] <= 1.0
    assert sorted(captured) == [(3, 5.0), (3, 50.0)]
    part = clustering.regularized_spectral_clustering(g, 2, 50.0, seed=3)
    assert np.array_equal(captured[(3, 50.0)], part.labels)
    assert scan.chosen["dkest"] in (5.0, 50.0)


def test_independent_error_and_nmi_match_the_package():
    rng = np.random.default_rng(0)
    truth = np.repeat([0, 1, 2], 40)
    labels = np.where(rng.random(120) < 0.3, rng.integers(0, 3, 120), (truth + 1) % 3)
    est, ref = sp.Partition(labels, 3), sp.Partition(truth, 3)
    want = sp.clustering_error(est, ref).misclassified_fraction
    assert workloads.misclassified_fraction(labels, truth, 3) == pytest.approx(want, abs=1e-12)
    assert workloads.nmi_arithmetic(labels, truth, 3) == pytest.approx(sp.nmi(est, ref), abs=1e-12)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_THREADS)
    assert list(run.WORKLOAD_THREADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == child.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
