"""Per-layer metrics: the wrappers installed for the traced run, and the
metrics computed from the spans they record.

Spans are named after the layer (specluster module) that does the work:
blockmodel, graph, spectral, clustering, selection, metrics, experiments.
Matvecs are counted on RegularizedLaplacian.apply and credited to the
innermost open span, so Lanczos work lands on eig or norm spans.  The
fitted operators' own applies (inside the norm, and the clamped
degree-corrected mu_K eigensolve) are not counted.
"""

import numpy as np

from specluster import blockmodel, clustering, experiments, graph, selection, spectral
from spans import Installed, children_of, counted, self_times, traced, worker_busy_frac

# name -> unit; the traced run reports every one of these
PER_LAYER = {
    "blockmodel.sample_s": "s",
    "blockmodel.edges": "count",
    "graph.build_s": "s",
    "graph.save_s": "s",
    "graph.load_s": "s",
    "graph.load_edges_per_s": "1/s",
    "spectral.eig_s": "s",
    "spectral.eig_calls": "count",
    "spectral.eig_matvecs": "count",
    "spectral.eig_max_residual": "abs",
    "spectral.norm_s": "s",
    "spectral.norm_calls": "count",
    "spectral.norm_matvecs": "count",
    "spectral.norm_rss_mb": "MB",
    "clustering.kmeans_s": "s",
    "clustering.kmeans_calls": "count",
    "clustering.kmeans_objective_sum": "sq-dist",
    "selection.dkest_s": "s",
    "selection.dkest_self_s": "s",
    "selection.dkest_calls": "count",
    "selection.dkest_inf": "count",
    "selection.scan_self_s": "s",
    "selection.worker_busy_frac": "frac",
    "metrics.modularity_s": "s",
    "metrics.error_s": "s",
    "metrics.nmi_s": "s",
    "experiments.self_s": "s",
    "experiments.csv_bytes": "bytes",
    "trace.overhead_frac": "frac",
}

_NO_FILE = "only dcsbm-9k writes and reloads an edge-list file"
_NO_NORM = "the frobenius numerator does not call spectral_norm_diff"
_NO_EXPERIMENT = "only experiment-3k runs run_experiment"
ZERO_REASONS = {
    "graph.save_s": _NO_FILE,
    "graph.load_s": _NO_FILE,
    "graph.load_edges_per_s": _NO_FILE,
    "spectral.norm_s": _NO_NORM,
    "spectral.norm_calls": _NO_NORM,
    "spectral.norm_matvecs": _NO_NORM,
    "spectral.norm_rss_mb": _NO_NORM,
    "selection.dkest_inf": "no grid point lost its fitted spectral gap",
    "experiments.self_s": _NO_EXPERIMENT,
    "experiments.csv_bytes": _NO_EXPERIMENT,
}


def install(tracer, partitions):
    """Wrappers on the attributes through which one layer calls the next.

    partitions receives the labels of every clustering the scan makes,
    keyed by (seed, tau).
    """

    def edges(sp, out, args, kwargs):
        sp.attrs["edges"] = out.num_edges

    def eig(sp, out, args, kwargs):
        sp.attrs["max_residual"] = float(np.max(out.residuals))

    def kmeans(sp, out, args, kwargs):
        sp.attrs["objective"] = out[1]

    def at_tau(sp, out, args, kwargs):
        sp.attrs["tau"] = float(args[2])
        sp.attrs["seed"] = kwargs["seed"]
        if sp.name == "clustering.rsc":
            partitions[(kwargs["seed"], float(args[2]))] = out.labels

    def wrap(owner, attr, name, observe=None, memory=False):
        return owner, attr, traced(tracer, owner.__dict__[attr], name, observe, memory)

    lap = spectral.RegularizedLaplacian
    return Installed(
        [
            wrap(blockmodel, "sample", "blockmodel.sample", edges),
            wrap(experiments, "sample", "blockmodel.sample", edges),
            wrap(blockmodel, "build_graph", "graph.build"),
            wrap(graph, "build_graph", "graph.build"),
            wrap(graph, "save_edge_list", "graph.save"),
            wrap(graph, "load_edge_list", "graph.load", edges),
            wrap(experiments, "run_experiment", "experiments.run_experiment"),
            wrap(experiments, "tau_scan", "selection.tau_scan"),
            wrap(selection, "tau_scan", "selection.tau_scan"),
            wrap(selection, "regularized_spectral_clustering", "clustering.rsc", at_tau),
            wrap(selection, "dkest_statistic", "selection.dkest", at_tau),
            wrap(selection, "spectral_norm_diff", "spectral.norm", memory=True),
            wrap(selection, "top_eigenpairs", "spectral.eig", eig),
            wrap(clustering, "top_eigenpairs", "spectral.eig", eig),
            wrap(clustering, "kmeans", "clustering.kmeans", kmeans),
            wrap(selection, "modularity", "metrics.modularity"),
            wrap(selection, "nmi", "metrics.nmi"),
            wrap(selection, "clustering_error", "metrics.error"),
            (lap, "apply", counted(tracer, lap.__dict__["apply"], "matvecs")),
        ]
    )


def layer_metrics(spans, workers, dkest_inf, csv_bytes, overhead_frac):
    """Every PER_LAYER metric from the spans of one traced set-up and scan."""
    selfs = self_times(spans)
    by_name = {}
    for idx, sp in enumerate(spans):
        by_name.setdefault(sp.name, []).append(idx)

    def secs(name):
        return sum(spans[i].duration for i in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def attr(name, key, agg=sum):
        return agg([spans[i].attrs.get(key, 0) for i in by_name.get(name, ())] or [0])

    def self_s(name):
        return sum(selfs[i] for i in by_name.get(name, ()))

    load_s = secs("graph.load")
    return {
        "blockmodel.sample_s": secs("blockmodel.sample"),
        "blockmodel.edges": attr("blockmodel.sample", "edges"),
        "graph.build_s": secs("graph.build"),
        "graph.save_s": secs("graph.save"),
        "graph.load_s": load_s,
        "graph.load_edges_per_s": attr("graph.load", "edges") / load_s if load_s else 0.0,
        "spectral.eig_s": secs("spectral.eig"),
        "spectral.eig_calls": calls("spectral.eig"),
        "spectral.eig_matvecs": attr("spectral.eig", "matvecs"),
        "spectral.eig_max_residual": attr("spectral.eig", "max_residual", max),
        "spectral.norm_s": secs("spectral.norm"),
        "spectral.norm_calls": calls("spectral.norm"),
        "spectral.norm_matvecs": attr("spectral.norm", "matvecs"),
        "spectral.norm_rss_mb": attr("spectral.norm", "hwm_growth_mb"),
        "clustering.kmeans_s": secs("clustering.kmeans"),
        "clustering.kmeans_calls": calls("clustering.kmeans"),
        "clustering.kmeans_objective_sum": attr("clustering.kmeans", "objective"),
        "selection.dkest_s": secs("selection.dkest"),
        "selection.dkest_self_s": self_s("selection.dkest"),
        "selection.dkest_calls": calls("selection.dkest"),
        "selection.dkest_inf": dkest_inf,
        "selection.scan_self_s": self_s("selection.tau_scan"),
        "selection.worker_busy_frac": worker_busy_frac(spans, "selection.tau_scan", workers),
        "metrics.modularity_s": secs("metrics.modularity"),
        "metrics.error_s": secs("metrics.error"),
        "metrics.nmi_s": secs("metrics.nmi"),
        "experiments.self_s": self_s("experiments.run_experiment"),
        "experiments.csv_bytes": csv_bytes,
        "trace.overhead_frac": overhead_frac,
    }


def slowest_point(spans):
    """One line on the grid point whose clustering plus DKest took longest,
    split into the child spans that account for it."""
    selfs = self_times(spans)
    kids = children_of(spans)
    points = {}
    for idx, sp in enumerate(spans):
        if sp.name in ("clustering.rsc", "selection.dkest"):
            points.setdefault((sp.attrs["seed"], sp.attrs["tau"]), []).append(idx)
    if not points:
        return "no grid point was traced"
    (seed, tau), idxs = max(points.items(), key=lambda kv: sum(spans[i].duration for i in kv[1]))
    parts = []
    for i in idxs:
        split = {}
        for c in kids[i]:
            split[spans[c].name] = split.get(spans[c].name, 0.0) + spans[c].duration
        inner = [f"{name} {s:.3f}" for name, s in sorted(split.items())] + [f"self {selfs[i]:.3f}"]
        parts.append(f"{spans[i].name} {spans[i].duration:.3f} s [{', '.join(inner)}]")
    total = sum(spans[i].duration for i in idxs)
    return f"slowest grid point: tau={tau:.6g} (graph seed {seed}) {total:.3f} s = " + " + ".join(parts)
