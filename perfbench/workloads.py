"""Benchmark workloads: inputs made from the seed, set-up, one scan pass,
and the checks on a pass's outputs.

Every call into specluster goes through a module attribute
(``blockmodel.sample``, ``selection.tau_scan``, ...), so the traced run
wraps exactly the functions the timed run calls.
"""

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from specluster import blockmodel, clustering, experiments, graph, selection


@dataclass
class Inputs:
    graphs: list  # (scan seed, Graph) per scanned graph
    truth: clustering.Partition
    sampled_edges: list | None = None  # per graph, edges before the file round trip


@dataclass
class GraphResult:
    seed: int
    grid: np.ndarray
    records: list  # TauRecord per grid point, ascending tau
    chosen: dict  # criterion -> tau

    def chosen_record(self):
        return next(r for r in self.records if r.tau == self.chosen["dkest"])


@dataclass
class PassResult:
    graphs: list
    failures: list  # (replicate, message) recorded by run_experiment
    csv: bytes = b""


class Experiment3k:
    """run_experiment on the paper's sparse two-block model: n=3000,
    w=(4, 1.2), beta=1, lambda=13.5, i.e. B=[[0.01, 0.0025], [0.0025, 0.003]]."""

    k = 2
    replicates = 3
    norm_kind = "spectral"

    def __init__(self, seed, workdir):
        self.cfg = experiments.ExperimentConfig(
            n=3000,
            k=self.k,
            inside_weights=(4.0, 1.2),
            out_in_ratio=1.0,
            target_degree=13.5,
            tau_grid=np.geomspace(1, 3000, 20),
            replicates=self.replicates,
            # replicate seeds are cfg.seed + replicate; keep runs disjoint
            seed=seed * self.replicates,
            norm_kind=self.norm_kind,
        )
        self.csv_path = workdir / "experiment.csv"

    def setup(self):
        model = experiments.build_experiment_model(self.cfg)
        seeds = [self.cfg.seed + rep for rep in range(self.replicates)]
        graphs = [(s, blockmodel.sample(model, s)) for s in seeds]
        return Inputs(graphs=graphs, truth=clustering.Partition(model.membership, self.k))

    def scan(self, inputs, workers):
        res = experiments.run_experiment(self.cfg, out_path=self.csv_path, workers=workers)
        records = {}
        for rep, rec in res.rows:
            records.setdefault(rep, []).append(rec)
        chosen = {}
        for rep, crit, tau, _ in res.chosen:
            chosen.setdefault(rep, {})[crit] = tau
        graphs = [
            GraphResult(self.cfg.seed + rep, self.cfg.tau_grid, records[rep], chosen[rep])
            for rep in sorted(records)
        ]
        return PassResult(graphs=graphs, failures=list(res.failures), csv=self.csv_path.read_bytes())


class _SingleScan:
    """A serial tau_scan of each graph in turn."""

    criteria = ("dkest", "gn")
    model_kind = "sbm"
    norm_kind = "spectral"

    def __init__(self, seed, workdir):
        # graph seeds of different benchmark seeds never overlap
        self.seeds = [seed * self.graphs + j for j in range(self.graphs)]
        self.workdir = workdir

    def scan(self, inputs, workers):
        out = []
        for seed, g in inputs.graphs:
            res = selection.tau_scan(
                g,
                self.k,
                self.grid,
                criteria=self.criteria,
                truth=inputs.truth,
                model_kind=self.model_kind,
                norm_kind=self.norm_kind,
                seed=seed,
                workers=workers,
            )
            out.append(GraphResult(seed, res.grid, res.records, res.chosen))
        return PassResult(graphs=out, failures=[])


class Dkest15k(_SingleScan):
    """The experiment-3k model scaled to n=15000 at the same mean degree
    (B x 0.2); spectral DKest, whose Lanczos basis is n x min(n, 20000)."""

    k = 2
    n = 15000
    graphs = 1
    grid = np.geomspace(1, n, 8)

    def setup(self):
        b = 0.2 * np.array([[0.01, 0.0025], [0.0025, 0.003]])
        model = blockmodel.BlockModel.from_sizes([self.n // 2, self.n - self.n // 2], b)
        graphs = [(s, blockmodel.sample(model, s)) for s in self.seeds]
        return Inputs(graphs=graphs, truth=clustering.Partition(model.membership, self.k))


class Dcsbm9k(_SingleScan):
    """Degree-corrected 3-block model, n=9000, in/out ratio 6, mean degree
    15; each graph goes through an edge-list file and is scanned the way
    ``specluster scan --model dsbm --norm frobenius`` does."""

    k = 3
    n = 9000
    graphs = 3
    criteria = ("dkest", "gn", "oracle")
    model_kind = "dsbm"
    norm_kind = "frobenius"
    grid = experiments.parse_tau_grid_spec(f"1:{n}:8")

    def _model(self):
        n, k = self.n, self.k
        # mean theta is 1 per block, so c (6 n/3 + 2 n/3) is the mean degree
        c = 15.0 / (n * 8.0 / 3.0)
        b = np.full((k, k), c)
        np.fill_diagonal(b, 6.0 * c)
        base = blockmodel.BlockModel.from_sizes([n // k] * k, b)
        # theta is a fixed design, the Pareto(2.5) quantiles (x_m = 1) in every
        # block, so the seed varies only the sampled edges; the quantiles'
        # tail is capped so every pair probability stays <= 1
        m = n // k
        quantiles = (1.0 - (np.arange(m) + 0.5) / m) ** (-1.0 / 2.5)
        theta = np.tile(quantiles / quantiles.mean(), k)
        np.minimum(theta, np.sqrt(1.0 / b.max()), out=theta)
        return blockmodel.DegreeCorrectedModel(base=base, theta=theta)

    def setup(self):
        model = self._model()
        graphs, sampled = [], []
        for seed in self.seeds:
            g = blockmodel.sample(model, seed)
            path = self.workdir / f"dcsbm-{seed}.edges"
            graph.save_edge_list(g, path)
            graphs.append((seed, graph.load_edge_list(path, n_hint=self.n)))
            sampled.append(g.edges)
        truth = clustering.Partition(model.base.membership, self.k)
        return Inputs(graphs=graphs, truth=truth, sampled_edges=sampled)


WORKLOADS = {
    "experiment-3k": Experiment3k,
    "dkest-15k": Dkest15k,
    "dcsbm-9k": Dcsbm9k,
}


# ---------------------------------------------------------------------------
# Output checks.  Error and NMI are recomputed here from the contingency
# table, independently of specluster.metrics.


def _contingency(labels, truth, k):
    return np.bincount(truth * k + labels, minlength=k * k).reshape(k, k)


def misclassified_fraction(labels, truth, k):
    """Share of nodes off the best label permutation (brute force over K!)."""
    conf = _contingency(labels, truth, k)
    best = max(sum(conf[i, p[i]] for i in range(k)) for p in itertools.permutations(range(k)))
    return 1.0 - best / labels.size


def nmi_arithmetic(labels, truth, k):
    """Mutual information over the mean of the two entropies (natural log)."""
    p = _contingency(labels, truth, k) / labels.size
    pt, pe = p.sum(axis=1), p.sum(axis=0)
    nz = p > 0
    mi = float((p[nz] * np.log(p[nz] / np.outer(pt, pe)[nz])).sum())
    h = -sum(float((q[q > 0] * np.log(q[q > 0])).sum()) for q in (pt, pe))
    return 1.0 if h <= 0 else mi / (h / 2)


def recompute_partitions(wl, inputs, result):
    """Labels at each graph's DKest-chosen tau, from a fresh clustering."""
    graphs = dict(inputs.graphs)
    out = {}
    for gr in result.graphs:
        tau = gr.chosen["dkest"]
        part = clustering.regularized_spectral_clustering(graphs[gr.seed], wl.k, tau, seed=gr.seed)
        out[(gr.seed, tau)] = part.labels
    return out


def check_repeat(reference, inputs):
    """A second set-up from the same seed must give the same graphs."""
    same = len(reference.graphs) == len(inputs.graphs) and all(
        s0 == s1 and np.array_equal(g0.edges, g1.edges)
        for (s0, g0), (s1, g1) in zip(reference.graphs, inputs.graphs)
    )
    return [("set-up repeats the same graphs for the seed", same, "")]


def check_reload(inputs):
    """The edge-list round trip must give back the sampled edges."""
    if inputs.sampled_edges is None:
        return []
    return [
        (
            f"graph {seed}: reloaded edges equal the sampled edges",
            np.array_equal(sampled, g.edges),
            f"{len(sampled)} sampled, {len(g.edges)} reloaded",
        )
        for (seed, g), sampled in zip(inputs.graphs, inputs.sampled_edges)
    ]


def check_pass(wl, inputs, result, partitions):
    """(name, ok, detail) checks on one scan pass, given the labels at each
    graph's chosen tau."""
    checks = [("no failed replicates", not result.failures, repr(result.failures))]
    truth = inputs.truth.labels
    for gr in result.graphs:
        taus = np.array([r.tau for r in gr.records])
        stats = np.array([r.dkest for r in gr.records])
        tau = gr.chosen["dkest"]
        argmin_ok = np.array_equal(taus, np.sort(gr.grid)) and tau == taus[np.nanargmin(stats)]
        checks.append((f"graph {gr.seed}: DKest choice is the argmin over the grid", argmin_ok, f"tau={tau}"))
        rec = gr.chosen_record()
        labels = partitions[(gr.seed, tau)]
        err = misclassified_fraction(labels, truth, wl.k)
        score = nmi_arithmetic(labels, truth, wl.k)
        ok = abs(err - rec.misclassified_fraction) <= 1e-12 and abs(score - rec.nmi) <= 1e-9
        checks.append(
            (
                f"graph {gr.seed}: error and NMI at the chosen tau recompute",
                ok,
                f"err {err} vs {rec.misclassified_fraction}, nmi {score} vs {rec.nmi}",
            )
        )
    if result.csv:
        lines = result.csv.decode().splitlines()
        rows = [ln for ln in lines if ln and not ln.startswith("#")][1:]
        want = wl.replicates * wl.cfg.tau_grid.size
        ok = len(rows) == want and not any(ln.startswith("# failed") for ln in lines)
        checks.append(("experiment CSV has every replicate row", ok, f"{len(rows)} rows, want {want}"))
    return checks


def fingerprint(result, partitions):
    """What two passes over the same inputs must agree on."""
    graphs = []
    for gr in result.graphs:
        labels = partitions[(gr.seed, gr.chosen["dkest"])]
        graphs.append((gr.seed, sorted(gr.chosen.items()), hashlib.sha256(labels.tobytes()).hexdigest()))
    return {"graphs": graphs, "csv_sha256": hashlib.sha256(result.csv).hexdigest()}


def chosen_quality(result):
    """Mean misclassified fraction and NMI at the DKest-chosen tau."""
    recs = [gr.chosen_record() for gr in result.graphs]
    return (
        float(np.mean([r.misclassified_fraction for r in recs])),
        float(np.mean([r.nmi for r in recs])),
    )
