"""Simulation driver: parameterized block models and replicated tau scans.

Experiments draw equal-size K-block models whose block matrix is
fac * M, with M carrying beta * w_k on the diagonal (inside weights w,
out-in ratio beta) and 1 off the diagonal.  The scalar fac is solved in
closed form so the population mean degree equals the target lambda.
"""

from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .blockmodel import BlockModel, _equal_sizes, _parse_kv_file, sample
from .clustering import Partition
from .errors import ConfigError, InfeasibleConfigError, SpeclusterError
from .selection import TauRecord, _check_kinds, tau_scan
from .spectral import check_taus
from .util import fmt, fork_map, write_artifact_csv


def parse_tau_grid_spec(spec):
    """Parse 'min:max:points' into a geometric grid."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"tau grid spec {spec!r} is not min:max:points")
    try:
        lo, hi, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"tau grid spec {spec!r}: {exc}") from None
    if not (0 < lo <= hi < np.inf) or points < 1:
        raise ConfigError(f"tau grid spec {spec!r} needs 0 < min <= max < inf and points >= 1")
    if points == 1:
        return np.array([lo])
    return np.geomspace(lo, hi, points)


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    k: int
    inside_weights: tuple
    out_in_ratio: float
    target_degree: float
    tau_grid: np.ndarray
    replicates: int = 1
    seed: int = 0
    model_kind: str = "sbm"
    norm_kind: str = "spectral"
    output_path: str = "experiment.csv"

    def __post_init__(self):
        object.__setattr__(self, "tau_grid", check_taus(self.tau_grid))
        object.__setattr__(self, "inside_weights", tuple(float(w) for w in self.inside_weights))
        if self.k < 1:
            raise ConfigError(f"k={self.k}: need at least one block")
        if self.n < self.k:
            raise ConfigError(f"n={self.n} is below k={self.k}: every block needs a node")
        if len(self.inside_weights) != self.k:
            raise ConfigError("need one inside weight per block")
        if any(w <= 0 for w in self.inside_weights):
            raise ConfigError("inside weights must be positive")
        if self.out_in_ratio < 0:
            raise ConfigError("out-in ratio must be non-negative")
        if self.target_degree <= 0:
            raise ConfigError("target mean degree must be positive")
        if self.replicates < 1:
            raise ConfigError("need at least one replicate")
        _check_kinds(self.model_kind, self.norm_kind)

    def digest_items(self):
        return {
            "n": self.n,
            "k": self.k,
            "w": ",".join(fmt(w) for w in self.inside_weights),
            "beta": self.out_in_ratio,
            "lambda": self.target_degree,
            "tau_grid": ",".join(fmt(t) for t in np.sort(self.tau_grid)),  # tau_scan sorts it too
            "replicates": self.replicates,
            "seed": self.seed,
            "model": self.model_kind,
            "norm": self.norm_kind,
        }


def parse_experiment_config(path):
    path = Path(path)
    items = _parse_kv_file(path)
    try:
        n = int(items["n"])
        k = int(items["k"])
        weights = tuple(float(v) for v in items["w"].replace(",", " ").split())
        beta = float(items["beta"])
        lam = float(items["lambda"])
        grid = parse_tau_grid_spec(items["tau_grid"])
        replicates = int(items.get("replicates", "1"))
        seed = int(items.get("seed", "0"))
        return ExperimentConfig(
            n=n,
            k=k,
            inside_weights=weights,
            out_in_ratio=beta,
            target_degree=lam,
            tau_grid=grid,
            replicates=replicates,
            seed=seed,
            model_kind=items.get("model", "sbm"),
            norm_kind=items.get("norm", "spectral"),
            output_path=items.get("out", "experiment.csv"),
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from None
    except (SpeclusterError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def build_experiment_model(cfg):
    """Block model with the configured shape and exact target mean degree.

    Mean expected degree is linear in fac:
      (fac / n) * (sum_k n_k^2 beta w_k + sum_{k != l} n_k n_l) = lambda,
    so fac has a closed form.  An entry above 1 is a configuration error.
    """
    sizes = _equal_sizes(cfg.n, cfg.k)
    w = np.asarray(cfg.inside_weights)
    shape = np.full((cfg.k, cfg.k), 1.0)
    shape[np.diag_indices(cfg.k)] = cfg.out_in_ratio * w
    sq = np.outer(sizes, sizes)
    denom = float((sq * shape).sum())
    if denom <= 0:
        raise InfeasibleConfigError("degenerate configuration: zero expected degree")
    fac = cfg.target_degree * cfg.n / denom
    b = fac * shape
    if b.max() > 1:
        raise InfeasibleConfigError(
            f"target degree {cfg.target_degree} needs block probability "
            f"{b.max():.4g} > 1"
        )
    return BlockModel.from_sizes(sizes, b)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list = field(default_factory=list)  # (replicate, TauRecord)
    chosen: list = field(default_factory=list)  # (replicate, criterion, tau, nmi)
    failures: list = field(default_factory=list)

    def mean_nmi(self, criterion):
        vals = [nmi for _, crit, _, nmi in self.chosen if crit == criterion]
        return float(np.mean(vals)) if vals else float("nan")


def _replicate(cfg, model, truth, rep):
    """Sample and scan one replicate: (rows, chosen, failures) as run_experiment
    records them.  A SpeclusterError becomes a failure here, so a worker
    process returns only plain values.  The scan runs in this process, so
    processes never nest."""
    rep_seed = cfg.seed + rep
    try:
        g = sample(model, rep_seed)
        scan = tau_scan(
            g,
            cfg.k,
            cfg.tau_grid,
            criteria=("dkest", "gn", "oracle"),
            truth=truth,
            model_kind=cfg.model_kind,
            norm_kind=cfg.norm_kind,
            seed=rep_seed,
            workers=1,
        )
    except SpeclusterError as exc:
        return [], [], [(rep, str(exc))]
    rows = [(rep, rec) for rec in scan.records]
    chosen = [(rep, crit, tau, scan.record_at(tau).nmi) for crit, tau in sorted(scan.chosen.items())]
    return rows, chosen, []


def run_experiment(cfg, out_path=None, workers=None):
    """Sample, scan, and select per replicate; write one deterministic CSV.

    Replicate seeds are seed + replicate index.  Per-replicate failures are
    recorded and skipped.  Output rows carry no wall-clock values, so
    identical inputs produce byte-identical artifacts.

    Replicates share no work, so they run in forked worker processes
    (util.fork_map): workers of them at once, or with workers=None one per
    CPU this process may use, never more than the replicate count.
    Outcomes are collected in replicate order, so the result and the CSV
    are byte-identical to a workers=1 run.  Peak memory grows with the
    worker count, since each worker holds one replicate's graph and scan;
    each replicate's tau_scan runs with one process.  One worker, one
    replicate, or a platform without the fork start method runs in this
    process; a caller that runs threads of its own passes workers=1, since
    forking a threaded process can deadlock.  Every worker is joined
    before return, also on an exception.
    """
    model = build_experiment_model(cfg)
    truth = Partition(model.membership, cfg.k)
    outcomes = fork_map(partial(_replicate, cfg, model, truth), range(cfg.replicates), workers)
    result = ExperimentResult(config=cfg)
    for rows, chosen, failures in outcomes:
        result.rows += rows
        result.chosen += chosen
        result.failures += failures

    comments = [
        f"chosen replicate={rep} criterion={crit} tau={fmt(tau)} nmi={fmt(score)}"
        for rep, crit, tau, score in result.chosen
    ]
    comments += [
        f"summary criterion={crit} mean_nmi={fmt(result.mean_nmi(crit))}"
        for crit in ("dkest", "gn", "oracle")
    ]
    comments += [f"failed replicate={rep} error={msg}" for rep, msg in result.failures]
    columns = [f.name for f in fields(TauRecord) if f.name != "seconds"]  # rows carry no wall-clock values
    write_artifact_csv(
        Path(out_path or cfg.output_path),
        cfg.digest_items(),
        cfg.seed,
        ["replicate", *columns],
        [(rep, *(getattr(r, name) for name in columns)) for rep, r in result.rows],
        comments,
    )
    return result
