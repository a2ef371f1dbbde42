"""Command-line entry point.

Subcommands:
  generate    sample a graph from a model config into an edge-list file
  rsc         cluster a graph at one tau, write a partition file
  scan        evaluate the tau selectors over a grid, write a scan CSV
  experiment  run a replicated simulation from a config file
  theory      print closed-form bound quantities for a model at one tau

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

import argparse
import sys

import numpy as np

from .__about__ import __version__
from .blockmodel import load_model_config, sample
from .bounds import theory_report
from .clustering import Partition, load_partition, regularized_spectral_clustering, save_partition
from .errors import SpeclusterError
from .experiments import parse_experiment_config, parse_tau_grid_spec, run_experiment
from .graph import load_edge_list, save_edge_list
from .selection import FORK_MIN_NODES, MODEL_KINDS, NORM_KINDS, default_tau_grid, tau_scan


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(prog="specluster", description=__doc__.strip().splitlines()[0])
    parser.add_argument("--version", action="version", version=f"specluster {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="sample a graph from a model config")
    p.add_argument("config", help="model config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="edge-list output path")
    p.add_argument("--labels-out", help="also write the true membership as a partition file")

    p = sub.add_parser("rsc", help="cluster a graph at one tau")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="partition output path")

    p = sub.add_parser(
        "scan",
        help="scan the tau selectors over a grid",
        description="Scan the tau selectors over a grid.  On a graph of at least "
        f"{FORK_MIN_NODES} nodes the grid's clustering runs in up to one process per CPU "
        "(two at most); the CSV is byte-identical to a one-process run, and peak memory is "
        "per process, since each process clusters half the grid on the shared graph.",
    )
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tau-grid", help="min:max:points (geometric); default grid otherwise")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", choices=MODEL_KINDS, default="sbm")
    p.add_argument("--norm", choices=NORM_KINDS, default="spectral")
    p.add_argument("--truth", help="reference partition file (enables oracle and NMI columns, sets n)")
    p.add_argument("--out", required=True, help="scan CSV output path")

    p = sub.add_parser(
        "experiment",
        help="run a replicated simulation",
        description="Run a replicated simulation.  Replicates run in up to one process per CPU; "
        "the CSV is byte-identical to a one-process run, and peak memory grows with the "
        "process count, since each process holds one replicate's graph and scan.",
    )
    p.add_argument("config", help="experiment config file")
    p.add_argument("--out", help="override output path")

    p = sub.add_parser("theory", help="closed-form bound quantities")
    p.add_argument("config", help="model config file")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--out", help="write the report here instead of stdout")
    return parser


def _cmd_generate(args):
    model = load_model_config(args.config)
    g = sample(model, args.seed)
    save_edge_list(g, args.out)
    if args.labels_out:
        membership = model.base.membership if hasattr(model, "base") else model.membership
        k = int(membership.max()) + 1
        save_partition(Partition(membership, k), args.labels_out)
    print(f"wrote {g.num_edges} edges on {g.n} nodes to {args.out}")
    return 0


def _cmd_rsc(args):
    g = load_edge_list(args.graph)
    part = regularized_spectral_clustering(g, args.k, args.tau, seed=args.seed)
    save_partition(part, args.out)
    print(f"wrote partition of {g.n} nodes into {args.k} clusters to {args.out}")
    return 0


def _cmd_scan(args):
    truth = load_partition(args.truth) if args.truth else None
    g = load_edge_list(args.graph, n_hint=None if truth is None else truth.n)
    grid = parse_tau_grid_spec(args.tau_grid) if args.tau_grid else default_tau_grid(g)
    criteria = ("dkest", "gn", "oracle") if truth is not None else ("dkest", "gn")
    scan = tau_scan(
        g,
        args.k,
        grid,
        criteria=criteria,
        truth=truth,
        model_kind=args.model,
        norm_kind=args.norm,
        seed=args.seed,
    )
    scan.to_csv(args.out)
    chosen = " ".join(f"{name}={tau:g}" for name, tau in sorted(scan.chosen.items()))
    print(f"wrote {len(scan.records)} grid points to {args.out}; chosen {chosen}")
    return 0


def _cmd_experiment(args):
    cfg = parse_experiment_config(args.config)
    result = run_experiment(cfg, out_path=args.out)
    means = {crit: result.mean_nmi(crit) for crit in ("dkest", "gn", "oracle")}
    printable = " ".join(f"{crit}={val:.4f}" for crit, val in means.items() if not np.isnan(val))
    print(f"wrote {args.out or cfg.output_path}; mean NMI {printable}")
    return 0


def _cmd_theory(args):
    model = load_model_config(args.config)
    if hasattr(model, "base"):
        raise SpeclusterError("theory subcommand supports plain block models only")
    report = theory_report(model, args.tau)
    text = report.to_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "rsc": _cmd_rsc,
    "scan": _cmd_scan,
    "experiment": _cmd_experiment,
    "theory": _cmd_theory,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _HANDLERS[args.command](args)
    except (SpeclusterError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
