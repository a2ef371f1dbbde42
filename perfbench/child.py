"""Run one benchmark workload in this process and print one JSON line.

Started by run.py with BLAS pinned to one thread; the process's peak RSS
therefore belongs to this workload alone.

Timed run (--trace 0): set up at least three times (until one second of
set-up has passed) and report the median; then repeat the scan pass until
--seconds have passed and report the median wall seconds per scanned
graph.  Traced run (--trace 1): one set-up and one scan pass with the layer
wrappers installed and one worker, then the same scan untraced with the
same worker count for the tracing overhead, and, for a workload that times
several workers, once more untraced with those workers.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import specluster  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "scan_s": "s",
    "peak_rss_mb": "MB",
    "chosen_acc": "frac",
}
MIN_SETUPS = 3
MAX_SETUPS = 25
SETUP_BUDGET_S = 1.0


class Ledger:
    """Operations attempted and failed; failed checks are kept for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def ops(self, attempted, failed=0):
        self.attempted += attempted
        self.failed += failed

    def checks(self, checks):
        for name, ok, detail in checks:
            self.ops(1, 0 if ok else 1)
            if not ok:
                self.failures.append(f"{name}: {detail}")

    def scanned(self, result):
        self.ops(len(result.graphs) + len(result.failures), len(result.failures))


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    with open("/proc/meminfo") as fh:
        mem_kb = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal:"))
    env_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SPECLUSTER_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(mem_kb / 1024),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in env_vars},
    }


def timed_run(wl, seconds, ledger):
    setup_s = []
    inputs = None
    while len(setup_s) < MIN_SETUPS or (sum(setup_s) < SETUP_BUDGET_S and len(setup_s) < MAX_SETUPS):
        start = time.perf_counter()
        got = wl.setup()
        setup_s.append(time.perf_counter() - start)
        ledger.ops(1)
        ledger.checks(workloads.check_reload(got))
        if inputs is None:
            inputs = got
        else:
            ledger.checks(workloads.check_repeat(inputs, got))

    per_graph_s = []
    first = None
    deadline = time.perf_counter() + seconds
    while first is None or time.perf_counter() < deadline:
        start = time.perf_counter()
        result = wl.scan(inputs, workers=None)
        wall = time.perf_counter() - start
        ledger.scanned(result)
        per_graph_s.append(wall / max(1, len(result.graphs) + len(result.failures)))
        partitions = workloads.recompute_partitions(wl, inputs, result)
        ledger.checks(workloads.check_pass(wl, inputs, result, partitions))
        if first is None:
            first = result
            want = workloads.fingerprint(result, partitions)
        else:
            got = workloads.fingerprint(result, partitions)
            ledger.checks([("repeated scan gives identical outputs", got == want, f"{got} vs {want}")])

    err, score = workloads.chosen_quality(first)
    return {
        "setup_s": statistics.median(setup_s),
        "scan_s": statistics.median(per_graph_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "chosen_acc": 1.0 - err,
    }, [
        f"chosen_err {err:.6g} frac, chosen_nmi {score:.6g} frac (at the DKest-chosen tau, mean over graphs)",
        f"{len(setup_s)} set-ups, {len(per_graph_s)} scan passes of {len(first.graphs)} graphs",
    ]


def traced_run(wl, threads, ledger):
    tracer = Tracer()
    captured = {}
    with layers.install(tracer, captured) as wrappers:
        inputs = wl.setup()
        ledger.ops(1)
        start = time.perf_counter()
        traced = wl.scan(inputs, workers=1)
        traced_s = time.perf_counter() - start
    ledger.checks([("wrappers removed after the traced run", wrappers.restored(), "")])
    ledger.checks(workloads.check_reload(inputs))
    ledger.scanned(traced)
    ledger.checks(workloads.check_pass(wl, inputs, traced, captured))

    start = time.perf_counter()
    serial = wl.scan(inputs, workers=1)
    serial_s = time.perf_counter() - start
    passes = [("untraced 1 worker", serial)]
    if threads > 1:
        passes.append((f"untraced {threads} workers", wl.scan(inputs, workers=threads)))
    want = workloads.fingerprint(traced, captured)
    for label, result in passes:
        ledger.scanned(result)
        partitions = workloads.recompute_partitions(wl, inputs, result)
        ledger.checks(workloads.check_pass(wl, inputs, result, partitions))
        got = workloads.fingerprint(result, partitions)
        ledger.checks(
            [(f"{label} matches the traced 1-worker run (chosen tau, partitions, CSV bytes)", got == want, f"{got} vs {want}")]
        )

    dkest_inf = sum(np.isinf(r.dkest) for gr in traced.graphs for r in gr.records)
    metrics = layers.layer_metrics(
        tracer.spans,
        workers=1,
        dkest_inf=int(dkest_inf),
        csv_bytes=len(traced.csv),
        overhead_frac=traced_s / serial_s - 1.0,
    )
    if wl.norm_kind == "frobenius":
        ledger.checks([("frobenius path makes no norm call", metrics["spectral.norm_calls"] == 0, "")])
    notes = [layers.slowest_point(tracer.spans), f"{len(tracer.spans)} spans"]
    notes += [f"{name} is 0: {why}" for name, why in layers.ZERO_REASONS.items() if metrics[name] == 0]
    return metrics, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    src = Path(specluster.__file__).resolve()
    if ROOT / "src" not in src.parents:
        sys.exit(f"specluster was imported from {src}, not from this checkout")
    os.environ["SPECLUSTER_THREADS"] = str(args.threads)
    env = environment()

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    ledger = Ledger()
    if args.trace:
        values, notes = traced_run(wl, args.threads, ledger)
        units = layers.PER_LAYER
    else:
        values, notes = timed_run(wl, args.seconds, ledger)
        units = END_TO_END_UNITS
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
                "env": env,
                "notes": notes,
                "check_failures": ledger.failures,
            }
        )
    )


if __name__ == "__main__":
    main()
