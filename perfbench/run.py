"""specluster benchmark: time to a tau choice, end to end and per layer.

    python3 perfbench/run.py --workload experiment-3k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in its own child process (perfbench/child.py) with BLAS
pinned to one thread, against the specluster sources of this checkout's
src/.  --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Exit status is 0
when a result was printed, 1 when a workload could not be measured and 2
when the checkout holds no specluster sources.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 170

# SPECLUSTER_THREADS for each workload's timed scan
WORKLOAD_THREADS = {"experiment-3k": 2, "dkest-15k": 1, "dcsbm-9k": 1}
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_workload(name, seed, seconds, trace):
    """Run one workload in a child process; its parsed JSON, or None."""
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable,
        str(CHILD),
        f"--workload={name}",
        f"--seed={seed}",
        f"--seconds={seconds}",
        f"--trace={trace}",
        f"--threads={WORKLOAD_THREADS[name]}",
        f"--workdir={workdir}",
    ]
    env = {**os.environ, **BLAS_ENV}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: child exited with status {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def report(name, out):
    """Human-readable lines for one workload's result."""
    print(f"# {name} env {json.dumps(out['env'], sort_keys=True)}")
    for metric, m in out["metrics"].items():
        print(f"{name:14s} {metric:34s} {m['value']:.6g} {m['unit']}")
    frac = out["failed"] / out["attempted"]
    print(f"{name:14s} {'failed_frac':34s} {frac:.6g} frac ({out['failed']} of {out['attempted']} operations)")
    for note in out["notes"]:
        print(f"# {name} {note}")
    for failure in out["check_failures"]:
        print(f"# {name} CHECK FAILED {failure}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_THREADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "specluster" / "__init__.py").is_file():
        print(f"no specluster sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOAD_THREADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        out = run_workload(name, args.seed, args.seconds, args.trace)
        if out is None:
            return 1
        report(name, out)
        results[name] = out

    prefix = len(names) > 1
    summary = {
        "correct": all(out["correct"] for out in results.values()),
        "attempted": sum(out["attempted"] for out in results.values()),
        "failed": sum(out["failed"] for out in results.values()),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): m
            for name, out in results.items()
            for metric, m in out["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
