"""Small shared helpers: seeding, provenance-stamped CSV artifacts and a
map over forked processes."""

import hashlib
import multiprocessing
import numbers
import os

import numpy as np

from .__about__ import __version__
from .errors import ConfigError, SpeclusterError


def seed_sequence(seed):
    """Coerce an int or SeedSequence into a SeedSequence.

    A SeedSequence comes back as an equivalent copy, so spawning from the
    result never changes the caller's object.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            seed.entropy,
            spawn_key=seed.spawn_key,
            pool_size=seed.pool_size,
            n_children_spawned=seed.n_children_spawned,
        )
    return np.random.SeedSequence(seed)


def rng_from(seed):
    return np.random.default_rng(seed_sequence(seed))


def config_digest(items):
    """Short stable hash of key/value pairs, for artifact provenance lines."""
    canon = "\n".join(f"{k}={items[k]}" for k in sorted(items))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def fmt(value):
    """Deterministic CSV formatting for floats and ints."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if np.isnan(v):
        return "nan"
    if np.isinf(v):
        return "inf" if v > 0 else "-inf"
    return repr(v)


def write_artifact_csv(path, config, seed, columns, rows, comments):
    """CSV artifact: version, config hash and seed provenance lines, the
    column header, one fmt-formatted line per row, then one '# ' line per
    trailing comment."""
    with open(path, "w") as fh:
        fh.write(f"# specluster v{__version__}\n")
        fh.write(f"# config_hash={config_digest(config)}\n")
        fh.write(f"# seed={seed}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")
        for line in comments:
            fh.write(f"# {line}\n")


def process_count(workers, tasks):
    """Processes fork_map runs for tasks items; 1 means run in this process.

    workers is None, for one process per CPU this process may use, or an
    integer of at least 1; never more than tasks run.  A platform without
    the fork start method runs in this process.
    """
    if workers is not None and (
        isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1
    ):
        raise ConfigError(f"workers must be None or an integer of at least 1, got {workers!r}")
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if workers is None:
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(int(workers), tasks)


def _run_share(fn, share, writer):
    # a forked child's whole life: answer (True, results) or (False, exception)
    try:
        answer = (True, [fn(item) for item in share])
    except Exception as exc:
        answer = (False, exc)
    writer.send(answer)


def fork_map(fn, items, workers=None):
    """[fn(item) for item in items], over process_count(workers, len(items))
    forked child processes.

    Child j runs items j, j + p, j + 2p, ... of the p children and sends
    its results back over a one-way pipe; the caller only waits, and the
    results come back in item order.  With one process the map runs here.
    An exception in a child is raised here with its type and message; a
    child that exits without answering raises SpeclusterError with its
    exit code.  Every child is joined before return, and killed first if
    the map fails.  No thread is started, so forking copies no lock that
    another thread of this call holds; a caller that runs threads of its
    own passes workers=1.  fn and the items reach the children through
    the fork; only results and exceptions are pickled.
    """
    items = list(items)
    processes = process_count(workers, len(items))
    if processes <= 1:
        return [fn(item) for item in items]
    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for j in range(processes):
            reader, writer = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_run_share, args=(fn, items[j::processes], writer))
            with writer:  # the child holds the only writer left, so its exit ends the pipe
                child.start()
            children.append((child, reader))
        results = [None] * len(items)
        for j, (child, reader) in enumerate(children):
            try:
                ok, value = reader.recv()
            except EOFError:
                child.join()
                raise SpeclusterError(f"a worker process exited with code {child.exitcode} before it answered") from None
            if not ok:
                raise value
            results[j::processes] = value
        return results
    except BaseException:
        for child, _ in children:
            child.kill()
        raise
    finally:
        for child, reader in children:
            child.join()
            child.close()
            reader.close()
