"""Small shared helpers: seeding, the line reader of every input text
file, provenance-stamped CSV artifacts and a map over forked processes."""

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


def data_lines(path):
    """(line number, text) for each line of a text file that holds data:
    text is what comes before the line's first '#', stripped, and lines
    where that is empty are skipped.  Line numbers count from 1."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                yield lineno, text


def fmt(value):
    """Deterministic CSV formatting for floats and ints: repr of the float
    (nan, inf and -inf included), or the integer's digits."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


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


def _run_share(fn, share, writer):
    # a forked child's whole life: answer (True, results) or (False, exception)
    try:
        answer = (True, [fn(item) for item in share])
    except Exception as exc:
        answer = (False, exc)
    writer.send(answer)


def fork_map(fn, items, workers=None):
    """[fn(item) for item in items], over forked child processes.

    workers is None, for one process per CPU this process may use, or an
    integer of at least 1; it is checked before anything runs, and never
    more than len(items) processes run.  With one process, or on a
    platform without the fork start method, the map runs here.

    Child j of p runs items j, j + p, j + 2p, ... and sends its results
    back over a one-way pipe; the caller only waits, and the results come
    back in item order.  An exception in a child is raised here with its
    type and message; a child that exits without answering raises
    SpeclusterError with its exit code.  Every child is joined before
    return, and killed first if the map fails.  No thread is started, so
    forking copies no lock that another thread of this call holds; a
    caller that runs threads of its own passes workers=1.  fn and the
    items reach the children through the fork; only results and
    exceptions are pickled.
    """
    if workers is not None and (
        isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1
    ):
        raise ConfigError(f"workers must be None or an integer of at least 1, got {workers!r}")
    items = list(items)
    if workers is None:
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    processes = min(int(workers), len(items))
    if processes <= 1 or "fork" not in multiprocessing.get_all_start_methods():
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
