"""Small shared helpers: seeding, worker counts, provenance-stamped CSV artifacts."""

import hashlib
import os

import numpy as np

from .__about__ import __version__
from .errors import ConfigError

THREADS_ENV = "SPECLUSTER_THREADS"


def seed_sequence(seed):
    """Coerce an int or SeedSequence into a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def rng_from(seed):
    return np.random.default_rng(seed_sequence(seed))


def max_workers(n_tasks, requested=None):
    """Worker count for parallel sections, capped by SPECLUSTER_THREADS.

    A SPECLUSTER_THREADS value that is not a positive integer raises
    ConfigError.
    """
    if requested is None:
        env = os.environ.get(THREADS_ENV)
        if env is None:
            requested = min(4, os.cpu_count() or 1)
        else:
            try:
                requested = int(env)
            except ValueError:
                requested = 0
            if requested < 1:
                raise ConfigError(f"{THREADS_ENV}={env!r} must be a positive integer")
    return max(1, min(requested, n_tasks))


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
