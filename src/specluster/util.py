"""Small shared helpers: seeding and provenance-stamped CSV artifacts."""

import hashlib

import numpy as np

from .__about__ import __version__


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
