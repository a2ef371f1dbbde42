"""Shared builders for graphs and models used across the suite."""

import numpy as np
import pytest

import specluster as sp
from specluster.graph import build_graph


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def two_cliques(size):
    edges = [(i, j) for i in range(size) for j in range(i + 1, size)]
    edges += [(size + i, size + j) for i in range(size) for j in range(i + 1, size)]
    return build_graph(2 * size, edges)


def two_block_benchmark_model(n=3000):
    """Sparse two-community model with unequal within-block densities; the
    low-degree block is hard to recover without regularization."""
    b = np.array([[0.01, 0.0025], [0.0025, 0.003]])
    return sp.BlockModel.from_sizes([n // 2, n - n // 2], b)


def strong_weak_benchmark_params():
    """Two recoverable communities of 800 nodes plus 400 weakly clustered
    nodes spread over three faint blocks."""
    weak = np.array(
        [
            [0.007, 0.015, 0.015],
            [0.015, 0.0071, 0.015],
            [0.015, 0.015, 0.0069],
        ]
    )
    return sp.StrongWeakParams(
        num_strong=2,
        strong_size=800,
        p_strong=0.025,
        q=0.015,
        b_sw=0.015,
        num_weak_nodes=400,
        weak_matrix=weak,
    )


def random_full_rank_model(rng, max_n=300, max_k=5, taus=(0.0, 5.0)):
    """Random block model whose reduced spectrum stays away from zero at the
    requested tau values (so 'nonzero eigenvalue' is unambiguous)."""
    while True:
        k = int(rng.integers(1, max_k + 1))
        sizes = rng.integers(15, max(16, max_n // k), size=k)
        while sizes.sum() > max_n:
            sizes = rng.integers(15, max(16, max_n // k), size=k)
        b = rng.uniform(0.05, 0.95, size=(k, k))
        b = (b + b.T) / 2
        model = sp.BlockModel.from_sizes(sizes, b)
        ok = True
        for tau in tuple(taus) + (float(model.n),):
            try:
                vals = sp.reduced_spectrum(model, tau)
            except sp.SpeclusterError:
                ok = False
                break
            if np.abs(vals).min() < 1e-6:
                ok = False
                break
        if ok:
            return model


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
