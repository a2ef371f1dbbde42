import numpy as np
import pytest

import specluster as sp
from conftest import two_block_benchmark_model
from specluster.bounds import concentration_precondition, mixing_moments


def diagonal_q_model(rng, k=None, n_lo=400, n_hi=1500):
    """Random diagonal-plus-q model with comfortably separated gammas."""
    k = k or int(rng.integers(1, 6))
    sizes = rng.integers(n_lo // k, n_hi // k, size=k)
    q = float(rng.uniform(0.001, 0.02))
    p = q + rng.uniform(0.005, 0.1, size=k)
    b = np.full((k, k), q)
    np.fill_diagonal(b, p)
    return sp.BlockModel.from_sizes(sizes, b)


def test_concentration_bound_hand_values():
    # first branch: 10 sqrt(log 100) / sqrt(10 + 90) = sqrt(log 100)
    got = sp.concentration_bound(100, 10, 50, 90)
    assert got == pytest.approx(np.sqrt(np.log(100)), rel=1e-12)
    assert got == pytest.approx(2.1460, abs=5e-4)
    # second branch at tau = 101 > 2 d_max = 100
    got2 = sp.concentration_bound(100, 10, 50, 101)
    expected2 = 10 * np.sqrt(50 * np.log(100)) / (50 + 101 / 2)
    assert got2 == pytest.approx(expected2, rel=1e-12)
    assert got2 == pytest.approx(1.5099, abs=5e-4)


def test_concentration_bound_branch_jump():
    # the two branches do not meet at tau = 2 d_max; verify the documented jump
    n, d_min, d_max = 100, 10, 50
    tau = 2 * d_max
    first = sp.concentration_bound(n, d_min, d_max, tau)
    second = 10 * np.sqrt(d_max * np.log(n)) / (d_max + tau / 2)
    assert first == pytest.approx(10 * np.sqrt(np.log(100)) / np.sqrt(110), rel=1e-12)
    assert abs(first - second) > 0.1 * first


def test_davis_kahan_ratio_single_block():
    model = sp.BlockModel.from_sizes([50], [[0.5]])
    tau = 200.0
    d = 50 * 0.5
    eps = sp.concentration_bound(50, d, d, tau)
    assert sp.theory_report(model, tau).delta_tau == pytest.approx(eps, rel=1e-12)


def test_davis_kahan_ratio_on_benchmark():
    # direct evaluation on this model: the tau = 0 formula value (28.5) is
    # below the large-tau value (40.6), but tau = 0 sits outside the bound's
    # validity regime (d_min = 8.25 << 32 log n), so only the regularized
    # value is a usable bound
    model = two_block_benchmark_model()
    r0 = sp.theory_report(model, 0.0).delta_tau
    rn = sp.theory_report(model, float(model.n)).delta_tau
    assert r0 == pytest.approx(28.517, abs=0.01)
    assert rn == pytest.approx(40.585, abs=0.01)
    d_min, _ = sp.population_degree_extremes(model)
    assert not concentration_precondition(model.n, d_min, 0.0)
    assert concentration_precondition(model.n, d_min, float(model.n))


def test_davis_kahan_ratio_flattens_at_large_tau():
    model = two_block_benchmark_model()
    r10 = sp.theory_report(model, 10.0 * model.n).delta_tau
    r100 = sp.theory_report(model, 100.0 * model.n).delta_tau
    assert abs(r10 - r100) / r100 < 0.05


def test_davis_kahan_limit_single_block_is_zero(rng):
    model = diagonal_q_model(rng, k=1)
    assert sp.davis_kahan_limit(model) == pytest.approx(0.0, abs=1e-15)


def test_two_block_limit_identity(rng):
    # ((m1t m1 - m2)/m1) = 1 / (w2 gamma1 + w1 gamma2) exactly for two blocks
    for _ in range(100):
        model = diagonal_q_model(rng, k=2)
        m1, m1t, m2 = mixing_moments(model)
        w = model.weights
        p = np.diag(model.block_matrix)
        q = model.block_matrix[0, 1]
        gamma = model.block_sizes * (p - q)
        coeff = (m1t * m1 - m2) / m1
        closed = 1.0 / (w[1] * gamma[0] + w[0] * gamma[1])
        assert coeff == pytest.approx(closed, rel=1e-12)
        # equivalent form via the mean within-block excess
        n = model.n
        closed2 = 1.0 / (2 * n * w[0] * w[1] * ((p[0] + p[1]) / 2 - q))
        assert coeff == pytest.approx(closed2, rel=1e-12)


def test_balanced_coefficient_tracks_second_smallest_gamma(rng):
    # with comparable block weights the limit coefficient is O(1/gamma_{K-1})
    for _ in range(25):
        k = int(rng.integers(2, 6))
        model = diagonal_q_model(rng, k=k, n_lo=900, n_hi=1100)
        m1, m1t, m2 = mixing_moments(model)
        p = np.diag(model.block_matrix)
        q = model.block_matrix[0, 1]
        gamma = np.sort(model.block_sizes * (p - q))
        coeff = (m1t * m1 - m2) / m1
        ratio = coeff * gamma[1] if k > 1 else coeff
        assert 0.1 <= ratio <= 10.0


def test_trace_inverse_limit_single_block(rng):
    model = diagonal_q_model(rng, k=1)
    assert sp.trace_inverse_limit(model) == pytest.approx(0.0, abs=1e-15)


def test_trace_inverse_limit_matches_numeric(rng):
    # numeric trace of the inverted reduced matrix, the sum of its inverse
    # eigenvalues, at tau = 1e8, with and without block interaction q
    for q_zero in (True, False):
        for _ in range(10):
            model = diagonal_q_model(rng, k=int(rng.integers(2, 5)))
            if q_zero:
                b = model.block_matrix.copy()
                off = ~np.eye(model.num_blocks, dtype=bool)
                b[off] = 0.0
                model = sp.BlockModel(membership=model.membership, block_matrix=b)
            tau = 1e8
            numeric = np.sum(1 / sp.reduced_spectrum(model, tau)) / tau
            assert numeric == pytest.approx(sp.trace_inverse_limit(model), rel=1e-5)


def test_eigen_gap_limit_consistent_with_trace(rng):
    # two-block model without interaction: tau * gap converges to the
    # inverse of the trace limit
    sizes = [300, 500]
    b = np.diag([0.2, 0.05])
    model = sp.BlockModel(
        membership=np.repeat([0, 1], sizes), block_matrix=b
    )
    tau = 1e8
    got = tau * sp.eigen_gap(model, tau)
    assert got == pytest.approx(1.0 / sp.trace_inverse_limit(model), rel=1e-4)


def test_perturbation_ratio_converges():
    # the bound and the gap each scale like 1/tau, so their ratio has a
    # finite limit; compare the ratio itself at two enormous tau values
    model = two_block_benchmark_model()
    vals = [sp.theory_report(model, tau).delta_tau for tau in (1e8, 1e9)]
    assert abs(vals[0] - vals[1]) / abs(vals[1]) < 1e-3


def test_limit_matches_numeric_ratio_up_to_constants(rng):
    # the closed-form limit hides constants; assert a bounded ratio against
    # the numeric perturbation ratio at very large tau
    for _ in range(10):
        model = diagonal_q_model(rng)
        limit = sp.davis_kahan_limit(model)
        if limit == 0.0:
            continue
        numeric = sp.theory_report(model, 1e9).delta_tau
        ratio = numeric / limit
        assert 1 / 20 <= ratio <= 20


def test_mixing_moments_validation():
    model = sp.BlockModel.from_sizes([50, 50], [[0.05, 0.05], [0.05, 0.2]])
    with pytest.raises(sp.DegenerateModelError):
        mixing_moments(model)  # p_1 == q
    uneven = sp.BlockModel.from_sizes([40, 40, 40], np.array(
        [[0.5, 0.1, 0.2], [0.1, 0.5, 0.1], [0.2, 0.1, 0.5]]
    ))
    with pytest.raises(sp.SpeclusterError, match="constant"):
        mixing_moments(uneven)


def test_concentration_check_passes_in_regime():
    model = sp.BlockModel.from_sizes([150, 150], [[0.15, 0.05], [0.05, 0.15]])
    tau = 64 * np.log(model.n)
    rate = sp.concentration_check(model, tau, trials=10, seed=0)
    assert rate >= 0.9


def test_concentration_check_trivial_at_huge_tau():
    model = sp.BlockModel.from_sizes([100, 100], [[0.2, 0.05], [0.05, 0.2]])
    assert sp.concentration_check(model, 1e6, trials=3, seed=1) == 1.0


def test_concentration_check_skipped_outside_regime():
    model = sp.BlockModel.from_sizes([100, 100], [[0.02, 0.01], [0.01, 0.02]])
    with pytest.warns(UserWarning, match="skipped"):
        rate = sp.concentration_check(model, 1.0, trials=3, seed=0)
    assert np.isnan(rate)


def test_theory_report_round_trip():
    model = two_block_benchmark_model()
    report = sp.theory_report(model, 3000.0)
    assert report.delta_tau == report.epsilon / report.eigen_gap
    assert np.isfinite(report.delta_limit)
    text = report.to_text()
    assert "epsilon = " in text and "eigen_gap = " in text


def test_theory_report_without_diagonal_form():
    model = sp.BlockModel.from_sizes([40, 40, 40], np.array(
        [[0.5, 0.1, 0.2], [0.1, 0.5, 0.1], [0.2, 0.1, 0.5]]
    ))
    report = sp.theory_report(model, 100.0)
    assert np.isnan(report.delta_limit)
    assert np.isfinite(report.epsilon)


@pytest.mark.parametrize("tau", [-1.0, np.nan, np.inf])
def test_theory_report_rejects_negative_or_non_finite_tau(tau):
    with pytest.raises(sp.SpeclusterError, match="tau must be non-negative and finite"):
        sp.theory_report(two_block_benchmark_model(), tau)
