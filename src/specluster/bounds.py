"""Closed-form bounds: Laplacian concentration, perturbation ratios, and
their large-tau limits.

All asymptotic-order statements are surfaced as representative values with
constants set to 1; tests assert bounded ratios, never exact agreement.
Logarithms are natural throughout.
"""

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .blockmodel import (
    PopulationLaplacian,
    eigen_gap,
    population_degree_extremes,
    sample,
)
from .errors import DegenerateModelError, SpeclusterError
from .spectral import RegularizedLaplacian, check_taus, spectral_norm_diff
from .util import fmt

PRECONDITION_FACTOR = 32.0
BOUND_CONSTANT = 10.0


def concentration_precondition(n, d_min, tau):
    """max(tau, d_min) >= 32 log n, the regime where the bound is proved."""
    return max(tau, d_min) >= PRECONDITION_FACTOR * np.log(n)


def concentration_bound(n, d_min, d_max, tau):
    """High-probability bound on the sample-population Laplacian distance.

    10 sqrt(log n) / sqrt(d_min + tau) for tau <= 2 d_max, else
    10 sqrt(d_max log n) / (d_max + tau / 2).  The two branches do not meet
    continuously at tau = 2 d_max; each is evaluated exactly as stated.
    The value is the formula whether or not the precondition holds;
    concentration_precondition reports the regime.
    """
    log_n = np.log(n)
    if tau <= 2 * d_max:
        return float(BOUND_CONSTANT * np.sqrt(log_n) / np.sqrt(d_min + tau))
    return float(BOUND_CONSTANT * np.sqrt(d_max * log_n) / (d_max + tau / 2))


def _diagonal_plus_q_form(model):
    """Split B into diagonal p_k and constant off-diagonal q; error otherwise."""
    b = model.block_matrix
    k = b.shape[0]
    if k == 1:
        return np.array([b[0, 0]]), 0.0
    off = b[~np.eye(k, dtype=bool)]
    q = off[0]
    if not np.allclose(off, q, rtol=0, atol=1e-12):
        raise SpeclusterError("off-diagonal block probabilities are not constant")
    return np.diag(b).copy(), float(q)


def mixing_moments(model):
    """Separation moments of a diagonal-plus-q model.

    With gamma_k = n_k (p_k - q):
      m1  = sum w_k / gamma_k
      m1t = sum 1 / gamma_k
      m2  = sum w_k / gamma_k^2
    """
    p, q = _diagonal_plus_q_form(model)
    if np.any(p <= q):
        raise DegenerateModelError("need p_k > q for every block")
    gamma = model.block_sizes * (p - q)
    w = model.weights
    m1 = float((w / gamma).sum())
    m1t = float((1.0 / gamma).sum())
    m2 = float((w / gamma**2).sum())
    return m1, m1t, m2


def davis_kahan_limit(model):
    """Representative value of the perturbation ratio as tau grows without
    bound: ((m1t m1 - m2) / m1) sqrt(d_max log n), constants set to 1."""
    m1, m1t, m2 = mixing_moments(model)
    _, d_max = population_degree_extremes(model)
    return float((m1t * m1 - m2) / m1 * np.sqrt(d_max * np.log(model.n)))


def trace_inverse_limit(model):
    """Limit of trace(inverse block-reduced Laplacian) / tau: m1t - m2/m1."""
    m1, m1t, m2 = mixing_moments(model)
    return float(m1t - m2 / m1)


def concentration_check(model, tau, trials=50, seed=0):
    """Fraction of sampled graphs whose Laplacian distance to the population
    stays within the bound.  Returns nan (with a warning) when the
    precondition regime does not hold, in which case no trials run."""
    d_min, d_max = population_degree_extremes(model)
    if not concentration_precondition(model.n, d_min, tau):
        warnings.warn("precondition violated; concentration check skipped", stacklevel=2)
        return float("nan")
    eps = concentration_bound(model.n, d_min, d_max, tau)
    pop = PopulationLaplacian(model, tau)
    hits = 0
    for t in range(trials):
        g = sample(model, seed + t)
        dist = spectral_norm_diff(RegularizedLaplacian(g, tau), pop, seed=seed + t)
        if dist <= eps:
            hits += 1
    return hits / trials


@dataclass(frozen=True)
class BoundReport:
    """Bound quantities for one (model, tau) pair.

    delta_tau is epsilon / eigen_gap exactly, the population
    perturbation-to-gap ratio; squared (times K) it bounds the clustering
    error order.  delta_limit and the moments are populated only for
    diagonal-plus-q models (nan otherwise).
    tau_growth_ratio is (sum_k 1/w_k) d_max log n / tau, the quantity whose
    vanishing makes the large-tau analysis applicable.
    """

    n: int
    k: int
    tau: float
    epsilon: float
    eigen_gap: float
    delta_tau: float
    delta_limit: float
    m1: float
    m1_tilde: float
    m2: float
    precondition_ok: bool
    tau_growth_ratio: float

    def to_text(self):
        lines = []
        for key, value in asdict(self).items():
            if isinstance(value, bool):
                lines.append(f"{key} = {str(value).lower()}")
            else:
                lines.append(f"{key} = {fmt(value)}")
        return "\n".join(lines) + "\n"


def theory_report(model, tau):
    """Assemble every closed-form quantity for one (model, tau) pair.

    tau must pass spectral.check_taus.
    """
    check_taus(tau)
    d_min, d_max = population_degree_extremes(model)
    ok = concentration_precondition(model.n, d_min, tau)
    eps = concentration_bound(model.n, d_min, d_max, tau)
    gap = eigen_gap(model, tau)
    try:
        m1, m1t, m2 = mixing_moments(model)
        limit = davis_kahan_limit(model)
    except SpeclusterError:  # not diagonal-plus-q, or p_k <= q
        m1 = m1t = m2 = limit = float("nan")
    inv_w = float((1.0 / model.weights).sum())
    growth = inv_w * d_max * np.log(model.n) / tau if tau > 0 else np.inf
    return BoundReport(
        n=model.n,
        k=model.num_blocks,
        tau=float(tau),
        epsilon=eps,
        eigen_gap=gap,
        delta_tau=eps / gap,
        delta_limit=limit,
        m1=m1,
        m1_tilde=m1t,
        m2=m2,
        precondition_ok=bool(ok),
        tau_growth_ratio=float(growth),
    )
