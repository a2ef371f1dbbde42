"""Concentration bound, perturbation-to-gap ratio, and their large-tau limits.

The distance between the sample and population Laplacians is bounded (with
probability 1 - 2/n) by a closed form that decays like 1/tau once tau
exceeds twice the maximum expected degree; the spectral gap decays the
same way, so their ratio has a finite limit expressible through three
moments of the block separations.
"""

import numpy as np

import specluster as sp

model = sp.BlockModel.from_sizes(
    [1500, 1500], [[0.01, 0.0025], [0.0025, 0.003]]
)
d_min, d_max = sp.population_degree_extremes(model)
n = model.n
print(f"n={n}, population degrees: min {d_min:.2f}, max {d_max:.2f}")
print(f"validity threshold 32 log n = {32 * np.log(n):.1f}")

print("\nbound, gap, and ratio vs tau:")
for tau in (300.0, 3000.0, 3e4, 3e6, 1e8, 1e9):
    eps = sp.concentration_bound(n, d_min, d_max, tau)
    gap = sp.eigen_gap(model, tau)
    print(f"  tau={tau:>10.0f}  eps={eps:.3e}  gap={gap:.3e}  ratio={eps / gap:.4f}")

report = sp.theory_report(model, 3000.0)
print("\nfull report at tau = n:")
print(report.to_text())

print("limit of the ratio from the separation moments:", round(sp.davis_kahan_limit(model), 4))
print("limit of trace(inverse reduced)/tau:", round(sp.trace_inverse_limit(model), 6))

# empirical check of the concentration bound where its precondition holds
small = sp.BlockModel.from_sizes([250, 250], [[0.08, 0.02], [0.02, 0.08]])
tau = 64 * np.log(small.n)
rate = sp.concentration_check(small, tau, trials=20, seed=0)
print(f"\nempirical concentration at n={small.n}, tau={tau:.0f}: {rate:.0%} of samples within the bound")
