"""Choosing tau from data: perturbation estimate vs modularity vs oracle.

For each tau on a grid the graph is clustered, a population Laplacian is
rebuilt from the fitted clusters, and the ratio ||L_tau - Lhat_tau|| /
mu_K(Lhat_tau) is recorded.  Minimizing it needs no ground truth; the
modularity-maximizing and NMI-maximizing (oracle) choices are shown for
comparison.  Writes the full scan as CSV.
"""

import numpy as np

import specluster as sp

cfg = sp.ExperimentConfig(
    n=900,
    k=3,
    inside_weights=(1.0, 1.0, 1.0),
    out_in_ratio=6.0,
    target_degree=20.0,
    tau_grid=np.geomspace(1.0, 9000.0, 12),
    seed=42,
)
model = sp.build_experiment_model(cfg)
truth = sp.Partition(model.membership, 3)
g = sp.sample(model, cfg.seed)
print(f"three communities, n={g.n}, mean degree {g.mean_degree:.1f}")

scan = sp.tau_scan(
    g, 3, cfg.tau_grid, criteria=("dkest", "gn", "oracle"), truth=truth, seed=cfg.seed
)
print(f"{'tau':>9} {'dkest':>9} {'modularity':>11} {'nmi':>7} {'miscls':>7}")
for rec in scan.records:
    print(
        f"{rec.tau:>9.2f} {rec.dkest:>9.4f} {rec.gn_modularity:>11.4f}"
        f" {rec.nmi:>7.4f} {rec.misclassified_fraction:>7.4f}"
    )
print("(a dkest above the chosen minimum may be a certified lower bound, not the full value)")
print("\nchosen tau per selector:", {k: round(v, 2) for k, v in scan.chosen.items()})
for name, tau in sorted(scan.chosen.items()):
    rec = scan.record_at(tau)
    print(f"  {name:>6}: tau={tau:>8.2f}  nmi={rec.nmi:.4f}")

scan.to_csv("tau_scan_demo.csv")
print("\nwrote tau_scan_demo.csv")
