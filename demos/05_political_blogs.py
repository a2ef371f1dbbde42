"""Workflow for a real two-community network (user-supplied data).

Expects two files:
  edges:  one undirected edge per line, "i j" with 0-based node ids
  labels: one integer per line, line i = community of node i (0 or 1)

The labels are read first and set the node count, so a node with no
edge still counts.

A classic choice is the 2004 US political blogs network restricted to its
largest connected component (1222 nodes, mean degree about 27), with the
liberal/conservative tags as labels.  The data is not bundled; pass the
paths on the command line:

    python demos/05_political_blogs.py edges.txt labels.txt

Degree heterogeneity makes the plain block-model fit a poor surrogate for
graphs like this; the degree-corrected fit usually selects a much better
tau.
"""

import sys

import numpy as np

import specluster as sp


def main(edges_path, labels_path):
    truth = sp.load_partition(labels_path)
    g = sp.load_edge_list(edges_path, n_hint=truth.n)
    print(f"n={g.n}, edges={g.num_edges}, mean degree {g.mean_degree:.1f}")

    if g.degrees.min() > 0:
        part0 = sp.regularized_spectral_clustering(g, 2, 0.0, seed=0)
        acc = 1 - sp.clustering_error(part0, truth).misclassified_fraction
        print(f"accuracy without regularization: {acc:.3f}")
    else:
        print("graph has isolated nodes; skipping tau = 0")

    grid = np.geomspace(0.25, 10.0 * g.n, 25)
    for kind in ("sbm", "dsbm"):
        scan = sp.tau_scan(
            g, 2, grid, criteria=("dkest", "gn", "oracle"),
            truth=truth, model_kind=kind, seed=0,
        )
        print(f"\n{kind} fit:")
        for name, tau in sorted(scan.chosen.items()):
            rec = scan.record_at(tau)
            acc = 1 - rec.misclassified_fraction
            print(f"  {name:>6}: tau={tau:>9.2f}  accuracy={acc:.3f}  nmi={rec.nmi:.3f}")
        scan.to_csv(f"blogs_scan_{kind}.csv")
        print(f"  wrote blogs_scan_{kind}.csv")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__)
        sys.exit(1)
    main(sys.argv[1], sys.argv[2])
