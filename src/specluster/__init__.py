"""Regularized spectral clustering for block-model graphs.

Cluster a graph by the top eigenvectors of the regularized Laplacian
D_tau^{-1/2} (A + tau J) D_tau^{-1/2} followed by K-means on the embedding
rows.  The package also provides exact population spectra for (degree
corrected) stochastic block models, closed-form perturbation bounds, and
data-driven selection of the regularization parameter tau.

The names below are the documented API: what the README, the demos and the
command line use, plus the error classes.  Everything else is importable
from its module (specluster.spectral, specluster.selection, ...).
"""

from .__about__ import __version__
from .blockmodel import (
    BlockModel,
    DegreeCorrectedModel,
    StrongWeakParams,
    block_degrees,
    center_distances,
    eigen_gap,
    load_model_config,
    merged_model,
    population_degree_extremes,
    population_laplacian,
    reduced_spectrum,
    sample,
    strong_weak_spectrum,
)
from .bounds import (
    concentration_bound,
    concentration_check,
    davis_kahan_limit,
    theory_report,
    trace_inverse_limit,
)
from .clustering import Partition, load_partition, regularized_spectral_clustering, save_partition
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateModelError,
    EdgeListParseError,
    EmptyClusterError,
    InfeasibleConfigError,
    SingularLaplacianError,
    SizeCapError,
    SpeclusterError,
)
from .experiments import (
    ExperimentConfig,
    build_experiment_model,
    parse_experiment_config,
    parse_tau_grid_spec,
    run_experiment,
)
from .graph import degree_extremes, load_edge_list, save_edge_list
from .metrics import clustering_error, nmi
from .selection import default_tau_grid, tau_scan

__all__ = [
    "__version__",
    "BlockModel",
    "ConfigError",
    "ConvergenceError",
    "DegenerateModelError",
    "DegreeCorrectedModel",
    "EdgeListParseError",
    "EmptyClusterError",
    "ExperimentConfig",
    "InfeasibleConfigError",
    "Partition",
    "SingularLaplacianError",
    "SizeCapError",
    "SpeclusterError",
    "StrongWeakParams",
    "block_degrees",
    "build_experiment_model",
    "center_distances",
    "clustering_error",
    "concentration_bound",
    "concentration_check",
    "davis_kahan_limit",
    "default_tau_grid",
    "degree_extremes",
    "eigen_gap",
    "load_edge_list",
    "load_model_config",
    "load_partition",
    "merged_model",
    "nmi",
    "parse_experiment_config",
    "parse_tau_grid_spec",
    "population_degree_extremes",
    "population_laplacian",
    "reduced_spectrum",
    "regularized_spectral_clustering",
    "run_experiment",
    "sample",
    "save_edge_list",
    "save_partition",
    "strong_weak_spectrum",
    "tau_scan",
    "theory_report",
    "trace_inverse_limit",
]
