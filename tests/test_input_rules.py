"""Each input rule is checked by one function, and every entry point that
takes the input gives that function's message."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import specluster as sp
from conftest import strong_weak_benchmark_params, two_block_benchmark_model, two_cliques

from specluster import spectral
from specluster.blockmodel import PopulationLaplacian, full_model
from specluster.cli import _build_parser
from specluster.graph import build_graph
from specluster.metrics import modularity
from specluster.selection import MODEL_KINDS, NORM_KINDS, dkest_statistic
from specluster.spectral import RegularizedLaplacian, top_eigenpairs

RULE_MESSAGES = (
    "tau must be non-negative and finite",
    "tau grid is empty",
    "unknown model kind",
    "unknown norm kind",
    "partitions cover different node counts",
    "workers must be None or an integer of at least 1",
    "a population degree plus tau is zero",
    "unknown config key",
    "repeats line",
    "start must be a finite, nonzero float vector of length n",
    "theta length must equal node count",
    "needs a plain block model, not a degree-corrected one",
    "labels must be a 1-D array of integers",
    "an estimated partition must label every node",
)


def _owners(text):
    """{module file name: times text is written in it} over src/specluster."""
    src = Path(sp.__file__).parent
    counts = {path.name: path.read_text().count(text) for path in sorted(src.glob("*.py"))}
    return {name: count for name, count in counts.items() if count}


@pytest.mark.parametrize("message", RULE_MESSAGES)
def test_each_rule_message_is_written_once(message):
    owners = _owners(message)
    assert sum(owners.values()) == 1, f"{message!r} is written in {owners}"


def test_the_comment_rule_is_written_once():
    # edge lists, partition files and both config formats read through util.data_lines
    assert _owners('split("#", 1)') == {"util.py": 1}


def test_every_tau_entry_point_gives_the_same_message_for_nan():
    entry_points = {
        "RegularizedLaplacian": lambda: RegularizedLaplacian(two_cliques(4), np.nan),
        "theory_report": lambda: sp.theory_report(two_block_benchmark_model(), np.nan),
        "tau_scan": lambda: sp.tau_scan(two_cliques(4), 2, [1.0, np.nan]),
        "ExperimentConfig": lambda: sp.ExperimentConfig(
            n=10, k=1, inside_weights=(1.0,), out_in_ratio=1.0, target_degree=3.0, tau_grid=[1.0, np.nan]
        ),
    }
    messages = {}
    for name, call in entry_points.items():
        with pytest.raises(sp.SpeclusterError) as info:
            call()
        messages[name] = str(info.value)
    assert set(messages.values()) == {"tau must be non-negative and finite, got nan"}, messages


def test_cli_kind_choices_are_the_selection_kinds():
    scan = _build_parser()._subparsers._group_actions[0].choices["scan"]
    choices = {action.dest: tuple(action.choices) for action in scan._actions if action.choices}
    assert choices["model"] == MODEL_KINDS
    assert choices["norm"] == NORM_KINDS


def _config(tmp_path, text, theta=None):
    """input.cfg holding text, beside a theta.txt holding theta if given."""
    if theta is not None:
        (tmp_path / "theta.txt").write_text(theta)
    path = tmp_path / "input.cfg"
    path.write_text(text)
    return path


def _experiment(**overrides):
    base = dict(n=10, k=2, inside_weights=(1.0, 1.0), out_in_ratio=2.0, target_degree=3.0, tau_grid=[1.0])
    return sp.ExperimentConfig(**{**base, **overrides})


_ZERO_DEGREE_MODEL = sp.BlockModel.from_sizes([2, 2], [[0.0, 0.0], [0.0, 0.5]])

# (call of tmp_path, error type, message pattern): the input checks no other test reaches
INPUT_CHECKS = {
    "block matrix not square": (
        lambda tmp: sp.BlockModel(np.zeros(2, dtype=int), np.full((2, 3), 0.5)),
        sp.SpeclusterError,
        "block matrix must be square",
    ),
    "membership out of range": (
        lambda tmp: sp.BlockModel(np.array([0, 2]), np.eye(2) * 0.5),
        sp.SpeclusterError,
        "membership labels out of range",
    ),
    "zero degree, dense Laplacian": (
        lambda tmp: sp.population_laplacian(_ZERO_DEGREE_MODEL, 0.0),
        sp.SingularLaplacianError,
        "a population degree plus tau is zero",
    ),
    "zero degree, matrix-free Laplacian": (
        lambda tmp: PopulationLaplacian(_ZERO_DEGREE_MODEL, 0.0),
        sp.SingularLaplacianError,
        "a population degree plus tau is zero",
    ),
    "zero degree, reduced spectrum": (
        lambda tmp: sp.reduced_spectrum(_ZERO_DEGREE_MODEL, 0.0),
        sp.SingularLaplacianError,
        "a population degree plus tau is zero",
    ),
    "matrix-free degree-corrected": (
        lambda tmp: PopulationLaplacian(
            sp.DegreeCorrectedModel(two_block_benchmark_model(20), np.ones(20)), 1.0
        ),
        sp.SpeclusterError,
        "needs a plain block model, not a degree-corrected one",
    ),
    "strong-weak q above p": (
        lambda tmp: sp.StrongWeakParams(2, 10, p_strong=0.1, q=0.2, b_sw=0.1, num_weak_nodes=5),
        sp.SpeclusterError,
        "need 0 <= q <= p_strong <= 1",
    ),
    "strong-weak b_sw above 1": (
        lambda tmp: sp.StrongWeakParams(2, 10, p_strong=0.2, q=0.1, b_sw=1.5, num_weak_nodes=5),
        sp.SpeclusterError,
        r"probabilities must lie in \[0, 1\]",
    ),
    "full model without weak matrix": (
        lambda tmp: full_model(sp.StrongWeakParams(2, 10, p_strong=0.2, q=0.1, b_sw=0.1, num_weak_nodes=5)),
        sp.SpeclusterError,
        "full_model needs weak_matrix",
    ),
    "full model, too few weak nodes": (
        lambda tmp: full_model(replace(strong_weak_benchmark_params(), num_weak_nodes=2)),
        sp.SpeclusterError,
        "too few weak nodes for the weak block count",
    ),
    "config line without '='": (
        lambda tmp: sp.load_model_config(_config(tmp, "n = 6\nk 2\n")),
        sp.ConfigError,
        "input.cfg:2: expected 'key = value'",
    ),
    "model config without sizes": (
        lambda tmp: sp.load_model_config(_config(tmp, "n = 6\nk = 2\nb = 0.5,0.1,0.1,0.4\n")),
        sp.ConfigError,
        "input.cfg: need sizes or weights",
    ),
    "model config with sizes and weights": (
        lambda tmp: sp.load_model_config(_config(tmp, "n = 6\nk = 2\nsizes = 3,3\nweights = 1,1\nb = 0.5,0.1,0.1,0.4\n")),
        sp.ConfigError,
        "input.cfg: need sizes or weights, not both",
    ),
    "theta of two columns": (
        lambda tmp: sp.DegreeCorrectedModel(sp.BlockModel.from_sizes([2, 2], np.eye(2) * 0.5), np.ones((2, 2))),
        sp.SpeclusterError,
        r"theta length must equal node count: need shape \(4,\), got \(2, 2\)",
    ),
    "theta_file of two columns": (
        lambda tmp: sp.load_model_config(
            _config(tmp, "n = 4\nk = 2\nsizes = 2,2\nb = 0.5,0.1,0.1,0.4\ntheta_file = theta.txt\n", theta="1 1\n1 1\n")
        ),
        sp.ConfigError,
        r"input.cfg: theta length must equal node count: need shape \(4,\), got \(2, 2\)",
    ),
    "model config, wrong block count": (
        lambda tmp: sp.load_model_config(_config(tmp, "n = 6\nk = 1\nsizes = 3,3\nb = 0.5\n")),
        sp.ConfigError,
        "input.cfg: expected 1 block sizes, got 2",
    ),
    "experiment inside weight zero": (
        lambda tmp: _experiment(inside_weights=(1.0, 0.0)),
        sp.ConfigError,
        "inside weights must be positive",
    ),
    "experiment target degree zero": (
        lambda tmp: _experiment(target_degree=0.0),
        sp.ConfigError,
        "target mean degree must be positive",
    ),
    "experiment zero expected degree": (
        lambda tmp: sp.build_experiment_model(_experiment(k=1, inside_weights=(1.0,), out_in_ratio=0.0)),
        sp.InfeasibleConfigError,
        "degenerate configuration: zero expected degree",
    ),
    "graph negative index": (
        lambda tmp: build_graph(3, [(0, -1)]),
        sp.SpeclusterError,
        "negative node index in edge list",
    ),
    "degree extremes of no nodes": (
        lambda tmp: sp.degree_extremes(build_graph(0, [])),
        sp.SpeclusterError,
        "empty graph",
    ),
    "reference labels no nodes": (
        lambda tmp: sp.clustering_error(sp.Partition([0, 1], 2), sp.Partition([-1, -1], 1)),
        sp.SpeclusterError,
        "reference partition labels no nodes",
    ),
    "scan unknown criterion": (
        lambda tmp: sp.tau_scan(two_cliques(4), 2, [1.0], criteria=("dkest", "best")),
        sp.SpeclusterError,
        "unknown criterion 'best'",
    ),
    "scan record off the grid": (
        lambda tmp: sp.tau_scan(two_cliques(4), 2, [1.0], criteria=("gn",)).record_at(2.0),
        KeyError,
        "2.0",
    ),
    "eigensolve of a non-square array": (
        lambda tmp: top_eigenpairs(np.ones((2, 3)), 1),
        sp.SpeclusterError,
        "expected a square matrix",
    ),
    "eigensolve of a non-operator": (
        lambda tmp: top_eigenpairs([[1.0]], 1),
        sp.SpeclusterError,
        "cannot interpret list as a linear operator",
    ),
}
# every reader of a block matrix or block sizes refuses a degree-corrected model
_DEGREE_CORRECTED = sp.DegreeCorrectedModel(two_block_benchmark_model(20), np.ones(20))
_PLAIN_ONLY = {
    "block_degrees": sp.block_degrees,
    "population_degree_extremes": sp.population_degree_extremes,
    "center_distances": sp.center_distances,
    "reduced_spectrum": lambda m: sp.reduced_spectrum(m, 1.0),
    "eigen_gap": lambda m: sp.eigen_gap(m, 1.0),
    "theory_report": lambda m: sp.theory_report(m, 1.0),
    "concentration_check": lambda m: sp.concentration_check(m, 100.0, trials=1),
    "davis_kahan_limit": sp.davis_kahan_limit,
    "trace_inverse_limit": sp.trace_inverse_limit,
}
for _name, _call in _PLAIN_ONLY.items():
    INPUT_CHECKS[f"degree-corrected model, {_name}"] = (
        lambda tmp, call=_call: call(_DEGREE_CORRECTED),
        sp.SpeclusterError,
        "needs a plain block model, not a degree-corrected one",
    )
# Partition labels must be a 1-D array of integers
_BAD_LABELS = {
    "fractional": np.array([0.5, 1.2]),
    "integral floats": np.array([0.0, 1.0]),
    "two-dimensional": np.zeros((2, 2), dtype=int),
    "scalar": np.int64(0),
    "boolean": np.array([True, False]),
}
for _name, _labels in _BAD_LABELS.items():
    INPUT_CHECKS[f"partition labels, {_name}"] = (
        lambda tmp, labels=_labels: sp.Partition(labels, 2),
        sp.SpeclusterError,
        "labels must be a 1-D array of integers",
    )
# label -1 marks a node without ground truth, which only a reference may hold
_UNLABELED_ESTIMATE = sp.Partition([0, 1, -1, 1], 2)
_REFERENCE = sp.Partition([0, 1, 0, 1], 2)
_ESTIMATE_READERS = {
    "clustering_error": lambda: sp.clustering_error(_UNLABELED_ESTIMATE, _REFERENCE),
    "nmi": lambda: sp.nmi(_UNLABELED_ESTIMATE, _REFERENCE),
    "modularity": lambda: modularity(two_cliques(2), _UNLABELED_ESTIMATE),
    "dkest_statistic": lambda: dkest_statistic(two_cliques(2), _UNLABELED_ESTIMATE, 1.0),
}
for _name, _call in _ESTIMATE_READERS.items():
    INPUT_CHECKS[f"estimate with label -1, {_name}"] = (
        lambda tmp, call=_call: call(),
        sp.SpeclusterError,
        "an estimated partition must label every node; -1 is for a reference only",
    )
# a start that is not a finite, nonzero float n-vector, given to the public
# clustering entry point, is refused before the eigensolve draws
_BAD_STARTS = {
    "short": np.ones(9),
    "scalar": np.float64(1.0),
    "row": np.ones((1, 10)),
    "integer": np.ones(10, dtype=np.int64),
    "nan": np.r_[np.ones(9), np.nan],
    "zero": np.zeros(10),
}
for _name, _start in _BAD_STARTS.items():
    INPUT_CHECKS[f"eigensolve start, {_name}"] = (
        lambda tmp, start=_start: sp.regularized_spectral_clustering(two_cliques(5), 2, 1.0, start=start),
        sp.SpeclusterError,
        "start must be a finite, nonzero float vector of length n=10",
    )


@pytest.mark.parametrize("case", list(INPUT_CHECKS))
def test_input_check_refuses(tmp_path, case):
    call, error, message = INPUT_CHECKS[case]
    with pytest.raises(error, match=message):
        call(tmp_path)


_MODEL_CONFIG = "n = 6\nk = 2\nsizes = 4,2\nb = 0.5,0.1,0.1,0.4\n"
_EXPERIMENT_CONFIG = "n = 60\nk = 2\nw = 1,1\nbeta = 5\nlambda = 12\ntau_grid = 1:600:4\n"


@pytest.mark.parametrize(
    "load, text",
    [(sp.load_model_config, _MODEL_CONFIG), (sp.parse_experiment_config, _EXPERIMENT_CONFIG)],
)
def test_config_refuses_unknown_and_repeated_keys(tmp_path, load, text):
    load(_config(tmp_path, text))  # the base file is accepted
    with pytest.raises(sp.ConfigError, match=r"input.cfg:5: unknown config key 'replicate'; expected one of n, k, "):
        load(_config(tmp_path, "n = 60\nk = 2\n\n# a note\nreplicate = 5\n" + text))
    with pytest.raises(sp.ConfigError, match=r"input.cfg:3: config key 'n' repeats line 2"):
        load(_config(tmp_path, "# header\nN = 80\n" + text))


def test_experiment_config_refuses_a_mistyped_key_after_a_repeat(tmp_path):
    # a mistyped replicates and a second n parsed to n=80, replicates=1 when
    # the last value of a key won and unknown keys were dropped
    text = _EXPERIMENT_CONFIG + "replicate = 5\nn = 80\n"
    with pytest.raises(sp.ConfigError, match="input.cfg:7: unknown config key 'replicate'"):
        sp.parse_experiment_config(_config(tmp_path, text))
    with pytest.raises(sp.ConfigError, match="input.cfg:7: config key 'n' repeats line 1"):
        sp.parse_experiment_config(_config(tmp_path, _EXPERIMENT_CONFIG + "n = 80\n"))


class _Spread:
    """diag(1, 2, ..., 600) as an operator, whose top pair a 20-vector
    Lanczos basis cannot resolve without restarts, so evenly spread is
    the spectrum."""

    shape = (600, 600)
    diagonal = np.arange(1.0, 601.0)

    def apply(self, x):
        return self.diagonal * x


def test_eigensolve_reports_the_restart_cap_with_residuals(monkeypatch):
    monkeypatch.setattr(spectral, "MAX_RESTARTS", 1)
    with pytest.raises(sp.ConvergenceError, match="Lanczos did not reach tol=1e-08 in 1 restarts") as info:
        top_eigenpairs(_Spread(), 2)
    residuals = info.value.residuals
    assert residuals.shape == (2,) and np.all(residuals > 1e-8) and np.all(np.isfinite(residuals))
    # with the cap lifted the same solve converges
    monkeypatch.undo()
    basis = top_eigenpairs(_Spread(), 2)
    assert basis.values == pytest.approx([600.0, 599.0], abs=1e-9)
