"""Each input rule is checked by one function, and every entry point that
takes the input gives that function's message."""

from pathlib import Path

import numpy as np
import pytest

import specluster as sp
from conftest import two_block_benchmark_model, two_cliques
from specluster.cli import _build_parser
from specluster.selection import MODEL_KINDS, NORM_KINDS
from specluster.spectral import RegularizedLaplacian

RULE_MESSAGES = (
    "tau must be non-negative and finite",
    "tau grid is empty",
    "unknown model kind",
    "unknown norm kind",
    "partitions cover different node counts",
    "workers must be None or an integer of at least 1",
    "a population degree plus tau is zero",
)


@pytest.mark.parametrize("message", RULE_MESSAGES)
def test_each_rule_message_is_written_once(message):
    src = Path(sp.__file__).parent
    counts = {path.name: path.read_text().count(message) for path in sorted(src.glob("*.py"))}
    owners = {name: count for name, count in counts.items() if count}
    assert sum(owners.values()) == 1, f"{message!r} is written in {owners}"


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
