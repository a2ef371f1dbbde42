"""Smoke test: every demo script runs against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def run_demo(name, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(DEMOS / name)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "name",
    [
        "01_regularization_basics.py",
        "02_population_spectra.py",
        "03_theory_bounds.py",
        "04_tau_selection.py",
    ],
)
def test_demo_runs(name, tmp_path):
    proc = run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_data_demo_without_arguments_prints_usage(tmp_path):
    proc = run_demo("05_political_blogs.py", tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "python demos/05_political_blogs.py edges.txt labels.txt" in proc.stdout
