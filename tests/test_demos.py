"""Smoke test: every demo script and the README quick start run against the
current API, and the top-level namespace is exactly the documented one."""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import specluster as sp

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def run_demo(name, cwd):
    return run_python([str(DEMOS / name)], cwd)


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args],
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


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    quick_start = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", quick_start, re.DOTALL).group(1)
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "'dkest'" in proc.stdout and "'gn'" in proc.stdout


def test_namespace_is_the_documented_api():
    public = {
        name
        for name, value in vars(sp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(sp.__all__) == public | {"__version__"}
    assert len(sp.__all__) == len(set(sp.__all__))
