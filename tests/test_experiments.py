import multiprocessing
import os
import threading

import numpy as np
import pytest

import specluster as sp
from specluster import experiments
from specluster.blockmodel import edge_probabilities


def small_config(tmp_path, **overrides):
    base = dict(
        n=80,
        k=2,
        inside_weights=(1.0, 1.0),
        out_in_ratio=6.0,
        target_degree=25.0,
        tau_grid=np.array([1.0, 8.0, 80.0]),
        replicates=1,
        seed=0,
        output_path=str(tmp_path / "exp.csv"),
    )
    base.update(overrides)
    return sp.ExperimentConfig(**base)


def test_build_model_uniform_case():
    # equal blocks, unit weights, out-in ratio 1: B is constant and the
    # factor reduces to lambda / n
    cfg = sp.ExperimentConfig(
        n=100, k=2, inside_weights=(1.0, 1.0), out_in_ratio=1.0,
        target_degree=12.0, tau_grid=[1.0],
    )
    model = sp.build_experiment_model(cfg)
    assert np.allclose(model.block_matrix, 12.0 / 100)
    d_lo, d_hi = sp.population_degree_extremes(model)
    assert d_lo == pytest.approx(12.0)
    assert d_hi == pytest.approx(12.0)


def test_build_model_mean_degree_exact():
    cfg = sp.ExperimentConfig(
        n=90, k=3, inside_weights=(1.0, 2.0, 0.5), out_in_ratio=4.0,
        target_degree=15.0, tau_grid=[1.0],
    )
    model = sp.build_experiment_model(cfg)
    p = edge_probabilities(model)
    assert p.sum() / model.n == pytest.approx(15.0, rel=1e-12)


def test_build_model_factor_linear_in_target():
    kw = dict(n=100, k=2, inside_weights=(1.0, 3.0), out_in_ratio=2.0, tau_grid=[1.0])
    m1 = sp.build_experiment_model(sp.ExperimentConfig(target_degree=5.0, **kw))
    m2 = sp.build_experiment_model(sp.ExperimentConfig(target_degree=10.0, **kw))
    assert np.allclose(2.0 * m1.block_matrix, m2.block_matrix)


def test_build_model_infeasible():
    cfg = sp.ExperimentConfig(
        n=20, k=2, inside_weights=(1.0, 1.0), out_in_ratio=50.0,
        target_degree=19.0, tau_grid=[1.0],
    )
    with pytest.raises(sp.InfeasibleConfigError, match="> 1"):
        sp.build_experiment_model(cfg)


def test_panel_sample_degree_matches_target():
    cfg = sp.ExperimentConfig(
        n=900, k=3, inside_weights=(1.0, 1.0, 1.0), out_in_ratio=6.0,
        target_degree=30.0, tau_grid=[1.0],
    )
    model = sp.build_experiment_model(cfg)
    means = []
    for seed in range(20):
        g = sp.sample(model, seed)
        means.append(g.degrees.mean())
    # mean over n nodes and 20 seeds; allow 3 standard errors plus the O(1)
    # self-pair convention offset
    se = np.sqrt(2 * 30.0 / (20 * 900))
    assert abs(np.mean(means) - 30.0) <= 3 * se + 0.1


def test_config_validation():
    with pytest.raises(sp.ConfigError):
        sp.ExperimentConfig(n=10, k=2, inside_weights=(1.0,), out_in_ratio=1.0,
                            target_degree=3.0, tau_grid=[1.0])
    with pytest.raises(sp.ConfigError):
        sp.ExperimentConfig(n=10, k=1, inside_weights=(1.0,), out_in_ratio=-1.0,
                            target_degree=3.0, tau_grid=[1.0])
    with pytest.raises(sp.ConfigError):
        sp.ExperimentConfig(n=10, k=1, inside_weights=(1.0,), out_in_ratio=1.0,
                            target_degree=3.0, tau_grid=[1.0], replicates=0)


@pytest.mark.parametrize(
    "grid, message",
    [
        ([], "tau grid is empty"),
        ([1.0, np.nan], "tau must be non-negative and finite, got nan"),
        ([np.inf], "tau must be non-negative and finite, got inf"),
        ([-1.0, 2.0], "tau must be non-negative and finite, got -1.0"),
    ],
    ids=["empty", "nan", "inf", "negative"],
)
def test_experiment_config_rejects_a_bad_grid(tmp_path, grid, message):
    # the config refuses the grid itself, before run_experiment samples a graph
    with pytest.raises(sp.SpeclusterError, match=message):
        small_config(tmp_path, tau_grid=grid)


def test_experiment_config_keeps_the_grid_order():
    cfg = sp.ExperimentConfig(
        n=10, k=1, inside_weights=(1.0,), out_in_ratio=1.0, target_degree=3.0, tau_grid=[5, 1]
    )
    assert cfg.tau_grid.dtype == np.float64
    assert cfg.tau_grid.tolist() == [5.0, 1.0]


def test_parse_tau_grid_spec():
    grid = sp.parse_tau_grid_spec("1:100:3")
    assert np.allclose(grid, [1.0, 10.0, 100.0])
    assert sp.parse_tau_grid_spec("5:5:1").tolist() == [5.0]
    for bad in ("5:4:3", "0:4:3", "1:nan:5", "nan:nan:3", "nan:5:3", "1:inf:5"):
        with pytest.raises(sp.ConfigError, match="0 < min <= max < inf"):
            sp.parse_tau_grid_spec(bad)
    with pytest.raises(sp.ConfigError):
        sp.parse_tau_grid_spec("1:10")


def test_parse_experiment_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "n = 60\nk = 2\nw = 1,1\nbeta = 5\nlambda = 12\n"
        "tau_grid = 1:600:4\nreplicates = 2\nseed = 7\nmodel = sbm\n"
        "norm = frobenius\nout = out.csv\n"
    )
    cfg = sp.parse_experiment_config(path)
    assert cfg.n == 60 and cfg.k == 2
    assert cfg.replicates == 2 and cfg.seed == 7
    assert cfg.norm_kind == "frobenius"
    assert cfg.tau_grid.size == 4
    with pytest.raises(sp.ConfigError, match="missing key"):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n = 60\n")
        sp.parse_experiment_config(bad)


def test_experiment_config_trailing_comments(tmp_path):
    lines = [
        "n = 60", "k = 2", "w = 1,1", "beta = 5", "lambda = 12", "tau_grid = 1:600:4",
        "replicates = 2", "seed = 7", "model = dsbm", "norm = frobenius", "out = out.csv",
    ]
    plain, commented = tmp_path / "plain.cfg", tmp_path / "commented.cfg"
    plain.write_text("".join(f"{line}\n" for line in lines))
    commented.write_text("".join(f"{line} # note {i}\n" for i, line in enumerate(lines)))
    a, b = sp.parse_experiment_config(plain), sp.parse_experiment_config(commented)
    assert np.array_equal(a.tau_grid, b.tau_grid)
    assert a.digest_items() == b.digest_items()
    assert a.output_path == b.output_path == "out.csv"


def _config_with(line):
    """A valid experiment config with line in place of its key's line (a key
    may be given once), or added."""
    lines = ["n = 60", "k = 2", "w = 1,1", "beta = 5", "lambda = 12", "tau_grid = 1:600:4"]
    key = line.split("=")[0].strip()
    return "".join(f"{kept}\n" for kept in lines if kept.split("=")[0].strip() != key) + line + "\n"


@pytest.mark.parametrize("line", ["replicates = two", "seed = 1.5", "n = sixty", "beta = x"])
def test_bad_config_value_names_the_file(tmp_path, line):
    path = tmp_path / "exp.cfg"
    path.write_text(_config_with(line))
    with pytest.raises(sp.ConfigError, match="exp.cfg: invalid literal|exp.cfg: could not convert"):
        sp.parse_experiment_config(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ("tau_grid = 1:x:4", "tau grid spec '1:x:4'"),
        ("replicates = 0", "need at least one replicate"),
        ("model = foo", "unknown model kind 'foo'"),
        ("norm = bar", "unknown norm kind 'bar'"),
    ],
)
def test_invalid_config_value_names_the_file(tmp_path, line, message):
    path = tmp_path / "exp.cfg"
    path.write_text(_config_with(line))
    with pytest.raises(sp.ConfigError, match=f"exp.cfg: {message}"):
        sp.parse_experiment_config(path)


def test_run_experiment_shape_and_determinism(tmp_path):
    cfg = small_config(tmp_path, replicates=2)
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    result = sp.run_experiment(cfg, out_path=out1)
    sp.run_experiment(cfg, out_path=out2)
    assert out1.read_bytes() == out2.read_bytes()  # byte-identical artifact
    text = out1.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# specluster v")
    assert lines[1].startswith("# config_hash=")
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "replicate,tau,dkest,dkest_bound,gn_modularity,nmi,misclassified_fraction"
    assert len(data) == 1 + 2 * 3  # header + replicates * grid points
    assert sum(1 for l in lines if l.startswith("# summary ")) == 3
    assert not np.isnan(result.mean_nmi("dkest"))
    assert not np.isnan(result.mean_nmi("oracle"))


def test_run_experiment_strong_signal_recovers(tmp_path):
    cfg = small_config(tmp_path, n=120, target_degree=40.0, out_in_ratio=8.0)
    result = sp.run_experiment(cfg)
    assert result.mean_nmi("oracle") >= 0.95


def test_run_experiment_records_a_failed_replicate_and_keeps_the_others(tmp_path, monkeypatch):
    cfg = small_config(tmp_path, replicates=3, seed=4)
    real = experiments.tau_scan

    def failing_at_seed_5(g, *args, seed, **kwargs):
        if seed == 5:
            raise sp.DegenerateModelError("fitted spectral gap vanished")
        return real(g, *args, seed=seed, **kwargs)

    monkeypatch.setattr(experiments, "tau_scan", failing_at_seed_5)
    result = sp.run_experiment(cfg)
    assert result.failures == [(1, "fitted spectral gap vanished")]
    assert [rep for rep, _ in result.rows] == [0, 0, 0, 2, 2, 2]
    assert {rep for rep, _, _, _ in result.chosen} == {0, 2}
    lines = (tmp_path / "exp.csv").read_text().splitlines()
    assert lines[-1] == "# failed replicate=1 error=fitted spectral gap vanished"
    data = [line for line in lines[4:] if not line.startswith("#")]
    assert [line.split(",")[0] for line in data] == ["0", "0", "0", "2", "2", "2"]


def test_config_hash_ignores_the_grid_order(tmp_path):
    # tau_scan sorts the grid, so the hash does too: the same CSV bytes
    ascending = small_config(tmp_path, tau_grid=[1.0, 8.0, 80.0])
    descending = small_config(tmp_path, tau_grid=[80.0, 8.0, 1.0])
    assert ascending.digest_items() == descending.digest_items()
    sp.run_experiment(ascending, out_path=tmp_path / "up.csv")
    sp.run_experiment(descending, out_path=tmp_path / "down.csv")
    assert (tmp_path / "up.csv").read_bytes() == (tmp_path / "down.csv").read_bytes()


@pytest.mark.parametrize("workers", [0, -1, True, 1.5, "2"])
def test_run_experiment_refuses_a_bad_worker_count_before_sampling(tmp_path, monkeypatch, workers):
    def refuse(*args, **kwargs):
        raise AssertionError("a graph was sampled")

    monkeypatch.setattr(experiments, "sample", refuse)
    with pytest.raises(sp.SpeclusterError, match="workers must be None or an integer of at least 1"):
        sp.run_experiment(small_config(tmp_path, replicates=2), workers=workers)


def test_run_experiment_writes_the_same_bytes_at_every_worker_count(tmp_path):
    cfg = small_config(tmp_path, replicates=3, seed=3)
    csvs = {}
    for workers in (1, 2, None):
        path = tmp_path / f"workers-{workers}.csv"
        sp.run_experiment(cfg, out_path=path, workers=workers)
        csvs[workers] = path.read_bytes()
    assert csvs[2] == csvs[1]
    assert csvs[None] == csvs[1]
    assert multiprocessing.active_children() == []


def test_parallel_run_records_the_same_failure_and_rows(tmp_path, monkeypatch):
    cfg = small_config(tmp_path, replicates=3, seed=4)
    real = experiments.tau_scan

    def failing_at_seed_5(g, *args, seed, **kwargs):
        if seed == 5:
            raise sp.DegenerateModelError("fitted spectral gap vanished")
        return real(g, *args, seed=seed, **kwargs)

    monkeypatch.setattr(experiments, "tau_scan", failing_at_seed_5)
    serial = sp.run_experiment(cfg, out_path=tmp_path / "serial.csv", workers=1)
    parallel = sp.run_experiment(cfg, out_path=tmp_path / "parallel.csv", workers=2)
    assert parallel.failures == serial.failures == [(1, "fitted spectral gap vanished")]
    assert [rep for rep, _ in parallel.rows] == [0, 0, 0, 2, 2, 2]
    assert parallel.chosen == serial.chosen
    # the CSV holds every row value but the wall-clock seconds
    assert (tmp_path / "parallel.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


def test_parallel_run_raises_a_foreign_error_and_leaves_no_process(tmp_path, monkeypatch):
    cfg = small_config(tmp_path, replicates=3, seed=4)
    real = experiments.tau_scan

    def broken_at_seed_5(g, *args, seed, **kwargs):
        if seed == 5:
            raise RuntimeError(f"not a specluster error, pid {os.getpid()}")
        return real(g, *args, seed=seed, **kwargs)

    monkeypatch.setattr(experiments, "tau_scan", broken_at_seed_5)
    with pytest.raises(RuntimeError, match="not a specluster error") as info:
        sp.run_experiment(cfg, workers=2)
    assert str(info.value) != f"not a specluster error, pid {os.getpid()}"  # raised in a worker
    assert multiprocessing.active_children() == []


def test_one_worker_runs_in_the_calling_thread_and_process(tmp_path, monkeypatch):
    def refuse_thread(self):
        raise AssertionError("run_experiment started a thread")

    def refuse_process(self):
        raise AssertionError("run_experiment started a process")

    monkeypatch.setattr(threading.Thread, "start", refuse_thread)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse_process)
    result = sp.run_experiment(small_config(tmp_path, replicates=2), workers=1)
    assert not result.failures and len(result.rows) == 6


def test_each_replicate_scans_in_one_process(tmp_path, monkeypatch):
    # processes never nest: a replicate's tau_scan, forked or not, forks nothing
    real = experiments.tau_scan
    workers = []

    def spy(*args, **kwargs):
        workers.append(kwargs.get("workers", "missing"))
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "tau_scan", spy)
    sp.run_experiment(small_config(tmp_path, replicates=3), workers=1)
    assert workers == [1, 1, 1]
