import pytest

import specluster as sp
from specluster.cli import main


def write_model_config(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("n = 40\nk = 2\nsizes = 20,20\nb = 0.9,0.05,0.05,0.9\n")
    return cfg


def test_generate_rsc_error_pipeline(tmp_path, capsys):
    cfg = write_model_config(tmp_path)
    edges = tmp_path / "edges.txt"
    labels = tmp_path / "labels.txt"
    part_out = tmp_path / "part.txt"
    assert main([
        "generate", str(cfg), "--seed", "1", "--out", str(edges),
        "--labels-out", str(labels),
    ]) == 0
    assert main([
        "rsc", str(edges), "--k", "2", "--tau", "1.0", "--seed", "0",
        "--out", str(part_out),
    ]) == 0
    est = sp.load_partition(part_out)
    truth = sp.load_partition(labels)
    assert sp.clustering_error(est, truth).error == 0.0


def test_generate_degree_corrected_is_reproducible(tmp_path):
    theta = tmp_path / "theta.txt"
    theta.write_text("".join(f"{1.0 / (1 + i % 20)}\n" for i in range(60)))
    cfg = tmp_path / "model.cfg"
    cfg.write_text("n = 60\nk = 2\nsizes = 40,20\nb = 0.9,0.2,0.2,0.8\ntheta_file = theta.txt\n")
    outs = [tmp_path / "a.txt", tmp_path / "b.txt"]
    labels = tmp_path / "labels.txt"
    for out in outs:
        assert main([
            "generate", str(cfg), "--seed", "3", "--out", str(out), "--labels-out", str(labels),
        ]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert sp.load_edge_list(outs[0]).num_edges > 0
    assert sp.load_partition(labels).labels.tolist() == [0] * 40 + [1] * 20


def test_rsc_on_two_cliques(tmp_path):
    edges = tmp_path / "cliques.txt"
    lines = [f"{i} {j}" for i in range(5) for j in range(i + 1, 5)]
    lines += [f"{5+i} {5+j}" for i in range(5) for j in range(i + 1, 5)]
    edges.write_text("\n".join(lines) + "\n")
    out = tmp_path / "part.txt"
    assert main(["rsc", str(edges), "--k", "2", "--tau", "0", "--out", str(out)]) == 0
    part = sp.load_partition(out)
    assert len(set(part.labels[:5])) == 1
    assert len(set(part.labels[5:])) == 1
    assert part.labels[0] != part.labels[5]


def test_scan_subcommand(tmp_path):
    cfg = write_model_config(tmp_path)
    edges = tmp_path / "edges.txt"
    labels = tmp_path / "labels.txt"
    main(["generate", str(cfg), "--seed", "2", "--out", str(edges), "--labels-out", str(labels)])
    out = tmp_path / "scan.csv"
    assert main([
        "scan", str(edges), "--k", "2", "--tau-grid", "1:100:3",
        "--truth", str(labels), "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "tau,dkest,gn_modularity,nmi,misclassified_fraction,seconds"
    assert lines[-1].startswith("# chosen dkest=")


def write_isolated_last_node_graph(tmp_path):
    """Two 30-node blocks, each a ring with chords; node 59 has no edge, so
    the edge list's highest index is 58."""
    edges = tmp_path / "edges.txt"
    pairs = [(i, j) for i in range(59) for j in range(i + 1, 59) if (i < 30) == (j < 30) and j - i in (1, 2, 5)]
    pairs += [(0, 30), (15, 45)]
    edges.write_text("".join(f"{i} {j}\n" for i, j in pairs))
    return edges


def scan_rows(path):
    # the data rows without the wall-clock seconds column
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines() if not line.startswith("#")]


def test_scan_truth_sets_the_node_count(tmp_path):
    edges = write_isolated_last_node_graph(tmp_path)
    labels = tmp_path / "truth.txt"
    sp.save_partition(sp.Partition([0] * 30 + [1] * 30, 2), labels)
    out = tmp_path / "scan.csv"
    assert main([
        "scan", str(edges), "--k", "2", "--truth", str(labels), "--tau-grid", "1:60:3", "--out", str(out),
    ]) == 0
    g = sp.load_edge_list(edges, n_hint=60)
    assert g.n == 60 and g.degrees[59] == 0
    expected = tmp_path / "expected.csv"
    sp.tau_scan(
        g, 2, sp.parse_tau_grid_spec("1:60:3"), criteria=("dkest", "gn", "oracle"), truth=sp.load_partition(labels)
    ).to_csv(expected)
    assert scan_rows(out) == scan_rows(expected)


def test_scan_refuses_a_truth_shorter_than_the_graph(tmp_path, capsys):
    edges = write_isolated_last_node_graph(tmp_path)
    labels = tmp_path / "truth.txt"
    sp.save_partition(sp.Partition([0] * 30 + [1] * 28, 2), labels)
    code = main([
        "scan", str(edges), "--k", "2", "--truth", str(labels), "--tau-grid", "1:60:3",
        "--out", str(tmp_path / "scan.csv"),
    ])
    assert code == 2
    assert "reference partition covers 58 nodes; the graph has 59" in capsys.readouterr().err


def test_theory_subcommand(tmp_path, capsys):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("n = 3000\nk = 2\nsizes = 1500,1500\nb = 0.01,0.0025,0.0025,0.003\n")
    assert main(["theory", str(cfg), "--tau", "3000"]) == 0
    text = capsys.readouterr().out
    assert "epsilon = " in text
    assert "eigen_gap = " in text
    assert "delta_tau = " in text
    values = dict(line.split(" = ") for line in text.strip().splitlines())
    assert float(values["epsilon"]) > 0
    assert float(values["delta_limit"]) > 0


def test_theory_subcommand_writes_to_out_what_it_prints(tmp_path, capsys):
    cfg = write_model_config(tmp_path)
    assert main(["theory", str(cfg), "--tau", "40"]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report.txt"
    assert main(["theory", str(cfg), "--tau", "40", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert "delta_tau = " in printed
    assert out.read_text() == printed


def test_theory_subcommand_rejects_a_degree_corrected_model(tmp_path, capsys):
    (tmp_path / "theta.txt").write_text("1.0\n" * 40)
    cfg = tmp_path / "model.cfg"
    cfg.write_text("n = 40\nk = 2\nsizes = 20,20\nb = 0.9,0.05,0.05,0.9\ntheta_file = theta.txt\n")
    out = tmp_path / "report.txt"
    assert main(["theory", str(cfg), "--tau", "40", "--out", str(out)]) == 2
    assert "error: theory subcommand supports plain block models only" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tau", ["-1", "nan", "inf"])
def test_theory_subcommand_rejects_negative_or_non_finite_tau(tmp_path, capsys, tau):
    out = tmp_path / "report.txt"
    assert main(["theory", str(write_model_config(tmp_path)), f"--tau={tau}", "--out", str(out)]) == 2
    assert "tau must be non-negative and finite" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_subcommand(tmp_path):
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "exp.csv"
    cfg.write_text(
        "n = 60\nk = 2\nw = 1,1\nbeta = 6\nlambda = 20\n"
        f"tau_grid = 1:60:2\nreplicates = 1\nseed = 3\nout = {out}\n"
    )
    assert main(["experiment", str(cfg)]) == 0
    assert out.exists()


@pytest.mark.parametrize(
    "sizes, message",
    [
        ("n = 60\nk = 0\nw =\n", "k=0: need at least one block"),
        ("n = 3\nk = 5\nw = 1,1,1,1,1\n", "n=3 is below k=5"),
        ("n = -5\nk = 2\nw = 1,1\n", "n=-5 is below k=2"),
    ],
    ids=["no-blocks", "fewer-nodes-than-blocks", "negative-n"],
)
def test_experiment_block_count_errors_name_the_file(tmp_path, capsys, sizes, message):
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "exp.csv"
    cfg.write_text(sizes + f"beta = 6\nlambda = 20\ntau_grid = 1:60:2\nout = {out}\n")
    assert main(["experiment", str(cfg)]) == 2
    assert f"error: {cfg}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_usage_errors_exit_one(tmp_path):
    assert main(["rsc", "missing.txt", "--bogus-flag"]) == 1
    assert main(["unknown-command"]) == 1
    assert main(["rsc"]) == 1  # missing required arguments


def test_runtime_errors_exit_two(tmp_path):
    assert main(["rsc", str(tmp_path / "missing.txt"), "--k", "2", "--out", "x"]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\nnot an edge\n")
    assert main(["rsc", str(bad), "--k", "2", "--out", str(tmp_path / "p.txt")]) == 2
    edges = tmp_path / "ok.txt"
    edges.write_text("0 1\n1 2\n")
    assert main(["scan", str(edges), "--k", "2", "--tau-grid", "9:1:3",
                 "--out", str(tmp_path / "s.csv")]) == 2


def test_generate_rejects_nan_theta(tmp_path, capsys):
    theta = tmp_path / "theta.txt"
    theta.write_text("1.0\nnan\n" + "1.0\n" * 38)
    cfg = tmp_path / "model.cfg"
    cfg.write_text("n = 40\nk = 2\nsizes = 20,20\nb = 0.9,0.05,0.05,0.9\ntheta_file = theta.txt\n")
    assert main(["generate", str(cfg), "--out", str(tmp_path / "g.txt")]) == 2
    assert f"error: {cfg}: theta entries must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "g.txt").exists()


def test_generate_names_a_malformed_theta_file(tmp_path, capsys):
    (tmp_path / "theta.txt").write_text("abc\n")
    cfg = tmp_path / "model.cfg"
    cfg.write_text("n = 40\nk = 2\nsizes = 20,20\nb = 0.9,0.05,0.05,0.9\ntheta_file = theta.txt\n")
    assert main(["generate", str(cfg), "--out", str(tmp_path / "g.txt")]) == 2
    err = capsys.readouterr().err
    assert f"error: {cfg}: theta_file {tmp_path / 'theta.txt'}: " in err
    assert not (tmp_path / "g.txt").exists()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "specluster" in capsys.readouterr().out
