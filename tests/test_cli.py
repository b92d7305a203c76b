"""Command-line interface tests, run in process through main(argv)."""

import pytest

from gftdual import __version__
from gftdual.cli import main
from gftdual.experiment import CSV_HEADER


def _gen(tmp_path, name, *args):
    path = tmp_path / name
    assert main(["gen", *args, "-o", str(path)]) == 0
    return str(path)


def test_gen_writes_parseable_graph(tmp_path, capsys):
    path = _gen(tmp_path, "er.txt", "--er", "8", "0.5", "--seed", "3")
    text = open(path).read()
    assert text.splitlines()[0].split() == ["8"]
    # stdout mode prints the same text
    assert main(["gen", "--er", "8", "0.5", "--seed", "3"]) == 0
    assert capsys.readouterr().out == text


def test_gen_requires_exactly_one_family(tmp_path, capsys):
    # a usage error, so exit 1 and not the solver-error code 2
    with pytest.raises(SystemExit) as info:
        main(["gen"])
    assert info.value.code == 1
    assert "exactly one" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["gen", "--er", "4", "0.5", "--circulant", "4", "1:1.0"])
    assert info.value.code == 1
    assert "exactly one" in capsys.readouterr().err


def test_dualness_pipeline(tmp_path, capsys):
    g1 = _gen(tmp_path, "g1.txt", "--er", "10", "0.4", "--seed", "62")
    g2 = _gen(tmp_path, "g2.txt", "--er", "10", "0.4", "--seed", "63")
    capsys.readouterr()
    code = main(["dualness", g1, g2, "--method", "cdpm",
                 "--restarts", "5", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("objective ")
    assert lines[1].startswith("dualness ")
    objective = float(lines[0].split()[1])
    dualness = float(lines[1].split()[1])
    assert 0.0 < objective <= 10.0 + 1e-9
    assert dualness > 0.0


def test_bound_pipeline_and_weak_duality(tmp_path, capsys):
    g1 = _gen(tmp_path, "g1.txt", "--er", "10", "0.4", "--seed", "62")
    g2 = _gen(tmp_path, "g2.txt", "--er", "10", "0.4", "--seed", "63")
    capsys.readouterr()
    assert main(["bound", g1, g2]) == 0
    out = capsys.readouterr().out
    bound = float(out.splitlines()[0].split()[1])
    assert out.splitlines()[1].startswith("cuts ")
    assert main(["dualness", g1, g2, "--restarts", "20"]) == 0
    objective = float(capsys.readouterr().out.splitlines()[0].split()[1])
    assert objective <= bound + 1e-6


def test_bound_prints_sweeps_and_gap(tmp_path, capsys):
    g1 = _gen(tmp_path, "g1.txt", "--er", "10", "0.4", "--seed", "62")
    g2 = _gen(tmp_path, "g2.txt", "--er", "10", "0.4", "--seed", "63")
    capsys.readouterr()
    assert main(["bound", g1, g2]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["bound", "cuts", "sweeps",
                                                   "gap"]
    sweeps = int(lines[2].split()[1])
    gap = float(lines[3].split()[1])
    assert 0 < sweeps < 20000
    assert -1e-12 <= gap <= 1e-7 + 1e-12


def test_repeated_eigenvalues_exit_code(tmp_path, capsys):
    complete = _gen(tmp_path, "k4.txt", "--er", "4", "1.0")
    capsys.readouterr()
    assert main(["dualness", complete, complete]) == 2
    assert main(["bound", complete, complete]) == 2
    err = capsys.readouterr().err
    assert "repeated eigenvalues" in err


def test_dual_construct_both_statuses(tmp_path, capsys):
    edge = tmp_path / "edge.txt"
    edge.write_text("2\n0 1 1.0\n")
    assert main(["dual-construct", str(edge)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "FEASIBLE"
    assert out.splitlines()[1].startswith("lambda ")
    dense = _gen(tmp_path, "dense.txt", "--er", "20", "0.5", "--seed", "0")
    capsys.readouterr()
    assert main(["dual-construct", dense]) == 0
    assert capsys.readouterr().out == "INFEASIBLE\n"


def test_circulant_check(tmp_path, capsys):
    c1 = _gen(tmp_path, "c1.txt", "--circulant", "8", "1:1.0,2:0.5")
    c2 = _gen(tmp_path, "c2.txt", "--circulant", "8", "3")
    capsys.readouterr()
    assert main(["circulant-check", c1, c2]) == 0
    residual = float(capsys.readouterr().out.split()[1])
    assert residual <= 1e-9
    ring = _gen(tmp_path, "ring.txt", "--circulant", "6", "1")
    tree = _gen(tmp_path, "tree.txt", "--er", "6", "0.3", "--seed", "2")
    capsys.readouterr()
    assert main(["circulant-check", ring, tree]) == 2


def test_experiment_and_plot_outputs(tmp_path):
    csv_path = tmp_path / "runs.csv"
    svg_path = tmp_path / "fig.svg"
    code = main(["experiment", "--n", "6,8", "--trials", "1",
                 "--restarts", "2", "--seed", "5",
                 "-o", str(csv_path), "--plot", str(svg_path)])
    assert code == 0
    text = csv_path.read_text()
    assert text.startswith(CSV_HEADER + "\n")
    assert len(text.splitlines()) == 1 + 2 * 3
    svg = svg_path.read_text()
    assert svg.startswith("<svg ")
    # replotting from the CSV reproduces the figure byte for byte
    replot = tmp_path / "fig2.svg"
    assert main(["plot", str(csv_path), "-o", str(replot)]) == 0
    assert replot.read_text() == svg


def test_missing_file_exits_one(tmp_path, capsys):
    assert main(["dualness", str(tmp_path / "a.txt"),
                 str(tmp_path / "b.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["dualness"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 1
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_invalid_config_surfaces_as_solver_error(tmp_path, capsys):
    # ValueError from config validation is not a GftDualError; argparse
    # type checks catch malformed numbers before that
    with pytest.raises(SystemExit) as info:
        main(["experiment", "--trials", "x"])
    assert info.value.code == 1
    capsys.readouterr()
    # well-formed but out-of-range values are usage errors too, reported
    # before any graph file is read
    missing = [str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]
    for argv, message in (
            (["dualness", *missing, "--restarts", "0"], "restarts"),
            (["dualness", *missing, "--max-iter", "0"], "max_iterations"),
            (["dualness", *missing, "--epsilon", "0"], "epsilon"),
            (["experiment", "--n", "10,5"], "ascending"),
            (["experiment", "--p", "1.5"], "p must"),
            (["experiment", "--methods", "cd,foo"], "unknown method")):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1, argv
        err = capsys.readouterr().err
        assert "usage:" in err and message in err, argv


def test_gen_option_values_are_usage_errors(tmp_path, capsys):
    for argv, message in (
            (["--er", "abc", "0.4"], "--er abc 0.4"),
            (["--circulant", "12", "1:x"], "--circulant 12 1:x"),
            (["--er", "20", "1.5"], "probability"),
            (["--er", "0", "0.4"], "vertex count"),
            (["--circulant", "12", "7:1"], "offset 7"),
            (["--circulant", "12", "2:-1"], "weight")):
        with pytest.raises(SystemExit) as info:
            main(["gen", *argv, "-o", str(tmp_path / "g.txt")])
        assert info.value.code == 1, argv
        err = capsys.readouterr().err
        assert "usage:" in err and message in err, argv
    assert not (tmp_path / "g.txt").exists()
