"""Command-line interface tests, run in process through main(argv)."""

import pytest

from gftdual import __version__
from gftdual.alignment import SolverConfig
from gftdual.cli import _build_parser, main
from gftdual.experiment import CSV_HEADER, ExperimentConfig


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
    complete = _gen(tmp_path, "k10.txt", "--er", "10", "1.0")
    sparse = _gen(tmp_path, "g10.txt", "--er", "10", "0.4", "--seed", "62")
    capsys.readouterr()
    for pair, which in (([complete, sparse], "first"),
                        ([sparse, complete], "second")):
        assert main(["dualness", *pair]) == 2
        dualness_err = capsys.readouterr().err
        assert main(["bound", *pair]) == 2
        # both commands check the pair the same way
        assert capsys.readouterr().err == dualness_err
        assert dualness_err.startswith(
            "error: %s graph has repeated eigenvalues (min gap " % which)


def test_bound_rejects_graphs_of_different_sizes(tmp_path, capsys):
    g1 = _gen(tmp_path, "g1.txt", "--er", "10", "0.4", "--seed", "62")
    g2 = _gen(tmp_path, "g2.txt", "--er", "8", "0.4", "--seed", "63")
    capsys.readouterr()
    assert main(["bound", g1, g2]) == 2
    assert capsys.readouterr().err == (
        "error: graphs have different sizes: 10 vs 8\n")


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
    heavy = _gen(tmp_path, "c16.txt", "--circulant", "16",
                 "1:1000000,3:500000")
    assert main(["circulant-check", heavy, heavy]) == 0
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


def test_malformed_graph_file_exits_one(tmp_path, capsys):
    # a file error like a missing file, not the solver-error code 2
    good = _gen(tmp_path, "g1.txt", "--er", "8", "0.5", "--seed", "3")
    bad = tmp_path / "bad.txt"
    bad.write_text("8\n0 1 x\n")
    capsys.readouterr()
    for argv in (["dualness", good, str(bad)], ["bound", good, str(bad)],
                 ["dual-construct", str(bad)]):
        assert main(argv) == 1, argv
        assert "error: line 2:" in capsys.readouterr().err, argv


@pytest.mark.parametrize("text, message", [
    ("8\n0 9 1.0\n", "line 2: edge (0, 9) outside 0..7"),
    ("8\n3 3 1.0\n", "line 2: self loop at vertex 3"),
    ("8\n0 1 -2.5\n", "line 2: edge (0, 1) has weight -2.5"),
    ("8\n0 1 1.0\n1 0 1.0\n", "line 3: duplicate edge (0, 1)"),
    # numpy rejects a 10**12-square array before allocating it
    ("1000000000000\n", "line 1: vertex count 1000000000000 is too large"),
])
def test_bad_edge_in_graph_file_exits_one(tmp_path, capsys, text, message):
    # a graph file that parses but names a bad edge or an oversized vertex
    # count is a file error too
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert main(["dual-construct", str(bad)]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message


def test_non_utf8_input_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00")
    for argv in (["dual-construct", str(bad)],
                 ["plot", str(bad), "-o", str(tmp_path / "fig.svg")]):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: 'utf-8' codec"), argv
    assert not (tmp_path / "fig.svg").exists()


def test_malformed_csv_exits_one(tmp_path, capsys):
    csv_path = tmp_path / "runs.csv"
    csv_path.write_text("n,p,trial\n")
    assert main(["plot", str(csv_path),
                 "-o", str(tmp_path / "fig.svg")]) == 1
    assert "error: line 1: unexpected CSV header" in capsys.readouterr().err
    assert not (tmp_path / "fig.svg").exists()


def test_non_finite_csv_exits_one(tmp_path, capsys):
    # the plot would otherwise draw the series at y = nan and exit 0
    csv_path = tmp_path / "runs.csv"
    csv_path.write_text(CSV_HEADER + "\n6,0.4,0,CD,5.0,1.0,3,3,0,2\n"
                        "8,0.4,0,CD,nan,1.0,3,3,0,2\n")
    assert main(["plot", str(csv_path),
                 "-o", str(tmp_path / "fig.svg")]) == 1
    assert capsys.readouterr().err.startswith("error: line 3: ")
    assert not (tmp_path / "fig.svg").exists()


def test_header_only_csv_exits_one(tmp_path, capsys):
    csv_path = tmp_path / "runs.csv"
    csv_path.write_text(CSV_HEADER + "\n")
    assert main(["plot", str(csv_path),
                 "-o", str(tmp_path / "fig.svg")]) == 1
    assert capsys.readouterr().err.startswith("error: line 2: ")
    assert not (tmp_path / "fig.svg").exists()


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


@pytest.mark.parametrize("argv, config", [
    (["experiment"], ExperimentConfig()),
    (["dualness", "g1.txt", "g2.txt"], SolverConfig()),
], ids=["experiment", "dualness"])
def test_flag_defaults_are_the_config_defaults(argv, config):
    args = _build_parser().parse_args(argv)
    assert args.configure(args) == config


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
            (["dualness", *missing, "--epsilon", "inf"], "epsilon"),
            (["experiment", "--n", "10,5"], "ascending"),
            (["experiment", "--p", "1.5"], "p must"),
            (["experiment", "--methods", "cd,foo"], "unknown method")):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1, argv
        err = capsys.readouterr().err
        assert "usage:" in err and message in err, argv


@pytest.mark.parametrize("command, gaps, plain", [
    (["experiment", "--trials", "1", "--restarts", "2", "--n"], "6,,8", "6,8"),
    (["experiment", "--trials", "1", "--restarts", "2", "--n", "6",
      "--methods"], "cd,,dup", "cd,dup"),
    (["gen", "--circulant", "6"], "1,,2", "1,2"),
], ids=["n", "methods", "offsets"])
def test_comma_lists_skip_empty_items(tmp_path, command, gaps, plain):
    # every comma list is read by one rule; --methods cd,,dup failed on
    # the method ''
    outputs = []
    for name, items in (("gaps", gaps), ("plain", plain)):
        path = tmp_path / name
        assert main([*command, items, "-o", str(path)]) == 0
        # all but an experiment's last column, its wall time
        outputs.append([line.rsplit(",", 1)[0]
                        for line in path.read_text().splitlines()])
    assert outputs[0] == outputs[1]


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


@pytest.mark.parametrize("argv", [
    ["gen", "--er", "1_0", "0.4"],
    ["gen", "--er", "10", "0.\u0664"],
    ["gen", "--er", "10", "0.4", "--seed", "1_0"],
    ["gen", "--circulant", "\u0661\u0662", "1:1"],
    ["gen", "--circulant", "12", "1_0:1"],
    ["gen", "--circulant", "12", "1:1_0"],
    ["gen", "--circulant", "12", "\u0661"],
    ["experiment", "--n", "1_0"],
    ["experiment", "--n", "6,\u0668"],
    ["experiment", "--p", "0.4_0"],
    ["experiment", "--trials", "1_0"],
    ["experiment", "--restarts", "2_0"],
    ["experiment", "--epsilon", "1e-1_0"],
    ["experiment", "--max-iter", "1_0"],
    ["experiment", "--seed", "\u0663"],
    ["dualness", "g1.txt", "g2.txt", "--restarts", " 5"],
    ["dualness", "g1.txt", "g2.txt", "--seed", "5 "],
], ids=lambda argv: " ".join(argv))
def test_numeric_options_follow_the_parse_number_rule(argv, capsys):
    # int() and float() would read each value as a valid number: 10, 0.4,
    # 12 and so on
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "usage:" in err and "not a plain ASCII number" in err
