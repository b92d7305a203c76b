"""Self-tests of the benchmark: python3 -m pytest perfbench -q

Tiny-size runs of every workload must print every metric of
BENCHMARK.json with its unit, put each layer where the benchmark
predicts it, and keep every child span's self time within its parent.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import hodges_lehmann, tail
from spans import Tracer, self_times, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def _run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module", params=WORKLOADS)
def tiny(request):
    workload = request.param
    results = {}
    for trace in (0, 1):
        done = _run(workload, trace)
        assert done.returncode == 0, done.stderr
        results[trace] = (done.stdout,
                          json.loads(done.stdout.strip().splitlines()[-1]))
    spans = json.loads((HERE / "out" / ("%s-seed%d-tiny-spans.json"
                                        % (workload, SEED))).read_text())
    return workload, results, spans


def test_every_metric_with_unit_and_direction(tiny):
    _, results, _ = tiny
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        stdout, result = results[trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        for entry in SPEC[kind]:
            metric = result["metrics"][entry["name"]]
            assert metric["unit"] == entry["unit"]
            assert isinstance(metric["value"], (int, float))
            assert entry["better"] in ("lower", "higher")
            assert "%s is better" % entry["better"] in stdout


def test_end_to_end_metrics_are_not_zero(tiny):
    _, results, _ = tiny
    for name, metric in results[0][1]["metrics"].items():
        assert metric["value"] > 0, name


def test_layers_show_where_predicted(tiny):
    workload, results, _ = tiny
    layer = {k: v["value"] for k, v in results[1][1]["metrics"].items()}
    zero = {
        "sweep": ("lp.construct.", "dual_construct."),
        "align": ("dup.", "spectral.oracle.", "lp.", "dual_construct."),
        "construct": ("alignment.", "assignment.", "dup.",
                      "spectral.oracle.", "lp.master.", "experiment."),
    }[workload]
    for name, value in layer.items():
        if name.startswith(zero):
            assert value == 0, name
    busy = {
        "sweep": ("dup.dup_bound.calls", "spectral.oracle.calls",
                  "lp.master.calls", "alignment.cdpm_align.calls",
                  "assignment.solve_assignment_max.calls"),
        "align": ("alignment.cd_align.calls", "alignment.cdpm_align.calls",
                  "assignment.solve_assignment_max.calls",
                  "spectral.eigendecompose.calls"),
        "construct": ("lp.construct.calls", "lp.construct.rows",
                      "dual_construct.construct_dual.calls",
                      "graphs.erdos_renyi.calls"),
    }[workload]
    for name in busy:
        assert layer[name] > 0, name


def test_child_self_time_within_parent(tiny):
    _, _, spans = tiny
    assert spans
    for span in spans:
        duration = span["end"] - span["start"]
        children = sum(s["end"] - s["start"] for s in spans
                       if s["parent"] is not None
                       and spans[s["parent"]] is span)
        assert duration - children >= -1e-9
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert duration - children <= parent["end"] - parent["start"]
            assert parent["start"] <= span["start"] <= span["end"] \
                <= parent["end"]


def test_self_time_leaves_out_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    own = self_times(tracer.spans)
    outer = tracer.spans[0]
    inner = sum(s.end - s.start for s in tracer.spans[1:])
    assert own[0] == pytest.approx(outer.end - outer.start - inner)
    table = summarize(tracer.spans)
    assert table["inner"][0] == 2 and table["outer"][0] == 1


def test_tail_keeps_ten_items_above():
    values = list(range(1, 101))
    assert tail(values) == (90, 90)
    q, value = tail(list(range(1, 41)))
    assert q == 75 and sum(v > value for v in range(1, 41)) >= 10


def test_hodges_lehmann_ignores_one_slow_item():
    assert hodges_lehmann([1.0, 1.0, 1.0, 10.0]) == 1.0
    assert hodges_lehmann([1.0, 2.0, 3.0]) == 2.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("sweep", 0, cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
