"""Experiment harness: determinism, CSV round trips, SVG geometry."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gftdual import experiment
from gftdual.errors import (EmptyInputError, NonFiniteEntryError, ParseError,
                            ResampleCapExceeded)
from gftdual.alignment import CDPM
from gftdual.experiment import (CSV_HEADER, DUP, METHODS, PLOT_BOTTOM,
                                PLOT_LEFT, PLOT_RIGHT, PLOT_TOP,
                                Y_PAD_FRACTION, ExperimentConfig,
                                ExperimentRecord, plot_fig1, read_csv,
                                run_experiment, write_csv)


class FakeClock:
    """Monotonic counter advancing a fixed step per call."""

    def __init__(self, step=0.002):
        self.step = step
        self.now = 0.0

    def __call__(self):
        self.now += self.step
        return self.now


def _small_config(**overrides):
    settings = dict(n_values=(6, 8), p=0.4, trials=2, restarts=3, seed=5)
    settings.update(overrides)
    return ExperimentConfig(**settings)


def test_run_is_deterministic_to_the_byte():
    config = _small_config()
    first = write_csv(run_experiment(config, clock=FakeClock()))
    second = write_csv(run_experiment(config, clock=FakeClock()))
    assert first == second


def test_record_layout_and_invariants():
    # records come sorted by (n, trial, method) in any requested order
    for methods in (METHODS, ("DUP", "CD")):
        _check_record_layout(methods)


def _check_record_layout(methods):
    config = _small_config(methods=methods)
    records = run_experiment(config, clock=FakeClock())
    assert len(records) == 2 * 2 * len(methods)
    keys = [(r.n, r.trial, r.method) for r in records]
    assert keys == sorted(keys)
    for r in records:
        assert r.n in (6, 8)
        assert r.p == 0.4
        assert 0 <= r.trial < 2
        assert r.method in methods
        assert r.objective <= r.n + 1e-6
        expected = np.sqrt(max(0.0, 2.0 * r.n - 2.0 * r.objective))
        assert abs(r.dualness - expected) <= 1e-9
        assert r.iterations >= 0
        assert r.resample_count >= 0
        # fixed-step clock: every record spans exactly one 2 ms step
        assert r.wall_time_ms == 2
        if r.method == DUP:
            assert r.restarts_used == 0
        else:
            assert r.restarts_used == 3


def test_method_subset_gets_identical_records():
    full = run_experiment(_small_config(), clock=FakeClock())
    only_cd = run_experiment(_small_config(methods=("CD",)),
                             clock=FakeClock())
    assert only_cd == [r for r in full if r.method == "CD"]
    only_cdpm = run_experiment(_small_config(methods=("CDPM",)),
                               clock=FakeClock())
    assert only_cdpm == [r for r in full if r.method == "CDPM"]


# every finite float: subnormals, -0.0, the largest double (read_csv
# refuses NaN and inf)
_floats = st.floats(allow_nan=False, allow_infinity=False)
_counts = st.integers(min_value=0, max_value=2**63 - 1)
_records = st.builds(ExperimentRecord, n=_counts, p=_floats, trial=_counts,
                     method=st.sampled_from(METHODS), objective=_floats,
                     dualness=_floats, iterations=_counts,
                     restarts_used=_counts, resample_count=_counts,
                     wall_time_ms=_counts)


@settings(max_examples=60, deadline=None)
@given(records=st.lists(_records, min_size=1, max_size=5))
def test_csv_round_trip_is_exact(records):
    text = write_csv(records)
    assert text.startswith(CSV_HEADER + "\n")
    assert text.endswith("\n")
    assert read_csv(text) == records


def test_dup_rows_keep_the_csv_schema(monkeypatch):
    # the ascent's sweeps and gap are not columns; DUP iterations count cuts
    bounds = []
    dup_bound = experiment.dup_bound

    def recording(coupling):
        bounds.append(dup_bound(coupling))
        return bounds[-1]

    monkeypatch.setattr(experiment, "dup_bound", recording)
    records = run_experiment(_small_config(methods=(DUP,)), clock=FakeClock())
    header = write_csv(records).splitlines()[0]
    assert header == ("n,p,trial,method,objective,dualness,iterations,"
                      "restarts_used,resample_count,wall_time_ms")
    assert [r.iterations for r in records] == [b.cuts for b in bounds]
    assert [r.objective for r in records] == [b.bound for b in bounds]


def test_write_csv_rejects_empty():
    with pytest.raises(EmptyInputError):
        write_csv([])


def test_read_csv_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        read_csv("")
    assert info.value.line_number == 1
    with pytest.raises(ParseError) as info:
        read_csv("wrong,header\n")
    assert info.value.line_number == 1
    # a header with no records, as write_csv refuses to write
    with pytest.raises(ParseError) as info:
        read_csv(CSV_HEADER + "\n")
    assert info.value.line_number == 2
    good_row = "6,0.4,0,CD,5.0,1.0,3,3,0,2"
    with pytest.raises(ParseError) as info:
        read_csv(CSV_HEADER + "\n" + good_row + "\n1,2,3\n")
    assert info.value.line_number == 3
    bad_field = good_row.replace("5.0", "five")
    with pytest.raises(ParseError) as info:
        read_csv(CSV_HEADER + "\n" + bad_field + "\n")
    assert info.value.line_number == 2


@pytest.mark.parametrize("row", [
    "6,nan,0,CD,5.0,1.0,3,3,0,2",
    "6,0.4,0,CD,nan,1.0,3,3,0,2",
    "6,0.4,0,CD,5.0,inf,3,3,0,2",
    "6,0.4,0,CD,-inf,1.0,3,3,0,2",
])
def test_read_csv_rejects_non_finite_numbers(row):
    good_row = "6,0.4,0,CD,5.0,1.0,3,3,0,2"
    with pytest.raises(ParseError, match="finite") as info:
        read_csv(CSV_HEADER + "\n" + good_row + "\n" + row + "\n")
    assert info.value.line_number == 3


@pytest.mark.parametrize("field,value", [
    ("p", float("nan")),
    ("objective", float("inf")),
    ("dualness", float("inf")),
    ("objective", -float("inf")),
])
def test_write_csv_refuses_what_read_csv_refuses(field, value):
    # an inf objective used to be written, and read_csv then failed at
    # line 2: every CSV write_csv produces must read back
    good = ExperimentRecord(6, 0.4, 0, "CD", 5.0, 1.0, 1, 1, 0, 1)
    bad = ExperimentRecord(**{**good.__dict__, field: value})
    assert read_csv(write_csv([good])) == [good]
    with pytest.raises(NonFiniteEntryError, match="finite"):
        write_csv([good, bad])


def test_resample_cap_on_degenerate_cell():
    # the empty graph has all-zero spectrum, so no resample ever succeeds
    config = ExperimentConfig(n_values=(2,), p=0.0, trials=1, restarts=1,
                              methods=("CD",))
    with pytest.raises(ResampleCapExceeded):
        run_experiment(config, clock=FakeClock())


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_values=())
    with pytest.raises(ValueError):
        ExperimentConfig(n_values=(10, 10))
    with pytest.raises(ValueError):
        ExperimentConfig(n_values=(15, 10))
    with pytest.raises(ValueError):
        ExperimentConfig(p=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(restarts=0)
    # counts must be integers, not silently truncated or failing in range()
    for count in ({"restarts": 2.5}, {"max_iterations": 2.5},
                  {"trials": 1.5}, {"n_values": (10.5,)},
                  {"n_values": (10, 15.0)}, {"trials": True},
                  {"restarts": True}, {"n_values": (True, 10)}):
        with pytest.raises(ValueError, match="must be an integer"):
            ExperimentConfig(**count)
    config = ExperimentConfig(n_values=(np.int64(10),), trials=np.int64(2))
    assert type(config.n_values[0]) is int and type(config.trials) is int
    with pytest.raises(ValueError):
        ExperimentConfig(methods=("CD", "NEWTON"))
    with pytest.raises(ValueError):
        ExperimentConfig(methods=("CD", "cd"))
    with pytest.raises(ValueError):
        ExperimentConfig(methods=())
    assert ExperimentConfig(methods=("cd", "dup")).methods == ("CD", "DUP")
    # a seed is any integer, taken mod 2**64
    for seed in (2.5, True, "3"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            ExperimentConfig(seed=seed)
    assert ExperimentConfig(seed=np.int64(-1)).seed == 2**64 - 1


# mean CDPM objectives of the four-trial ExperimentConfig() sweep when every
# one of its 50 descents ran from an independent seeded start: over
# n = 10..30 on seeds 0 and 1009, and per n = 20, 25 and 30 on seed 1009
INDEPENDENT_RESTARTS_MEAN = {0: 12.2098, 1009: 12.2038}
INDEPENDENT_RESTARTS_MEAN_1009 = {20: 12.4534, 25: 14.4022, 30: 16.3408}


@pytest.mark.parametrize("seed", [0, 1009])
def test_cdpm_search_beats_independent_restarts_at_the_same_budget(seed):
    # a quality gate on seeds the search schedule was not tuned on
    records = run_experiment(ExperimentConfig(trials=4, seed=seed,
                                              methods=(CDPM,)),
                             clock=FakeClock())
    means = {n: np.mean([r.objective for r in records if r.n == n])
             for n in ExperimentConfig().n_values}
    assert np.mean([r.objective for r in records]) > \
        INDEPENDENT_RESTARTS_MEAN[seed]
    if seed == 1009:
        for n, floor in INDEPENDENT_RESTARTS_MEAN_1009.items():
            assert means[n] >= floor


def _make_record(n, trial, method, objective):
    return ExperimentRecord(n=n, p=0.4, trial=trial, method=method,
                            objective=objective,
                            dualness=float(np.sqrt(max(0.0, 2 * n - 2 * objective))),
                            iterations=1, restarts_used=1, resample_count=0,
                            wall_time_ms=1)


def test_plot_geometry_matches_documented_transform():
    records = [
        _make_record(10, 0, "CD", 4.0),
        _make_record(10, 1, "CD", 6.0),
        _make_record(20, 0, "CD", 8.0),
        _make_record(10, 0, "CDPM", 7.0),
        _make_record(20, 0, "CDPM", 9.0),
    ]
    svg = plot_fig1(records)
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline ") == 2
    # mean series: CD has (10, 5.0), (20, 8.0); CDPM (10, 7.0), (20, 9.0)
    values = [5.0, 8.0, 7.0, 9.0]
    lo, hi = min(values), max(values)
    pad = Y_PAD_FRACTION * (hi - lo)
    y_lo, y_hi = lo - pad, hi + pad

    def x_of(n):
        return PLOT_LEFT + (n - 10.0) / 10.0 * (PLOT_RIGHT - PLOT_LEFT)

    def y_of(v):
        return PLOT_BOTTOM - (v - y_lo) / (y_hi - y_lo) * (PLOT_BOTTOM - PLOT_TOP)

    circles = re.findall(r'<circle cx="([0-9.]+)" cy="([0-9.]+)"', svg)
    got = sorted((float(cx), float(cy)) for cx, cy in circles)
    expected = sorted((x_of(n), y_of(v))
                      for n, v in ((10, 5.0), (20, 8.0), (10, 7.0), (20, 9.0)))
    assert len(got) == 4
    for (gx, gy), (ex, ey) in zip(got, expected):
        assert abs(gx - ex) <= 0.5
        assert abs(gy - ey) <= 0.5


def test_plot_legend_says_dup_bounds_cd():
    records = [_make_record(10, 0, method, value)
               for method, value in (("CD", 4.0), ("CDPM", 7.0), ("DUP", 5.0))]
    labels = re.findall(r'<text [^>]*fill="#333333">([^<]*)</text>',
                        plot_fig1(records))
    # the legend's labels follow the axis labels "n" and "mean objective"
    assert labels[-3:] == ["CD", "CDPM",
                           "DUP (bound on CD, identity permutations)"]


def test_plot_single_n_centers_points():
    records = [_make_record(12, 0, "CD", 5.0), _make_record(12, 1, "CD", 6.0)]
    svg = plot_fig1(records)
    circles = re.findall(r'<circle cx="([0-9.]+)"', svg)
    assert len(circles) == 1
    assert abs(float(circles[0]) - 0.5 * (PLOT_LEFT + PLOT_RIGHT)) <= 0.01


def test_plot_constant_series_uses_unit_pad():
    records = [_make_record(10, 0, "CD", 5.0), _make_record(20, 0, "CD", 5.0)]
    svg = plot_fig1(records)
    circles = re.findall(r'<circle cx="[0-9.]+" cy="([0-9.]+)"', svg)
    mid = 0.5 * (PLOT_TOP + PLOT_BOTTOM)
    for cy in circles:
        assert abs(float(cy) - mid) <= 0.01


def test_plot_rejects_empty():
    with pytest.raises(EmptyInputError):
        plot_fig1([])
