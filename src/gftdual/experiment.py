"""Erdos-Renyi dualness experiment: sampling, CSV records, SVG plot.

For every (n, trial) cell a pair of G(n, p) graphs with distinct
eigenvalues is sampled (resampling rejected pairs up to a cap), each
requested method is run, and one record per method is emitted.  Seeding
is sequenced so a given method's records do not depend on which other
methods were requested.

ExperimentRecord's annotated fields are the one definition of a record:
the CSV's columns, their order and each column's kind (int, float or
the method, a str).  write_csv, read_csv and plot_fig1 derive from them
and share one check, so every record one of them accepts, the others
accept too.
"""

import math
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .alignment import (CD, CDPM, SolverConfig, dualness_from_objective,
                        method_name, multistart)
from .dup import build_coupling, dup_bound
from .errors import (EmptyInputError, IndexOutOfRangeError,
                     NonFiniteEntryError, ParseError, ResampleCapExceeded)
from .graphs import (check_count, check_real, erdos_renyi, is_real,
                     parse_number)
from .rng import SplitMix64, check_integer
from .spectral import eigendecompose, has_distinct_eigenvalues

DUP = "DUP"
METHODS = (CD, CDPM, DUP)

RESAMPLE_CAP = 100

# plot geometry: the data rectangle of the 800x600 canvas
PLOT_LEFT = 70.0
PLOT_RIGHT = 770.0
PLOT_TOP = 30.0
PLOT_BOTTOM = 550.0
Y_PAD_FRACTION = 0.05

_METHOD_COLORS = {CD: "#1f77b4", CDPM: "#d62728", DUP: "#2ca02c"}
# DUP relaxes the objective with both permutations fixed to the identity,
# so it bounds CD's objective; CDPM's, which permutes, can lie above it
_LEGEND_LABELS = {DUP: "DUP (bound on CD, identity permutations)"}


def _items(values, name):
    """values as a non-empty tuple; a str, a non-iterable or an empty
    iterable raises ValueError naming the field."""
    try:
        items = () if isinstance(values, (str, bytes)) else tuple(values)
    except TypeError:
        items = ()
    if not items:
        raise ValueError("%s must be a non-empty list, got %r"
                         % (name, values))
    return items


@dataclass(frozen=True)
class ExperimentConfig:
    """The settings of one sweep.  n_values and methods are non-empty
    lists, never a str or a non-iterable (ValueError naming the field):
    n_values strictly ascending counts (graphs.check_count), methods
    read by alignment.method_name with no repeats.  p lies in [0, 1]
    and trials is a count.  epsilon, max_iterations, restarts and seed
    are checked by building one SolverConfig and stored as it checked
    them: a float, two ints and the seed mod 2**64 as an int."""

    n_values: tuple = (10, 15, 20, 25, 30)
    p: float = 0.4
    trials: int = 20
    restarts: int = 50
    epsilon: float = 1e-8
    max_iterations: int = 500
    seed: int = 0
    methods: tuple = METHODS

    def __post_init__(self):
        values = tuple(check_count(n, "n_values")
                       for n in _items(self.n_values, "n_values"))
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("n_values must be strictly ascending")
        object.__setattr__(self, "n_values", values)
        object.__setattr__(self, "p", check_real(self.p, "p", upper=1))
        object.__setattr__(self, "trials", check_count(self.trials, "trials"))
        solver = SolverConfig(self.epsilon, self.max_iterations,
                              self.restarts, self.seed)
        for name, value in asdict(solver).items():
            object.__setattr__(self, name, value)
        methods = tuple(method_name(m, METHODS)
                        for m in _items(self.methods, "methods"))
        if len(set(methods)) != len(methods):
            raise ValueError("duplicate method in %r" % (methods,))
        object.__setattr__(self, "methods", methods)


@dataclass(frozen=True)
class ExperimentRecord:
    n: int
    p: float
    trial: int
    method: str
    objective: float
    dualness: float
    iterations: int
    restarts_used: int
    resample_count: int
    wall_time_ms: int


# (name, kind) of every column in CSV order; the kinds are classes, as
# this module does not postpone the evaluation of annotations
_COLUMNS = tuple((f.name, f.type) for f in fields(ExperimentRecord))
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)


def _sample_pair(n, p, pair_seed):
    """Draw G(n, p) pairs until both graphs have distinct eigenvalues."""
    stream = SplitMix64(pair_seed)
    resamples = 0
    while True:
        g1 = erdos_renyi(n, p, stream.next_uint64())
        g2 = erdos_renyi(n, p, stream.next_uint64())
        dec1 = eigendecompose(g1)
        dec2 = eigendecompose(g2)
        if has_distinct_eigenvalues(dec1) and has_distinct_eigenvalues(dec2):
            return dec1, dec2, resamples
        resamples += 1
        if resamples > RESAMPLE_CAP:
            raise ResampleCapExceeded(
                "no pair with distinct eigenvalues after %d resamples "
                "(n=%d, p=%g)" % (RESAMPLE_CAP, n, p))


def run_experiment(config: ExperimentConfig, clock=time.monotonic):
    """Deterministic given the seed; wall times come from the injectable
    clock (monotonic by default) in integer milliseconds.

    One seed sequencer drives the whole run: per (n, trial), three
    sub-seeds are drawn (pair sampling, CD restarts, CDPM restarts) in
    that order, whether or not every method was requested.  Records come
    in (n, trial, METHODS) order, which is sorted by (n, trial, method).
    """
    records = []
    sequencer = SplitMix64(config.seed)
    for n in config.n_values:
        for trial in range(config.trials):
            pair_seed = sequencer.next_uint64()
            method_seeds = {CD: sequencer.next_uint64(),
                            CDPM: sequencer.next_uint64()}
            dec1, dec2, resamples = _sample_pair(n, config.p, pair_seed)
            for method in METHODS:
                if method not in config.methods:
                    continue
                start = clock()
                if method == DUP:
                    result = dup_bound(build_coupling(dec1.vectors,
                                                      dec2.vectors))
                    objective, iterations = result.bound, result.cuts
                else:
                    solution = multistart(
                        method, dec1.vectors, dec2.vectors,
                        SolverConfig(config.epsilon, config.max_iterations,
                                     config.restarts, method_seeds[method]))
                    objective = solution.objective
                    iterations = solution.iterations
                elapsed_ms = int(round((clock() - start) * 1000.0))
                records.append(ExperimentRecord(
                    n=n, p=config.p, trial=trial, method=method,
                    objective=objective, iterations=iterations,
                    dualness=dualness_from_objective(n, objective),
                    restarts_used=0 if method == DUP else config.restarts,
                    resample_count=resamples, wall_time_ms=elapsed_ms))
    return records


def _check_record(r):
    """Raise unless the record r is one that write_csv writes, read_csv
    reads back as it is and plot_fig1 draws, column by column: a float
    field (p, objective, dualness) must be a finite real number by
    graphs.is_real, check_real's test (NonFiniteEntryError, also for a
    bool, text, None or a complex value), an int field (n, trial,
    iterations, restarts_used, resample_count, wall_time_ms) an integer
    by rng.check_integer and >= 0, and the method one of METHODS
    (IndexOutOfRangeError)."""
    for name, kind in _COLUMNS:
        value = getattr(r, name)
        if kind is float and not (is_real(value) and math.isfinite(value)):
            raise NonFiniteEntryError(
                "%s must be a finite real number, got %r" % (name, value))
        if kind is int and check_integer(value, name,
                                         IndexOutOfRangeError) < 0:
            raise IndexOutOfRangeError(
                "%s must be an integer >= 0, got %r" % (name, value))
        if kind is str and value not in METHODS:
            raise IndexOutOfRangeError("unknown method %r" % (value,))


def write_csv(records) -> str:
    """Rows in the given order, one column per ExperimentRecord field,
    each written as str of the value cast to the field's kind: an int
    field in decimal, a float field as its repr, so parsing is exact,
    and the method as it is.  Every record must pass _check_record, the
    check read_csv applies, so that every CSV written here reads back
    as the same records.  records may be any iterable; it is read
    once."""
    records = list(records)
    if not records:
        raise EmptyInputError("no records to write")
    lines = [CSV_HEADER]
    for r in records:
        _check_record(r)
        lines.append(",".join(str(kind(getattr(r, name)))
                              for name, kind in _COLUMNS))
    return "\n".join(lines) + "\n"


def read_csv(text) -> list:
    """Records of write_csv's text, one column per ExperimentRecord
    field: numbers read by graphs.parse_number as the field's kind, the
    method as it is, and every record passed through _check_record;
    ParseError at the offending line otherwise."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty CSV", line_number=1)
    if lines[0] != CSV_HEADER:
        raise ParseError("unexpected CSV header %r" % lines[0], line_number=1)
    if len(lines) == 1:
        raise ParseError("no records after the header", line_number=2)
    records = []
    for index, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(_COLUMNS):
            raise ParseError("expected %d fields, got %d" % (
                len(_COLUMNS), len(parts)), line_number=index)
        try:
            record = ExperimentRecord(*(
                part if kind is str else parse_number(part, kind)
                for part, (_, kind) in zip(parts, _COLUMNS)))
            _check_record(record)
        except ValueError as exc:
            raise ParseError("bad field: %s" % exc, line_number=index)
        except (NonFiniteEntryError, IndexOutOfRangeError) as exc:
            raise ParseError(str(exc), line_number=index)
        records.append(record)
    return records


def _mean_series(records):
    """Per-method, per-n means of the objective, methods and n sorted."""
    table = {}
    for r in records:
        table.setdefault(r.method, {}).setdefault(r.n, []).append(r.objective)
    series = {}
    for method in sorted(table):
        pairs = [(n, float(np.mean(table[method][n])))
                 for n in sorted(table[method])]
        series[method] = pairs
    return series


def _axis_transforms(series):
    all_n = sorted({n for pairs in series.values() for n, _ in pairs})
    all_v = [v for pairs in series.values() for _, v in pairs]
    n_lo, n_hi = float(all_n[0]), float(all_n[-1])
    v_lo, v_hi = min(all_v), max(all_v)
    pad = Y_PAD_FRACTION * (v_hi - v_lo)
    if pad == 0.0:
        pad = 1.0
    y_lo, y_hi = v_lo - pad, v_hi + pad

    def x_of(n):
        if n_hi == n_lo:
            return 0.5 * (PLOT_LEFT + PLOT_RIGHT)
        return PLOT_LEFT + (n - n_lo) / (n_hi - n_lo) * (PLOT_RIGHT - PLOT_LEFT)

    def y_of(v):
        return PLOT_BOTTOM - (v - y_lo) / (y_hi - y_lo) * (PLOT_BOTTOM - PLOT_TOP)

    return x_of, y_of, all_n, (y_lo, y_hi)


def plot_fig1(records) -> str:
    """Standalone SVG 1.1 line chart (800x600) of mean objective vs n.

    One polyline per method.  Axis transform: with n in [n_lo, n_hi]
    mapped linearly onto x in [70, 770] (centered at 420 when a single
    n is present), and the padded value range [min - pad, max + pad]
    (pad = 5% of the mean range, or 1.0 if the range is zero) mapped
    linearly onto y in [550, 30].  Coordinates are written with two
    decimals.

    Every record must pass _check_record, as for write_csv, so that a
    record write_csv refuses raises the same error here rather than
    being drawn (a NaN objective would be drawn at cy="nan").  records
    may be any iterable; it is read once.
    """
    records = list(records)
    if not records:
        raise EmptyInputError("no records to plot")
    for r in records:
        _check_record(r)
    series = _mean_series(records)
    x_of, y_of, all_n, (y_lo, y_hi) = _axis_transforms(series)

    parts = []
    parts.append('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                 'width="800" height="600" viewBox="0 0 800 600">')
    parts.append('<rect x="0" y="0" width="800" height="600" fill="white"/>')
    parts.append('<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" '
                 'fill="none" stroke="#333333" stroke-width="1"/>'
                 % (PLOT_LEFT, PLOT_TOP, PLOT_RIGHT - PLOT_LEFT,
                    PLOT_BOTTOM - PLOT_TOP))
    for n in all_n:
        x = x_of(n)
        parts.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                     'stroke="#999999" stroke-width="1"/>'
                     % (x, PLOT_BOTTOM, x, PLOT_BOTTOM + 5))
        parts.append('<text x="%.2f" y="%.2f" font-size="13" '
                     'text-anchor="middle" fill="#333333">%d</text>'
                     % (x, PLOT_BOTTOM + 20, n))
    for k in range(6):
        value = y_lo + k * (y_hi - y_lo) / 5.0
        y = y_of(value)
        parts.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                     'stroke="#999999" stroke-width="1"/>'
                     % (PLOT_LEFT - 5, y, PLOT_LEFT, y))
        parts.append('<text x="%.2f" y="%.2f" font-size="13" '
                     'text-anchor="end" fill="#333333">%.4g</text>'
                     % (PLOT_LEFT - 8, y + 4, value))
    parts.append('<text x="%.2f" y="585" font-size="15" text-anchor="middle" '
                 'fill="#333333">n</text>'
                 % (0.5 * (PLOT_LEFT + PLOT_RIGHT)))
    parts.append('<text x="18" y="%.2f" font-size="15" text-anchor="middle" '
                 'fill="#333333" transform="rotate(-90 18 %.2f)">'
                 'mean objective</text>'
                 % (0.5 * (PLOT_TOP + PLOT_BOTTOM),
                    0.5 * (PLOT_TOP + PLOT_BOTTOM)))
    for offset, (method, pairs) in enumerate(sorted(series.items())):
        color = _METHOD_COLORS[method]
        points = " ".join("%.2f,%.2f" % (x_of(n), y_of(v)) for n, v in pairs)
        parts.append('<polyline fill="none" stroke="%s" stroke-width="2" '
                     'points="%s"/>' % (color, points))
        for n, v in pairs:
            parts.append('<circle cx="%.2f" cy="%.2f" r="3" fill="%s"/>'
                         % (x_of(n), y_of(v), color))
        legend_y = PLOT_TOP + 15 + 18 * offset
        parts.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                     'stroke="%s" stroke-width="2"/>'
                     % (PLOT_LEFT + 12, legend_y, PLOT_LEFT + 40, legend_y,
                        color))
        parts.append('<text x="%.2f" y="%.2f" font-size="13" '
                     'fill="#333333">%s</text>'
                     % (PLOT_LEFT + 46, legend_y + 4,
                        _LEGEND_LABELS.get(method, method)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
