"""The benchmark's workloads: sweep, align and construct.

A workload builds its inputs from the workload seed alone, runs a timed
pass as a closed loop with one caller (the next item starts when the
previous one returns), and checks the outputs outside the timed region.
An item is one record of the sweep (one method on one graph pair) or
one construct_dual call.
"""

import math
import random
import time
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
from scipy.optimize import linprog

from gftdual import dual_construct, experiment
from gftdual.experiment import CD, CDPM, DUP, METHODS, ExperimentConfig
from gftdual.graphs import erdos_renyi

# Median seconds one round of work took at the seed commit (2-core
# x86-64 host, one BLAS thread).  A run does enough rounds for at least
# --seconds of work at that speed, so both commits of a comparison do
# the same work.
SWEEP_TRIAL_S = 7.4        # one trial at n = 10..30: CD, CDPM and DUP
ALIGN_TRIAL_S = 2.3        # one trial at n = 10, 30, 50: CD and CDPM
CONSTRUCT_ROUND_S = 0.68   # one G(n, 0.5) graph at n = 10, 15, 20, 25

CONSTRUCT_SIZES = (10, 15, 20, 25)
CONSTRUCT_P = 0.5

# output checks
WEAK_DUALITY_SLACK = 1e-6
OBJECTIVE_SLACK = 1e-9
WITNESS_TOL = 1e-7


def _span(tracer, name):
    return nullcontext() if tracer is None else tracer.span(name)


def _rounds(seconds, round_seconds):
    return max(1, math.ceil(seconds / round_seconds))


class PassResult:
    """What one pass produced: its wall time, each item's latency in
    seconds, the items that raised, and the workload's answers."""

    def __init__(self, wall, latencies, errors, answers):
        self.wall = wall
        self.latencies = latencies
        self.errors = errors
        self.answers = answers


class ExperimentWorkload:
    """run_experiment on seeded Erdos-Renyi pairs (sweep and align)."""

    def __init__(self, config):
        self.config = config

    @property
    def items(self):
        """Item keys in the order run_experiment solves them."""
        c = self.config
        return [(n, trial, method) for n in c.n_values
                for trial in range(c.trials)
                for method in METHODS if method in c.methods]

    @staticmethod
    def cell(key):
        """Items of one cell repeat the same work: (n, method)."""
        n, _, method = key
        return n, method

    def trace_inputs(self, tracer):
        """The sweep draws its graphs inside the pass: nothing to do."""
        return {}

    def warm_up(self):
        c = self.config
        experiment.run_experiment(ExperimentConfig(
            n_values=c.n_values[:1], p=c.p, trials=1, restarts=c.restarts,
            epsilon=c.epsilon, max_iterations=c.max_iterations,
            seed=c.seed, methods=c.methods))

    def run_pass(self, tracer=None, between=None):
        """One timed pass; between(), when given, runs before the first
        item and after each item, outside the items' own timing."""
        readings = []

        def clock():
            now = time.perf_counter()
            readings.append(now)
            if between is not None and len(readings) % 2 == 0:
                between()
            return now

        keys = self.items
        if between is not None:
            between()
        start = time.perf_counter()
        try:
            with _span(tracer, "experiment.run_experiment"):
                records = experiment.run_experiment(self.config, clock=clock)
        except Exception as exc:  # a raising sweep fails every item
            wall = time.perf_counter() - start
            return PassResult(wall, {}, {key: repr(exc) for key in keys}, {})
        wall = time.perf_counter() - start
        answers = {(r.n, r.trial, r.method): r for r in records}
        latencies = {}
        if len(readings) == 2 * len(keys):
            for k, key in enumerate(keys):
                latencies[key] = readings[2 * k + 1] - readings[2 * k]
        else:  # the clock was read another way: fall back to the records
            latencies = {key: r.wall_time_ms / 1000.0
                         for key, r in answers.items()}
        return PassResult(wall, latencies, {}, answers)

    def check(self, result):
        """{item: reason} for every item whose record fails a check."""
        failures = {}
        records = result.answers
        for key in self.items:
            r = records.get(key)
            if r is None:
                failures[key] = "no record"
                continue
            expected = math.sqrt(max(0.0, 2.0 * r.n - 2.0 * r.objective))
            if r.dualness != expected:
                failures[key] = "dualness %r != %r" % (r.dualness, expected)
            elif not r.objective <= r.n + OBJECTIVE_SLACK:
                failures[key] = "objective %r > n" % r.objective
            elif key in result.latencies and r.wall_time_ms != int(
                    round(result.latencies[key] * 1000.0)):
                failures[key] = "clock readings do not give wall_time_ms"
        ordered = [records[key] for key in self.items if key in records]
        if ordered:
            back = experiment.read_csv(experiment.write_csv(ordered))
            for before, after in zip(ordered, back):
                if before != after:
                    key = (before.n, before.trial, before.method)
                    failures.setdefault(key, "CSV round trip changed it")
        for (n, trial, method), r in records.items():
            if method != CD or (n, trial, DUP) not in records:
                continue
            bound = records[(n, trial, DUP)].objective
            if r.objective > bound + WEAK_DUALITY_SLACK:
                failures.setdefault((n, trial, CD),
                                    "CD objective %r above DUP bound %r"
                                    % (r.objective, bound))
        return failures

    @staticmethod
    def same_answer(a, b):
        """Records agree on every field except wall_time_ms."""
        return replace(a, wall_time_ms=0) == replace(b, wall_time_ms=0)

    def quality(self, result):
        def mean(method):
            values = [r.objective for (n, t, m), r in result.answers.items()
                      if m == method]
            return float(np.mean(values)) if values else 0.0

        pairs = {}
        for (n, trial, _), r in result.answers.items():
            pairs[(n, trial)] = r.resample_count
        resamples = sum(pairs.values())
        return {
            "cd_objective_mean": mean(CD),
            "cdpm_objective_mean": mean(CDPM),
            "dup_bound_mean": mean(DUP),
            "experiment.resample_ratio":
                resamples / (resamples + len(pairs)) if pairs else 0.0,
            "dual_construct.feasible": 0,
        }


class ConstructWorkload:
    """One construct_dual call per G(n, 0.5) graph, graphs made in set-up."""

    def __init__(self, seed, rounds, sizes=CONSTRUCT_SIZES):
        self.seed = seed
        self.rounds = rounds
        self.sizes = sizes
        self.graphs = self.make_graphs()

    def make_graphs(self, tracer=None):
        """{(round, n): graph}; with a tracer, each draw is a span."""
        stream = random.Random(self.seed)
        graphs = {}
        for r in range(self.rounds):
            for n in self.sizes:
                seed = stream.getrandbits(64)
                if tracer is not None:
                    tracer.item = (r, n)
                with _span(tracer, "graphs.erdos_renyi"):
                    graphs[(r, n)] = erdos_renyi(n, CONSTRUCT_P, seed)
        return graphs

    @property
    def items(self):
        return list(self.graphs)

    @staticmethod
    def cell(key):
        """Items of one cell repeat the same work: the graph size."""
        return key[1]

    def trace_inputs(self, tracer):
        """Draw the graphs again under the tracer; {item: reason} for any
        graph that differs from the set-up draw."""
        again = self.make_graphs(tracer)
        return {key: "graph differs from the set-up draw"
                for key, graph in again.items()
                if not np.array_equal(graph.adjacency,
                                      self.graphs[key].adjacency)}

    def warm_up(self):
        dual_construct.construct_dual(self.graphs[self.items[0]])

    def run_pass(self, tracer=None, between=None):
        """One timed pass; between(), when given, runs before the first
        item and after each item, outside the items' own timing."""
        latencies, errors, answers = {}, {}, {}
        if between is not None:
            between()
        start = time.perf_counter()
        for key, graph in self.graphs.items():
            if tracer is not None:
                tracer.item = key
            t0 = time.perf_counter()
            try:
                with _span(tracer, "dual_construct.construct_dual"):
                    answers[key] = dual_construct.construct_dual(graph)
                latencies[key] = time.perf_counter() - t0
            except Exception as exc:  # one bad item must not end the pass
                errors[key] = repr(exc)
            if between is not None:
                between()
        return PassResult(time.perf_counter() - start, latencies, errors,
                          answers)

    def check(self, result):
        """Statuses against HiGHS on constraints rebuilt from V; FEASIBLE
        witnesses against verify_dual_witness."""
        failures = {}
        for key, answer in result.answers.items():
            graph = self.graphs[key]
            v = dual_construct.eigendecompose(graph).vectors
            reference = _highs_status(v)
            if answer.status != reference:
                failures[key] = "status %s, HiGHS says %s" % (
                    answer.status, reference)
            elif answer.status == dual_construct.FEASIBLE:
                residuals = dual_construct.verify_dual_witness(
                    graph, answer.lambda_)
                if max(residuals) > WITNESS_TOL:
                    failures[key] = "witness residuals %r" % (residuals,)
        return failures

    @staticmethod
    def same_answer(a, b):
        return a.status == b.status

    def quality(self, result):
        return {
            "cd_objective_mean": 0.0,
            "cdpm_objective_mean": 0.0,
            "dup_bound_mean": 0.0,
            "experiment.resample_ratio": 0.0,
            "dual_construct.feasible": sum(
                a.status == dual_construct.FEASIBLE
                for a in result.answers.values()),
        }


def _highs_status(v):
    """Feasibility of the dual-construction constraints, posed directly
    from the eigenvector matrix and solved by HiGHS."""
    n = v.shape[0]
    upper = np.triu_indices(n, k=1)
    a_eq = (v * v).T
    pairs = v[:, upper[0]] * v[:, upper[1]]
    row_sums = v * v.sum(axis=1)[:, None]
    a_ub = -np.vstack([pairs.T, row_sums.T])
    b_ub = np.concatenate([np.zeros(pairs.shape[1]), -np.ones(n)])
    result = linprog(np.zeros(n), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq,
                     b_eq=np.zeros(n), bounds=(None, None), method="highs")
    if result.status == 0:
        return dual_construct.FEASIBLE
    if result.status == 2:
        return dual_construct.INFEASIBLE
    return "HiGHS status %d (%s)" % (result.status, result.message)


def make(name, seed, seconds, tiny=False):
    """The named workload, sized to about `seconds` of work.

    tiny shrinks every size for the benchmark's self-tests.
    """
    if name == "sweep":
        if tiny:
            config = ExperimentConfig(n_values=(6, 8), trials=1, restarts=3,
                                      seed=seed)
        else:
            config = ExperimentConfig(
                trials=_rounds(seconds, SWEEP_TRIAL_S), seed=seed)
        return ExperimentWorkload(config)
    if name == "align":
        if tiny:
            config = ExperimentConfig(n_values=(6, 8), trials=1, restarts=3,
                                      seed=seed, methods=(CD, CDPM))
        else:
            config = ExperimentConfig(
                n_values=(10, 30, 50), trials=_rounds(seconds, ALIGN_TRIAL_S),
                seed=seed, methods=(CD, CDPM))
        return ExperimentWorkload(config)
    if name == "construct":
        if tiny:
            return ConstructWorkload(seed, rounds=1, sizes=(6, 8))
        return ConstructWorkload(seed, _rounds(seconds, CONSTRUCT_ROUND_S))
    raise ValueError("unknown workload %r" % (name,))
