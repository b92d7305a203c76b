"""Wrap points of the traced pass and the per-layer metrics they yield.

Each wrap point rebinds a public function in the module that calls it.
dup bound its own solve_lp name at import, so lp.solve_lp is reached
only by dual_construct, and dup.solve_lp only by the DUP master LP.
"""

import sys

import numpy as np

from gftdual import alignment, dual_construct, dup, experiment, lp

from spans import self_times, summarize

# the reference kernel's runs between items of the traced pass; they are
# not program time
REFERENCE_SPAN = "reference"

# span names whose time a parent's self time leaves out
_CHILDREN = {
    "experiment.run_experiment": (
        "graphs.erdos_renyi", "spectral.eigendecompose",
        "alignment.multistart", "dup.build_coupling", "dup.dup_bound"),
    "dup.dup_bound": ("spectral.oracle", "lp.master"),
    "alignment.multistart": ("assignment.solve_assignment_max",),
    "dual_construct.construct_dual": ("spectral.eigendecompose",
                                      "lp.construct"),
}


class _SweepItems:
    """Sets the tracer's current item to the record a call serves,
    (n, trial, method), or (n, trial, "sample") while a pair is drawn."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.n = None
        self.trial = -1
        self.sampling = False

    def sample(self, args):
        n = int(args[0])
        if not self.sampling:
            self.trial = self.trial + 1 if n == self.n else 0
            self.n = n
            self.sampling = True
        self.tracer.item = (n, self.trial, "sample")

    def solve(self, method_of):
        def hook(args):
            self.sampling = False
            self.tracer.item = (self.n, self.trial, method_of(args))
        return hook


def _descent(args, solution):
    return solution.iterations, bool(solution.converged)


def instrument(tracer):
    """Wrap every layer boundary; return the names of missing wrap points."""
    items = _SweepItems(tracer)
    points = (
        (experiment, "erdos_renyi", "graphs.erdos_renyi",
         {"before": items.sample}),
        (experiment, "eigendecompose", "spectral.eigendecompose", {}),
        (experiment, "multistart", "alignment.multistart",
         {"before": items.solve(lambda args: str(args[0]).upper())}),
        (experiment, "build_coupling", "dup.build_coupling",
         {"before": items.solve(lambda args: experiment.DUP)}),
        (experiment, "dup_bound", "dup.dup_bound",
         {"observe": lambda args, result: (tracer.item, args[0], result)}),
        (alignment, "cd_align", "alignment.cd_align",
         {"observe": _descent, "span": False}),
        (alignment, "cdpm_align", "alignment.cdpm_align",
         {"observe": _descent, "span": False}),
        (alignment, "solve_assignment_max",
         "assignment.solve_assignment_max", {}),
        (dup, "jacobi_eigh", "spectral.oracle", {}),
        (dup, "solve_lp", "lp.master", {}),
        (dual_construct, "eigendecompose", "spectral.eigendecompose", {}),
        (lp, "solve_lp", "lp.construct",
         {"observe": lambda args, result: len(args[0].constraints)}),
    )
    missing = set()
    for module, attribute, name, options in points:
        if not tracer.wrap(module, attribute, name, **options):
            print("perfbench: wrap point %s.%s is gone; %s metrics are "
                  "missing" % (module.__name__, attribute, name),
                  file=sys.stderr)
            missing.add(name)
    return missing


def certificates(tracer):
    """Recompute lambda_min(diag(nu) - W) for every traced BoundResult.

    Returns the worst value (0.0 when no bound was computed) and
    {item: reason} for bounds below the program's DEFAULT_TOL.
    """
    worst = None
    failures = {}
    for item, coupling, result in tracer.observations.get("dup.dup_bound", ()):
        lam = float(np.linalg.eigvalsh(np.diag(result.nu) - coupling.w)[0])
        worst = lam if worst is None else min(worst, lam)
        if lam < -dup.DEFAULT_TOL:
            failures[item] = "certificate lambda_min %.3e" % lam
    return (0.0 if worst is None else worst), failures


def metrics(tracer, missing, first, traced_wall, worst_eig):
    """Per-layer metrics of the traced pass, whose timed part starts at
    span index `first` (earlier spans drew the inputs).  A metric whose
    wrap point is missing is left out."""
    spans = tracer.spans
    table = summarize(spans)
    observations = tracer.observations

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def seconds(name):
        return table.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(name):
        return table.get(name, (0, 0.0, 0.0))[2]

    out = {}

    def put(metric, value, *sources):
        if not missing.intersection(sources):
            out[metric] = float(value)

    def timed(prefix, name, with_calls=True, with_self=False):
        if with_calls:
            put(prefix + ".calls", calls(name), name)
        put(prefix + ".s", seconds(name), name)
        if with_self:
            put(prefix + ".self_s", self_seconds(name), name,
                *_CHILDREN[name])

    timed("spectral.oracle", "spectral.oracle")
    timed("spectral.eigendecompose", "spectral.eigendecompose")
    timed("dup.dup_bound", "dup.dup_bound", with_self=True)
    timed("dup.build_coupling", "dup.build_coupling", with_calls=False)
    timed("lp.master", "lp.master")
    timed("lp.construct", "lp.construct")
    timed("alignment.multistart", "alignment.multistart", with_self=True)
    timed("assignment.solve_assignment_max",
          "assignment.solve_assignment_max")
    timed("dual_construct.construct_dual", "dual_construct.construct_dual",
          with_self=True)
    timed("experiment.run_experiment", "experiment.run_experiment",
          with_calls=False, with_self=True)
    timed("graphs.erdos_renyi", "graphs.erdos_renyi")

    bounds = [result for _, _, result in observations.get("dup.dup_bound", ())]
    put("dup.cuts", sum(b.cuts for b in bounds), "dup.dup_bound")
    put("dup.master_rounds", sum(len(b.master_history) for b in bounds),
        "dup.dup_bound")
    put("dup.oracle_per_bound",
        calls("spectral.oracle") / len(bounds) if bounds else 0.0,
        "dup.dup_bound", "spectral.oracle")
    put("dup.cert_min_eig", worst_eig, "dup.dup_bound")
    put("dup.dup_bound.self_top10_share", _top_share(spans),
        "dup.dup_bound", *_CHILDREN["dup.dup_bound"])
    put("lp.construct.rows", sum(observations.get("lp.construct", ())),
        "lp.construct")
    for method in ("cd_align", "cdpm_align"):
        name = "alignment." + method
        runs = observations.get(name, ())
        put(name + ".calls", len(runs), name)
        put(name + ".iterations", sum(it for it, _ in runs), name)
        put(name + ".converged_ratio",
            sum(ok for _, ok in runs) / len(runs) if runs else 0.0, name)

    timed = spans[first:]
    program = (sum(s.end - s.start for s in timed if s.parent is None)
               - sum(s.end - s.start for s in timed
                     if s.name == REFERENCE_SPAN))
    out["trace.unaccounted_s"] = traced_wall - program
    return out


def _top_share(spans):
    """Share of DUP self time spent in the slowest tenth of its calls."""
    own = self_times(spans)
    calls = [(s.end - s.start, own[k]) for k, s in enumerate(spans)
             if s.name == "dup.dup_bound"]
    total = sum(self_s for _, self_s in calls)
    if not calls or total <= 0.0:
        return 0.0
    calls.sort(reverse=True)
    slowest = calls[:max(1, -(-len(calls) // 10))]
    return sum(self_s for _, self_s in slowest) / total
