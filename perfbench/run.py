"""gftdual benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

Run from anywhere; the program is imported from src/ next to this
directory.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, measured untraced;
with --trace 1 an untraced pass is followed by a traced pass and the
metrics are the per-layer ones.  Detailed records (environment stamp,
tail percentile, failures) and the traced spans go to perfbench/out/.
"""

import time

START = time.perf_counter()

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from spans import Tracer, to_json

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# BLAS runs single-threaded: one caller, and no contention for the
# second core between the pass and the numerics it times.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

# set-ups in child processes; setup_s is the median of these and the
# run's own set-up
SETUP_CHILDREN = 4

TAIL_ITEMS_ABOVE = 10


class BenchError(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "align", "construct"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="work per run, sized from seed-commit costs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size (benchmark self-tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def import_program():
    """Import gftdual from src/ beside the benchmark, and nowhere else."""
    source = ROOT / "src"
    if not (source / "gftdual" / "__init__.py").is_file():
        raise BenchError("no program source at %s" % (source / "gftdual"))
    sys.path.insert(0, str(source))
    import gftdual
    location = Path(gftdual.__file__).resolve()
    if source.resolve() not in location.parents:
        raise BenchError("gftdual imported from %s, not from %s"
                         % (location, source))


def git_revision():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment_stamp(args, workload):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas["name"], blas["version"])
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "items": len(workload.items),
    }


def tail(values):
    """(q, value): the highest whole percentile q, by nearest rank, that
    still has at least ten items above it; the median when there are too
    few items for any."""
    ordered = sorted(values)
    count = len(ordered)
    for q in range(99, 0, -1):
        rank = math.ceil(q * count / 100)
        if count - rank >= TAIL_ITEMS_ABOVE:
            return q, ordered[rank - 1]
    return 50, statistics.median(ordered)


def scaled_latencies(items, latencies, references, nominal_s):
    """Item latencies scaled to the reference kernel's nominal time,
    using the kernel's mean time just before and just after each item."""
    if len(references) == len(items) + 1:
        around = {key: 0.5 * (references[k] + references[k + 1])
                  for k, key in enumerate(items)}
    else:  # the pass ended early: use the run's typical speed
        typical = statistics.median(references)
        around = dict.fromkeys(items, typical)
    return {key: seconds * nominal_s / around[key]
            for key, seconds in latencies.items()}


def hodges_lehmann(values):
    """Median of the means of all pairs of values, each value paired with
    itself too: as robust to a few outliers as the median, and nearly as
    efficient as the mean on well-behaved samples."""
    return statistics.median((a + b) / 2.0 for i, a in enumerate(values)
                             for b in values[i:])


def typical_round(workload, latencies):
    """Seconds of one round (one item in every cell), summed from each
    cell's Hodges-Lehmann latency, so a slow item does not set it."""
    cells = {}
    for key, seconds in latencies.items():
        cells.setdefault(workload.cell(key), []).append(seconds)
    return sum(hodges_lehmann(v) for v in cells.values())


def child_setups(args):
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-only"]
    if args.tiny:
        command.append("--tiny")
    setups = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=True)
        setups.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return setups


def merge(failures, more):
    for key, reason in more.items():
        failures.setdefault(key, reason)


def traced_pass(workload, untraced, untraced_reference, failures):
    """Run the pass again under the tracer; check it against the untraced
    pass; return the per-layer metrics and the spans."""
    import layers
    import reference

    tracer = Tracer()
    missing = layers.instrument(tracer)
    references = []

    def between():
        with tracer.span(layers.REFERENCE_SPAN):
            references.append(reference.run())

    try:
        merge(failures, workload.trace_inputs(tracer))
        first = len(tracer.spans)
        traced = workload.run_pass(tracer, between)
    finally:
        tracer.unwrap()
    traced.wall -= sum(references[1:])
    merge(failures, traced.errors)
    for key, answer in untraced.answers.items():
        again = traced.answers.get(key)
        if again is None or not workload.same_answer(answer, again):
            failures.setdefault(key, "traced pass answered differently")
    worst_eig, certificate_failures = layers.certificates(tracer)
    merge(failures, certificate_failures)
    metrics = layers.metrics(tracer, missing, first, traced.wall, worst_eig)
    # both walls scaled to the reference speed, so that a change in machine
    # speed between the passes does not read as tracing cost
    metrics["trace.overhead_s"] = reference.NOMINAL_S * (
        traced.wall / statistics.median(references)
        - untraced.wall / untraced_reference)
    return metrics, tracer.spans


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import_program()
    except (BenchError, OSError, ValueError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2

    import reference
    import workloads

    workload = workloads.make(args.workload, args.seed, args.seconds,
                              tiny=args.tiny)
    workload.warm_up()
    own_setup = time.perf_counter() - START
    own_setup_scaled = reference.scale_setup(own_setup)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_scaled, "raw_s": own_setup}))
        return 0

    references = []
    untraced = workload.run_pass(
        between=lambda: references.append(reference.run()))
    untraced.wall -= sum(references[1:])
    scaled = scaled_latencies(workload.items, untraced.latencies, references,
                              reference.NOMINAL_S)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = dict(untraced.errors)
    merge(failures, workload.check(untraced))
    latencies = [untraced.latencies[key] for key in workload.items
                 if key in untraced.latencies]
    tail_q, tail_s = tail(latencies) if latencies else (50, 0.0)
    details = {"stamp": environment_stamp(args, workload),
               "tail_percentile": tail_q, "latency_items": len(latencies),
               "latencies_ms": milliseconds(untraced.latencies),
               "scaled_latencies_ms": milliseconds(scaled)}
    details["reference_median_s"] = statistics.median(references)
    details["raw_round_s"] = typical_round(workload, untraced.latencies)
    metrics = {
        "round_s": typical_round(workload, scaled),
        "peak_rss_mb": peak_rss_mb,
        "wall_s": untraced.wall,
        "item_p50_ms": 1000.0 * statistics.median(latencies)
        if latencies else 0.0,
        "item_tail_ms": 1000.0 * tail_s,
    }

    if args.trace:
        wanted = spec["per_layer"]
        layer_metrics, spans = traced_pass(
            workload, untraced, details["reference_median_s"], failures)
        metrics.update(layer_metrics)
        metrics.update(workload.quality(untraced))
        metrics["fail_ratio"] = len(failures) / len(workload.items)
        write_out(record_name(args, "spans"), to_json(spans))
    else:
        wanted = spec["end_to_end"]
        children = child_setups(args)
        setups = [own_setup_scaled] + [c["setup_s"] for c in children]
        details["setup_samples_s"] = setups
        details["raw_setup_samples_s"] = [own_setup] + [c["raw_s"]
                                                        for c in children]
        metrics["setup_s"] = statistics.median(setups)

    reported = {}
    for entry in wanted:
        name = entry["name"]
        if name in metrics:
            reported[name] = {"value": metrics[name], "unit": entry["unit"]}
            print("%-40s %16.6g %-6s %s is better"
                  % (name, metrics[name], entry["unit"], entry["better"]))
        else:
            print("%-40s %16s" % (name, "MISSING"))
    details["measured"] = metrics
    details["failures"] = [[list(key), reason]
                           for key, reason in failures.items()]
    write_out(record_name(args, "trace%d" % args.trace), details)
    for key, reason in failures.items():
        print("FAILED %s: %s" % (key, reason))
    print("stamp " + json.dumps(details["stamp"]))
    print("tail percentile p%d of %d items" % (tail_q, len(latencies)))
    print(json.dumps({"correct": not failures,
                      "attempted": len(workload.items),
                      "failed": len(failures),
                      "metrics": reported}))
    return 0


def milliseconds(latencies):
    return [[list(key), 1000.0 * seconds]
            for key, seconds in latencies.items()]


def record_name(args, kind):
    """perfbench/out file name of a run's record or spans."""
    return "%s-seed%d%s-%s.json" % (args.workload, args.seed,
                                    "-tiny" if args.tiny else "", kind)


def write_out(name, payload):
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
