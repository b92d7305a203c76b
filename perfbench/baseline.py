"""Repeat benchmark runs and summarize them per workload and metric.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads sweep,align]
        [--gate-seed 0] [--held-out-seed 1009] [--output FILE]

Runs run.py once per (workload, seed) with --trace 0, one after
another, and prints for every end-to-end metric the median, the
quartiles (statistics.quantiles, n=4) and the spread: the quartile
distance as a share of the median, next to the metric's bound.  With
--gate-seed it adds one traced run per workload on that seed; with
--held-out-seed one untraced run per workload on that seed.  --output
writes every run and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds_of(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run(workload, seed, trace, seconds):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=900)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit("%s seed %d failed:\n%s" % (workload, seed,
                                                     done.stderr))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    details = json.loads((HERE / "out" / ("%s-seed%d-trace%d.json"
                                          % (workload, seed, trace))
                          ).read_text())
    return {"workload": workload, "seed": seed, "trace": trace,
            "process_s": elapsed, "result": result,
            "measured": details["measured"],
            "tail": "p%d of %d items" % (details["tail_percentile"],
                                         details["latency_items"]),
            "stamp": details["stamp"], "failures": details["failures"]}


# untraced pass figures that run.py measures on every run but reports
# only with the per-layer metrics
PASS_METRICS = ("wall_s", "item_p50_ms", "item_tail_ms")


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def summarize(runs):
    summary = {}
    for entry in SPEC["end_to_end"]:
        name = entry["name"]
        summary[name] = dict(quartiles([r["result"]["metrics"][name]["value"]
                                        for r in runs]),
                             unit=entry["unit"], better=entry["better"],
                             bound=entry["bound"])
    for name in PASS_METRICS:
        summary[name] = quartiles([r["measured"][name] for r in runs])
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--gate-seed", type=int)
    parser.add_argument("--held-out-seed", type=int)
    parser.add_argument("--output")
    args = parser.parse_args(argv)

    report = {"seconds": args.seconds, "seeds": seeds_of(args.seeds),
              "gate_seed": args.gate_seed,
              "held_out_seed": args.held_out_seed, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            runs.append(run(workload, seed, 0, args.seconds))
            r = runs[-1]
            print("%s seed %d: %.1f s, correct %s, failed %d/%d, %s" % (
                workload, seed, r["process_s"], r["result"]["correct"],
                r["result"]["failed"], r["result"]["attempted"], r["tail"]),
                flush=True)
        entry = {"runs": runs, "summary": summarize(runs)}
        for name, s in entry["summary"].items():
            print("  %-14s median %12.5g  q1 %12.5g  q3 %12.5g  spread %.4f"
                  "  bound %s" % (name, s["median"], s["q1"], s["q3"],
                                  s["spread"], s.get("bound", "-")),
                  flush=True)
        if args.gate_seed is not None:
            entry["traced"] = run(workload, args.gate_seed, 1, args.seconds)
            print("  traced seed %d: %.1f s" % (
                args.gate_seed, entry["traced"]["process_s"]), flush=True)
        if args.held_out_seed is not None:
            entry["held_out"] = run(workload, args.held_out_seed, 0,
                                    args.seconds)
            print("  held-out seed %d: %.1f s" % (
                args.held_out_seed, entry["held_out"]["process_s"]),
                flush=True)
        report["workloads"][workload] = entry
        if args.output:
            Path(args.output).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
