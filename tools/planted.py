"""Print how CDPM multistart does on planted and near-dual pairs, so that
a change to the CDPM search can quote its effect on pairs whose optimum
is known.

The pairs are tests/oracles.py planted_cases at n = 10, 20 and 30: 12
planted pairs, whose optimum is n, and 8 near-dual ones, whose optimum
is at least the planted solution's objective (planted_pair).  For each
n and budget R (SolverConfig(restarts=R), seed 0) a row gives the
planted pairs recovered (objective within 1e-6 of n), the near-dual
pairs on which CDPM reached the planted objective, and per noise level
the mean CDPM objective against the mean planted objective.  The
budgets default to the sweep's 50; others may be given:

    python tools/planted.py [R ...]
"""

import os
import sys
from pathlib import Path

# before numpy is imported, so that its BLAS starts with one thread
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"
_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "tests")]

import numpy  # noqa: E402

from gftdual.alignment import (CDPM, SolverConfig, multistart,  # noqa: E402
                               trace_objective)
from oracles import planted_cases, planted_pair  # noqa: E402

SIZES = (10, 20, 30)


def main(argv):
    budgets = [int(arg) for arg in argv] or [50]
    noises = sorted({noise for _, noise in planted_cases() if noise > 0.0})
    print("%4s %5s %8s %9s  %s" % ("n", "R", "planted", "near-dual",
                                   "  ".join("eps %-11g" % eps
                                             for eps in noises)))
    for n in SIZES:
        for restarts in budgets:
            config = SolverConfig(restarts=restarts)
            recovered = reached = planted_count = 0
            near = {eps: ([], []) for eps in noises}
            for seed, noise in planted_cases():
                v1, v2, (s1, p1, s2, p2) = planted_pair(n, seed, noise)
                planted = trace_objective(v1, s1, p1, v2, s2, p2)
                objective = multistart(CDPM, v1, v2, config).objective
                if noise == 0.0:
                    planted_count += 1
                    recovered += objective >= n - 1e-6
                else:
                    reached += objective >= planted - 1e-9
                    near[noise][0].append(objective)
                    near[noise][1].append(planted)
            cells = ["%6.3f / %6.3f" % (numpy.mean(near[eps][0]),
                                        numpy.mean(near[eps][1]))
                     for eps in noises]
            print("%4d %5d %5d/%-2d %6d/%-2d  %s" % (
                n, restarts, recovered, planted_count, reached,
                len(planted_cases()) - planted_count, "  ".join(cells)))


if __name__ == "__main__":
    main(sys.argv[1:])
