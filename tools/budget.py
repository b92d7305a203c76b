"""Print how the best-of-R objective of CD and CDPM multistart grows with
the budget R, so that a change can show whether the sweep's budget has
converged.

Budget R runs the first R descents of any larger budget, so one
multistart at R_MAX per pair gives the answer at every smaller R: the
running maximum of its restart_objectives.  The pairs are the sweep's
own, experiment._sample_pair(n, 0.4, 6000 + k) with
SolverConfig(restarts=R_MAX, seed=k) for k = 0-7, at n = 10, 20 and 30.
For each n and method a row gives the mean best-of-R objective over the
pairs at each R of BUDGETS, and the median over the pairs of the first
descent (counted from 0) whose objective is within BEST_TOL = 1e-6 of
the pair's best.  Descents that reach one optimum stop once an
iteration gains less than epsilon = 1e-8, so they end up to a few 1e-8
apart: with the first exact maximum, or a tolerance of 1e-9, CD's
column read hundreds of descents on pairs where descents 0-4 had
already reached the best to 1e-7.  On these pairs every tolerance from
3e-8 to 1e-5 gives the same column.

    python tools/budget.py
"""

import os
import sys
from pathlib import Path

# before numpy is imported, so that its BLAS starts with one thread
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy  # noqa: E402

from gftdual import experiment  # noqa: E402
from gftdual.alignment import CD, CDPM, SolverConfig, multistart  # noqa: E402

SIZES = (10, 20, 30)
PAIRS = 8
BUDGETS = (10, 50, 200, 800, 1600)
R_MAX = BUDGETS[-1]
BEST_TOL = 1e-6


def main():
    print("%4s %6s %s %10s" % ("n", "method",
                               " ".join("%8s" % ("R=%d" % r)
                                        for r in BUDGETS), "first best"))
    for n in SIZES:
        pairs = [experiment._sample_pair(n, 0.4, 6000 + k)[:2]
                 for k in range(PAIRS)]
        for method in (CD, CDPM):
            best_of = []
            first = []
            for k, (dec1, dec2) in enumerate(pairs):
                run = multistart(method, dec1.vectors, dec2.vectors,
                                 SolverConfig(restarts=R_MAX, seed=k))
                running = numpy.maximum.accumulate(run.restart_objectives)
                best_of.append([running[r - 1] for r in BUDGETS])
                first.append(numpy.argmax(running
                                          >= running[-1] - BEST_TOL))
            print("%4d %6s %s %10g" % (
                n, method,
                " ".join("%8.3f" % mean for mean in numpy.mean(best_of,
                                                                axis=0)),
                numpy.median(first)))


if __name__ == "__main__":
    main()
