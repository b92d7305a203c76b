"""Print how the best-of-R objective and dualness of CD and CDPM
multistart move with the budget R, so that a change can show whether
the sweep's budget has converged.

Budget R runs the first R descents of any larger budget, so one
multistart at R_MAX per pair gives the answer at every smaller R: the
running maximum of its restart_objectives.  The pairs are the sweep's
own, experiment._sample_pair(n, 0.4, 6000 + k) with
SolverConfig(restarts=R_MAX, seed=k) for k = 0-7, at n = 10, 20 and 30.
For each n and method a row gives the mean best-of-R objective over the
pairs at each R of BUDGETS, and the median over the pairs of the first
descent (counted from 0) whose objective is within BEST_TOL = 1e-6 of
the pair's best.  The row below it gives the mean dualness,
sqrt(2n - 2 objective) per pair, at the same budgets: the quantity
Fig. 1 plots against n, so the two rows per n show whether the
figure's trend holds at a larger budget.  Descents that reach one
optimum stop once an iteration gains less than epsilon = 1e-8, so they
end up to a few 1e-8 apart: with the first exact maximum, or a
tolerance of 1e-9, CD's column read hundreds of descents on pairs
where descents 0-4 had already reached the best to 1e-7.  On these
pairs every tolerance from 3e-8 to 1e-5 gives the same column.

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
from gftdual.alignment import (CD, CDPM, SolverConfig,  # noqa: E402
                               dualness_from_objective, multistart)

SIZES = (10, 20, 30)
PAIRS = 8
BUDGETS = (10, 50, 200, 800, 1600)
R_MAX = BUDGETS[-1]
BEST_TOL = 1e-6


def _means(rows):
    """The column means of rows, one budget each, as one line."""
    return " ".join("%8.3f" % mean for mean in numpy.mean(rows, axis=0))


def main():
    print("%4s %6s %9s %s %10s" % ("n", "method", "mean",
                                   " ".join("%8s" % ("R=%d" % r)
                                            for r in BUDGETS),
                                   "first best"))
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
            dualness = [[dualness_from_objective(n, value) for value in row]
                        for row in best_of]
            print("%4d %6s %9s %s %10g" % (n, method, "objective",
                                           _means(best_of),
                                           numpy.median(first)))
            print("%4d %6s %9s %s" % (n, method, "dualness",
                                      _means(dualness)))


if __name__ == "__main__":
    main()
