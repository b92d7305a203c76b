"""Linear programs solved by HiGHS through scipy.optimize.milp.

Solves  minimize c.y  subject to  A y >= b,  with y >= 0 (nonnegative,
the default) or y free, and answers with the optimal y or None when the
program is infeasible.  The package poses two such programs, the DUP
master LP and the dual-construction LP, from arrays it has already
checked.  milp is called with no integer variables, so HiGHS solves a
plain LP with its default presolve and tolerances.

A program with one variable is an interval, and almost every dual-
construction LP is one with no point in it.  Such a program is answered
None without HiGHS when its rows miss each other by a wide margin:
entries HiGHS would drop as zeros are read as zeros, every row is relaxed
by ten times HiGHS's feasibility tolerance, and the relaxed interval must
still be empty by that slack relative to its ends.  HiGHS would then
report it infeasible too.  Every other program goes to HiGHS, so no
answer HiGHS gives is ever replaced.
"""

from typing import NamedTuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .errors import NumericalBreakdown

# milp statuses with an answer; any other is a solver failure, unbounded
# (3) too, since neither program the package poses can be unbounded
_MILP_OPTIMAL = 0
_MILP_INFEASIBLE = 2

# HiGHS's defaults, which milp leaves in place: it drops matrix entries of
# magnitude at most small_matrix_value, and accepts a row violated by up to
# primal_feasibility_tolerance.  The one-variable certificate reads the
# same entries as zeros and relaxes every row by ten times that tolerance,
# so it only certifies programs HiGHS cannot find feasible.
_HIGHS_SMALL_MATRIX_VALUE = 1e-9
_HIGHS_PRIMAL_FEASIBILITY_TOLERANCE = 1e-7
_SLACK = 10 * _HIGHS_PRIMAL_FEASIBILITY_TOLERANCE


class LinearProgram(NamedTuple):
    """minimize objective.y subject to constraints @ y >= rhs, and y >= 0
    when nonnegative (y free otherwise): float arrays of shapes (k,),
    (m, k) and (m,)."""

    objective: np.ndarray
    constraints: np.ndarray
    rhs: np.ndarray
    nonnegative: bool = True


def _interval_is_empty(program):
    """True when the rows a y >= b of a one-variable program, each relaxed
    by _SLACK, leave no y, and miss by more than _SLACK relative to the
    ends of the interval they bound."""
    a = program.constraints[:, 0]
    b = program.rhs - _SLACK
    zero = np.abs(a) <= _HIGHS_SMALL_MATRIX_VALUE
    if (b > 0.0).any(where=zero):
        return True
    # rows read as zeros take no ratio, and no part in the bounds below
    ratio = np.divide(b, a, out=np.zeros_like(b), where=~zero)
    lo = ratio.max(where=a > _HIGHS_SMALL_MATRIX_VALUE,
                   initial=-_SLACK if program.nonnegative else -np.inf)
    hi = ratio.min(where=a < -_HIGHS_SMALL_MATRIX_VALUE, initial=np.inf)
    return bool(lo - hi > _SLACK * max(1.0, abs(lo), abs(hi)))


def solve_lp(program: LinearProgram) -> np.ndarray | None:
    """The optimal y, or None for an infeasible program: HiGHS decides,
    except for a one-variable program certified infeasible from its rows
    (see the module docstring).

    Raises NumericalBreakdown when HiGHS stops without an optimum or a
    proof of infeasibility (iteration limit, numerical trouble, an
    unbounded program, or "infeasible or unbounded" undecided).
    """
    if len(program.objective) == 0:
        # milp rejects an empty objective; every row reads 0 >= b
        return np.zeros(0) if np.all(program.rhs <= 0.0) else None
    if len(program.objective) == 1 and _interval_is_empty(program):
        return None
    result = milp(program.objective,
                  constraints=LinearConstraint(program.constraints,
                                               lb=program.rhs),
                  bounds=Bounds(0.0 if program.nonnegative else -np.inf,
                                np.inf))
    if result.status == _MILP_OPTIMAL:
        return np.asarray(result.x, dtype=float)
    if result.status == _MILP_INFEASIBLE:
        return None
    raise NumericalBreakdown(
        "HiGHS status %d: %s" % (result.status, result.message))
