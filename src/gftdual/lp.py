"""Linear programs solved by HiGHS through scipy.optimize.milp.

Solves  minimize c.y  subject to  A y >= b,  with y >= 0 (nonnegative,
the default) or y free.  A is one (m, k) matrix and b its (m,) right-hand
side; these are the only programs the package poses (the DUP master LP
and the dual-construction LP).  milp is called with no integer variables,
so HiGHS solves a plain LP with its default presolve and tolerances; it
takes the >= rows as lower row bounds.

A program with one variable is an interval, and almost every dual-
construction LP is one with no point in it.  Such a program is answered
INFEASIBLE without HiGHS when its rows miss each other by a wide margin:
entries HiGHS would drop as zeros are read as zeros, every row is relaxed
by ten times HiGHS's feasibility tolerance, and the relaxed interval must
still be empty by that slack relative to its ends.  HiGHS would then
report it infeasible too.  Every other program goes to HiGHS: feasible
ones, ones near its tolerance band (which HiGHS decides), and ones with
two or more variables, so no answer HiGHS gives is ever replaced.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .errors import NonFiniteEntryError, NumericalBreakdown, SizeMismatchError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

# milp status codes with a meaning here; any other is a solver failure.
# Unbounded (3) is one too: the construction LP has a zero objective and
# the master LP unit costs over y >= 0, so neither can be unbounded.
_STATUSES = {0: OPTIMAL, 2: INFEASIBLE}

# HiGHS's defaults, which milp leaves in place: it drops matrix entries of
# magnitude at most small_matrix_value, and accepts a row violated by up to
# primal_feasibility_tolerance.  The one-variable certificate reads the
# same entries as zeros and relaxes every row by ten times that tolerance,
# so it only certifies programs HiGHS cannot find feasible.
_HIGHS_SMALL_MATRIX_VALUE = 1e-9
_HIGHS_PRIMAL_FEASIBILITY_TOLERANCE = 1e-7
_SLACK = 10 * _HIGHS_PRIMAL_FEASIBILITY_TOLERANCE


def _frozen(values, name, ndim):
    a = np.array(values, dtype=float)
    if a.ndim != ndim:
        raise SizeMismatchError("%s must have %d dimension(s), got %d"
                                % (name, ndim, a.ndim))
    if not np.isfinite(a).all():
        raise NonFiniteEntryError("%s has non-finite entries" % name)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LinearProgram:
    """minimize objective.y subject to constraints @ y >= rhs, and y >= 0
    when nonnegative (y free otherwise)."""

    objective: np.ndarray
    constraints: np.ndarray
    rhs: np.ndarray
    nonnegative: bool = True

    def __post_init__(self):
        c = _frozen(self.objective, "objective", 1)
        a = _frozen(self.constraints, "constraints", 2)
        b = _frozen(self.rhs, "rhs", 1)
        if a.shape[1] != c.size:
            raise SizeMismatchError("constraints have %d columns != %d "
                                    "variables" % (a.shape[1], c.size))
        if b.size != a.shape[0]:
            raise SizeMismatchError("rhs length %d != %d constraint rows"
                                    % (b.size, a.shape[0]))
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraints", a)
        object.__setattr__(self, "rhs", b)


@dataclass(frozen=True)
class LpResult:
    """status is OPTIMAL or INFEASIBLE; y and objective are the optimal
    point and value when OPTIMAL, None otherwise."""

    status: str
    y: Optional[np.ndarray]
    objective: Optional[float]


def _interval_is_empty(program):
    """True when the rows a y >= b of a one-variable program, each relaxed
    by _SLACK, leave no y, and miss by more than _SLACK relative to the
    ends of the interval they bound."""
    a = program.constraints[:, 0]
    b = program.rhs - _SLACK
    zero = np.abs(a) <= _HIGHS_SMALL_MATRIX_VALUE
    if np.any(b[zero] > 0.0):
        return True
    a, b = a[~zero], b[~zero]
    up = a > 0.0
    lo = np.max(b[up] / a[up],
                initial=-_SLACK if program.nonnegative else -np.inf)
    hi = np.min(b[~up] / a[~up], initial=np.inf)
    return bool(lo - hi > _SLACK * max(1.0, abs(lo), abs(hi)))


def solve_lp(program: LinearProgram) -> LpResult:
    """Solve the program with HiGHS, or certify a one-variable program
    infeasible from its rows (see the module docstring).

    Raises NumericalBreakdown when HiGHS stops without an optimum or a
    proof of infeasibility (iteration limit, numerical trouble, an
    unbounded program, or "infeasible or unbounded" undecided).
    """
    if program.objective.size == 0:
        # milp rejects an empty objective; every row reads 0 >= b
        if np.all(program.rhs <= 0.0):
            return LpResult(OPTIMAL, np.zeros(0), 0.0)
        return LpResult(INFEASIBLE, None, None)
    if program.objective.size == 1 and _interval_is_empty(program):
        return LpResult(INFEASIBLE, None, None)
    lower = 0.0 if program.nonnegative else -np.inf
    result = milp(program.objective,
                  constraints=LinearConstraint(program.constraints,
                                               lb=program.rhs),
                  bounds=Bounds(lower, np.inf))
    status = _STATUSES.get(result.status)
    if status is None:
        raise NumericalBreakdown(
            "HiGHS status %d: %s" % (result.status, result.message))
    if status != OPTIMAL:
        return LpResult(status, None, None)
    y = np.asarray(result.x, dtype=float)
    return LpResult(OPTIMAL, y, float(np.dot(program.objective, y)))
