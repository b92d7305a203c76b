"""Linear programs solved by HiGHS through scipy.optimize.milp.

Solves  minimize c.y  subject to  A y >= b,  with y >= 0 (nonnegative,
the default) or y free.  A is one (m, k) matrix and b its (m,) right-hand
side; these are the only programs the package poses (the DUP master LP
and the dual-construction LP).  milp is called with no integer variables,
so HiGHS solves a plain LP with its default presolve and tolerances; it
takes the >= rows as lower row bounds, and its per-call Python overhead is
well below linprog's, which dominated these programs of 1-5 variables.
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


def solve_lp(program: LinearProgram) -> LpResult:
    """Solve the program with HiGHS.

    Raises NumericalBreakdown when HiGHS stops without an optimum or a
    proof of infeasibility (iteration limit, numerical trouble, an
    unbounded program, or "infeasible or unbounded" undecided).
    """
    if program.objective.size == 0:
        # milp rejects an empty objective; every row reads 0 >= b
        if np.all(program.rhs <= 0.0):
            return LpResult(OPTIMAL, np.zeros(0), 0.0)
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
