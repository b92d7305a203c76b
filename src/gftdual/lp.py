"""Linear programs solved by HiGHS through scipy.optimize.linprog.

Solves  minimize c.y  subject to rows (a, relation, b) with relation in
{<=, >=, =} and per-variable bounds (lower, upper), either of which may be
None.  Default bound is (0, None).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .errors import NumericalBreakdown, SizeMismatchError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LESS_EQUAL = "<="
GREATER_EQUAL = ">="
EQUAL = "="
_RELATIONS = (LESS_EQUAL, GREATER_EQUAL, EQUAL)

# linprog status codes with a meaning here; any other is a solver failure
_STATUSES = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}


@dataclass(frozen=True)
class LinearProgram:
    """minimize objective.y subject to constraints and variable bounds."""

    objective: np.ndarray
    constraints: tuple
    bounds: Optional[tuple] = None

    def __post_init__(self):
        c = np.array(self.objective, dtype=float)
        if c.ndim != 1:
            raise SizeMismatchError("objective must be a vector")
        if c.size and not np.isfinite(c).all():
            raise SizeMismatchError("objective has non-finite coefficients")
        m = c.size
        rows = []
        for k, (a, rel, b) in enumerate(self.constraints):
            a = np.array(a, dtype=float)
            if a.shape != (m,):
                raise SizeMismatchError(
                    "constraint %d row length %d != %d variables"
                    % (k, a.size, m))
            if (a.size and not np.isfinite(a).all()) or not np.isfinite(b):
                raise SizeMismatchError("constraint %d has non-finite data" % k)
            if rel not in _RELATIONS:
                raise SizeMismatchError(
                    "constraint %d relation %r not in %s" % (k, rel, _RELATIONS))
            a.flags.writeable = False
            rows.append((a, rel, float(b)))
        if self.bounds is not None:
            if len(self.bounds) != m:
                raise SizeMismatchError("bounds length != number of variables")
            for j, (lo, hi) in enumerate(self.bounds):
                if lo is not None and not np.isfinite(lo):
                    raise SizeMismatchError("bound %d lower not finite" % j)
                if hi is not None and not np.isfinite(hi):
                    raise SizeMismatchError("bound %d upper not finite" % j)
                if lo is not None and hi is not None and lo > hi:
                    raise SizeMismatchError("bound %d has lower > upper" % j)
            object.__setattr__(self, "bounds", tuple(
                (lo if lo is None else float(lo), hi if hi is None else float(hi))
                for lo, hi in self.bounds))
        c.flags.writeable = False
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraints", tuple(rows))

    @property
    def num_variables(self):
        return self.objective.size


@dataclass(frozen=True)
class LpResult:
    """status is OPTIMAL, INFEASIBLE or UNBOUNDED; y and objective are the
    optimal point and value when OPTIMAL, None otherwise."""

    status: str
    y: Optional[np.ndarray]
    objective: Optional[float]


def _matrix(rows):
    if not rows:
        return None, None
    return np.array([a for a, _ in rows]), np.array([b for _, b in rows])


def solve_lp(program: LinearProgram) -> LpResult:
    """Solve the program with HiGHS.

    Raises NumericalBreakdown when HiGHS stops without an answer (iteration
    limit, numerical trouble, or "infeasible or unbounded" undecided).
    """
    if program.num_variables == 0:
        # linprog rejects an empty objective; every row reads 0 rel b
        holds = {LESS_EQUAL: lambda b: b >= 0.0,
                 GREATER_EQUAL: lambda b: b <= 0.0,
                 EQUAL: lambda b: b == 0.0}
        if all(holds[rel](b) for _, rel, b in program.constraints):
            return LpResult(OPTIMAL, np.zeros(0), 0.0)
        return LpResult(INFEASIBLE, None, None)
    upper, equal = [], []
    for a, rel, b in program.constraints:
        if rel == LESS_EQUAL:
            upper.append((a, b))
        elif rel == GREATER_EQUAL:
            upper.append((-a, -b))
        else:
            equal.append((a, b))
    a_ub, b_ub = _matrix(upper)
    a_eq, b_eq = _matrix(equal)
    bounds = (0, None) if program.bounds is None else program.bounds
    result = linprog(program.objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq,
                     b_eq=b_eq, bounds=bounds, method="highs")
    status = _STATUSES.get(result.status)
    if status is None:
        raise NumericalBreakdown(
            "HiGHS status %d: %s" % (result.status, result.message))
    if status != OPTIMAL:
        return LpResult(status, None, None)
    y = np.asarray(result.x, dtype=float)
    return LpResult(OPTIMAL, y, float(np.dot(program.objective, y)))
