"""LP solver tests against a vertex-enumeration oracle and linprog.

Every bounded LP attains its optimum at a vertex, i.e. an intersection
of k tight hyperplanes (constraint rows or, for y >= 0, coordinate
faces), so for small instances the exact optimum can be found by
enumerating all such intersections and keeping the feasible ones.
scipy.optimize.linprog poses the same program to HiGHS through its own
wrapper, with the >= rows negated into <= rows, and serves as the
reference for status and optimal value on random programs.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult, linprog, milp

from gftdual import lp
from gftdual.errors import (NonFiniteEntryError, NumericalBreakdown,
                            SizeMismatchError)
from gftdual.lp import INFEASIBLE, OPTIMAL, LinearProgram, solve_lp

ORACLE_TOL = 1e-7


def _feasible(x, a, b, nonnegative):
    if np.any(a @ x < b - ORACLE_TOL):
        return False
    return not nonnegative or bool(np.all(x >= -ORACLE_TOL))


def _vertex_oracle(c, a, b, nonnegative):
    """Best objective over all feasible hyperplane intersections, or None
    when no intersection is feasible (infeasible for bounded boxes)."""
    k = len(c)
    planes = list(zip(a, b))
    if nonnegative:
        planes += list(zip(np.eye(k), np.zeros(k)))
    best = None
    for combo in itertools.combinations(range(len(planes)), k):
        rows = np.array([planes[i][0] for i in combo])
        values = np.array([planes[i][1] for i in combo])
        try:
            x = np.linalg.solve(rows, values)
        except np.linalg.LinAlgError:
            continue
        if _feasible(x, a, b, nonnegative):
            value = float(np.dot(c, x))
            if best is None or value < best:
                best = value
    return best


def _random_program(rng):
    """A random program whose box lo <= y <= hi is written as >= rows,
    so every instance is bounded."""
    k = int(rng.integers(2, 5))
    m = int(rng.integers(2, 6))
    c = rng.integers(-3, 4, size=k).astype(float)
    a = rng.integers(-3, 4, size=(m, k)).astype(float)
    for row in a:
        if not np.any(row):
            row[int(rng.integers(0, k))] = 1.0
    b = rng.integers(-4, 5, size=m).astype(float)
    lo = rng.choice([0.0, -5.0], size=k)
    hi = rng.choice([3.0, 8.0], size=k)
    # y >= lo and -y >= -hi
    a = np.vstack([a, np.eye(k), -np.eye(k)])
    b = np.concatenate([b, lo, -hi])
    return c, a, b


def test_random_instances_match_vertex_oracle():
    for nonnegative in (True, False):
        rng = np.random.default_rng(100)
        optimal_seen = 0
        infeasible_seen = 0
        for _ in range(120):
            c, a, b = _random_program(rng)
            expected = _vertex_oracle(c, a, b, nonnegative)
            result = solve_lp(LinearProgram(objective=c, constraints=a,
                                            rhs=b, nonnegative=nonnegative))
            if expected is None:
                assert result.status == INFEASIBLE
                infeasible_seen += 1
            else:
                assert result.status == OPTIMAL
                assert abs(result.objective - expected) <= 1e-6
                assert _feasible(result.y, a, b, nonnegative)
                optimal_seen += 1
        # the generator must exercise both outcomes to mean anything
        assert optimal_seen >= 20
        assert infeasible_seen >= 20


def test_unbounded_detection():
    # no program the package poses is unbounded, so HiGHS proving one
    # unbounded is a solver failure like any other stop without an answer
    program = LinearProgram(objective=np.array([-1.0]),
                            constraints=np.array([[1.0]]),
                            rhs=np.array([0.0]))
    with pytest.raises(NumericalBreakdown, match="HiGHS status 3"):
        solve_lp(program)
    # -y1 + y2 >= -1 leaves y1 unbounded above along y2 = 0
    program = LinearProgram(objective=np.array([-1.0, 0.0]),
                            constraints=np.array([[-1.0, 1.0]]),
                            rhs=np.array([-1.0]))
    with pytest.raises(NumericalBreakdown, match="HiGHS status 3"):
        solve_lp(program)
    # a free variable with no rows below it
    program = LinearProgram(objective=np.array([1.0]),
                            constraints=np.zeros((0, 1)), rhs=np.zeros(0),
                            nonnegative=False)
    with pytest.raises(NumericalBreakdown, match="HiGHS status 3"):
        solve_lp(program)


def test_infeasible_detection():
    # y >= 3 and -y >= -2
    program = LinearProgram(objective=np.array([1.0]),
                            constraints=np.array([[1.0], [-1.0]]),
                            rhs=np.array([3.0, -2.0]))
    result = solve_lp(program)
    assert result.status == INFEASIBLE
    # y1 + y2 >= 3 and -y1 - y2 >= -2: two variables, so HiGHS decides
    program = LinearProgram(objective=np.ones(2),
                            constraints=np.array([[1.0, 1.0], [-1.0, -1.0]]),
                            rhs=np.array([3.0, -2.0]))
    assert solve_lp(program).status == INFEASIBLE


def _one_variable(rows, rhs, nonnegative=False):
    return LinearProgram(objective=np.zeros(1),
                         constraints=np.array(rows, dtype=float)[:, None],
                         rhs=np.array(rhs, dtype=float),
                         nonnegative=nonnegative)


@pytest.mark.parametrize("rows, rhs, nonnegative", [
    ([1.0, -1.0], [3.0, -2.0], False),          # y >= 3, -y >= -2
    ([1.0, -1.0], [1.0, -(1.0 - 5e-6)], False),  # missed by 5e-6
    ([0.0, 1.0], [1.0, 0.0], False),             # 0 >= 1
    ([1e-17], [1.0], False),                     # read as 0 >= 1
    ([-1.0], [1.0], True),                       # y <= -1 with y >= 0
])
def test_wide_one_variable_infeasibility_skips_highs(rows, rhs, nonnegative,
                                                     monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("milp called")

    monkeypatch.setattr(lp, "milp", forbidden)
    result = solve_lp(_one_variable(rows, rhs, nonnegative))
    assert (result.status, result.y, result.objective) == \
        (INFEASIBLE, None, None)


@pytest.mark.parametrize("rows, rhs, status", [
    # an empty interval inside HiGHS's tolerance band: HiGHS accepts it
    ([1.0, -1.0], [1.0, -(1.0 - 5e-8)], OPTIMAL),
    # -1e-17 y >= 0 is 0 >= 0 to HiGHS, not y <= 0
    ([-1e-17, 0.5], [0.0, 1.0], OPTIMAL),
    # empty by 0.1, which is less than 1e-6 relative to its ends at 1e6
    ([1.0, -1.0], [1e6, -(1e6 - 0.1)], INFEASIBLE),
])
def test_narrow_or_feasible_one_variable_programs_reach_highs(rows, rhs,
                                                              status,
                                                              monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return milp(*args, **kwargs)

    monkeypatch.setattr(lp, "milp", counted)
    result = solve_lp(_one_variable(rows, rhs))
    assert len(calls) == 1
    assert result.status == status


# a coefficient of a one-variable program: exact zero, noise HiGHS drops,
# or a magnitude from 1e-3 to 1e3, of either sign
_coefficients = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-17, -1e-17]),
    st.builds(lambda sign, power: sign * 10.0 ** power,
              st.sampled_from([1.0, -1.0]),
              st.floats(min_value=-3.0, max_value=3.0)))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_coefficients, _coefficients), max_size=8),
       nonnegative=st.booleans())
def test_one_variable_certificate_agrees_with_linprog(rows, nonnegative):
    a = np.array([row[0] for row in rows]).reshape(len(rows), 1)
    b = np.array([row[1] for row in rows])
    program = LinearProgram(objective=np.zeros(1), constraints=a, rhs=b,
                            nonnegative=nonnegative)
    if not lp._interval_is_empty(program):
        return
    reference = linprog(np.zeros(1), A_ub=-a, b_ub=-b,
                        bounds=(0, None) if nonnegative else (None, None),
                        method="highs")
    assert reference.status == 2


def test_free_and_bounded_variables():
    a = np.array([[1.0]])
    b = np.array([-3.0])
    # a free variable reaches the negative optimum
    result = solve_lp(LinearProgram(objective=np.array([1.0]),
                                    constraints=a, rhs=b, nonnegative=False))
    assert result.status == OPTIMAL
    assert abs(result.y[0] + 3.0) <= 1e-10
    # a nonnegative one stops at its bound
    result = solve_lp(LinearProgram(objective=np.array([1.0]),
                                    constraints=a, rhs=b))
    assert result.status == OPTIMAL
    assert abs(result.y[0]) <= 1e-10


def test_row_scaling_invariance():
    c = np.array([1.0, 1.0])
    base = solve_lp(LinearProgram(
        objective=c, constraints=np.array([[1.0, 2.0], [2.0, 1.0]]),
        rhs=np.array([2.0, 2.0])))
    scaled = solve_lp(LinearProgram(
        objective=c, constraints=np.array([[10.0, 20.0], [2.0, 1.0]]),
        rhs=np.array([20.0, 2.0])))
    assert abs(base.objective - scaled.objective) <= 1e-9
    assert np.allclose(base.y, scaled.y, atol=1e-9)


def test_beale_cycling_example():
    # classic degenerate program that cycles without an anti-cycling rule;
    # its <= rows are negated into >= rows
    program = LinearProgram(
        objective=np.array([-0.75, 150.0, -0.02, 6.0]),
        constraints=-np.array([[0.25, -60.0, -0.04, 9.0],
                               [0.5, -90.0, -0.02, 3.0],
                               [0.0, 0.0, 1.0, 0.0]]),
        rhs=-np.array([0.0, 0.0, 1.0]))
    result = solve_lp(program)
    assert result.status == OPTIMAL
    assert abs(result.objective - (-0.05)) <= 1e-9


def test_zero_objective_feasibility_mode():
    program = LinearProgram(objective=np.zeros(2),
                            constraints=np.array([[1.0, 1.0]]),
                            rhs=np.array([1.0]))
    result = solve_lp(program)
    assert result.status == OPTIMAL
    assert result.objective == 0.0


def test_program_without_variables():
    program = LinearProgram(objective=np.zeros(0),
                            constraints=np.zeros((2, 0)),
                            rhs=np.array([-1.0, 0.0]))
    result = solve_lp(program)
    assert result.status == OPTIMAL
    assert result.y.shape == (0,)
    program = LinearProgram(objective=np.zeros(0),
                            constraints=np.zeros((1, 0)), rhs=np.array([1.0]))
    assert solve_lp(program).status == INFEASIBLE


def test_program_is_read_only():
    a = np.array([[1.0, 2.0]])
    program = LinearProgram(objective=np.ones(2), constraints=a,
                            rhs=np.array([1.0]))
    a[0, 0] = 5.0
    assert program.constraints[0, 0] == 1.0
    assert len(program.constraints) == 1
    for array in (program.objective, program.constraints, program.rhs):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_validation_errors():
    with pytest.raises(SizeMismatchError):
        LinearProgram(objective=np.zeros((2, 2)),
                      constraints=np.zeros((0, 2)), rhs=np.zeros(0))
    with pytest.raises(SizeMismatchError):
        LinearProgram(objective=np.zeros(2), constraints=np.zeros((1, 3)),
                      rhs=np.ones(1))
    with pytest.raises(SizeMismatchError):
        LinearProgram(objective=np.zeros(2), constraints=np.zeros(2),
                      rhs=np.ones(1))
    with pytest.raises(NonFiniteEntryError):
        LinearProgram(objective=np.zeros(2),
                      constraints=np.array([[1.0, np.nan]]), rhs=np.ones(1))
    with pytest.raises(NonFiniteEntryError):
        LinearProgram(objective=np.array([1.0, np.inf]),
                      constraints=np.zeros((1, 2)), rhs=np.ones(1))
    with pytest.raises(NonFiniteEntryError):
        LinearProgram(objective=np.zeros(2), constraints=np.zeros((1, 2)),
                      rhs=np.array([np.nan]))
    # rhs length must match the row count
    with pytest.raises(SizeMismatchError):
        LinearProgram(objective=np.zeros(2), constraints=np.zeros((2, 2)),
                      rhs=np.ones(3))


# linprog status codes; any other code, unbounded (3) included, means
# HiGHS gave no answer solve_lp accepts
_LINPROG_STATUSES = {0: OPTIMAL, 2: INFEASIBLE}


@st.composite
def _programs(draw):
    """A random program A y >= b with small integer data: 1-4 variables,
    0-6 rows, either sign of every coefficient."""
    k = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=0, max_value=6))
    entries = st.integers(min_value=-3, max_value=3)
    c = draw(st.lists(entries, min_size=k, max_size=k))
    a = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                      min_size=m, max_size=m))
    b = draw(st.lists(st.integers(min_value=-4, max_value=4),
                      min_size=m, max_size=m))
    return (np.array(c, dtype=float), np.array(a, dtype=float).reshape(m, k),
            np.array(b, dtype=float))


@settings(max_examples=150, deadline=None)
@given(program=_programs(), nonnegative=st.booleans())
def test_status_and_value_match_linprog(program, nonnegative):
    c, a, b = program
    reference = linprog(c, A_ub=-a if len(a) else None,
                        b_ub=-b if len(a) else None,
                        bounds=(0, None) if nonnegative else (None, None),
                        method="highs")
    expected = _LINPROG_STATUSES.get(reference.status)
    problem = LinearProgram(objective=c, constraints=a, rhs=b,
                            nonnegative=nonnegative)
    if expected is None:
        with pytest.raises(NumericalBreakdown):
            solve_lp(problem)
        return
    result = solve_lp(problem)
    assert result.status == expected
    if expected == OPTIMAL:
        assert abs(result.objective - reference.fun) <= \
            1e-9 * max(1.0, abs(reference.fun))
        assert _feasible(result.y, a, b, nonnegative)


@pytest.mark.parametrize("code", [1, 4])
def test_solver_without_answer_raises(code, monkeypatch):
    # milp status 1 is an iteration or time limit, 4 any other stop
    def stopped(c, **kwargs):
        return OptimizeResult(status=code, message="stopped early", x=None)

    monkeypatch.setattr(lp, "milp", stopped)
    program = LinearProgram(objective=np.array([1.0]),
                            constraints=np.array([[1.0]]),
                            rhs=np.array([1.0]))
    with pytest.raises(NumericalBreakdown,
                       match="HiGHS status %d: stopped early" % code):
        solve_lp(program)
