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
from gftdual.errors import NumericalBreakdown
from gftdual.lp import LinearProgram, solve_lp

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


def _program(c, a, b, nonnegative=True):
    """A LinearProgram of float arrays, as the package's callers pose it."""
    return LinearProgram(objective=np.asarray(c, dtype=float),
                         constraints=np.asarray(a, dtype=float),
                         rhs=np.asarray(b, dtype=float),
                         nonnegative=nonnegative)


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
            y = solve_lp(_program(c, a, b, nonnegative))
            if expected is None:
                assert y is None
                infeasible_seen += 1
            else:
                assert abs(float(np.dot(c, y)) - expected) <= 1e-6
                assert _feasible(y, a, b, nonnegative)
                optimal_seen += 1
        # the generator must exercise both outcomes to mean anything
        assert optimal_seen >= 20
        assert infeasible_seen >= 20


def test_unbounded_detection():
    # no program the package poses is unbounded, so HiGHS proving one
    # unbounded is a solver failure like any other stop without an answer
    program = _program([-1.0], [[1.0]], [0.0])
    with pytest.raises(NumericalBreakdown, match="HiGHS status 3"):
        solve_lp(program)
    # -y1 + y2 >= -1 leaves y1 unbounded above along y2 = 0
    program = _program([-1.0, 0.0], [[-1.0, 1.0]], [-1.0])
    with pytest.raises(NumericalBreakdown, match="HiGHS status 3"):
        solve_lp(program)
    # a free variable with no rows below it
    program = _program([1.0], np.zeros((0, 1)), [], nonnegative=False)
    with pytest.raises(NumericalBreakdown, match="HiGHS status 3"):
        solve_lp(program)


def test_infeasible_detection():
    # y >= 3 and -y >= -2
    assert solve_lp(_program([1.0], [[1.0], [-1.0]], [3.0, -2.0])) is None
    # y1 + y2 >= 3 and -y1 - y2 >= -2: two variables, so HiGHS decides
    program = _program([1.0, 1.0], [[1.0, 1.0], [-1.0, -1.0]], [3.0, -2.0])
    assert solve_lp(program) is None


def _one_variable(rows, rhs, nonnegative=False):
    return _program([0.0], np.array(rows, dtype=float)[:, None], rhs,
                    nonnegative)


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
    assert solve_lp(_one_variable(rows, rhs, nonnegative)) is None


@pytest.mark.parametrize("rows, rhs, outcome", [
    # an empty interval inside HiGHS's tolerance band: HiGHS accepts it
    ([1.0, -1.0], [1.0, -(1.0 - 5e-8)], "optimal"),
    # -1e-17 y >= 0 is 0 >= 0 to HiGHS, not y <= 0
    ([-1e-17, 0.5], [0.0, 1.0], "optimal"),
    # empty by 0.1, which is less than 1e-6 relative to its ends at 1e6
    ([1.0, -1.0], [1e6, -(1e6 - 0.1)], "infeasible"),
])
def test_narrow_or_feasible_one_variable_programs_reach_highs(rows, rhs,
                                                              outcome,
                                                              monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return milp(*args, **kwargs)

    monkeypatch.setattr(lp, "milp", counted)
    y = solve_lp(_one_variable(rows, rhs))
    assert len(calls) == 1
    assert ("infeasible" if y is None else "optimal") == outcome


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
    program = _program([0.0], a, b, nonnegative)
    if not lp._interval_is_empty(program):
        return
    reference = linprog(np.zeros(1), A_ub=-a, b_ub=-b,
                        bounds=(0, None) if nonnegative else (None, None),
                        method="highs")
    assert reference.status == 2


def _reference_interval_is_empty(program):
    """The one-variable test as boolean-index copies of the rows, the
    form the library used before its one-pass reductions."""
    a = program.constraints[:, 0]
    b = program.rhs - lp._SLACK
    zero = np.abs(a) <= lp._HIGHS_SMALL_MATRIX_VALUE
    if np.any(b[zero] > 0.0):
        return True
    a, b = a[~zero], b[~zero]
    up = a > 0.0
    lo = np.max(b[up] / a[up],
                initial=-lp._SLACK if program.nonnegative else -np.inf)
    hi = np.min(b[~up] / a[~up], initial=np.inf)
    return bool(lo - hi > lp._SLACK * max(1.0, abs(lo), abs(hi)))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_coefficients, _coefficients), max_size=8),
       nonnegative=st.booleans())
def test_one_variable_certificate_matches_its_reference(rows, nonnegative):
    a = np.array([row[0] for row in rows]).reshape(len(rows), 1)
    b = np.array([row[1] for row in rows])
    program = _program([0.0], a, b, nonnegative)
    assert lp._interval_is_empty(program) is \
        _reference_interval_is_empty(program)


def test_free_and_bounded_variables():
    a = np.array([[1.0]])
    b = np.array([-3.0])
    # a free variable reaches the negative optimum
    y = solve_lp(_program([1.0], a, b, nonnegative=False))
    assert abs(y[0] + 3.0) <= 1e-10
    # a nonnegative one stops at its bound
    y = solve_lp(_program([1.0], a, b))
    assert abs(y[0]) <= 1e-10


def test_row_scaling_invariance():
    c = np.array([1.0, 1.0])
    base = solve_lp(_program(c, [[1.0, 2.0], [2.0, 1.0]], [2.0, 2.0]))
    scaled = solve_lp(_program(c, [[10.0, 20.0], [2.0, 1.0]], [20.0, 2.0]))
    assert abs(np.dot(c, base) - np.dot(c, scaled)) <= 1e-9
    assert np.allclose(base, scaled, atol=1e-9)


def test_beale_cycling_example():
    # classic degenerate program that cycles without an anti-cycling rule;
    # its <= rows are negated into >= rows
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    y = solve_lp(_program(c, -np.array([[0.25, -60.0, -0.04, 9.0],
                                        [0.5, -90.0, -0.02, 3.0],
                                        [0.0, 0.0, 1.0, 0.0]]),
                          -np.array([0.0, 0.0, 1.0])))
    assert abs(np.dot(c, y) - (-0.05)) <= 1e-9


def test_zero_objective_feasibility_mode():
    y = solve_lp(_program([0.0, 0.0], [[1.0, 1.0]], [1.0]))
    assert y.shape == (2,)
    assert y.sum() >= 1.0 - 1e-9


def test_program_without_variables():
    y = solve_lp(_program(np.zeros(0), np.zeros((2, 0)), [-1.0, 0.0]))
    assert y.shape == (0,)
    assert solve_lp(_program(np.zeros(0), np.zeros((1, 0)), [1.0])) is None


# linprog status codes: 0 an optimum, 2 infeasible; any other code,
# unbounded (3) included, means HiGHS gave no answer solve_lp accepts
_LINPROG_ANSWERS = (0, 2)


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
    problem = _program(c, a, b, nonnegative)
    if reference.status not in _LINPROG_ANSWERS:
        with pytest.raises(NumericalBreakdown):
            solve_lp(problem)
        return
    y = solve_lp(problem)
    assert (y is None) == (reference.status == 2)
    if y is not None:
        assert abs(float(np.dot(c, y)) - reference.fun) <= \
            1e-9 * max(1.0, abs(reference.fun))
        assert _feasible(y, a, b, nonnegative)


@pytest.mark.parametrize("code", [1, 4])
def test_solver_without_answer_raises(code, monkeypatch):
    # milp status 1 is an iteration or time limit, 4 any other stop
    def stopped(c, **kwargs):
        return OptimizeResult(status=code, message="stopped early", x=None)

    monkeypatch.setattr(lp, "milp", stopped)
    with pytest.raises(NumericalBreakdown,
                       match="HiGHS status %d: stopped early" % code):
        solve_lp(_program([1.0], [[1.0]], [1.0]))
