"""LP solver tests against a vertex-enumeration oracle.

Every bounded LP attains its optimum at a vertex, i.e. an intersection
of n tight hyperplanes (constraint rows or bound faces), so for small
instances the exact optimum can be found by enumerating all such
intersections and keeping the feasible ones.
"""

import itertools

import numpy as np
import pytest

from gftdual.errors import SizeMismatchError
from gftdual.lp import (EQUAL, GREATER_EQUAL, INFEASIBLE, LESS_EQUAL, OPTIMAL,
                        UNBOUNDED, LinearProgram, solve_lp)

ORACLE_TOL = 1e-7


def _feasible(x, rows, bounds):
    for a, rel, b in rows:
        v = float(np.dot(a, x))
        if rel == LESS_EQUAL and v > b + ORACLE_TOL:
            return False
        if rel == GREATER_EQUAL and v < b - ORACLE_TOL:
            return False
        if rel == EQUAL and abs(v - b) > ORACLE_TOL:
            return False
    for j, (lo, hi) in enumerate(bounds):
        if lo is not None and x[j] < lo - ORACLE_TOL:
            return False
        if hi is not None and x[j] > hi + ORACLE_TOL:
            return False
    return True


def _vertex_oracle(c, rows, bounds):
    """Best objective over all feasible hyperplane intersections, or None
    when no intersection is feasible (infeasible for bounded boxes)."""
    n = len(c)
    planes = [(np.asarray(a, dtype=float), float(b)) for a, _, b in rows]
    for j, (lo, hi) in enumerate(bounds):
        e = np.zeros(n)
        e[j] = 1.0
        if lo is not None:
            planes.append((e.copy(), float(lo)))
        if hi is not None:
            planes.append((e.copy(), float(hi)))
    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        a = np.array([planes[k][0] for k in combo])
        b = np.array([planes[k][1] for k in combo])
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if _feasible(x, rows, bounds):
            value = float(np.dot(c, x))
            if best is None or value < best:
                best = value
    return best


def _random_program(rng):
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2, 6))
    c = rng.integers(-3, 4, size=n).astype(float)
    rows = []
    for _ in range(m):
        a = rng.integers(-3, 4, size=n).astype(float)
        if not np.any(a):
            a[int(rng.integers(0, n))] = 1.0
        rel = (LESS_EQUAL, GREATER_EQUAL, EQUAL)[int(rng.integers(0, 3))]
        b = float(rng.integers(-4, 5))
        rows.append((a, rel, b))
    bounds = []
    for _ in range(n):
        lo = float(rng.choice([0.0, -5.0]))
        hi = float(rng.choice([3.0, 8.0]))
        bounds.append((lo, hi))
    return c, rows, tuple(bounds)


def test_random_instances_match_vertex_oracle():
    rng = np.random.default_rng(100)
    optimal_seen = 0
    infeasible_seen = 0
    for _ in range(120):
        c, rows, bounds = _random_program(rng)
        expected = _vertex_oracle(c, rows, bounds)
        result = solve_lp(LinearProgram(objective=c, constraints=tuple(rows),
                                        bounds=bounds))
        if expected is None:
            assert result.status == INFEASIBLE
            infeasible_seen += 1
        else:
            assert result.status == OPTIMAL
            assert abs(result.objective - expected) <= 1e-6
            assert _feasible(result.y, rows, bounds)
            optimal_seen += 1
    # the generator must exercise both outcomes to mean anything
    assert optimal_seen >= 20
    assert infeasible_seen >= 20


def test_equality_program():
    program = LinearProgram(
        objective=np.array([1.0, 1.0]),
        constraints=((np.array([1.0, 0.0]), EQUAL, 1.0),
                     (np.array([0.0, 1.0]), EQUAL, 1.0)))
    result = solve_lp(program)
    assert result.status == OPTIMAL
    assert np.allclose(result.y, [1.0, 1.0], atol=1e-10)
    assert abs(result.objective - 2.0) <= 1e-10


def test_redundant_equality_rows():
    program = LinearProgram(
        objective=np.array([1.0, 2.0]),
        constraints=((np.array([1.0, 1.0]), EQUAL, 2.0),
                     (np.array([1.0, 1.0]), EQUAL, 2.0),
                     (np.array([2.0, 2.0]), EQUAL, 4.0)))
    result = solve_lp(program)
    assert result.status == OPTIMAL
    assert abs(result.objective - 2.0) <= 1e-8


def test_unbounded_detection():
    program = LinearProgram(
        objective=np.array([-1.0]),
        constraints=((np.array([1.0]), GREATER_EQUAL, 0.0),))
    assert solve_lp(program).status == UNBOUNDED
    program = LinearProgram(
        objective=np.array([-1.0, 0.0]),
        constraints=((np.array([1.0, -1.0]), LESS_EQUAL, 1.0),))
    assert solve_lp(program).status == UNBOUNDED


def test_infeasible_detection():
    program = LinearProgram(
        objective=np.array([1.0]),
        constraints=((np.array([1.0]), GREATER_EQUAL, 3.0),
                     (np.array([1.0]), LESS_EQUAL, 2.0)))
    result = solve_lp(program)
    assert result.status == INFEASIBLE


def test_free_and_bounded_variables():
    # free variable reaching a negative optimum
    program = LinearProgram(
        objective=np.array([1.0]),
        constraints=((np.array([1.0]), GREATER_EQUAL, -3.0),),
        bounds=((None, None),))
    result = solve_lp(program)
    assert result.status == OPTIMAL
    assert abs(result.y[0] + 3.0) <= 1e-10
    # two-sided bounds
    program = LinearProgram(
        objective=np.array([-1.0]),
        constraints=((np.array([1.0]), LESS_EQUAL, 100.0),),
        bounds=((1.0, 3.0),))
    result = solve_lp(program)
    assert abs(result.y[0] - 3.0) <= 1e-10
    # upper bound only (reflected variable)
    program = LinearProgram(
        objective=np.array([-1.0]),
        constraints=((np.array([1.0]), GREATER_EQUAL, -10.0),),
        bounds=((None, 5.0),))
    result = solve_lp(program)
    assert abs(result.y[0] - 5.0) <= 1e-10


def test_row_scaling_invariance():
    c = np.array([1.0, 1.0])
    rows = ((np.array([1.0, 2.0]), GREATER_EQUAL, 2.0),
            (np.array([2.0, 1.0]), GREATER_EQUAL, 2.0))
    base = solve_lp(LinearProgram(objective=c, constraints=rows))
    scaled = solve_lp(LinearProgram(
        objective=c,
        constraints=((np.array([10.0, 20.0]), GREATER_EQUAL, 20.0),
                     (np.array([2.0, 1.0]), GREATER_EQUAL, 2.0))))
    assert abs(base.objective - scaled.objective) <= 1e-9
    assert np.allclose(base.y, scaled.y, atol=1e-9)


def test_beale_cycling_example():
    # classic degenerate program that cycles without an anti-cycling rule
    program = LinearProgram(
        objective=np.array([-0.75, 150.0, -0.02, 6.0]),
        constraints=(
            (np.array([0.25, -60.0, -0.04, 9.0]), LESS_EQUAL, 0.0),
            (np.array([0.5, -90.0, -0.02, 3.0]), LESS_EQUAL, 0.0),
            (np.array([0.0, 0.0, 1.0, 0.0]), LESS_EQUAL, 1.0)))
    result = solve_lp(program)
    assert result.status == OPTIMAL
    assert abs(result.objective - (-0.05)) <= 1e-9


def test_zero_objective_feasibility_mode():
    program = LinearProgram(
        objective=np.zeros(2),
        constraints=((np.array([1.0, 1.0]), GREATER_EQUAL, 1.0),))
    result = solve_lp(program)
    assert result.status == OPTIMAL
    assert result.objective == 0.0


def test_program_without_variables():
    program = LinearProgram(
        objective=np.zeros(0),
        constraints=((np.zeros(0), LESS_EQUAL, 1.0),
                     (np.zeros(0), EQUAL, 0.0)))
    result = solve_lp(program)
    assert result.status == OPTIMAL
    assert result.y.shape == (0,)
    program = LinearProgram(
        objective=np.zeros(0),
        constraints=((np.zeros(0), GREATER_EQUAL, 1.0),))
    assert solve_lp(program).status == INFEASIBLE


def test_validation_errors():
    with pytest.raises(SizeMismatchError):
        LinearProgram(objective=np.zeros((2, 2)), constraints=())
    with pytest.raises(SizeMismatchError):
        LinearProgram(objective=np.zeros(2),
                      constraints=((np.zeros(3), LESS_EQUAL, 1.0),))
    with pytest.raises(SizeMismatchError):
        LinearProgram(objective=np.zeros(2),
                      constraints=((np.zeros(2), "<", 1.0),))
    with pytest.raises(SizeMismatchError):
        LinearProgram(objective=np.zeros(2),
                      constraints=((np.array([1.0, np.nan]), LESS_EQUAL, 1.0),))
    with pytest.raises(SizeMismatchError):
        LinearProgram(objective=np.zeros(2), constraints=(),
                      bounds=((2.0, 1.0), (0.0, None)))
    with pytest.raises(SizeMismatchError):
        LinearProgram(objective=np.zeros(2), constraints=(),
                      bounds=((0.0, None),))
