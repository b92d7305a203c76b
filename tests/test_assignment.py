"""Assignment solver tests with brute-force enumeration as the oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment

from gftdual.assignment import (BRUTEFORCE_LIMIT, assignment_bruteforce,
                                solve_assignment_max)
from gftdual.errors import NonFiniteEntryError, NotSquareError, TooLargeError
from gftdual.graphs import check_permutation


def test_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(10)
    for n in range(1, 8):
        for _ in range(40):
            s = rng.normal(size=(n, n))
            sigma, value = solve_assignment_max(s)
            sigma_b, value_b = assignment_bruteforce(s)
            assert value == value_b
            check_permutation(sigma, n)
            # continuous scores have a unique optimum almost surely
            assert np.array_equal(sigma, sigma_b)


def test_matches_bruteforce_with_ties():
    rng = np.random.default_rng(11)
    for n in range(2, 8):
        for _ in range(30):
            s = rng.integers(0, 4, size=(n, n)).astype(float)
            _, value = solve_assignment_max(s)
            _, value_b = assignment_bruteforce(s)
            assert value == value_b


def test_value_formula():
    s = np.array([[1.0, 9.0], [5.0, 2.0]])
    sigma, value = solve_assignment_max(s)
    # entries are selected as s[sigma[k], k] summed over columns k
    assert value == s[sigma[0], 0] + s[sigma[1], 1]
    assert value == 14.0
    assert np.array_equal(sigma, [1, 0])


def test_row_shift_invariance():
    rng = np.random.default_rng(12)
    s = rng.integers(-5, 6, size=(6, 6)).astype(float)
    sigma, value = solve_assignment_max(s)
    shifted = s.copy()
    shifted[2] += 10.0
    sigma_s, value_s = solve_assignment_max(shifted)
    # row 2 is selected exactly once in any assignment
    assert value_s == value + 10.0
    assert np.array_equal(sigma_s, sigma)


def test_permutation_equivariance():
    rng = np.random.default_rng(13)
    s = rng.normal(size=(7, 7))
    sigma, value = solve_assignment_max(s)
    p = np.array(rng.permutation(7), dtype=np.intp)
    _, value_rows = solve_assignment_max(s[p])
    _, value_cols = solve_assignment_max(s[:, p])
    assert abs(value_rows - value) < 1e-12
    assert abs(value_cols - value) < 1e-12


def test_identity_and_negative_scores():
    sigma, value = solve_assignment_max(np.eye(4))
    assert np.array_equal(sigma, np.arange(4))
    assert value == 4.0
    s = -np.ones((3, 3))
    _, value = solve_assignment_max(s)
    assert value == -3.0


def test_errors():
    with pytest.raises(NotSquareError):
        solve_assignment_max(np.zeros((2, 3)))
    with pytest.raises(NonFiniteEntryError):
        solve_assignment_max(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(NonFiniteEntryError):
        solve_assignment_max(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(TooLargeError):
        assignment_bruteforce(np.zeros((BRUTEFORCE_LIMIT + 1,
                                        BRUTEFORCE_LIMIT + 1)))


def test_empty_instance():
    sigma, value = solve_assignment_max(np.zeros((0, 0)))
    assert sigma.shape == (0,)
    assert value == 0.0


def test_stack_rows_equal_single_calls():
    rng = np.random.default_rng(14)
    for n in (1, 2, 5, 9, 17, 30):
        stack = np.abs(rng.normal(size=(7, n, n)))
        # continuous scores plus a tied row to exercise tie-breaking
        stack[3] = rng.integers(0, 3, size=(n, n))
        sigmas, values = solve_assignment_max(stack)
        assert sigmas.shape == (7, n) and sigmas.dtype == np.intp
        assert values.shape == (7,)
        for s, sigma, value in zip(stack, sigmas, values):
            single_sigma, single_value = solve_assignment_max(s)
            assert np.array_equal(sigma, single_sigma)
            assert value == single_value
        # a transposed view gives the same answers as a contiguous copy
        view = np.swapaxes(np.swapaxes(stack, 1, 2).copy(), 1, 2)
        view_sigmas, view_values = solve_assignment_max(view)
        assert np.array_equal(view_sigmas, sigmas)
        assert np.array_equal(view_values, values)


def test_negated_costs_equal_maximize_on_ties():
    # the stack is negated once and solved as a minimum; scipy's
    # maximize=True negates each matrix itself, so even the choice among
    # tied optima must agree
    rng = np.random.default_rng(16)
    for n in (2, 3, 6, 12, 30):
        stack = rng.integers(0, 3, size=(9, n, n)).astype(float)
        stack[0] = 1.0
        stack[1] = 0.0
        sigmas, values = solve_assignment_max(stack)
        for s, sigma, value in zip(stack, sigmas, values):
            expected = linear_sum_assignment(s.T, maximize=True)[1]
            assert np.array_equal(sigma, expected)
            assert value == s[expected, np.arange(n)].sum()


def test_stack_matches_bruteforce():
    rng = np.random.default_rng(15)
    for n in range(1, 7):
        stack = rng.normal(size=(12, n, n))
        sigmas, values = solve_assignment_max(stack)
        for s, sigma, value in zip(stack, sigmas, values):
            sigma_b, value_b = assignment_bruteforce(s)
            assert value == value_b
            assert np.array_equal(sigma, sigma_b)


# small integers give tied optima, bounded floats the general case
_SCORES = st.one_of(st.integers(min_value=-3, max_value=3).map(float),
                    st.floats(min_value=-100.0, max_value=100.0))


def _score_stacks(max_n):
    return st.tuples(st.integers(min_value=1, max_value=4),
                     st.integers(min_value=1, max_value=max_n)).flatmap(
        lambda shape: hnp.arrays(float, (shape[0], shape[1], shape[1]),
                                 elements=_SCORES))


@settings(max_examples=60, deadline=None)
@given(stack=_score_stacks(max_n=6))
def test_stack_matches_bruteforce_value_property(stack):
    sigmas, values = solve_assignment_max(stack)
    n = stack.shape[1]
    for s, sigma, value in zip(stack, sigmas, values):
        check_permutation(sigma, n)
        assert value == s[sigma, np.arange(n)].sum()
        # equal optima by different permutations may round differently;
        # scores are at most 100 in magnitude
        assert abs(value - assignment_bruteforce(s)[1]) <= 1e-10 * n


@settings(max_examples=40, deadline=None)
@given(stack=_score_stacks(max_n=9))
def test_non_contiguous_stacks_solve_like_their_copies_property(stack):
    sigmas, values = solve_assignment_max(stack)
    # the transposed view of a (start, column, row) buffer, as CDPM
    # passes it, and a view of a (row, start, column) buffer
    for view in (np.swapaxes(np.swapaxes(stack, 1, 2).copy(), 1, 2),
                 np.swapaxes(np.swapaxes(stack, 0, 1).copy(), 0, 1)):
        view_sigmas, view_values = solve_assignment_max(view)
        assert np.array_equal(view_sigmas, sigmas)
        assert np.array_equal(view_values, values)


def test_stack_errors():
    stack = np.zeros((3, 4, 4))
    stack[2, 1, 3] = np.nan
    with pytest.raises(NonFiniteEntryError):
        solve_assignment_max(stack)
    stack[2, 1, 3] = -np.inf
    with pytest.raises(NonFiniteEntryError):
        solve_assignment_max(stack)
    with pytest.raises(NotSquareError):
        solve_assignment_max(np.zeros((3, 4, 5)))
    with pytest.raises(NotSquareError):
        solve_assignment_max(np.zeros((2, 3, 3, 3)))
    with pytest.raises(NotSquareError):
        solve_assignment_max(np.zeros(3))
    with pytest.raises(NotSquareError):
        assignment_bruteforce(np.zeros((2, 3, 3)))


def test_empty_stacks():
    sigmas, values = solve_assignment_max(np.zeros((0, 5, 5)))
    assert sigmas.shape == (0, 5) and sigmas.dtype == np.intp
    assert values.shape == (0,)
    sigmas, values = solve_assignment_max(np.zeros((3, 0, 0)))
    assert sigmas.shape == (3, 0) and sigmas.dtype == np.intp
    assert np.array_equal(values, np.zeros(3))
