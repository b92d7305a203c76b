"""Dual-graph feasibility construction tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from gftdual import dual_construct, lp
from gftdual.dual_construct import (FEASIBLE, INFEASIBLE,
                                    DualConstructionResult, construct_dual,
                                    construct_dual_from_vectors,
                                    verify_dual_witness)
from gftdual.errors import (NonFiniteEntryError, NonOrthogonalInputError,
                            SizeMismatchError)
from gftdual.graphs import (Graph, circulant, erdos_renyi, new_graph,
                            permute_graph)
from gftdual.rng import SplitMix64
from gftdual.spectral import dft_matrix, eigendecompose

WITNESS_TOL = 1e-7


def _full_status(v):
    """Status of the program in all n entries of lambda, with the n
    diagonal equality rows kept, solved by HiGHS."""
    n = v.shape[0]
    upper, lower = np.triu_indices(n, k=1)
    signs = v[:, upper] * v[:, lower]
    row_sums = v * v.sum(axis=1)[:, None]
    result = linprog(np.zeros(n), A_ub=-np.hstack([signs, row_sums]).T,
                     b_ub=np.concatenate([np.zeros(upper.size), -np.ones(n)]),
                     A_eq=(v * v).T, b_eq=np.zeros(n), bounds=(None, None),
                     method="highs")
    assert result.status in (0, 2), result.message
    return FEASIBLE if result.status == 0 else INFEASIBLE


def _reduced_status(v):
    """Status linprog gives the reduced program that construct_dual hands
    to solve_lp: free t, sign and row-sum rows as <= rows."""
    program = dual_construct._assemble(v, dual_construct._null_basis(v))
    result = linprog(program.objective, A_ub=-program.constraints,
                     b_ub=-program.rhs, bounds=(None, None), method="highs")
    assert result.status in (0, 2), result.message
    return FEASIBLE if result.status == 0 else INFEASIBLE


def _weighted(g, rng):
    i, j = np.nonzero(np.triu(g.adjacency))
    return new_graph(g.n, [(a, b, w) for a, b, w in
                           zip(i, j, rng.uniform(0.1, 3.0, i.size))])


def _single_edge_pair():
    return new_graph(2, [(0, 1, 1.0)])


def test_single_edge_graph_is_feasible_with_exact_witness():
    g = _single_edge_pair()
    result = construct_dual(g)
    assert result.status == FEASIBLE
    assert np.allclose(np.sort(result.lambda_), [-1.0, 1.0], atol=1e-9)
    diagonal, negativity, shortfall = verify_dual_witness(g, result.lambda_)
    assert diagonal <= 1e-12
    assert negativity <= 1e-12
    assert shortfall <= 1e-12
    # the construction reproduces the adjacency of the edge itself
    assert np.max(np.abs(result.adjacency - g.adjacency)) <= 1e-12
    assert not result.adjacency.flags.writeable
    assert not result.lambda_.flags.writeable


def test_four_cycle_is_feasible():
    g = circulant(4, [(1, 1.0)])
    result = construct_dual(g)
    assert result.status == FEASIBLE
    residuals = verify_dual_witness(g, result.lambda_)
    assert max(residuals) <= WITNESS_TOL
    a = result.adjacency
    assert np.max(np.abs(np.diagonal(a))) == 0.0
    assert np.min(a) >= 0.0
    assert np.min(a.sum(axis=1)) >= 1.0 - WITNESS_TOL


def test_small_structured_graphs_infeasible():
    for g in (new_graph(3, [(0, 1, 1.0), (1, 2, 1.0)]),
              new_graph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]),
              circulant(5, [(1, 1.0)])):
        result = construct_dual(g)
        assert result.status == INFEASIBLE
        assert result.lambda_ is None
        assert result.adjacency is None


def test_identity_basis_infeasible():
    # rank-one terms of identity rows are diagonal, so row sums stay 0
    result = construct_dual_from_vectors(np.eye(4))
    assert result.status == INFEASIBLE


def test_feasible_results_self_verify():
    found = 0
    for seed in range(30):
        g = erdos_renyi(6, 0.5, seed)
        result = construct_dual(g)
        if result.status != FEASIBLE:
            continue
        found += 1
        assert max(verify_dual_witness(g, result.lambda_)) <= WITNESS_TOL
    # status distribution is data, not contract; just record coverage
    assert found >= 0


def test_dense_er_graphs_mostly_infeasible():
    infeasible = 0
    for seed in range(12):
        result = construct_dual(erdos_renyi(20, 0.5, seed))
        if result.status == INFEASIBLE:
            infeasible += 1
    assert infeasible >= 10


def test_criterion_graphs_are_certified_without_highs(monkeypatch):
    # criterion 7's graphs leave one variable after the null-space
    # reduction, and lp certifies each of them infeasible from its rows
    def forbidden(*args, **kwargs):
        raise AssertionError("milp called")

    monkeypatch.setattr(lp, "milp", forbidden)
    for s in range(10):
        assert construct_dual(erdos_renyi(20, 0.5, 7000 + s)).status == \
            INFEASIBLE


def test_status_invariant_under_relabelling():
    rng = np.random.default_rng(4)
    for seed in (0, 1, 2, 3):
        g = erdos_renyi(7, 0.5, seed)
        base = construct_dual(g).status
        for _ in range(2):
            relabelled = permute_graph(g, rng.permutation(7))
            assert construct_dual(relabelled).status == base


def test_candidate_adjacency_formula():
    rng = np.random.default_rng(5)
    v = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    lam = rng.standard_normal(5)
    a = dual_construct._candidate_adjacency(v, lam)
    expected = sum(lam[k] * np.outer(v[k], v[k]) for k in range(5))
    assert np.max(np.abs(a - expected)) <= 1e-12
    assert np.max(np.abs(a - a.T)) <= 1e-12
    # a stack of spectra gives the stack of adjacencies, each bit for bit
    # the adjacency of its spectrum alone
    stack = rng.standard_normal((3, 5))
    adjacencies = dual_construct._candidate_adjacency(v, stack)
    assert adjacencies.shape == (3, 5, 5)
    for lam, a in zip(stack, adjacencies):
        assert np.array_equal(a, dual_construct._candidate_adjacency(v, lam))


def _cycles():
    return [circulant(n, [(1, 1)]) for n in range(2, 17)]


def test_feasible_adjacency_is_an_exactly_symmetric_graph():
    # the candidate adjacency is a product whose a_ij and a_ji round
    # apart (C4 by 8.9e-16), so Graph refused the adjacency it returned
    seeds = SplitMix64(11)
    graphs = _cycles() + [erdos_renyi(n, 0.5, seeds.next_uint64())
                          for n in range(2, 11) for _ in range(100)]
    feasible = 0
    for g in graphs:
        result = construct_dual(g)
        if result.status != FEASIBLE:
            continue
        feasible += 1
        assert np.array_equal(Graph(result.adjacency).adjacency,
                              result.adjacency)
        assert max(verify_dual_witness(g, result.lambda_)) <= WITNESS_TOL
    assert feasible >= 80


def test_checked_and_unchecked_entry_points_agree():
    # construct_dual skips the check of the vectors it computed itself;
    # the checked entry point must give the same bytes on the same basis
    rng = np.random.default_rng(31)
    graphs = _cycles()
    for i in range(120):
        g = erdos_renyi(2 + i % 20, 0.2 + 0.1 * (i % 6), 5000 + i)
        graphs.append(_weighted(g, rng) if i % 3 == 0 else g)
    feasible = 0
    for g in graphs:
        unchecked = construct_dual(g)
        checked = construct_dual_from_vectors(eigendecompose(g).vectors)
        assert checked.status == unchecked.status
        if unchecked.status == FEASIBLE:
            feasible += 1
            assert checked.lambda_.tobytes() == unchecked.lambda_.tobytes()
            assert checked.adjacency.tobytes() == \
                unchecked.adjacency.tobytes()
        else:
            assert checked.lambda_ is checked.adjacency is None
    assert feasible >= 5


def test_construct_from_vectors_validation():
    with pytest.raises(SizeMismatchError):
        construct_dual_from_vectors(np.zeros((2, 3)))


def test_verify_dual_witness_validation_and_violations():
    g = _single_edge_pair()
    with pytest.raises(SizeMismatchError):
        verify_dual_witness(g, np.ones(3))
    # all-ones spectrum reconstructs the identity: diagonal violation 1,
    # off-diagonal entries 0, row sums exactly 1
    diagonal, negativity, shortfall = verify_dual_witness(g, np.array([1.0, 1.0]))
    assert abs(diagonal - 1.0) <= 1e-12
    assert negativity <= 1e-12
    assert abs(shortfall) <= 1e-12


@pytest.mark.parametrize("lam", [
    [np.nan] * 4,
    [np.inf, 0.0, 0.0, 0.0],
    [1.0, -np.inf, 1.0, 1.0],
])
def test_verify_dual_witness_rejects_non_finite_witness(lam):
    # max(0.0, nan) is 0.0, so a NaN witness used to read as (nan, 0, 0)
    with pytest.raises(NonFiniteEntryError):
        verify_dual_witness(circulant(4, [(1, 1.0)]), lam)


@pytest.mark.parametrize("lam", [[1j, 0, 0, 0], np.ones(4, dtype=complex)])
def test_verify_dual_witness_rejects_complex_witness(lam):
    # [1j, 0, 0, 0] used to raise an untyped TypeError, and a complex
    # array with zero imaginary parts was cast with a warning
    with pytest.raises(SizeMismatchError, match="real"):
        verify_dual_witness(circulant(4, [(1, 1.0)]), lam)


def test_result_dataclass_frozen():
    result = DualConstructionResult(status=INFEASIBLE, lambda_=None,
                                    adjacency=None)
    with pytest.raises(AttributeError):
        result.status = FEASIBLE


def test_complex_or_non_finite_vectors_are_rejected():
    v = dft_matrix(4)
    with pytest.raises(SizeMismatchError, match="real"):
        construct_dual_from_vectors(v)
    for bad in (np.nan, np.inf):
        v = np.eye(3)
        v[1, 2] = bad
        with pytest.raises(NonFiniteEntryError) as info:
            construct_dual_from_vectors(v)
        assert str(info.value) == "V has non-finite entries"


def test_non_orthogonal_vectors_are_rejected():
    # V'V = 9 I: the construction assumes an orthogonal V
    v = 3.0 * np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    with pytest.raises(NonOrthogonalInputError, match="V is not orthogonal"):
        construct_dual_from_vectors(v)
    # the same basis, orthonormal, is accepted
    assert construct_dual_from_vectors(v / 3.0).status == FEASIBLE


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=10),
       p=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       weighted=st.booleans())
def test_status_matches_the_full_program(n, p, seed, weighted):
    g = erdos_renyi(n, p, seed)
    if weighted:
        g = _weighted(g, np.random.default_rng(seed))
    result = construct_dual(g)
    assert result.status == _full_status(eigendecompose(g).vectors)
    if result.status == FEASIBLE:
        assert max(verify_dual_witness(g, result.lambda_)) <= WITNESS_TOL


def test_status_matches_linprog_on_seeded_graphs():
    # 520 G(n, p) graphs at n = 6-25, p = 0.2-0.7, every fourth weighted,
    # then the circulants with one offset that have a dual (perfect
    # matchings and the 4- and 6-cycles), plain and weighted
    rng = np.random.default_rng(21)
    graphs = []
    for i in range(520):
        g = erdos_renyi(6 + i % 20, 0.2 + 0.05 * (i % 11), 4000 + i)
        graphs.append(_weighted(g, rng) if i % 4 == 0 else g)
    for n, offset in ((4, 1), (4, 2), (6, 1), (6, 3), (8, 4), (10, 5),
                      (12, 6), (14, 7), (16, 8)):
        graphs += [circulant(n, [(offset, 1.0)]),
                   circulant(n, [(offset, 2.5)])]
    feasible = 0
    for g in graphs:
        result = construct_dual(g)
        assert result.status == _reduced_status(eigendecompose(g).vectors)
        if result.status == FEASIBLE:
            feasible += 1
            assert max(verify_dual_witness(g, result.lambda_)) <= WITNESS_TOL
    assert feasible >= 18


def test_own_spectrum_zeroes_every_diagonal_row():
    # E' mu = diag(A) = 0 for the spectrum mu, so E is singular and the
    # program in lambda = N t keeps at least one variable
    rng = np.random.default_rng(9)
    for seed in range(6):
        g = _weighted(erdos_renyi(12, 0.5, seed), rng)
        decomposition = eigendecompose(g)
        v, mu = decomposition.vectors, decomposition.eigenvalues
        assert np.max(np.abs((v * v) @ mu)) <= 1e-12 * np.max(np.abs(mu))
        basis = dual_construct._null_basis(v)
        assert basis.shape[1] >= 1
        assert np.max(np.abs((v * v).T @ basis)) <= 1e-12
        assert np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1]))) <= 1e-12


def test_singular_values_clear_the_null_space_cutoff():
    # E is doubly stochastic, so its largest singular value is 1, and the
    # cutoff sits orders of magnitude from both sides of the gap
    assert 1e-13 < dual_construct.NULL_SPACE_RTOL < 1e-8
    for seed in range(50):
        v = eigendecompose(erdos_renyi(20, 0.5, 7000 + seed)).vectors
        s = np.linalg.svd((v * v).T, compute_uv=False)
        assert abs(s[0] - 1.0) <= 1e-12
        assert np.all((s <= 1e-13) | (s >= 1e-8))


@pytest.mark.parametrize("g, dimension", [
    (erdos_renyi(7, 0.5, 3), 1),
    (erdos_renyi(6, 0.5, 0), 2),
    (circulant(6, [(1, 1.0)]), 4),
], ids=["er7-seed3", "er6-seed0", "c6"])
def test_assembled_program_rows(g, dimension):
    # n(n-1)/2 sign rows >= 0, then n row-sum rows >= 1, in free t
    n = g.n
    v = eigendecompose(g).vectors
    basis = dual_construct._null_basis(v)
    assert basis.shape[1] == dimension
    program = dual_construct._assemble(v, basis)
    pairs = n * (n - 1) // 2
    assert len(program.constraints) == pairs + n
    assert program.constraints.shape == (pairs + n, basis.shape[1])
    assert np.array_equal(program.rhs,
                          np.concatenate((np.zeros(pairs), np.ones(n))))
    assert not program.nonnegative
    # column c holds the entries A(N_c)_ij, i < j, then the row sums of
    # A(N_c), bit for bit those of the one candidate adjacency kernel
    upper, lower = np.triu_indices(n, k=1)
    for c in range(basis.shape[1]):
        a = dual_construct._candidate_adjacency(v, basis[:, c])
        assert np.array_equal(program.constraints[:pairs, c],
                              a[upper, lower])
        assert np.array_equal(program.constraints[pairs:, c],
                              a.sum(axis=1))
    # row (i, j), i < j, maps t to the entry A(L)_ij; then the row sums
    t = np.arange(1.0, basis.shape[1] + 1.0)
    a = dual_construct._candidate_adjacency(v, basis @ t)
    assert np.allclose(program.constraints[:pairs] @ t, a[upper, lower],
                       atol=1e-12)
    assert np.allclose(program.constraints[pairs:] @ t, a.sum(axis=1),
                       atol=1e-12)
