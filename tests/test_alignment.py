"""CD / CDPM optimizer tests: closed-form oracles, monotonicity, algebra."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from gftdual import alignment
from gftdual.alignment import (CD, CDPM, ZERO_DIAGONAL_TOL, SolverConfig,
                               _BLOCK, _SEEDED_EVERY, _first_seeded,
                               _perturbed_starts, _phases_of_diagonal,
                               _random_starts, cd_align, cdpm_align,
                               isomorphism_transport, multistart, run_pair,
                               trace_objective, verify_circulant_duality)
from gftdual.dup import build_coupling
from gftdual.errors import (IndexOutOfRangeError, NonFiniteEntryError,
                            NonOrthogonalInputError, NonUnitPhaseError,
                            NotCirculantError, RepeatedEigenvaluesError,
                            SizeMismatchError)
from gftdual.experiment import _sample_pair
from gftdual.graphs import Graph, circulant, erdos_renyi, invert_permutation
from gftdual.rng import derive_stream
from gftdual.spectral import decompose_pair, eigendecompose
from oracles import (certified_optimum, permutation_matrix, planted_cases,
                     planted_pair)


def _random_init(stream, n, with_permutations):
    """The scalar reference of multistart's start rule: both phase
    vectors, then (CDPM) both permutations, drawn from stream in turn."""
    d1 = stream.unit_phases(n)
    d2 = stream.unit_phases(n)
    if not with_permutations:
        return d1, d2
    return d1, stream.permutation(n), d2, stream.permutation(n)


def _random_unitary(rng, n, complex_valued=False):
    a = rng.standard_normal((n, n))
    if complex_valued:
        a = a + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _eigvecs(n, p, seed):
    return eigendecompose(erdos_renyi(n, p, seed)).vectors


def test_optimal_phases_against_grid_search():
    rng = np.random.default_rng(0)
    thetas = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    circle = np.exp(1j * thetas)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        diag = np.diagonal(a)
        d, value = _phases_of_diagonal(diag)
        assert np.max(np.abs(np.abs(d) - 1.0)) <= 1e-14
        # per-coordinate maximum of Re(A_kk d_k) over the unit circle
        grid_best = float(np.sum(np.max(np.real(np.outer(diag, circle)), axis=1)))
        exact = float(np.sum(np.abs(diag)))
        assert value >= grid_best - 1e-9
        assert abs(value - exact) <= 1e-12
        assert abs(float(np.real(np.sum(diag * d))) - value) <= 1e-12


def test_optimal_phases_zero_diagonal():
    diag = np.zeros(3, dtype=complex)
    diag[0] = 2.0 - 1.0j
    d, value = _phases_of_diagonal(diag)
    assert d[1] == 1.0 + 0.0j and d[2] == 1.0 + 0.0j
    assert abs(value - abs(diag[0])) <= 1e-14


def _masked_phases(diag):
    """The masked form of _phases_of_diagonal, for every input."""
    mag = np.abs(diag)
    keep = mag > ZERO_DIAGONAL_TOL
    d = np.where(keep, np.conj(diag) / np.where(keep, mag, 1.0), 1.0 + 0.0j)
    return d, np.sum(np.where(keep, mag, 0.0), axis=-1)


def test_phases_of_diagonal_fast_path_equals_masked_path():
    rng = np.random.default_rng(5)
    diag = rng.standard_normal((7, 30)) + 1j * rng.standard_normal((7, 30))
    d, value = _phases_of_diagonal(diag)
    expected_d, expected_value = _masked_phases(diag)
    assert np.array_equal(d, expected_d)
    assert np.array_equal(value, expected_value)
    # an entry at or below the threshold, or NaN, takes the masked path:
    # phase 1 and no contribution, where conj(a)/|a| would be NaN
    for small in (0.0, 1e-13, np.nan):
        marked = diag.copy()
        marked[2, 4] = small
        d, value = _phases_of_diagonal(marked)
        expected_d, expected_value = _masked_phases(marked)
        assert d[2, 4] == 1.0
        assert np.array_equal(d, expected_d)
        assert np.array_equal(value, expected_value)


@pytest.mark.parametrize("complex_valued", [False, True])
def test_first_trace_entry_scores_the_start(complex_valued):
    # the trace's first entry is the objective of the start itself
    rng = np.random.default_rng(6)
    n = 11
    v1 = _random_unitary(rng, n, complex_valued)
    v2 = _random_unitary(rng, n, complex_valued)
    for seed in range(4):
        d1, p1, d2, p2 = _random_init(derive_stream(seed, 0), n, True)
        for method, init, perms in (
                (cd_align, (d1, d2), (np.arange(n), np.arange(n))),
                (cdpm_align, (d1, p1, d2, p2), (p1, p2))):
            trace = []
            method(v1, v2, SolverConfig(max_iterations=2), init, trace)
            expected = trace_objective(v1, d1, perms[0], v2, d2, perms[1])
            assert abs(trace[0] - expected) <= 1e-12


def test_trace_objective_matches_matrix_form():
    rng = np.random.default_rng(1)
    for trial in range(15):
        n = int(rng.integers(2, 8))
        complex_valued = trial % 2 == 1
        v1 = _random_unitary(rng, n, complex_valued)
        v2 = _random_unitary(rng, n, complex_valued)
        d1 = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        d2 = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        p1 = rng.permutation(n)
        p2 = rng.permutation(n)
        m = (v1 @ np.diag(d1) @ permutation_matrix(p1)
             @ v2 @ np.diag(d2) @ permutation_matrix(p2))
        expected = float(np.real(np.trace(m)))
        got = trace_objective(v1, d1, p1, v2, d2, p2)
        assert abs(got - expected) <= 1e-10


def test_dualness_matches_frobenius_distance():
    rng = np.random.default_rng(2)
    v1 = _eigvecs(10, 0.4, 5)
    v2 = _eigvecs(10, 0.4, 6)
    solution = cdpm_align(v1, v2)
    m = (v1 @ np.diag(solution.d1) @ permutation_matrix(solution.p1)
         @ v2 @ np.diag(solution.d2) @ permutation_matrix(solution.p2))
    direct = float(np.linalg.norm(m - np.eye(10)))
    assert abs(direct - solution.dualness) <= 1e-9


@pytest.mark.parametrize("method", [cd_align, cdpm_align])
def test_descent_is_monotone_and_consistent(method):
    v1 = _eigvecs(12, 0.4, 10)
    v2 = _eigvecs(12, 0.4, 11)
    trace = []
    solution = method(v1, v2, trace=trace)
    assert len(trace) == 1 + 2 * solution.iterations
    for a, b in zip(trace, trace[1:]):
        assert b >= a - 1e-12
    assert solution.converged
    assert abs(trace[-1] - solution.objective) <= 1e-12
    recomputed = trace_objective(v1, solution.d1, solution.p1,
                                 v2, solution.d2, solution.p2)
    assert abs(recomputed - solution.objective) <= 1e-12
    expected_dualness = np.sqrt(max(0.0, 24.0 - 2.0 * solution.objective))
    assert abs(solution.dualness - expected_dualness) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=8),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       complex_bases=st.tuples(st.booleans(), st.booleans()),
       method=st.sampled_from([CD, CDPM]))
def test_descent_trace_is_monotone_from_any_start(n, seed, complex_bases,
                                                  method):
    # every half-step maximizes over its side exactly, so the objective
    # never falls by more than rounding; real, complex and mixed bases
    rng = np.random.default_rng(seed)
    v1 = _random_unitary(rng, n, complex_bases[0])
    v2 = _random_unitary(rng, n, complex_bases[1])
    d1, p1, d2, p2 = _random_init(derive_stream(seed, 0), n, True)
    trace = []
    if method == CD:
        solution = cd_align(v1, v2, init=(d1, d2), trace=trace)
    else:
        solution = cdpm_align(v1, v2, init=(d1, p1, d2, p2), trace=trace)
    assert len(trace) == 1 + 2 * solution.iterations
    for a, b in zip(trace, trace[1:]):
        assert b >= a - 1e-12 * n
    assert trace[-1] == solution.objective


def test_cd_keeps_identity_permutations():
    v1 = _eigvecs(8, 0.5, 20)
    v2 = _eigvecs(8, 0.5, 21)
    solution = cd_align(v1, v2)
    assert np.array_equal(solution.p1, np.arange(8))
    assert np.array_equal(solution.p2, np.arange(8))


def test_transposed_basis_is_immediately_optimal():
    v1 = _eigvecs(7, 0.5, 30)
    solution = cd_align(v1, v1.T)
    assert abs(solution.objective - 7.0) <= 1e-9
    assert solution.iterations == 1
    assert abs(solution.dualness) <= 1e-4


def test_planted_optimum_is_a_fixed_point():
    rng = np.random.default_rng(5)
    n = 10
    v1 = _eigvecs(n, 0.5, 77)
    d1 = rng.choice([-1.0, 1.0], size=n).astype(complex)
    d2 = rng.choice([-1.0, 1.0], size=n).astype(complex)
    p1 = rng.permutation(n)
    p2 = rng.permutation(n)
    # choose V2 so that V1 D1 P1 V2 D2 P2 = I exactly
    v2 = (permutation_matrix(p1).T @ np.diag(d1).real @ v1.T
          @ permutation_matrix(p2).T @ np.diag(d2).real)
    assert np.max(np.abs(v2.T @ v2 - np.eye(n))) <= 1e-12
    assert abs(trace_objective(v1, d1, p1, v2, d2, p2) - n) <= 1e-9
    solution = cdpm_align(v1, v2, init=(d1, p1, d2, p2))
    assert abs(solution.objective - n) <= 1e-9
    assert solution.iterations == 1
    assert solution.converged
    assert solution.dualness <= 1e-4


def test_cd_started_at_best_sign_pair_dominates_it():
    n = 5
    v1 = _eigvecs(n, 0.6, 3)
    v2 = _eigvecs(n, 0.6, 4)
    best = -np.inf
    best_init = None
    for i in range(2 ** n):
        s1 = np.array([1.0 if (i >> k) & 1 else -1.0 for k in range(n)])
        for j in range(2 ** n):
            s2 = np.array([1.0 if (j >> k) & 1 else -1.0 for k in range(n)])
            value = float(np.trace((v1 * s1) @ (v2 * s2)))
            if value > best:
                best = value
                best_init = (s1.astype(complex), s2.astype(complex))
    solution = cd_align(v1, v2, init=best_init)
    assert solution.objective >= best - 1e-12


def _magnitudes_first(v1, v2):
    """Whether multistart, CD or CDPM, solves (v1, v2) as given: v1's
    sorted entry magnitudes come first lexicographically (or equal
    v2's)."""
    return (sorted(np.abs(v1).ravel().tolist())
            <= sorted(np.abs(v2).ravel().tolist()))


def _signature_reference(v1, v2):
    """The signature start entry by entry: p1 matches column b of V1 to
    row a of V2 and p2 column d of V2 to row c of V1, each by scipy's
    assignment on the squared distances of their sorted magnitudes, and
    the phases are conj(u)/|u| and v/|v| for the top singular pair
    (u, v) of M[l, m] = V1[p2(m), l] V2[p1(l), m]."""
    n = len(v1)

    def matching(a, b):
        cost = np.array([[np.sum((np.sort(np.abs(a[:, j]))
                                  - np.sort(np.abs(b[i]))) ** 2)
                          for i in range(n)] for j in range(n)])
        return linear_sum_assignment(cost)[1]

    p1 = matching(v1, v2)
    p2 = matching(v2, v1)
    m = np.array([[v1[p2[k], l] * v2[p1[l], k] for k in range(n)]
                  for l in range(n)])
    u, _, vh = np.linalg.svd(m)
    v = np.conj(vh[0])
    return np.conj(u[:, 0]) / np.abs(u[:, 0]), p1, v / np.abs(v), p2


def test_multistart_deterministic_and_matches_manual_restart():
    # one descent is cdpm_align from the signature start of the order
    # that multistart solves, here (v2, v1)
    v1 = _eigvecs(9, 0.4, 41)
    v2 = _eigvecs(9, 0.4, 40)
    config = SolverConfig(restarts=10, seed=12)
    first = multistart(CDPM, v1, v2, config)
    second = multistart(CDPM, v1, v2, config)
    assert first.objective == second.objective
    assert np.array_equal(first.d1, second.d1)
    assert np.array_equal(first.p2, second.p2)
    assert np.array_equal(first.restart_objectives, second.restart_objectives)
    single = multistart(CDPM, v1, v2, SolverConfig(restarts=1, seed=12))
    assert not _magnitudes_first(v1, v2)
    manual = cdpm_align(v2, v1, SolverConfig(restarts=1),
                        _signature_reference(v2, v1))
    assert single.objective == manual.objective
    assert single.objective == first.restart_objectives[0]
    # the answer of (v2, v1), read back as one of (v1, v2)
    assert np.array_equal(single.d1, manual.d2)
    assert np.array_equal(single.p1, manual.p2)
    assert np.array_equal(single.d2, manual.d1)
    assert np.array_equal(single.p2, manual.p1)
    assert abs(trace_objective(v1, single.d1, single.p1, v2, single.d2,
                               single.p2) - single.objective) <= 1e-12


def test_solutions_compare_by_identity_and_hash():
    # the generated __eq__ compared the array fields, so == on two equal
    # solutions raised and the frozen class had no __hash__; a solution,
    # like every other result type, is compared as one object
    rng = np.random.default_rng(6)
    q1 = _random_unitary(rng, 6)
    q2 = _random_unitary(rng, 6)
    first = multistart(CD, q1, q2, SolverConfig(restarts=3))
    second = multistart(CD, q1, q2, SolverConfig(restarts=3))
    assert np.array_equal(first.d1, second.d1)
    assert first == first and first != second
    assert len({first, second, first}) == 2


def _seeded_starts(method, n, count, seed):
    """The starts multistart draws: restart r from derive_stream(seed, r)."""
    return [_random_init(derive_stream(seed, r), n, method == CDPM)
            for r in range(count)]


@pytest.mark.parametrize("method", [CD, CDPM])
def test_stacked_starts_return_earliest_best_run(method):
    n = 10
    v1 = _eigvecs(n, 0.4, 80)
    v2 = _eigvecs(n, 0.4, 81)
    align = cd_align if method == CD else cdpm_align
    config = SolverConfig(max_iterations=3)
    starts = _seeded_starts(method, n, 6, seed=4)
    # a start at the best optimum multistart finds converges inside the
    # cap and wins; the random starts stop at the cap
    optimum = multistart(method, v1, v2, SolverConfig(restarts=20))
    at_optimum = ((optimum.d1, optimum.d2) if method == CD else
                  (optimum.d1, optimum.p1, optimum.d2, optimum.p2))
    starts.insert(2, at_optimum)
    single = [align(v1, v2, config, start) for start in starts]
    assert any(run.converged for run in single)
    assert not all(run.converged for run in single)
    stack = tuple(np.array(part) for part in zip(*starts))
    stacked = align(v1, v2, config, stack)
    best = single[int(np.argmax([run.objective for run in single]))]
    assert best.converged and best.iterations < config.max_iterations
    assert stacked.objective == best.objective
    assert np.array_equal(stacked.d1, best.d1)
    assert np.array_equal(stacked.d2, best.d2)
    assert np.array_equal(stacked.p1, best.p1)
    assert np.array_equal(stacked.p2, best.p2)
    assert stacked.iterations == best.iterations
    assert stacked.converged == best.converged
    assert stacked.dualness == best.dualness
    # every start's descent, in start order
    assert np.array_equal(stacked.restart_iterations,
                          [run.iterations for run in single])
    assert np.array_equal(stacked.restart_converged,
                          [run.converged for run in single])
    assert stacked.restart_iterations.dtype.kind == "i"
    assert stacked.restart_converged.dtype == bool
    assert not stacked.restart_iterations.flags.writeable
    assert not stacked.restart_converged.flags.writeable
    for run in single:
        assert np.array_equal(run.restart_iterations, [run.iterations])
        assert np.array_equal(run.restart_converged, [run.converged])


@pytest.mark.parametrize("n", [2, 10, 50])
def test_stacked_product_rows_do_not_depend_on_the_stack(n):
    # the assumption under every start's descent and every budget's
    # prefix: a row of a complex (M, n) x (n, n) product with M >= 2 is
    # the same row of a larger stack's product, and a lone row doubled
    # (CD's half-step) takes that kernel too
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((90, n)) + 1j * rng.standard_normal((90, n))
    right = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    whole = stack @ right
    for offset in (0, 1, 5):
        for rows in range(2, 90 - offset):
            part = stack[offset:offset + rows]
            assert np.array_equal(part @ right,
                                  whole[offset:offset + rows])
        lone = stack[offset:offset + 1]
        assert np.array_equal((np.repeat(lone, 2, axis=0) @ right)[:1],
                              whole[offset:offset + 1])


@pytest.mark.parametrize("cap", [6, 500])
@pytest.mark.parametrize("complex_valued", [False, True])
@pytest.mark.parametrize("n, count", [(40, 25), (50, 13)])
@pytest.mark.parametrize("method", [CD, CDPM])
def test_stacked_starts_descend_bit_for_bit_as_alone(method, n, count,
                                                     complex_valued, cap):
    # every start's product runs the one BLAS kernel of a stack, CDPM's
    # one product per start and CD's a stack of at least two rows, so it
    # descends exactly as it does alone, whatever the stack's size; a cap
    # of 6 stops starts mid-descent, a cap of 500 lets them converge
    v1 = _eigvecs(n, 0.4, 94)
    v2 = _eigvecs(n, 0.4, 95)
    if complex_valued:
        # unitary column phases make both bases complex
        angles = np.random.default_rng(3).uniform(0, 2 * np.pi, (2, n))
        v1 = v1 * np.exp(1j * angles[0])
        v2 = v2 * np.exp(1j * angles[1])
    align = cd_align if method == CD else cdpm_align
    config = SolverConfig(max_iterations=cap)
    starts = _seeded_starts(method, n, count, seed=8)
    stacked = align(v1, v2, config,
                    tuple(np.array(part) for part in zip(*starts)))
    single = [align(v1, v2, config, start) for start in starts]
    assert np.array_equal(stacked.restart_objectives,
                          [run.objective for run in single])
    assert np.array_equal(stacked.restart_iterations,
                          [run.iterations for run in single])
    assert np.array_equal(stacked.restart_converged,
                          [run.converged for run in single])
    best = single[int(np.argmax([run.objective for run in single]))]
    for name in ("p1", "p2", "d1", "d2"):
        assert np.array_equal(getattr(stacked, name), getattr(best, name))
    recomputed = trace_objective(v1, stacked.d1, stacked.p1,
                                 v2, stacked.d2, stacked.p2)
    assert abs(recomputed - stacked.objective) <= 1e-12


@pytest.mark.parametrize("method", [CD, CDPM])
def test_start_converging_at_the_cap_reports_converged(method):
    # a start whose free descent stops after k iterations converges on
    # the last allowed iteration of a cap of k and is still rising at a
    # cap of k - 1, stacked or alone
    n = 10
    v1 = _eigvecs(n, 0.4, 84)
    v2 = _eigvecs(n, 0.4, 85)
    align = cd_align if method == CD else cdpm_align
    starts = _seeded_starts(method, n, 7, seed=9)
    stack = tuple(np.array(part) for part in zip(*starts))
    free = align(v1, v2, SolverConfig(), stack)
    assert free.restart_converged.all()
    counts = free.restart_iterations
    cap = int(np.median(counts))
    assert counts.min() < cap - 1 and counts.max() > cap
    for limit in (cap, cap - 1):
        config = SolverConfig(max_iterations=limit)
        stacked = align(v1, v2, config, stack)
        assert np.array_equal(stacked.restart_iterations,
                              np.minimum(counts, limit))
        assert np.array_equal(stacked.restart_converged, counts <= limit)
        for start, count in zip(starts, counts):
            single = align(v1, v2, config, start)
            assert single.iterations == min(count, limit)
            assert single.converged == (count <= limit)
    at_cap = list(counts).index(cap)
    assert align(v1, v2, SolverConfig(max_iterations=cap),
                 starts[at_cap]).converged


@pytest.mark.parametrize("n", [12, 40])
def test_cdpm_on_a_real_basis_matches_its_complex_cast(n):
    # a real basis forms the score product with real arithmetic, its
    # complex cast with complex arithmetic: the descents agree up to
    # rounding
    v1 = _eigvecs(n, 0.4, 86)
    v2 = _eigvecs(n, 0.4, 87)
    starts = _seeded_starts(CDPM, n, 12, seed=10)
    stack = tuple(np.array(part) for part in zip(*starts))
    for init in [stack] + starts[:3]:
        real = cdpm_align(v1, v2, SolverConfig(), init)
        cast = cdpm_align(v1.astype(complex), v2.astype(complex),
                          SolverConfig(), init)
        assert np.array_equal(real.p1, cast.p1)
        assert np.array_equal(real.p2, cast.p2)
        assert np.array_equal(real.restart_iterations,
                              cast.restart_iterations)
        assert np.array_equal(real.restart_converged, cast.restart_converged)
        assert abs(real.objective - cast.objective) <= 1e-12


def _lazy_descent(v1, v2, config, start):
    """The scalar, one-start reference of CDPM's lazy rule.  A full
    iteration matches side 2 and then side 1 exactly (scipy's assignment
    on |S|, S = V1 D1 P1 V2 and then V2 D2 P2 V1).  After a full
    iteration that gains at least epsilon and keeps both permutations,
    iterations are CD half-steps on A = V1[p2]' o V2[p1] until one gains
    less than epsilon; only a full iteration converges.  The first
    iteration's gain is measured from its first half-step.  Returns the
    objective, the iteration count, the convergence flag and, per
    iteration, whether it was lazy."""
    n = v1.shape[0]
    columns = np.arange(n)
    d1, p1, d2, p2 = (np.asarray(part) for part in start)
    previous = None
    lazy = False
    kinds = []
    for it in range(config.max_iterations):
        kinds.append(lazy)
        if lazy:
            d2, _ = _masked_phases(d1 @ a)
            d1, value = _masked_phases(a @ d2)
            lazy = value - previous >= config.epsilon
        else:
            held = p1, p2
            s = v1 @ np.diag(d1) @ v2[p1]
            p2 = linear_sum_assignment(-np.abs(s).T)[1]
            d2, half_value = _masked_phases(s[p2, columns])
            if previous is None:
                # the first gain is measured from the first half-step
                previous = half_value
            s = v2 @ np.diag(d2) @ v1[p2]
            p1 = linear_sum_assignment(-np.abs(s).T)[1]
            d1, value = _masked_phases(s[p1, columns])
            if value - previous < config.epsilon:
                return value, it + 1, True, kinds
            lazy = (np.array_equal(p1, held[0])
                    and np.array_equal(p2, held[1]))
            # A[l, k] = V1[p2(k), l] V2[p1(l), k]
            a = v1[p2].T * v2[p1]
        previous = value
    return previous, config.max_iterations, False, kinds


@pytest.mark.parametrize("n, count, complex_valued, cap", [
    (6, 20, False, 500), (10, 25, True, 500), (40, 25, False, 500),
    (40, 12, True, 500), (12, 16, False, 9)])
def test_lazy_descent_matches_the_scalar_reference(n, count, complex_valued,
                                                   cap):
    # the cap of 9 stops starts inside lazy and full iterations alike.
    # Random bases, since a small graph's symmetries can tie two
    # matchings exactly, and rounding then picks either
    rng = np.random.default_rng(n)
    v1 = _random_unitary(rng, n, complex_valued)
    v2 = _random_unitary(rng, n, complex_valued)
    config = SolverConfig(max_iterations=cap)
    starts = _seeded_starts(CDPM, n, count, seed=n)
    # a converged start with a foreign d2, which its first half-step
    # replaces
    solution = cdpm_align(v1, v2, init=starts[0])
    assert solution.converged
    starts.append((solution.d1, solution.p1, starts[1][2], solution.p2))
    stacked = cdpm_align(v1, v2, config,
                         tuple(np.array(part) for part in zip(*starts)))
    objectives, iterations, converged, kinds = zip(
        *(_lazy_descent(v1, v2, config, start) for start in starts))
    assert np.max(np.abs(stacked.restart_objectives - objectives)) <= 1e-12
    assert np.array_equal(stacked.restart_iterations, iterations)
    assert np.array_equal(stacked.restart_converged, converged)
    # the stack ran with no lazy start, with some and with all of them
    paths = set()
    for it in range(max(iterations)):
        running = [lazy[it] for lazy in kinds if len(lazy) > it]
        paths.add((any(running), all(running)))
    assert paths == {(False, False), (True, False), (True, True)}


def test_converged_cdpm_answer_is_a_matching_fixed_point():
    # a start converges only on a full iteration, so one more full
    # iteration from a converged answer keeps both permutations
    for n, seed in ((10, 60), (30, 62)):
        v1 = _eigvecs(n, 0.4, seed)
        v2 = _eigvecs(n, 0.4, seed + 1)
        config = SolverConfig(restarts=20, seed=seed)
        solution = multistart(CDPM, v1, v2, config)
        assert solution.converged
        again = cdpm_align(v1, v2, SolverConfig(max_iterations=1),
                           (solution.d1, solution.p1, solution.d2,
                            solution.p2))
        assert np.array_equal(again.p1, solution.p1)
        assert np.array_equal(again.p2, solution.p2)
        assert again.objective - solution.objective < config.epsilon
        assert again.converged


def _perturbed(incumbent, seed, r):
    """The start of search descent r: the incumbent's phases and p2, and
    its p1 with the transposition drawn from derive_stream(seed, r),
    scalar draw by scalar draw."""
    n = incumbent.p1.shape[0]
    stream = derive_stream(seed, r)
    p1 = incumbent.p1.copy()
    i = int(stream.random() * n)
    j = int(stream.random() * (n - 1))
    j += j >= i
    p1[i], p1[j] = p1[j], p1[i]
    return incumbent.d1, p1, incumbent.d2, incumbent.p2


def _seeded(signature, seed, r):
    """Seeded descent r: phases and permutations sigma1, sigma2 drawn
    from derive_stream(seed, r), starting at sig_p1[sigma1] and
    sig_p2[sigma2]."""
    n = len(signature[1])
    d1, s1, d2, s2 = _random_init(derive_stream(seed, r), n, True)
    return d1, signature[1][s1], d2, signature[3][s2]


def _check_cdpm_search(v1, v2, config, monkeypatch):
    """multistart(CDPM) against the documented search on the order it
    solves: block 0 stacks the signature start on _first_seeded(n)
    seeded starts, and each later block of _BLOCK starts is seeded when
    its index is a multiple of _SEEDED_EVERY and otherwise perturbs the
    incumbent at its start; budget R runs the first R starts."""
    n = v1.shape[0]
    calls = []

    def recording(v1, v2, config, init):
        calls.append((v1, init, cdpm_align(v1, v2, config, init)))
        return calls[-1][2]

    monkeypatch.setattr(alignment, "cdpm_align", recording)
    solution = multistart(CDPM, v1, v2, config)
    restarts, seed = config.restarts, config.seed
    swapped = not _magnitudes_first(v1, v2)
    w1, w2 = (v2, v1) if swapped else (v1, v2)
    signature = _signature_reference(w1, w2)
    incumbent = None
    r = 0
    for k, (first, init, run) in enumerate(calls):
        assert np.array_equal(first, w1)
        count = len(run.restart_objectives)
        size = 1 + _first_seeded(n) if k == 0 else _BLOCK
        assert count == min(size, restarts - r)
        for row in range(count):
            if r == 0:
                expected = signature
            elif k == 0 or k % _SEEDED_EVERY == 0:
                expected = _seeded(signature, seed, r)
            else:
                expected = _perturbed(incumbent, seed, r)
            for part, value in zip(init, expected):
                assert np.array_equal(part[row], value)
            r += 1
        if incumbent is None or run.objective > incumbent.objective:
            incumbent = run
    assert r == restarts
    if swapped:
        incumbent = replace(incumbent, d1=incumbent.d2, p1=incumbent.p2,
                            d2=incumbent.d1, p2=incumbent.p1)
    for name in ("objective", "iterations", "converged"):
        assert getattr(solution, name) == getattr(incumbent, name)
    for name in ("d1", "d2", "p1", "p2"):
        assert np.array_equal(getattr(solution, name),
                              getattr(incumbent, name))
    # every descent in draw order; the earliest best is the answer
    for name in ("restart_iterations", "restart_converged",
                 "restart_objectives"):
        joined = getattr(solution, name)
        assert len(joined) == restarts
        assert not joined.flags.writeable
        assert np.array_equal(joined, np.concatenate(
            [getattr(run, name) for _, _, run in calls]))
    objectives = solution.restart_objectives
    best = int(np.argmax(objectives))
    assert objectives[best] == solution.objective
    assert solution.iterations == solution.restart_iterations[best]
    return calls, solution


@pytest.mark.parametrize("method", [CD, CDPM])
def test_multistart_is_one_stacked_call(method, monkeypatch):
    # CD runs one stacked descent on all seeded starts; CDPM runs one on
    # the signature start and its seeded starts, and perturbs or seeds
    # blocks after that
    n = 9
    v1 = _eigvecs(n, 0.4, 90)
    v2 = _eigvecs(n, 0.4, 91)
    # both methods solve (v1, v2) as given, and (v2, v1) as (v1, v2) read
    # back
    assert _magnitudes_first(v1, v2)
    if method == CDPM:
        config = SolverConfig(restarts=1 + _first_seeded(n) + 2 * _BLOCK,
                              seed=5)
        calls, _ = _check_cdpm_search(v2, v1, config, monkeypatch)
        assert len(calls) == 3
        return
    config = SolverConfig(restarts=12, seed=5)
    starts = _seeded_starts(method, n, config.restarts, config.seed)
    stacked = cd_align(v1, v2, config, tuple(np.array(part)
                                             for part in zip(*starts)))
    solution = multistart(method, v1, v2, config)
    assert solution.objective == stacked.objective
    assert np.array_equal(solution.d1, stacked.d1)
    assert np.array_equal(solution.d2, stacked.d2)
    assert np.array_equal(solution.p1, stacked.p1)
    assert np.array_equal(solution.p2, stacked.p2)
    assert solution.iterations == stacked.iterations
    for name in ("restart_iterations", "restart_converged",
                 "restart_objectives"):
        assert np.array_equal(getattr(solution, name), getattr(stacked, name))
        assert not getattr(solution, name).flags.writeable


@pytest.mark.parametrize("restarts", [1, 2, 3, 50, 70])
def test_cdpm_search_at_every_budget(restarts, monkeypatch):
    # 1 descent is the signature descent alone, 2 and 3 cut block 0
    # short; 50 runs block 0 (13 descents at n = 10), four perturbed
    # blocks and one descent of a fifth; 70 runs block 6, seeded, and
    # three descents of block 7
    v1 = _eigvecs(10, 0.4, 92)
    v2 = _eigvecs(10, 0.4, 93)
    config = SolverConfig(restarts=restarts, seed=2**64 - 3)
    calls, solution = _check_cdpm_search(v1, v2, config, monkeypatch)
    assert len(calls) == {1: 1, 2: 1, 3: 1, 50: 6, 70: 8}[restarts]
    if restarts >= 50:
        # the search found a better optimum than block 0
        assert solution.objective > max(calls[0][2].restart_objectives)


@pytest.mark.parametrize("n, seed", [(7, 11), (2, 2**64 - 2)])
def test_perturbed_block_equals_scalar_draws(n, seed):
    # seed 2**64 - 2 makes the block's streams wrap around 2**64
    rng = np.random.default_rng(n)
    incumbent = cdpm_align(_random_unitary(rng, n), _random_unitary(rng, n),
                           init=_random_init(derive_stream(3, 0), n, True))
    block = _perturbed_starts(incumbent, seed, 4, 6)
    for k in range(6):
        for part, value in zip(block, _perturbed(incumbent, seed, 4 + k)):
            assert np.array_equal(part[k], value)


def test_perturbed_starts_of_a_single_vertex_are_copies():
    one = cdpm_align(np.eye(1), np.eye(1))
    d1, p1, d2, p2 = _perturbed_starts(one, 0, 1, 3)
    assert np.array_equal(p1, np.zeros((3, 1))) and np.array_equal(p1, p2)
    assert np.array_equal(d1, np.tile(one.d1, (3, 1)))
    assert np.array_equal(d2, np.tile(one.d2, (3, 1)))


def test_stacked_start_validation():
    n = 6
    v1 = _eigvecs(n, 0.5, 20)
    v2 = _eigvecs(n, 0.5, 21)
    phases = np.ones((3, n))
    perms = np.tile(np.arange(n), (3, 1))
    with pytest.raises(ValueError):
        cd_align(v1, v2, init=(phases, phases), trace=[])
    with pytest.raises(ValueError):
        cdpm_align(v1, v2, init=(phases, perms, phases, perms), trace=[])
    with pytest.raises(SizeMismatchError):
        cd_align(v1, v2, init=(phases, phases[:2]))
    with pytest.raises(SizeMismatchError):
        cdpm_align(v1, v2, init=(phases, perms[:2], phases, perms))
    with pytest.raises(SizeMismatchError):
        cd_align(v1, v2, init=(np.ones((3, n + 1)), np.ones((3, n + 1))))
    with pytest.raises(IndexOutOfRangeError):
        cdpm_align(v1, v2, init=(phases, np.zeros((3, n), dtype=int),
                                 phases, perms))


@pytest.mark.parametrize("with_permutations", [False, True])
@pytest.mark.parametrize("n", [1, 2, 30])
def test_block_drawn_starts_equal_scalar_draws(n, with_permutations):
    count = 25
    for seed in (0, 12, 2**64 - 10):
        block = _random_starts(seed, count, n, with_permutations)
        for r in range(count):
            scalar = _random_init(derive_stream(seed, r), n, with_permutations)
            for got, expected in zip(block, scalar):
                assert got[r].dtype == expected.dtype
                assert np.array_equal(got[r], expected)


def test_block_drawn_permutations_are_uniform():
    # 12000 starts at n = 4: each side's 24 permutations within 5 sigma
    # of their expected count (binomial, 1/24 each)
    count = 12000
    _, p1, _, p2 = _random_starts(7, count, 4, True)
    expected = count / 24
    sigma = np.sqrt(count * (1 / 24) * (23 / 24))
    codes = np.array([64, 16, 4, 1])
    for perms in (p1, p2):
        counts = np.bincount(perms @ codes, minlength=256)
        seen = counts[counts > 0]
        assert seen.size == 24
        assert np.all(np.abs(seen - expected) <= 5 * sigma)


def test_non_integral_permutations_are_rejected():
    n = 6
    v1 = _eigvecs(n, 0.5, 20)
    v2 = _eigvecs(n, 0.5, 21)
    ones = np.ones(n)
    identity = np.arange(n)
    for bad in (identity + 0.5, np.where(identity == 3, np.nan, identity),
                np.where(identity == 3, np.inf, identity)):
        with pytest.raises(IndexOutOfRangeError, match="integers"):
            trace_objective(v1, ones, bad, v2, ones, identity)
        with pytest.raises(IndexOutOfRangeError, match="integers"):
            cdpm_align(v1, v2, init=(ones, bad, ones, np.arange(6.0)))
        with pytest.raises(IndexOutOfRangeError, match="integers"):
            cdpm_align(v1, v2, init=(np.ones((2, n)), np.array([identity, bad]),
                                     np.ones((2, n)), np.tile(identity, (2, 1))))
    # integral floats are indices
    expected = trace_objective(v1, ones, identity, v2, ones, identity)
    assert trace_objective(v1, ones, np.arange(6.0), v2, ones,
                           identity) == expected
    cdpm_align(v1, v2, init=(ones, np.arange(6.0), ones, np.arange(6.0)))


@pytest.mark.parametrize("dtype", [bool, str, complex])
def test_non_numeric_permutation_stacks_are_rejected(dtype):
    # at n = 2 the stacks cast to the valid [[1, 0], [0, 1]]
    v = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    ones = np.ones((2, 2))
    bad = np.array([[1, 0], [0, 1]]).astype(dtype)
    good = np.array([[1, 0], [0, 1]])
    for init in ((ones, bad, ones, good), (ones, good, ones, bad)):
        with pytest.raises(IndexOutOfRangeError, match="integers"):
            cdpm_align(v, v, init=init)


def test_init_phases_must_be_finite_unit_modulus():
    n = 4
    v1 = _eigvecs(n, 0.5, 20)
    v2 = _eigvecs(n, 0.5, 21)
    perm = np.arange(n)
    ones = np.ones(n, dtype=complex)
    for bad in (np.full(n, 5.0), np.full(n, 1.0 + 1e-6),
                np.array([1.0, np.nan, 1.0, 1.0]),
                np.array([1.0, 1.0, np.inf, 1.0]),
                np.array([1.0, 1.0, 1.0, 1j * np.nan])):
        with pytest.raises(NonUnitPhaseError):
            cd_align(v1, v2, init=(bad, ones))
        with pytest.raises(NonUnitPhaseError):
            cd_align(v1, v2, init=(np.array([ones, bad]), np.array([ones, ones])))
        with pytest.raises(NonUnitPhaseError):
            cdpm_align(v1, v2, init=(ones, perm, bad, perm))
    # unit phases within rounding, signs and complex phases are accepted
    near = np.exp(1j * np.arange(n)) * (1.0 + 1e-12)
    cd_align(v1, v2, init=(near, -ones))
    cdpm_align(v1, v2, init=(near, perm, ones, perm))


def test_cdpm_beats_cd_on_seeded_pairs():
    for seed in (7, 11, 21):
        v1 = _eigvecs(12, 0.4, seed)
        v2 = _eigvecs(12, 0.4, seed + 1000)
        config = SolverConfig(restarts=40, seed=3)
        cd = multistart(CD, v1, v2, config)
        cdpm = multistart(CDPM, v1, v2, config)
        assert cdpm.objective >= cd.objective - 1e-12


def test_cdpm_against_the_certified_optimum_at_n5():
    # the sweep's pairs at n = 5, p = 0.4 for pair seeds 0-11, none left
    # out.  CDPM at R = 50 is never above the certified optimum; it
    # missed it by more than 1e-6 on 2 of the 12, by 0.031 and 0.107
    # (pair seeds 9 and 11); R = 800 reached all 12.  The floor is those
    # measured shortfalls
    shortfalls = []
    for pair_seed in range(12):
        dec1, dec2, _ = _sample_pair(5, 0.4, pair_seed)
        v1, v2 = dec1.vectors, dec2.vectors
        optimum = certified_optimum(v1, v2)
        cdpm = multistart(CDPM, v1, v2, SolverConfig(restarts=50)).objective
        assert cdpm <= optimum + 1e-6
        shortfalls.append(optimum - cdpm)
    assert sum(shortfall > 1e-6 for shortfall in shortfalls) <= 2
    assert max(shortfalls) <= 0.11


# planted pairs recovered (objective within 1e-6 of n) and near-dual
# pairs whose planted objective CDPM reached, per n, at the sweep's
# R = 50, as measured
PLANTED_RECOVERED = {10: 12, 20: 12, 30: 12}
NEAR_DUAL_REACHED = {10: 6, 20: 8, 30: 8}


@pytest.mark.parametrize("n", [10, 20, 30])
def test_cdpm_finds_planted_duals(n):
    # 12 planted pairs and 8 near-dual ones (planted_cases), none left
    # out; the planted optimum is n, and the planted objective of a
    # near-dual pair bounds its optimum from below
    config = SolverConfig(restarts=50)
    recovered = reached = 0
    for seed, noise in planted_cases():
        v1, v2, (s1, p1, s2, p2) = planted_pair(n, seed, noise)
        planted = trace_objective(v1, s1, p1, v2, s2, p2)
        objective = multistart(CDPM, v1, v2, config).objective
        assert objective <= n + 1e-9
        if noise == 0.0:
            assert abs(planted - n) <= 1e-12
            recovered += objective >= n - 1e-6
        else:
            reached += objective >= planted - 1e-9
    assert recovered >= PLANTED_RECOVERED[n]
    assert reached >= NEAR_DUAL_REACHED[n]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=3, max_value=10),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       restarts=st.integers(min_value=1, max_value=40),
       complex_bases=st.booleans(), data=st.data())
def test_cdpm_does_not_depend_on_vertex_labels(n, seed, restarts,
                                               complex_bases, data):
    # relabelling a graph's vertices by q turns its basis V into
    # V[q^-1]; the answer is the transported one, bit for bit.  Random
    # bases from n = 3: every row and column of a 2 x 2 unitary holds
    # the same magnitudes, and so can those of a graph with symmetries,
    # and the signature's matching then follows the labels (on the
    # sweep's pairs of pair seeds 50000-50059 the objective moved at
    # n = 4 on 5 of 60, by at most 5.9e-10, and at n = 6 on 1 of 60, by
    # 0.25; not at n = 5, 8, 10, 15, 20 or 30)
    rng = np.random.default_rng(seed)
    v1 = _random_unitary(rng, n, complex_bases)
    v2 = _random_unitary(rng, n, complex_bases)
    q1, q2 = (np.array(data.draw(st.permutations(range(n))), dtype=np.intp)
              for _ in range(2))
    config = SolverConfig(restarts=restarts, seed=seed)
    solution = multistart(CDPM, v1, v2, config)
    for side, w1, w2, q in ((1, v1[invert_permutation(q1)], v2, q1),
                            (2, v1, v2[invert_permutation(q2)], q2)):
        moved = multistart(CDPM, w1, w2, config)
        transported = isomorphism_transport(solution, q, side)
        assert moved.objective == solution.objective
        assert np.array_equal(moved.restart_objectives,
                              solution.restart_objectives)
        assert np.array_equal(moved.p1, transported.p1)
        assert np.array_equal(moved.p2, transported.p2)
    both = multistart(CDPM, v1[invert_permutation(q1)],
                      v2[invert_permutation(q2)], config)
    assert both.objective == solution.objective


def _unitary_pair(n, seed, complex_bases):
    rng = np.random.default_rng(seed)
    return (_random_unitary(rng, n, complex_bases),
            _random_unitary(rng, n, complex_bases))


def _sweep_bases(n, pair_seed):
    dec1, dec2, _ = _sample_pair(n, 0.4, pair_seed)
    return dec1.vectors, dec2.vectors


@pytest.mark.parametrize("method", [CD, CDPM])
@settings(max_examples=30, deadline=None)
@given(bases=st.builds(_unitary_pair, st.integers(min_value=1, max_value=10),
                       st.integers(min_value=0, max_value=2**32 - 1),
                       st.booleans()),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       restarts=st.integers(min_value=1, max_value=40))
# a sweep pair whose CD answers differed by order when CD ran whichever
# order it was given
@example(bases=_sweep_bases(10, 2000), seed=0, restarts=50)
def test_multistart_is_symmetric_in_its_arguments(method, bases, seed,
                                                  restarts):
    # the solution (e1, q1, e2, q2) of (V2, V1) is (e2, q2, e1, q1) of
    # (V1, V2), since tr(AB) = tr(BA)
    v1, v2 = bases
    config = SolverConfig(restarts=restarts, seed=seed)
    forward = multistart(method, v1, v2, config)
    backward = multistart(method, v2, v1, config)
    assert forward.objective == backward.objective
    for name in ("restart_objectives", "restart_iterations",
                 "restart_converged"):
        assert np.array_equal(getattr(forward, name), getattr(backward, name))
    if _magnitudes_first(v1, v2) == _magnitudes_first(v2, v1):
        # equal magnitudes (n = 1 here): both orders ran, and either
        # answer may be kept when they score alike
        return
    for mine, theirs in (("d1", "d2"), ("p1", "p2"), ("d2", "d1"),
                         ("p2", "p1")):
        assert np.array_equal(getattr(forward, mine),
                              getattr(backward, theirs))


@pytest.mark.parametrize("method", [CD, CDPM])
def test_multistart_solves_both_orders_of_equal_magnitudes(method):
    # a planted pair's bases hold the same magnitudes: both orders are
    # solved and the higher answer kept, whichever order is given
    v1, v2, _ = planted_pair(8, 3)
    config = SolverConfig(restarts=20, seed=1)
    forward = multistart(method, v1, v2, config)
    backward = multistart(method, v2, v1, config)
    assert forward.objective == backward.objective
    assert np.array_equal(forward.restart_objectives,
                          backward.restart_objectives)
    if method == CDPM:
        # CD's identity permutations cannot reach a relabelled dual
        assert forward.objective >= 8 - 1e-9


@pytest.mark.parametrize("method", [CD, CDPM])
@settings(max_examples=30, deadline=None)
@given(bases=st.builds(_unitary_pair, st.integers(min_value=2, max_value=12),
                       st.integers(min_value=0, max_value=2**32 - 1),
                       st.booleans()),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       budgets=st.lists(st.integers(min_value=1, max_value=80), min_size=2,
                        max_size=2, unique=True))
# a sweep pair whose CD descent 5 ends otherwise at budgets 20 and 50
# when a lone running start takes BLAS's matrix-vector kernel, and few
# against many restarts
@example(bases=_sweep_bases(10, 1003), seed=3, budgets=[20, 50])
@example(bases=(_eigvecs(9, 0.4, 50), _eigvecs(9, 0.4, 51)), seed=7,
         budgets=[2, 25])
def test_budget_is_a_prefix(method, bases, seed, budgets):
    # budget R runs the first R descents of any larger budget, so the
    # answer never falls as the budget grows
    small, large = (multistart(method, *bases,
                               SolverConfig(restarts=r, seed=seed))
                    for r in sorted(budgets))
    r = min(budgets)
    for name in ("restart_objectives", "restart_iterations",
                 "restart_converged"):
        assert np.array_equal(getattr(small, name),
                              getattr(large, name)[:r])
    assert large.objective >= small.objective


@pytest.mark.parametrize("method", [CD, CDPM])
@settings(max_examples=30, deadline=None)
@given(bases=st.builds(_unitary_pair, st.integers(min_value=1, max_value=10),
                       st.integers(min_value=0, max_value=2**32 - 1),
                       st.booleans()),
       start_seed=st.none() | st.integers(min_value=0, max_value=2**32 - 1),
       d2_seed=st.none() | st.integers(min_value=0, max_value=2**32 - 1))
# a sweep pair's default answer, restarted once with its own d2 and once
# with ones: the ones ran 2 (CD) and 3 (CDPM) iterations, and its own d2
# 1, when the first gain was measured from the start's objective
@example(bases=_sweep_bases(10, 1002), start_seed=None, d2_seed=None)
def test_descent_does_not_depend_on_the_start_d2(method, bases, start_seed,
                                                 d2_seed):
    # the first half-step replaces the start's d2 (and CDPM's p2), so two
    # starts that differ only in d2 descend alike, bit for bit.  A start
    # is drawn from derive_stream(start_seed, 0), or is the method's
    # default answer when start_seed is None; its other d2 is drawn from
    # derive_stream(d2_seed, 0), or is all ones when d2_seed is None
    v1, v2 = bases
    n = v1.shape[0]
    align = cd_align if method == CD else cdpm_align
    if start_seed is None:
        solution = align(v1, v2)
        start = (solution.d1, solution.p1, solution.d2, solution.p2)
    else:
        start = _random_init(derive_stream(start_seed, 0), n, True)
    other = (np.ones(n) if d2_seed is None
             else derive_stream(d2_seed, 0).unit_phases(n))
    runs = []
    for d2 in (start[2], other):
        init = ((start[0], d2) if method == CD
                else (start[0], start[1], d2, start[3]))
        runs.append(align(v1, v2, SolverConfig(), init))
    for name in ("d1", "d2", "p1", "p2", "objective", "iterations",
                 "converged", "restart_iterations", "restart_converged",
                 "restart_objectives"):
        assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name))


def test_multistart_rejects_unknown_method():
    v = np.eye(3)
    with pytest.raises(ValueError):
        multistart("newton", v, v)


def test_run_pair_smoke_and_repeated_eigenvalues():
    g1 = erdos_renyi(10, 0.4, 62)
    g2 = erdos_renyi(10, 0.4, 63)
    solution = run_pair(g1, g2, CD, SolverConfig(restarts=5, seed=1))
    assert 0.0 <= solution.objective <= 10.0 + 1e-9
    complete = erdos_renyi(4, 1.0, 0)
    with pytest.raises(RepeatedEigenvaluesError) as info:
        run_pair(complete, complete, CDPM, SolverConfig(restarts=1))
    assert info.value.min_gap <= 1e-8
    with pytest.raises(SizeMismatchError):
        run_pair(erdos_renyi(4, 0.5, 0), erdos_renyi(5, 0.5, 0), CD)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       complex_bases=st.booleans(), data=st.data())
def test_isomorphism_transport_preserves_objective(n, seed, complex_bases,
                                                   data):
    rng = np.random.default_rng(seed)
    v1 = _random_unitary(rng, n, complex_bases)
    v2 = _random_unitary(rng, n, complex_bases)
    solution = cdpm_align(v1, v2)
    for side in (1, 2):
        p = np.array(data.draw(st.permutations(range(n))), dtype=np.intp)
        moved = isomorphism_transport(solution, p, side)
        inv = invert_permutation(p)
        if side == 1:
            objective = trace_objective(v1[inv], moved.d1, moved.p1,
                                        v2, moved.d2, moved.p2)
        else:
            objective = trace_objective(v1, moved.d1, moved.p1,
                                        v2[inv], moved.d2, moved.p2)
        assert abs(objective - solution.objective) <= 1e-12
        assert moved.objective == solution.objective
        assert np.array_equal(moved.restart_iterations,
                              solution.restart_iterations)
        assert np.array_equal(moved.restart_converged,
                              solution.restart_converged)
    # True and 2.0 ran as sides 1 and 2 before the integer rule
    for side, message in ((3, "side must be 1 or 2"),
                          (True, "side must be an integer"),
                          (2.0, "side must be an integer")):
        with pytest.raises(ValueError, match=message):
            isomorphism_transport(solution, np.arange(n), side)


def test_verify_circulant_duality():
    for n, offsets in ((4, [(1, 1.0)]), (6, [(1, 1.0), (2, 0.5)]),
                       (8, [(3, 2.0)]), (12, [(1, 1.0), (4, 0.5), (6, 0.25)])):
        g1 = circulant(n, offsets)
        g2 = circulant(n, [(1, 3.0)])
        assert verify_circulant_duality(g1, g2) <= 1e-9
    # exactly circulant with large weights: the off-diagonal of V* A V is
    # rounding of the size of max A * eps, and the tolerance scales with it
    for weight in (1e6, 1e10):
        heavy = circulant(16, [(1, weight), (3, weight / 2)])
        assert verify_circulant_duality(heavy, heavy) <= 1e-9
        light = circulant(16, [(2, 1.0)])
        assert verify_circulant_duality(heavy, light) <= 1e-9
    tree = erdos_renyi(8, 0.3, 2)
    ring = circulant(8, [(1, 1.0)])
    with pytest.raises(NotCirculantError):
        verify_circulant_duality(tree, ring)
    with pytest.raises(NotCirculantError):
        verify_circulant_duality(Graph(1e10 * tree.adjacency), ring)
    with pytest.raises(SizeMismatchError):
        verify_circulant_duality(circulant(4, [(1, 1.0)]), circulant(6, [(1, 1.0)]))


def test_graph_pair_size_check_is_shared():
    g4, g6 = circulant(4, [(1, 1.0)]), circulant(6, [(1, 1.0)])
    messages = []
    for check in (verify_circulant_duality, decompose_pair):
        with pytest.raises(SizeMismatchError) as caught:
            check(g4, g6)
        messages.append(str(caught.value))
    assert messages == ["graphs have different sizes: 4 vs 6"] * 2


def test_input_validation():
    with pytest.raises(NonOrthogonalInputError):
        cd_align(np.eye(3) * 2.0, np.eye(3))
    with pytest.raises(SizeMismatchError):
        cd_align(np.eye(3), np.eye(4))
    with pytest.raises(SizeMismatchError):
        cdpm_align(np.eye(3), np.eye(3), init=(np.ones(2), np.arange(3),
                                               np.ones(3), np.arange(3)))
    with pytest.raises(SizeMismatchError):
        trace_objective(np.eye(3), np.ones(3), np.arange(3),
                        np.eye(3), np.ones(4), np.arange(3))


def _eye_with(corner):
    """eye(3) with its [0, 0] entry replaced."""
    v = np.eye(3)
    v[0, 0] = corner
    return v


@pytest.mark.parametrize("v1, v2, error", [
    (np.zeros((2, 3)), np.eye(3), SizeMismatchError),
    (np.eye(3), np.eye(4), SizeMismatchError),
    (np.eye(3), np.eye(3) * 2.0, NonOrthogonalInputError),
    (_eye_with(np.nan), np.eye(3), NonFiniteEntryError),
    (np.eye(3), _eye_with(np.nan), NonFiniteEntryError),
    (_eye_with(np.inf), np.eye(3), NonFiniteEntryError),
    (np.eye(3), _eye_with(-np.inf), NonFiniteEntryError),
])
def test_basis_pair_is_checked_alike_everywhere(v1, v2, error):
    # every entry point taking a pair of bases runs the same check
    messages = set()
    identity = np.arange(3)
    for solve in (build_coupling, cd_align, cdpm_align,
                  lambda a, b: multistart(CD, a, b),
                  lambda a, b: multistart(CDPM, a, b),
                  lambda a, b: trace_objective(a, np.ones(3), identity,
                                               b, np.ones(3), identity)):
        with pytest.raises(error) as info:
            solve(v1, v2)
        assert type(info.value) is error
        messages.add(str(info.value))
    assert len(messages) == 1


@pytest.mark.parametrize("bad", [np.full(3, 5.0), np.array([1.0, np.nan, 1.0]),
                                 np.array([1.0, 1.0, np.inf]),
                                 np.array([1.0, 1.0 + 1e-6, 1.0])])
def test_phases_are_checked_alike_everywhere(bad):
    # every entry point taking phases runs the same unit-modulus check;
    # the messages differ only in the name of the phase vector
    v = np.eye(3)
    ones = np.ones(3)
    identity = np.arange(3)
    messages = set()
    for solve, name in (
            (lambda d: cd_align(v, v, init=(d, ones)), "init d1"),
            (lambda d: cd_align(v, v, init=(ones, d)), "init d2"),
            (lambda d: cdpm_align(v, v, init=(d, identity, ones, identity)),
             "init d1"),
            (lambda d: trace_objective(v, d, identity, v, ones, identity),
             "d1"),
            (lambda d: trace_objective(v, ones, identity, v, d, identity),
             "d2")):
        with pytest.raises(NonUnitPhaseError) as info:
            solve(bad)
        assert type(info.value) is NonUnitPhaseError
        message = str(info.value)
        assert message.startswith(name + " must")
        messages.add(message[len(name):])
    assert len(messages) == 1


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    # counts must be integers: 2.5 restarts would run 3, and 2.5
    # iterations would fail inside range()
    with pytest.raises(ValueError, match="restarts must be an integer"):
        SolverConfig(restarts=2.5)
    with pytest.raises(ValueError, match="max_iterations must be an integer"):
        SolverConfig(max_iterations=2.5)
    # True would read as 1
    with pytest.raises(ValueError, match="restarts must be an integer"):
        SolverConfig(restarts=True)
    with pytest.raises(ValueError, match="max_iterations must be an integer"):
        SolverConfig(max_iterations=True)
    assert type(SolverConfig(restarts=np.int64(3)).restarts) is int
    # 2.5 would run seed 2's restarts and True seed 1's
    for seed in (2.5, True, "2"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            SolverConfig(seed=seed)
    assert SolverConfig(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
    assert SolverConfig(seed=-1) == SolverConfig(seed=2**64 - 1)
    config = SolverConfig()
    assert config.epsilon == 1e-8
    assert config.max_iterations == 500
    assert config.restarts == 200
    assert config.seed == 0
