"""CD / CDPM optimizer tests: closed-form oracles, monotonicity, algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gftdual import alignment
from gftdual.alignment import (CD, CDPM, ZERO_DIAGONAL_TOL, SolverConfig,
                               _PERTURB_ROUNDS, _perturbed_starts,
                               _phases_of_diagonal, _random_starts, cd_align,
                               cdpm_align, isomorphism_transport, multistart,
                               run_pair,
                               trace_objective, verify_circulant_duality)
from gftdual.dup import build_coupling
from gftdual.errors import (IndexOutOfRangeError, NonFiniteEntryError,
                            NonOrthogonalInputError, NonUnitPhaseError,
                            NotCirculantError, RepeatedEigenvaluesError,
                            SizeMismatchError)
from gftdual.graphs import Graph, circulant, erdos_renyi, invert_permutation
from gftdual.rng import derive_stream
from gftdual.spectral import decompose_pair, eigendecompose
from oracles import permutation_matrix


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
    # the descent scores its starts from the first half-step's product;
    # that must agree with the objective of the start itself
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


def test_multistart_deterministic_and_matches_manual_restart():
    v1 = _eigvecs(9, 0.4, 40)
    v2 = _eigvecs(9, 0.4, 41)
    config = SolverConfig(restarts=10, seed=12)
    first = multistart(CDPM, v1, v2, config)
    second = multistart(CDPM, v1, v2, config)
    assert first.objective == second.objective
    assert np.array_equal(first.d1, second.d1)
    assert np.array_equal(first.p2, second.p2)
    # restart 0 reproduces cdpm_align on the derived stream's init
    # (draw order: both phase vectors, then both permutations)
    single = multistart(CDPM, v1, v2, SolverConfig(restarts=1, seed=12))
    stream = derive_stream(12, 0)
    d1 = stream.unit_phases(9)
    d2 = stream.unit_phases(9)
    p1 = stream.permutation(9)
    p2 = stream.permutation(9)
    manual = cdpm_align(v1, v2, SolverConfig(restarts=1, seed=12), (d1, p1, d2, p2))
    assert single.objective == manual.objective


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
    assert abs(stacked.objective - best.objective) <= 1e-12
    assert np.max(np.abs(stacked.d1 - best.d1)) <= 1e-12
    assert np.max(np.abs(stacked.d2 - best.d2)) <= 1e-12
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


@pytest.mark.parametrize("complex_valued", [False, True])
def test_cdpm_score_blocks_match_single_starts(complex_valued):
    # at n = 40 CDPM forms the score matrices of 10 starts per block, so
    # 25 starts take three blocks, the last one partial
    n = 40
    v1 = _eigvecs(n, 0.4, 94)
    v2 = _eigvecs(n, 0.4, 95)
    if complex_valued:
        # unitary column phases make both bases complex
        angles = np.random.default_rng(3).uniform(0, 2 * np.pi, (2, n))
        v1 = v1 * np.exp(1j * angles[0])
        v2 = v2 * np.exp(1j * angles[1])
    config = SolverConfig(max_iterations=6)
    starts = _seeded_starts(CDPM, n, 25, seed=8)
    stacked = cdpm_align(v1, v2, config,
                         tuple(np.array(part) for part in zip(*starts)))
    single = [cdpm_align(v1, v2, config, start) for start in starts]
    best = single[int(np.argmax([run.objective for run in single]))]
    assert abs(stacked.objective - best.objective) <= 1e-12
    assert np.array_equal(stacked.p1, best.p1)
    assert np.array_equal(stacked.p2, best.p2)
    recomputed = trace_objective(v1, stacked.d1, stacked.p1,
                                 v2, stacked.d2, stacked.p2)
    assert abs(recomputed - stacked.objective) <= 1e-12
    assert np.array_equal(stacked.restart_iterations,
                          [run.iterations for run in single])
    assert np.array_equal(stacked.restart_converged,
                          [run.converged for run in single])


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
    # rounding (at n = 40 the 12 starts take two score blocks)
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


def _perturbed(incumbent, seed, r):
    """The start of search descent r: the incumbent's phases, and its
    permutations with the transposition of each drawn from
    derive_stream(seed, r), scalar draw by scalar draw."""
    n = incumbent.p1.shape[0]
    stream = derive_stream(seed, r)
    perms = [incumbent.p1.copy(), incumbent.p2.copy()]
    for p in perms:
        i = int(stream.random() * n)
        j = int(stream.random() * (n - 1))
        j += j >= i
        p[i], p[j] = p[j], p[i]
    return incumbent.d1, perms[0], incumbent.d2, perms[1]


def _check_cdpm_search(v1, v2, config, monkeypatch):
    """multistart(CDPM) against the documented search: one stacked
    cdpm_align on the first ceil(R/2) seeded starts, then rounds whose
    starts are the incumbent with exactly the drawn transpositions."""
    n = v1.shape[0]
    calls = []

    def recording(v1, v2, config, init):
        calls.append((init, cdpm_align(v1, v2, config, init)))
        return calls[-1][1]

    monkeypatch.setattr(alignment, "cdpm_align", recording)
    solution = multistart(CDPM, v1, v2, config)
    restarts = config.restarts
    first = -(-restarts // 2)
    starts = _seeded_starts(CDPM, n, first, config.seed)
    stacked = cdpm_align(v1, v2, config,
                         tuple(np.array(part) for part in zip(*starts)))
    init, run = calls[0]
    for part, expected in zip(init, zip(*starts)):
        assert np.array_equal(part, np.array(expected))
    assert run.objective == stacked.objective
    assert np.array_equal(run.restart_objectives, stacked.restart_objectives)
    left = restarts - first
    rounds = min(_PERTURB_ROUNDS, left)
    assert len(calls) == 1 + rounds
    incumbent = run
    r = first
    for k, (init, run) in enumerate(calls[1:]):
        assert len(run.restart_objectives) == (left // rounds
                                               + (k < left % rounds))
        for row in range(len(run.restart_objectives)):
            expected = _perturbed(incumbent, config.seed, r)
            for part, value in zip(init, expected):
                assert np.array_equal(part[row], value)
            r += 1
        if run.objective > incumbent.objective:
            incumbent = run
    assert r == restarts
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
            [getattr(run, name) for _, run in calls]))
    objectives = solution.restart_objectives
    best = int(np.argmax(objectives))
    assert objectives[best] == solution.objective
    assert solution.iterations == solution.restart_iterations[best]
    return solution


@pytest.mark.parametrize("method", [CD, CDPM])
def test_multistart_is_one_stacked_call(method, monkeypatch):
    # CD runs one stacked descent on all seeded starts; CDPM runs one on
    # the first half of them and perturbs the incumbent after that
    n = 9
    v1 = _eigvecs(n, 0.4, 90)
    v2 = _eigvecs(n, 0.4, 91)
    config = SolverConfig(restarts=12, seed=5)
    if method == CDPM:
        _check_cdpm_search(v1, v2, config, monkeypatch)
        return
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


@pytest.mark.parametrize("restarts", [1, 2, 3, 50])
def test_cdpm_search_at_every_budget(restarts, monkeypatch):
    # 1 descent has no perturbed round, 2 and 3 have one perturbed
    # descent, 50 has five rounds of five
    v1 = _eigvecs(10, 0.4, 92)
    v2 = _eigvecs(10, 0.4, 93)
    config = SolverConfig(restarts=restarts, seed=2**64 - 3)
    solution = _check_cdpm_search(v1, v2, config, monkeypatch)
    if restarts == 50:
        # the search found a better optimum than its independent starts
        assert solution.objective > max(solution.restart_objectives[:25])


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


def test_multistart_more_restarts_never_worse():
    v1 = _eigvecs(9, 0.4, 50)
    v2 = _eigvecs(9, 0.4, 51)
    few = multistart(CD, v1, v2, SolverConfig(restarts=2, seed=7))
    many = multistart(CD, v1, v2, SolverConfig(restarts=25, seed=7))
    assert many.objective >= few.objective


def test_cdpm_beats_cd_on_seeded_pairs():
    for seed in (7, 11, 21):
        v1 = _eigvecs(12, 0.4, seed)
        v2 = _eigvecs(12, 0.4, seed + 1000)
        config = SolverConfig(restarts=40, seed=3)
        cd = multistart(CD, v1, v2, config)
        cdpm = multistart(CDPM, v1, v2, config)
        assert cdpm.objective >= cd.objective - 1e-12


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
    with pytest.raises(ValueError):
        isomorphism_transport(solution, np.arange(n), 3)


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
