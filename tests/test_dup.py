"""Certified trace-objective upper bound: validity, duality, determinism."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gftdual import dup
from gftdual.alignment import CD, SolverConfig, multistart, trace_objective
from gftdual.dup import BoundResult, CouplingMatrix, build_coupling, dup_bound
from gftdual.errors import (NonFiniteEntryError, NonOrthogonalInputError,
                            SizeMismatchError)
from gftdual.graphs import erdos_renyi
from gftdual.rng import SplitMix64, derive_stream
from gftdual.spectral import eigendecompose


def _eigvecs(n, p, seed):
    return eigendecompose(erdos_renyi(n, p, seed)).vectors


def _pair(n=12, p=0.4, seed=0):
    return _eigvecs(n, p, seed + 62), _eigvecs(n, p, seed + 63)


def test_coupling_block_structure():
    v1, v2 = _pair()
    n = v1.shape[0]
    coupling = build_coupling(v1, v2)
    w = coupling.w
    assert coupling.n == n
    assert w.shape == (2 * n, 2 * n)
    assert np.array_equal(w, w.T)
    assert np.all(w[:n, :n] == 0.0)
    assert np.all(w[n:, n:] == 0.0)
    for k in range(n):
        for l in range(n):
            assert w[k, n + l] == 0.5 * v1[l, k] * v2[k, l]
    assert not w.flags.writeable


def test_identity_bases_coupling():
    coupling = build_coupling(np.eye(4), np.eye(4))
    w = coupling.w
    for i in range(4):
        for j in range(4):
            expected = 0.5 if i == j else 0.0
            assert w[i, 4 + j] == expected


def test_quadratic_form_equals_trace_objective():
    v1, v2 = _pair()
    n = v1.shape[0]
    w = build_coupling(v1, v2).w
    rng = np.random.default_rng(3)
    identity = np.arange(n)
    for _ in range(100):
        d1 = rng.choice([-1.0, 1.0], size=n)
        d2 = rng.choice([-1.0, 1.0], size=n)
        x = np.concatenate([d1, d2])
        quadratic = float(x @ w @ x)
        direct = trace_objective(v1, d1.astype(complex), identity,
                                 v2, d2.astype(complex), identity)
        assert abs(quadratic - direct) <= 1e-10


def test_bound_dominates_all_phase_assignments():
    v1, v2 = _pair()
    n = v1.shape[0]
    result = dup_bound(build_coupling(v1, v2))
    stream = SplitMix64(99)
    identity = np.arange(n)
    worst = -np.inf
    for _ in range(1000):
        d1 = stream.unit_phases(n)
        d2 = stream.unit_phases(n)
        value = trace_objective(v1, d1, identity, v2, d2, identity)
        worst = max(worst, value)
        assert value <= result.bound + 1e-6
    # the sampled phases must come close enough for the check to bite
    assert worst > 0.0


def _random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=5),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_bound_dominates_every_sign_pattern(n, seed):
    rng = np.random.default_rng(seed)
    coupling = build_coupling(_random_orthogonal(rng, n),
                              _random_orthogonal(rng, n))
    bound = dup_bound(coupling).bound
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=2 * n)))
    values = np.einsum("ki,ij,kj->k", signs, coupling.w, signs)
    # lambda_min(diag(nu) - W) >= -DEFAULT_TOL and x'x = 2n for signs
    assert np.max(values) <= bound + 2 * n * dup.DEFAULT_TOL


def test_bound_certificate_is_psd():
    v1, v2 = _pair(seed=10)
    coupling = build_coupling(v1, v2)
    result = dup_bound(coupling)
    certificate = np.diag(result.nu) - coupling.w
    eigenvalues = np.linalg.eigvalsh(certificate)
    assert eigenvalues[0] >= -1e-7


def test_bound_result_invariants():
    v1, v2 = _pair(seed=20)
    result = dup_bound(build_coupling(v1, v2))
    assert isinstance(result, BoundResult)
    assert result.min_eig_residual >= -1e-7
    assert abs(result.bound - float(result.nu.sum())) <= 1e-12
    assert result.cuts >= 0
    assert len(result.master_history) >= 1
    for a, b in zip(result.master_history, result.master_history[1:]):
        assert b >= a - 1e-9
    # the trace objective never exceeds n, so neither should a tight bound
    assert result.bound <= v1.shape[0] + 1e-6


def test_weak_duality_against_multistart():
    for seed in (0, 10, 20):
        v1, v2 = _pair(seed=seed)
        bound = dup_bound(build_coupling(v1, v2)).bound
        best = multistart(CD, v1, v2, SolverConfig(restarts=50, seed=1))
        assert best.objective <= bound + 1e-6


def test_identity_coupling_bound_is_n():
    n = 8
    result = dup_bound(build_coupling(np.eye(n), np.eye(n)))
    assert abs(result.bound - n) <= 1e-9


def test_zero_coupling():
    coupling = CouplingMatrix(w=np.zeros((10, 10)), n=5)
    result = dup_bound(coupling)
    assert abs(result.bound) <= 1e-12
    assert result.min_eig_residual >= -1e-12


def test_empty_coupling():
    result = dup_bound(CouplingMatrix(w=np.zeros((0, 0)), n=0))
    assert result.bound == 0.0
    assert result.nu.shape == (0,)


def test_bound_is_deterministic():
    v1, v2 = _pair(seed=30)
    first = dup_bound(build_coupling(v1, v2))
    second = dup_bound(build_coupling(v1, v2))
    assert first.bound == second.bound
    assert np.array_equal(first.nu, second.nu)
    assert first.cuts == second.cuts
    assert first.master_history == second.master_history


def test_master_lp_primal_form(monkeypatch):
    calls = []
    solve_master = dup._solve_master

    def recording(cuts, rhs, m):
        value, nu = solve_master(cuts, rhs, m)
        calls.append((list(cuts), m, value, nu))
        return value, nu

    monkeypatch.setattr(dup, "_solve_master", recording)
    for seed in (0, 10, 20):
        v1, v2 = _pair(seed=seed)
        coupling = build_coupling(v1, v2)
        del calls[:]
        dup_bound(coupling)
        cuts, m, value, nu = calls[-1]
        assert cuts
        assert nu.shape == (m,)
        assert abs(value - float(np.sum(nu))) <= 1e-9
        assert np.all(nu >= 0.0)
        for v in cuts:
            assert np.square(v) @ nu >= v @ coupling.w @ v - 1e-9


def _row_sequential_mixing(w, stream):
    """Reference ascent: one row of R at a time, each from the current WR.

    This is the row-by-row mixing method that the two-block update in
    dup._mixing_dual replaces; it recomputes WR after every row.
    """
    m = w.shape[0]
    rank = int(np.ceil(np.sqrt(2.0 * m))) + 1
    r = dup._gaussian(stream, m, rank)
    r /= np.linalg.norm(r, axis=1)[:, None]
    for _ in range(dup._MIXING_SWEEP_CAP):
        delta = 0.0
        for i in range(m):
            gi = w[i] @ r
            ng = np.linalg.norm(gi)
            if ng < 1e-300:
                continue
            rnew = gi / ng
            delta = max(delta, float(np.linalg.norm(rnew - r[i])))
            r[i] = rnew
        if delta <= dup._MIXING_STEP_TOL:
            break
    return np.linalg.norm(w @ r, axis=1)


@pytest.mark.parametrize("n", [5, 10, 20])
def test_block_ascent_matches_row_sequential(n):
    w = build_coupling(*_pair(n=n, seed=n)).w
    for attempt in range(2):
        expected = _row_sequential_mixing(w, derive_stream(7, attempt))
        got = dup._mixing_dual(w, derive_stream(7, attempt))
        assert np.max(np.abs(got - expected)) <= 1e-10


def test_block_ascent_keeps_rows_with_zero_product():
    # vertex 0 of side 1 couples to nothing, so its product row is zero
    # and the degenerate-row guard keeps its row of R
    w = build_coupling(*_pair(n=6, seed=4)).w.copy()
    w[0, 6:] = 0.0
    w[6:, 0] = 0.0
    expected = _row_sequential_mixing(w, derive_stream(3, 0))
    got = dup._mixing_dual(w, derive_stream(3, 0))
    assert got[0] == 0.0
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - expected)) <= 1e-10


def test_gaussian_block_equals_scalar_draws():
    # all u draws first, then all v draws, as one random() call each
    stream = derive_stream(dup._MIXING_SEED, 1)
    u = np.array([stream.random() for _ in range(24)])
    v = np.array([stream.random() for _ in range(24)])
    expected = np.sqrt(-2.0 * np.log1p(-u)) * np.cos(2.0 * np.pi * v)
    got = dup._gaussian(derive_stream(dup._MIXING_SEED, 1), 4, 6)
    assert np.array_equal(got, expected.reshape(4, 6))


def _per_sweep_ascent(b, r):
    """Reference ascent: the two-block sweep with its stop test after
    every sweep, as dup._ascend ran before its sweeps were chunked.
    Updates r in place and returns the number of sweeps run."""
    n = b.shape[0]
    r1, r2 = r[:n], r[n:]
    for sweep in range(1, dup._MIXING_SWEEP_CAP + 1):
        step = dup._normalize_rows(b @ r2, r1)
        step = max(step, dup._normalize_rows(b.T @ r1, r2))
        if step <= dup._MIXING_STEP_TOL:
            return sweep
    return dup._MIXING_SWEEP_CAP


def _ascent_start(n, seed):
    """A sweep-sized coupling block and unit starting rows for it."""
    b = build_coupling(*_pair(n=n, seed=seed)).w[:n, n:]
    rank = int(np.ceil(np.sqrt(4.0 * n))) + 1
    r = np.random.default_rng(seed).standard_normal((2 * n, rank))
    return b, r / np.linalg.norm(r, axis=1)[:, None]


def _assert_chunked_ascent_is_exact(b, r):
    expected = r.copy()
    sweeps = _per_sweep_ascent(b, expected)
    got = r.copy()
    assert dup._ascend(b, got) == sweeps
    assert np.array_equal(got, expected, equal_nan=True)
    return sweeps


def test_chunked_ascent_stops_inside_a_chunk():
    sweeps = _assert_chunked_ascent_is_exact(*_ascent_start(6, 0))
    assert sweeps % dup._MIXING_CHUNK != 0
    assert sweeps < dup._MIXING_SWEEP_CAP


def test_chunked_ascent_stops_on_a_chunk_boundary(monkeypatch):
    b, r = _ascent_start(10, 3)
    sweeps = _assert_chunked_ascent_is_exact(b, r)
    assert sweeps % dup._MIXING_CHUNK == 0
    # the last sweep of the first chunk, and of a later one
    for chunk in (sweeps, sweeps // 2):
        monkeypatch.setattr(dup, "_MIXING_CHUNK", chunk)
        assert _assert_chunked_ascent_is_exact(b, r) == sweeps


def test_chunked_ascent_keeps_a_cap_between_chunks(monkeypatch):
    b, r = _ascent_start(6, 2)
    # 37 sweeps: two full chunks of 16 and a shortened one of 5
    monkeypatch.setattr(dup, "_MIXING_SWEEP_CAP", 2 * dup._MIXING_CHUNK + 5)
    assert _assert_chunked_ascent_is_exact(b, r) == dup._MIXING_SWEEP_CAP


def test_chunked_ascent_replays_dead_and_overflowing_rows():
    b, r = _ascent_start(6, 4)
    # row 0 of B R2 is zero in every sweep: the guard keeps that row
    dead = b.copy()
    dead[0] = 0.0
    kept = r.copy()
    _assert_chunked_ascent_is_exact(dead, kept)
    dup._ascend(dead, kept)
    assert np.array_equal(kept[0], r[0])
    # squared norms overflow to inf: not finite, so replayed as well
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_chunked_ascent_is_exact(b * 1e200, r)
    # the zero coupling stops after one replayed sweep
    assert _assert_chunked_ascent_is_exact(np.zeros((6, 6)), r) == 1


def test_chunked_ascent_replays_an_infinite_norm_at_a_chunk_end(monkeypatch):
    # R1 = 1 is already a fixed point (the row sums of B are 1, 1, 3), and
    # B' R1 = (inf, -inf, 3) gives NaN rows of R2; the guarded sweep still
    # stops on R1's zero step, since max(0.0, nan) is 0.0, so a chunk
    # that ends on this sweep must be replayed to stop there too
    big = 1e308
    b = np.array([[big, -big, 1.0], [big, -big, 1.0], [1.0, 1.0, 1.0]])
    r = np.ones((6, 1))
    monkeypatch.setattr(dup, "_MIXING_CHUNK", 1)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _assert_chunked_ascent_is_exact(b, r) == 1
        ascended = r.copy()
        dup._ascend(b, ascended)
    assert np.isnan(ascended[3:5]).all()


def test_coupling_validation():
    with pytest.raises(SizeMismatchError):
        CouplingMatrix(w=np.zeros((3, 3)), n=1)
    bad = np.zeros((4, 4))
    bad[0, 2] = 1.0
    with pytest.raises(SizeMismatchError):
        CouplingMatrix(w=bad, n=2)
    diag = np.zeros((4, 4))
    diag[0, 0] = 1.0
    with pytest.raises(SizeMismatchError):
        CouplingMatrix(w=diag, n=2)
    nonfinite = np.zeros((4, 4))
    nonfinite[0, 2] = np.nan
    nonfinite[2, 0] = np.nan
    with pytest.raises(NonFiniteEntryError):
        CouplingMatrix(w=nonfinite, n=2)


def test_build_coupling_validation():
    with pytest.raises(SizeMismatchError):
        build_coupling(np.eye(3, dtype=complex), np.eye(3, dtype=complex))
    with pytest.raises(SizeMismatchError):
        build_coupling(np.eye(3), np.eye(4))
    with pytest.raises(SizeMismatchError):
        build_coupling(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(NonOrthogonalInputError):
        build_coupling(np.eye(3) * 2.0, np.eye(3))


def test_dup_bound_argument_validation():
    with pytest.raises(SizeMismatchError):
        dup_bound(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        dup_bound(CouplingMatrix(w=np.zeros((2, 2)), n=1), tol=0.0)
