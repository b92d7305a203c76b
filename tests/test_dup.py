"""Certified trace-objective upper bound: validity, duality, determinism."""

import numpy as np
import pytest

from gftdual import dup
from gftdual.alignment import CD, SolverConfig, multistart, trace_objective
from gftdual.dup import BoundResult, CouplingMatrix, build_coupling, dup_bound
from gftdual.errors import (NonFiniteEntryError, NonOrthogonalInputError,
                            SizeMismatchError)
from gftdual.graphs import erdos_renyi
from gftdual.rng import SplitMix64
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
