"""Eigensolver conventions, GFT and DFT tests."""

import numpy as np
import pytest

from gftdual.errors import (ConvergenceFailure, NonFiniteEntryError,
                            SizeMismatchError)
from gftdual.graphs import circulant, erdos_renyi, new_graph
from gftdual.spectral import (DISTINCT_RTOL, SpectralDecomposition,
                              dft_matrix, eigendecompose, gft,
                              has_distinct_eigenvalues, igft, jacobi_eigh,
                              minimum_eigenvalue_gap)


def _random_symmetric(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) * scale
    return 0.5 * (m + m.T)


def test_eigenvalues_match_numpy_oracle():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 5, 10, 25, 40):
        for scale in (1.0, 1e-3, 1e3):
            a = _random_symmetric(rng, n, scale)
            ours, _ = jacobi_eigh(a)
            oracle = np.linalg.eigvalsh(a)
            tol = 1e-10 * max(1.0, float(np.linalg.norm(a)))
            assert np.max(np.abs(ours - oracle)) <= tol


def test_reconstruction_and_orthogonality():
    rng = np.random.default_rng(2)
    for n in (2, 6, 15, 30):
        a = _random_symmetric(rng, n)
        w, v = jacobi_eigh(a)
        scale = max(1.0, float(np.linalg.norm(a)))
        assert np.linalg.norm(v @ np.diag(w) @ v.T - a) <= 1e-10 * scale
        assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-12 * n


def test_eigenvalues_ascending():
    rng = np.random.default_rng(3)
    for _ in range(10):
        w, _ = jacobi_eigh(_random_symmetric(rng, 12))
        assert np.all(np.diff(w) >= 0.0)


def test_jacobi_rejects_non_square():
    with pytest.raises(SizeMismatchError):
        jacobi_eigh(np.zeros((2, 3)))


def test_lapack_failure_is_a_convergence_failure(monkeypatch):
    def fails(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fails)
    with pytest.raises(ConvergenceFailure,
                       match="LAPACK eigh: Eigenvalues did not converge"):
        jacobi_eigh(np.eye(3))


def test_jacobi_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        a = np.eye(4)
        a[1, 2] = a[2, 1] = bad
        with pytest.raises(NonFiniteEntryError):
            jacobi_eigh(a)


def test_jacobi_rejects_matrices_that_are_not_real():
    # the float cast dropped the imaginary parts of this Hermitian matrix
    # and returned the eigenpairs of the zero matrix
    for bad in ([[0, 1j], [-1j, 0]], [["2", "1"], ["1", "2"]],
                np.eye(2, dtype=object)):
        with pytest.raises(SizeMismatchError, match="real"):
            jacobi_eigh(bad)
    w, _ = jacobi_eigh(np.array([[0, 1], [1, 0]], dtype=bool))
    assert np.allclose(w, [-1.0, 1.0])


def test_jacobi_deterministic():
    a = _random_symmetric(np.random.default_rng(5), 10)
    w1, v1 = jacobi_eigh(a)
    w2, v2 = jacobi_eigh(a)
    assert np.array_equal(w1, w2) and np.array_equal(v1, v2)


def test_eigendecompose_sign_convention():
    for seed in range(10):
        g = erdos_renyi(12, 0.5, seed=seed)
        dec = eigendecompose(g)
        for k in range(12):
            column = dec.vectors[:, k]
            lead = int(np.argmax(np.abs(column)))
            assert column[lead] > 0.0
        scale = max(1.0, float(np.linalg.norm(g.adjacency)))
        recon = dec.vectors @ np.diag(dec.eigenvalues) @ dec.vectors.T
        assert np.linalg.norm(recon - g.adjacency) <= 1e-10 * scale


def _signed_by_column(v):
    """The per-column form of eigendecompose's sign rule, for every input."""
    v = v.copy()
    for k in range(v.shape[1]):
        column = v[:, k]
        lead = int(np.argmax(np.abs(column)))
        if column[lead] < 0.0:
            v[:, k] = -column
    return v


def _star(n):
    return new_graph(n, [(0, j, 1.0) for j in range(1, n)])


def test_sign_rule_equals_per_column_rule():
    # K2, the 4-cycle, stars and the 6-vertex path have columns whose
    # largest magnitude is tied between rows; the lowest such row
    # decides the sign.  Stars and two disjoint edges hold exact zeros,
    # which the latter flips to -0.0, as -v does
    graphs = [new_graph(2, [(0, 1, 1.0)]), circulant(4, [(1, 1.0)]),
              _star(3), _star(5), _star(8),
              new_graph(6, [(i, i + 1, 1.0) for i in range(5)]),
              new_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])]
    graphs += [erdos_renyi(n, p, seed) for n in (1, 2, 7, 16, 30)
               for p in (0.2, 0.5, 0.9) for seed in range(3)]
    for g in graphs:
        dec = eigendecompose(g)
        w, v = jacobi_eigh(g.adjacency)
        assert np.array_equal(dec.eigenvalues, w)
        assert dec.vectors.tobytes() == _signed_by_column(v).tobytes()


def test_distinct_eigenvalue_threshold_is_relative():
    def distinct(eigenvalues):
        n = len(eigenvalues)
        return has_distinct_eigenvalues(
            SpectralDecomposition(eigenvalues, np.eye(n)))
    assert distinct([0.0, 2.0 * DISTINCT_RTOL])
    assert not distinct([0.0, 0.5 * DISTINCT_RTOL])
    # above 1 the threshold grows with the largest |eigenvalue|
    assert not distinct([-1e3, 0.0, 5e2 * DISTINCT_RTOL])
    assert distinct([-1e3, 0.0, 2e3 * DISTINCT_RTOL])
    # one eigenvalue has no gap
    one = SpectralDecomposition([7.0], np.eye(1))
    assert minimum_eigenvalue_gap(one) == np.inf
    assert has_distinct_eigenvalues(one)


def test_spectral_decomposition_validation():
    with pytest.raises(SizeMismatchError):
        SpectralDecomposition(np.zeros(3), np.zeros((2, 2)))


def test_distinct_eigenvalue_predicate():
    # complete K4 has eigenvalue -1 with multiplicity 3
    k4 = new_graph(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])
    dec = eigendecompose(k4)
    assert not has_distinct_eigenvalues(dec)
    assert minimum_eigenvalue_gap(dec) < 1e-10
    # a generic sample has simple spectrum
    dec2 = eigendecompose(erdos_renyi(12, 0.4, seed=3))
    assert has_distinct_eigenvalues(dec2)
    gaps = np.diff(dec2.eigenvalues)
    assert abs(minimum_eigenvalue_gap(dec2) - float(np.min(gaps))) == 0.0


def test_gft_igft_round_trip_and_parseval():
    g = erdos_renyi(14, 0.5, seed=9)
    dec = eigendecompose(g)
    rng = np.random.default_rng(6)
    x = rng.normal(size=14)
    spectrum = gft(dec, x)
    assert np.allclose(spectrum, dec.vectors.T @ x, atol=1e-14)
    assert np.allclose(igft(dec, spectrum), x, atol=1e-10)
    assert abs(np.linalg.norm(spectrum) - np.linalg.norm(x)) < 1e-10
    with pytest.raises(SizeMismatchError):
        gft(dec, np.zeros(5))
    with pytest.raises(SizeMismatchError):
        igft(dec, np.zeros(5))


def test_dft_matrix_unitary_and_diagonalizes_circulants():
    for n in (2, 3, 8, 12):
        f = dft_matrix(n)
        assert np.linalg.norm(f.conj().T @ f - np.eye(n)) <= 1e-12 * n
        assert np.allclose(f[0], np.ones(n) / np.sqrt(n), atol=1e-14)
    g = circulant(12, [(1, 1.0), (4, 0.5)])
    f = dft_matrix(12)
    lam = f.conj().T @ g.adjacency @ f
    off = lam - np.diag(np.diagonal(lam))
    assert np.max(np.abs(off)) <= 1e-9
    with pytest.raises(SizeMismatchError):
        dft_matrix(0)


def test_dft_matrix_rejects_non_integer_sizes():
    # scipy would give a 3 x 3 matrix scaled by 1/sqrt(2.5), not unitary
    for n in (2.5, 3.0, "3", True):
        with pytest.raises(SizeMismatchError, match="integer"):
            dft_matrix(n)
    assert dft_matrix(np.int64(3)).shape == (3, 3)


def test_dft_matrix_equals_exp_formula():
    # not bitwise: the exp form rounds its angles 2 pi j k / n, of size up
    # to 2 pi n, so the two forms may differ by about 2 pi n eps
    eps = np.finfo(float).eps
    for n in range(1, 65):
        indices = np.arange(n)
        expected = (np.exp(-2j * np.pi * np.outer(indices, indices) / n)
                    / np.sqrt(n))
        assert np.max(np.abs(dft_matrix(n) - expected)) <= 2 * np.pi * n * eps
