"""Adjacency eigendecompositions and the graph Fourier transform.

Eigenpairs come from LAPACK's symmetric eigensolver through
numpy.linalg.eigh. Two calls on the same matrix give the same output on
one machine and numpy build; other builds may differ in the last bits.

Column convention: eigenvalues ascending; each eigenvector is scaled so its
largest-magnitude entry is positive, ties broken by the lowest row index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceFailure, NonFiniteEntryError, NotSquareError,
                     SizeMismatchError)
from .graphs import Graph


def jacobi_eigh(matrix: np.ndarray):
    """Eigenpairs of a dense symmetric matrix (LAPACK, via numpy.linalg.eigh).

    Parameters
    ----------
    matrix:
        Symmetric (n, n) array of finite entries. Not modified; only its
        lower triangle is read.

    Returns
    -------
    (eigenvalues, vectors):
        Eigenvalues ascending; vectors[:, k] belongs to eigenvalues[k].
        No sign normalization is applied here.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquareError("jacobi_eigh needs a square matrix")
    if not np.isfinite(a).all():
        raise NonFiniteEntryError("jacobi_eigh needs finite entries")
    try:
        eigenvalues, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as error:
        raise ConvergenceFailure("LAPACK eigh: %s" % error) from error
    return eigenvalues, vectors


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Adjacency eigendecomposition A = V diag(eigenvalues) V^T."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        w = np.array(self.eigenvalues, dtype=float)
        v = np.array(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or w.shape != (v.shape[0],):
            raise SizeMismatchError("eigenvalues and vectors shapes disagree")
        w.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "vectors", v)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]


def eigendecompose(graph: Graph) -> SpectralDecomposition:
    """Eigendecomposition of the adjacency matrix with fixed conventions.

    Eigenvalues ascending; each eigenvector column is flipped, if needed,
    so that its largest-magnitude entry (lowest row index on ties) is
    positive. Deterministic: repeat calls on one build are bit-identical.
    """
    w, v = jacobi_eigh(graph.adjacency)
    for k in range(v.shape[1]):
        column = v[:, k]
        lead = int(np.argmax(np.abs(column)))
        if column[lead] < 0.0:
            v[:, k] = -column
    return SpectralDecomposition(w, v)


def has_distinct_eigenvalues(decomposition: SpectralDecomposition, tol: float = 1e-8) -> bool:
    """True when all consecutive eigenvalue gaps clear a relative threshold."""
    return minimum_eigenvalue_gap(decomposition) > tol * _gap_scale(decomposition)


def minimum_eigenvalue_gap(decomposition: SpectralDecomposition) -> float:
    """Smallest consecutive gap of the ascending spectrum (inf for n = 1)."""
    w = decomposition.eigenvalues
    if w.shape[0] < 2:
        return math.inf
    return float(np.min(np.diff(w)))


def _gap_scale(decomposition: SpectralDecomposition) -> float:
    w = decomposition.eigenvalues
    if w.shape[0] == 0:
        return 1.0
    return max(1.0, float(np.max(np.abs(w))))


def gft(decomposition: SpectralDecomposition, signal: np.ndarray) -> np.ndarray:
    """Graph Fourier transform V^T x of a vertex signal."""
    x = np.asarray(signal)
    if x.shape != (decomposition.n,):
        raise SizeMismatchError(f"signal length {x.shape} != ({decomposition.n},)")
    return decomposition.vectors.T @ x


def igft(decomposition: SpectralDecomposition, spectrum: np.ndarray) -> np.ndarray:
    """Inverse transform V x_hat back to the vertex domain."""
    x = np.asarray(spectrum)
    if x.shape != (decomposition.n,):
        raise SizeMismatchError(f"spectrum length {x.shape} != ({decomposition.n},)")
    return decomposition.vectors @ x


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix U[j, k] = exp(-2 pi i j k / n) / sqrt(n)."""
    if n < 1:
        raise SizeMismatchError(f"n must be >= 1, got {n}")
    indices = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(indices, indices) / n) / math.sqrt(n)
