"""Adjacency eigendecompositions and the graph Fourier transform.

Eigenpairs come from LAPACK's symmetric eigensolver through
numpy.linalg.eigh. Two calls on the same matrix give the same output on
one machine and numpy build; other builds may differ in the last bits.

Column convention: eigenvalues ascending; each eigenvector is scaled so its
largest-magnitude entry is positive, ties broken by the lowest row index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (ConvergenceFailure, NonFiniteEntryError,
                     NonOrthogonalInputError, RepeatedEigenvaluesError,
                     SizeMismatchError)
from .graphs import Graph, as_numeric, as_real, check_count

ORTHOGONALITY_TOL = 1e-8
# eigenvalue gaps must exceed this fraction of max(1, max |eigenvalue|)
DISTINCT_RTOL = 1e-8


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
    a = as_real(matrix, "jacobi_eigh's matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SizeMismatchError("jacobi_eigh needs a square matrix")
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
        w = as_real(self.eigenvalues, "eigenvalues").copy()
        v = as_real(self.vectors, "vectors").copy()
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
    # argmax returns the first maximum: the lowest row on ties
    lead = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    # eigh's output is our own, so the flip may overwrite it
    np.negative(v, out=v, where=lead < 0.0)
    return SpectralDecomposition(w, v)


def has_distinct_eigenvalues(decomposition: SpectralDecomposition) -> bool:
    """True when every consecutive eigenvalue gap exceeds DISTINCT_RTOL
    times max(1, max |eigenvalue|)."""
    scale = max(1.0, float(np.max(np.abs(decomposition.eigenvalues),
                                  initial=0.0)))
    return minimum_eigenvalue_gap(decomposition) > DISTINCT_RTOL * scale


def minimum_eigenvalue_gap(decomposition: SpectralDecomposition) -> float:
    """Smallest consecutive gap of the ascending spectrum (inf for n = 1)."""
    return float(np.min(np.diff(decomposition.eigenvalues), initial=np.inf))


def check_same_size(g1: Graph, g2: Graph):
    """Raise SizeMismatchError unless the two graphs have one size."""
    if g1.n != g2.n:
        raise SizeMismatchError("graphs have different sizes: %d vs %d"
                                % (g1.n, g2.n))


def decompose_pair(g1: Graph, g2: Graph):
    """Eigendecompositions of two graphs of one size, each of which must
    have distinct eigenvalues (RepeatedEigenvaluesError otherwise)."""
    check_same_size(g1, g2)
    decompositions = (eigendecompose(g1), eigendecompose(g2))
    for which, dec in zip(("first", "second"), decompositions):
        if not has_distinct_eigenvalues(dec):
            gap = minimum_eigenvalue_gap(dec)
            raise RepeatedEigenvaluesError(
                "%s graph has repeated eigenvalues (min gap %.3e)"
                % (which, gap), min_gap=gap)
    return decompositions


def check_basis(v, name):
    """v as a square array, complex if v is complex and float otherwise,
    whose entries must be numeric (as_numeric: text and object entries
    raise SizeMismatchError); it must be at least 1 x 1
    (SizeMismatchError), finite (NonFiniteEntryError) and orthogonal
    (unitary, if complex) within ORTHOGONALITY_TOL
    (NonOrthogonalInputError)."""
    v = as_numeric(v, name)
    v = v.astype(complex if np.iscomplexobj(v) else float)
    if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] < 1:
        raise SizeMismatchError("%s must be square and at least 1 x 1, got "
                                "shape %s" % (name, v.shape))
    n = v.shape[0]
    if not np.isfinite(v).all():
        raise NonFiniteEntryError("%s has non-finite entries" % name)
    residual = np.max(np.abs(v.conj().T @ v - np.eye(n)))
    # written so that a NaN residual fails too
    if not residual <= ORTHOGONALITY_TOL:
        raise NonOrthogonalInputError(
            "%s is not orthogonal: max |V*V - I| = %.3e" % (name, residual))
    return v


def check_basis_pair(v1, v2):
    """Two orthogonal (unitary, if complex) bases of one size, as
    check_basis returns them, and that size."""
    v1 = check_basis(v1, "V1")
    v2 = check_basis(v2, "V2")
    if v1.shape != v2.shape:
        raise SizeMismatchError("V1 and V2 sizes differ: %s vs %s"
                                % (v1.shape, v2.shape))
    return v1, v2, v1.shape[0]


def gft(decomposition: SpectralDecomposition, signal: np.ndarray) -> np.ndarray:
    """Graph Fourier transform V^T x of a vertex signal (as_numeric)."""
    x = as_numeric(signal, "signal")
    if x.shape != (decomposition.n,):
        raise SizeMismatchError(f"signal length {x.shape} != ({decomposition.n},)")
    return decomposition.vectors.T @ x


def igft(decomposition: SpectralDecomposition, spectrum: np.ndarray) -> np.ndarray:
    """Inverse transform V x_hat back to the vertex domain (as_numeric)."""
    x = as_numeric(spectrum, "spectrum")
    if x.shape != (decomposition.n,):
        raise SizeMismatchError(f"spectrum length {x.shape} != ({decomposition.n},)")
    return decomposition.vectors @ x


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix U[j, k] = exp(-2 pi i j k / n) / sqrt(n)."""
    return scipy.linalg.dft(check_count(n, "n", SizeMismatchError),
                            scale="sqrtn")
