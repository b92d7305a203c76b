"""Feasibility construction for a dual graph with eigenvector matrix V'.

Given an orthogonal V, the candidate dual adjacency is the affine map

    A(L)_{ij} = sum_k lambda_k V[k, i] V[k, j]

built from rank-one terms of the ROWS of V.  A valid dual needs a zero
diagonal, non-negative entries, and row sums at least 1; those
constraints form a linear program in lambda with a constant objective,
so the answer is purely feasible or infeasible.

The zero diagonal reads E lambda = 0 with E = (V o V)', which is doubly
stochastic (largest singular value 1) and singular whenever V is an
eigenvector matrix: the graph's own spectrum mu has E' mu = diag(A) = 0.
So lambda = N t, with N an orthonormal basis of null(E) from one SVD,
and the program is solved in t with only the sign and row-sum rows.
A(L) is linear in lambda, so the rows are the entries A(N_c)_ij, i < j,
and the row sums of the candidate adjacencies A(N_c) of the columns
N_c of N: the rows, the FEASIBLE witness and verify_dual_witness all
evaluate A through the one kernel _candidate_adjacency.
null(E) is spanned by the right singular vectors whose singular values
are at most NULL_SPACE_RTOL times the largest.  On 3826 G(n, p) graphs
(n = 6-25, p = 0.2-0.7, 1000 of them with edge weights in 0.1-3) those
were at most 4e-14 and the rest at least 8.5e-5; null(E) was
one-dimensional for 3614 of them and never wider than five.

lp.solve_lp returns a point t, and lambda = N t is the witness, or None
for an infeasible program.  A one-dimensional null(E) leaves one
variable, and such a program is answered None from its rows, without
HiGHS, when they miss by more than ten times HiGHS's feasibility
tolerance (see the lp module).  So an infeasible graph of the usual kind
costs the eigensolve, the SVD and the assembly, and HiGHS decides every
feasible graph and every graph whose null(E) is wider.

construct_dual does not check the eigenvectors it computed itself:
LAPACK returns an orthogonal basis, so only construct_dual_from_vectors,
whose V comes from the caller, runs as_real and check_basis.  Both
share one construction.  On a 2-core x86-64 host with one BLAS thread,
a call that the interval test answers took a median 160-175 us at
n = 10 and 390-410 us at n = 25.  numpy's eigh and svd together took
36-41% of it at n = 10 and 64-79% at n = 25, the assembly of the rows
20-21 us and 29-30 us, and the rest was the interval test and the
eigendecomposition's sign convention.

A FEASIBLE adjacency is the mean of the candidate A(L) and its
transpose, clamped: the product rounds A_ij and A_ji apart, and the
mean is exactly symmetric, so Graph accepts it.
"""

from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import SizeMismatchError
from .graphs import Graph, as_real
from .spectral import check_basis, eigendecompose

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

CLAMP_TOL = 1e-9

# singular values of E at most this fraction of the largest span null(E)
NULL_SPACE_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class DualConstructionResult:
    """status is FEASIBLE or INFEASIBLE; lambda_ and adjacency are the
    witness spectrum and the clamped candidate adjacency when feasible,
    None otherwise."""

    status: str
    lambda_: np.ndarray | None
    adjacency: np.ndarray | None


def _null_basis(v):
    """Orthonormal basis (n, k) of the null space of E = (V o V)', whose
    row i maps lambda to the diagonal entry A(L)_ii."""
    _, s, vh = np.linalg.svd((v * v).T)
    rank = np.count_nonzero(s > NULL_SPACE_RTOL * s.max(initial=0.0))
    return vh[rank:].T


def _assemble(v, basis):
    """The program in free t, lambda = basis @ t: n(n-1)/2 off-diagonal
    sign rows >= 0, then n row-sum rows >= 1; the diagonal rows hold for
    every t.  Column c holds the entries i < j, then the row sums, of
    A(N_c), N_c being column c of the basis."""
    n = v.shape[0]
    vertices = np.arange(n)
    # the pairs i < j in row-major order, as np.triu_indices(n, k=1)
    upper, lower = np.nonzero(vertices[:, None] < vertices)
    a = _candidate_adjacency(v, basis.T)
    rows = np.concatenate((a[:, upper, lower], a.sum(axis=2)), axis=1).T
    rhs = np.zeros(len(rows))
    rhs[len(upper):] = 1.0
    return lp.LinearProgram(
        objective=np.zeros(basis.shape[1]),
        constraints=rows,
        rhs=rhs,
        nonnegative=False)


def _candidate_adjacency(v, lam):
    """A(L) = V' diag(lam) V assembled from the rows of a checked V; a
    (k, n) stack of spectra gives the (k, n, n) stack of adjacencies."""
    return v.T @ (lam[..., :, None] * v)


def _construct(v) -> DualConstructionResult:
    """The construction for a real orthogonal V, which is not checked
    again here."""
    basis = _null_basis(v)
    t = lp.solve_lp(_assemble(v, basis))
    if t is None:
        return DualConstructionResult(status=INFEASIBLE, lambda_=None,
                                      adjacency=None)
    lam = basis @ t
    a = _candidate_adjacency(v, lam)
    # the product rounds a_ij and a_ji apart; their mean is symmetric
    # to the bit, as Graph requires
    adjacency = 0.5 * (a + a.T)
    adjacency[np.abs(adjacency) < CLAMP_TOL] = 0.0
    lam.setflags(write=False)
    adjacency.setflags(write=False)
    return DualConstructionResult(status=FEASIBLE, lambda_=lam,
                                  adjacency=adjacency)


def construct_dual_from_vectors(v) -> DualConstructionResult:
    """Diagnostic entry point taking the eigenvector matrix directly: V
    must be real (graphs.as_real) and an orthogonal basis
    (spectral.check_basis)."""
    return _construct(check_basis(as_real(v, "V"), "V"))


def construct_dual(g: Graph) -> DualConstructionResult:
    """Search for a spectrum making the graph's transposed eigenvector
    matrix the eigenvector matrix of a valid adjacency.  The vectors
    come from eigendecompose, so they are not checked again."""
    return _construct(eigendecompose(g).vectors)


def verify_dual_witness(g: Graph, lam) -> tuple:
    """Constraint residual maxima (diagonal, non-negativity, row-sum)
    of the witness spectrum lam, recomputed independently."""
    # as_real refuses NaN: max(0.0, nan) is 0.0, so a NaN residual would
    # read as met
    lam = as_real(lam, "lambda")
    if lam.shape != (g.n,):
        raise SizeMismatchError("lambda must have length %d" % g.n)
    a = _candidate_adjacency(eigendecompose(g).vectors, lam)
    diagonal = float(np.max(np.abs(np.diagonal(a))))
    off = a - np.diag(np.diagonal(a))
    negativity = float(max(0.0, -np.min(off)))
    row_sums = a.sum(axis=1)
    shortfall = float(max(0.0, 1.0 - np.min(row_sums)))
    return diagonal, negativity, shortfall
