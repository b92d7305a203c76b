"""Feasibility construction for a dual graph with eigenvector matrix V'.

Given an orthogonal V, the candidate dual adjacency is the affine map

    A(L)_{ij} = sum_k lambda_k V[k, i] V[k, j]

built from rank-one terms of the ROWS of V.  A valid dual needs a zero
diagonal, non-negative entries, and row sums at least 1; those
constraints form a linear program in lambda with a constant objective,
so the answer is purely feasible or infeasible.
"""

from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import SizeMismatchError
from .graphs import Graph
from .spectral import check_square, eigendecompose

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

CLAMP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DualConstructionResult:
    """status is FEASIBLE or INFEASIBLE; lambda_ and adjacency are the
    witness spectrum and the clamped candidate adjacency when feasible,
    None otherwise."""

    status: str
    lambda_: np.ndarray | None
    adjacency: np.ndarray | None


def _assemble(v):
    """Rows: n diagonal equalities, n(n-1)/2 off-diagonal sign rows,
    n row-sum rows."""
    n = v.shape[0]
    constraints = []
    for i in range(n):
        constraints.append((v[:, i] * v[:, i], lp.EQUAL, 0.0))
    for i in range(n):
        for j in range(i + 1, n):
            constraints.append((v[:, i] * v[:, j], lp.GREATER_EQUAL, 0.0))
    row_totals = v.sum(axis=1)
    for i in range(n):
        constraints.append((v[:, i] * row_totals, lp.GREATER_EQUAL, 1.0))
    bounds = tuple((None, None) for _ in range(n))
    return lp.LinearProgram(objective=np.zeros(n),
                            constraints=tuple(constraints),
                            bounds=bounds)


def candidate_adjacency(v, lam):
    """A(L) = V' diag(lam) V assembled from the rows of V."""
    v = check_square(v, "V")
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (v.shape[0],):
        raise SizeMismatchError("lambda must have length %d" % v.shape[0])
    return v.T @ (lam[:, None] * v)


def construct_dual_from_vectors(v) -> DualConstructionResult:
    """Diagnostic entry point taking the eigenvector matrix directly."""
    v = check_square(v, "V")
    result = lp.solve_lp(_assemble(v))
    if result.status != lp.OPTIMAL:
        return DualConstructionResult(status=INFEASIBLE, lambda_=None,
                                      adjacency=None)
    lam = np.asarray(result.y, dtype=float)
    adjacency = candidate_adjacency(v, lam)
    adjacency[np.abs(adjacency) < CLAMP_TOL] = 0.0
    lam.setflags(write=False)
    adjacency.setflags(write=False)
    return DualConstructionResult(status=FEASIBLE, lambda_=lam,
                                  adjacency=adjacency)


def construct_dual(g: Graph) -> DualConstructionResult:
    """Search for a spectrum making the graph's transposed eigenvector
    matrix the eigenvector matrix of a valid adjacency."""
    return construct_dual_from_vectors(eigendecompose(g).vectors)


def verify_dual_witness(g: Graph, lam) -> tuple:
    """Constraint residual maxima (diagonal, non-negativity, row-sum)
    of the witness spectrum lam, recomputed independently."""
    decomposition = eigendecompose(g)
    v = decomposition.vectors
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (g.n,):
        raise SizeMismatchError("lambda must have length %d" % g.n)
    a = candidate_adjacency(v, lam)
    diagonal = float(np.max(np.abs(np.diagonal(a)))) if g.n else 0.0
    off = a - np.diag(np.diagonal(a))
    negativity = float(max(0.0, -np.min(off))) if g.n else 0.0
    row_sums = a.sum(axis=1)
    shortfall = float(max(0.0, 1.0 - np.min(row_sums))) if g.n else 0.0
    return diagonal, negativity, shortfall
