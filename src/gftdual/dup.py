"""Certified upper bound on the phase-alignment trace objective.

The permutation-free objective is a quadratic form x'Wx in the stacked
phase vector x = (d1; d2).  Relaxing the unit-modulus constraints gives
the semidefinite program

    maximize <W, X>  subject to  X PSD, diag(X) = 1,

whose dual  minimize 1'nu  subject to  diag(nu) - W PSD  yields a valid
upper bound from ANY feasible nu.  A low-rank coordinate-ascent pass
produces a near-optimal dual iterate, and an eigenvalue-oracle
cutting-plane loop certifies it: the minimum eigenpair of diag(nu) - W
either confirms feasibility (up to tol, then a diagonal shift repairs
the residual exactly) or supplies violated cuts for the master linear
program and a repaired next iterate.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (IterationCapExceeded, NonFiniteEntryError,
                     NonOrthogonalInputError, NumericalBreakdown,
                     SizeMismatchError)
from .lp import GREATER_EQUAL, OPTIMAL, LinearProgram, solve_lp
from .rng import derive_stream
from .spectral import jacobi_eigh

DEFAULT_TOL = 1e-7
CUT_BUDGET = 2000
DUPLICATE_COSINE = 1.0 - 1e-10
SYMMETRY_TOL = 1e-12
ORTHOGONALITY_TOL = 1e-8

# coordinate ascent on the low-rank factorization of the relaxation
_MIXING_SWEEP_CAP = 20000
_MIXING_STEP_TOL = 1e-13
_REFRESH_INTERVAL = 40
_MIXING_SEED = 0x1F2E3D4C
_MIXING_ATTEMPTS = 3
_INSURANCE_SLACK = 1e-2

# eigenvalues this close to the bottom of the spectrum become cuts
_NEAR_NULL_FLOOR = 1e-3


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """The 2n x 2n symmetric coupling of two orthogonal bases.

    Both diagonal n x n blocks are exactly zero; the off-diagonal blocks
    are elementwise products of the bases, halved.
    """

    w: np.ndarray
    n: int

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        m = 2 * self.n
        if w.ndim != 2 or w.shape != (m, m):
            raise SizeMismatchError(
                "coupling matrix must be %dx%d, got shape %s" % (m, m, w.shape))
        if not np.all(np.isfinite(w)):
            raise NonFiniteEntryError("coupling matrix has non-finite entries")
        if np.max(np.abs(w - w.T), initial=0.0) > SYMMETRY_TOL:
            raise SizeMismatchError("coupling matrix is not symmetric")
        n = self.n
        if np.any(w[:n, :n] != 0.0) or np.any(w[n:, n:] != 0.0):
            raise SizeMismatchError("diagonal blocks must be exactly zero")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "w", w)


@dataclass(frozen=True, eq=False)
class BoundResult:
    """Certified bound: nu is feasible for the dual, bound = sum(nu).

    min_eig_residual is the oracle's minimum eigenvalue at the
    terminating iterate, before the final diagonal repair.  cuts counts
    oracle cuts accumulated; master_history records the master linear
    program's value each round (non-decreasing).
    """

    nu: np.ndarray
    bound: float
    min_eig_residual: float
    cuts: int
    master_history: tuple


def build_coupling(v1, v2) -> CouplingMatrix:
    """W = 1/2 [[0, V1' o V2], [V1 o V2', 0]] with o the elementwise product.

    For any sign vector x, x'Wx equals the trace objective with the two
    halves of x as phases and identity permutations.
    """
    v1 = np.asarray(v1)
    v2 = np.asarray(v2)
    if np.iscomplexobj(v1) or np.iscomplexobj(v2):
        raise SizeMismatchError("coupling inputs must be real matrices")
    v1 = v1.astype(float)
    v2 = v2.astype(float)
    if v1.ndim != 2 or v1.shape[0] != v1.shape[1]:
        raise SizeMismatchError("V1 must be square, got shape %s" % (v1.shape,))
    if v2.shape != v1.shape:
        raise SizeMismatchError("V1 and V2 sizes differ: %s vs %s"
                                % (v1.shape, v2.shape))
    n = v1.shape[0]
    for name, v in (("V1", v1), ("V2", v2)):
        residual = np.max(np.abs(v.T @ v - np.eye(n))) if n else 0.0
        if residual > ORTHOGONALITY_TOL:
            raise NonOrthogonalInputError(
                "%s is not orthogonal: max |V'V - I| = %.3e" % (name, residual))
    block = 0.5 * (v1.T * v2)
    w = np.zeros((2 * n, 2 * n))
    w[:n, n:] = block
    w[n:, :n] = block.T
    return CouplingMatrix(w=w, n=n)


def _gaussian(stream, rows, cols):
    count = rows * cols
    u = np.array([stream.random() for _ in range(count)])
    v = np.array([stream.random() for _ in range(count)])
    z = np.sqrt(-2.0 * np.log1p(-u)) * np.cos(2.0 * np.pi * v)
    return z.reshape(rows, cols)


def _mixing_dual(w, stream):
    """Coordinate ascent for max <W, RR'> over unit rows of R.

    The rank exceeds the guaranteed rank of an extreme optimal solution,
    so stationary points of the ascent are global optima of the
    relaxation; the row norms of WR are the matching dual variables.
    """
    m = w.shape[0]
    rank = int(np.ceil(np.sqrt(2.0 * m))) + 1
    r = _gaussian(stream, m, rank)
    norms = np.linalg.norm(r, axis=1)
    degenerate = norms < 1e-300
    if np.any(degenerate):
        r[degenerate] = 0.0
        r[degenerate, 0] = 1.0
        norms[degenerate] = 1.0
    r /= norms[:, None]
    g = w @ r
    for sweep in range(_MIXING_SWEEP_CAP):
        delta = 0.0
        for i in range(m):
            gi = g[i]
            ng = np.linalg.norm(gi)
            if ng < 1e-300:
                continue
            rnew = gi / ng
            dr = rnew - r[i]
            step = np.linalg.norm(dr)
            if step > delta:
                delta = step
            g += np.outer(w[:, i], dr)
            r[i] = rnew
        if (sweep + 1) % _REFRESH_INTERVAL == 0:
            g = w @ r
        if delta <= _MIXING_STEP_TOL:
            break
    g = w @ r
    return np.linalg.norm(g, axis=1)


def _solve_master(cuts, rhs, m):
    """Master LP: min 1'nu s.t. sum_i v_i^2 nu_i >= v'Wv per cut, nu >= 0."""
    if not cuts:
        return 0.0, np.zeros(m)
    constraints = tuple((np.square(v), GREATER_EQUAL, b)
                        for v, b in zip(cuts, rhs))
    result = solve_lp(LinearProgram(objective=np.ones(m),
                                    constraints=constraints))
    if result.status != OPTIMAL:
        raise NumericalBreakdown("master LP returned status %s" % result.status)
    return result.objective, result.y


def _oracle(nu, w):
    eigenvalues, vectors = jacobi_eigh(np.diag(nu) - w)
    return eigenvalues, vectors


def dup_bound(w: CouplingMatrix, tol: float = DEFAULT_TOL) -> BoundResult:
    """Certified upper bound: min 1'nu over diag(nu) - W PSD, plus repair.

    Deterministic: the coordinate-ascent initialization uses fixed
    internal seeds.  The returned nu is re-verified feasible (within
    tol) by a fresh eigendecomposition, so bound = sum(nu) dominates
    x'Wx for every unit-modulus x, real or complex.
    """
    if not isinstance(w, CouplingMatrix):
        raise SizeMismatchError("dup_bound expects a CouplingMatrix")
    if not tol > 0:
        raise ValueError("tol must be positive")
    matrix = w.w
    m = matrix.shape[0]
    if m == 0:
        return BoundResult(nu=np.zeros(0), bound=0.0, min_eig_residual=0.0,
                           cuts=0, master_history=(0.0,))

    # stage 1: near-optimal dual iterate from the low-rank ascent; retry
    # with fresh starts only if the feasibility residual is large
    best = None
    for attempt in range(_MIXING_ATTEMPTS):
        nu_hat = _mixing_dual(matrix, derive_stream(_MIXING_SEED, attempt))
        eigenvalues, _ = _oracle(nu_hat, matrix)
        deficit = max(0.0, -eigenvalues[0])
        repaired_value = float(nu_hat.sum() + m * deficit)
        if best is None or repaired_value < best[0]:
            best = (repaired_value, nu_hat, eigenvalues[0])
        if m * deficit <= _INSURANCE_SLACK * max(1.0, float(nu_hat.sum())):
            break
    x = best[1]

    cuts = []
    rhs = []
    master_history = []
    while True:
        eigenvalues, vectors = _oracle(x, matrix)
        lam_min = float(eigenvalues[0])
        threshold = max(_NEAR_NULL_FLOOR, 10.0 * abs(lam_min))
        for j in range(m):
            if eigenvalues[j] > threshold:
                break
            v = vectors[:, j]
            if any(abs(float(v @ u)) > DUPLICATE_COSINE for u in cuts):
                continue
            cuts.append(v)
            rhs.append(float(v @ matrix @ v))
        if len(cuts) > CUT_BUDGET:
            raise IterationCapExceeded(
                "cut budget %d exceeded without certification" % CUT_BUDGET)
        master_value, nu_master = _solve_master(cuts, rhs, m)
        master_history.append(master_value)
        if lam_min >= -tol:
            chosen, chosen_lam = x, lam_min
            master_eigs, _ = _oracle(nu_master, matrix)
            lam_master = float(master_eigs[0])
            if lam_master >= -tol:
                repaired_master = nu_master.sum() + m * max(0.0, -lam_master)
                if repaired_master < chosen.sum() + m * max(0.0, -chosen_lam):
                    chosen, chosen_lam = nu_master, lam_master
            nu = chosen + max(0.0, -chosen_lam)
            for _ in range(3):
                fresh, _ = _oracle(nu, matrix)
                if fresh[0] >= -tol:
                    break
                nu = nu + (-float(fresh[0]))
            else:
                raise NumericalBreakdown(
                    "feasibility repair failed to certify the bound")
            nu = np.asarray(nu, dtype=float)
            nu.setflags(write=False)
            return BoundResult(nu=nu, bound=float(nu.sum()),
                               min_eig_residual=chosen_lam,
                               cuts=len(cuts),
                               master_history=tuple(master_history))
        x = x + (-lam_min)
