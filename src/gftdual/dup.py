"""Certified upper bound on the phase-alignment trace objective.

The permutation-free objective is a quadratic form x'Wx in the stacked
phase vector x = (d1; d2).  Relaxing the unit-modulus constraints gives
the semidefinite program

    maximize <W, X>  subject to  X PSD, diag(X) = 1,

whose dual  minimize 1'nu  subject to  diag(nu) - W PSD  yields a valid
upper bound from ANY feasible nu.  A low-rank coordinate-ascent pass
runs until its duality gap is at most tol, which gives a dual iterate
within tol of the relaxation's optimum.  One eigenvalue-oracle round
certifies it: the eigendecomposition of diag(nu) - W gives its minimum
eigenvalue, and its bottom eigenvectors are the cuts of a master linear
program whose solution is a second candidate.  The cheaper candidate,
shifted along the diagonal by its eigenvalue deficit, is re-checked up
to tol by a fresh eigendecomposition.  The bound is thus within tol of
the relaxation's optimum, and valid up to tol * 2n for unit-modulus
phases.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalBreakdown, SizeMismatchError
from .graphs import as_real, check_real
from .lp import LinearProgram, solve_lp
from .rng import derive_stream
from .spectral import check_basis_pair, jacobi_eigh

DEFAULT_TOL = 1e-7

# coordinate ascent on the low-rank factorization of the relaxation
_MIXING_SWEEP_CAP = 20000
# sweeps per chunk of the ascent: the duality gap is tested once a chunk
_MIXING_CHUNK = 16
_MIXING_SEED = 0x1F2E3D4C

# eigenvalues this close to the bottom of the spectrum become cuts
_NEAR_NULL_FLOOR = 1e-3


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """The 2n x 2n symmetric coupling w = [[0, b], [b', 0]] of an n x n
    real block b.

    w is assembled here, so it is symmetric with exactly zero diagonal
    blocks by construction; w and b (a view of w's upper-right block)
    are read-only.
    """

    b: np.ndarray
    w: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        b = as_real(self.b, "coupling block")
        if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape[0] < 1:
            raise SizeMismatchError(
                "coupling block must be n x n with n >= 1, got shape %s"
                % (b.shape,))
        n = b.shape[0]
        w = np.zeros((2 * n, 2 * n))
        w[:n, n:] = b
        w[n:, :n] = b.T
        w.setflags(write=False)
        # a view of the read-only w is read-only too
        b = w[:n, n:]
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", b)

    @property
    def n(self):
        return self.b.shape[0]


@dataclass(frozen=True, eq=False)
class BoundResult:
    """Certified bound: bound = sum(nu), with nu feasible for the dual up
    to DEFAULT_TOL on lambda_min: the smallest floating eigenvalue of
    diag(nu) - W is at least -tol, not exactly non-negative, so x'Wx <=
    bound + tol * x'x (tol * 2n for unit-modulus x).

    min_eig_residual is the minimum eigenvalue of the chosen candidate,
    the ascent's iterate or the master LP's solution, before its diagonal
    repair.  cuts counts the oracle's cuts, the eigenvectors at the bottom
    of the spectrum; master_history holds the master linear program's
    value, one entry for the one oracle round.

    sweeps counts the sweeps of the coordinate ascent, and gap is bound
    minus the ascent's primal value <W, RR'>, a lower bound on the
    relaxation's optimum: when the ascent stopped before its cap, gap is
    at most tol plus rounding, so the bound is within tol of the optimum.
    """

    nu: np.ndarray
    bound: float
    min_eig_residual: float
    cuts: int
    master_history: tuple
    sweeps: int
    gap: float


def build_coupling(v1, v2) -> CouplingMatrix:
    """W = 1/2 [[0, V1' o V2], [V1 o V2', 0]] with o the elementwise product.

    For any sign vector x, x'Wx equals the trace objective with the two
    halves of x as phases and identity permutations.
    """
    v1, v2, _ = check_basis_pair(v1, v2)
    return CouplingMatrix(0.5 * (v1.T * v2))


def _gaussian(stream, rows, cols):
    count = rows * cols
    u, v = stream.randoms(2 * count).reshape(2, count)
    z = np.sqrt(-2.0 * np.log1p(-u)) * np.cos(2.0 * np.pi * v)
    return z.reshape(rows, cols)


def _normalize_rows(g, r):
    """Replace each row of r by the unit row of g, in place.

    A row of g with norm below 1e-300 leaves its row of r unchanged.
    """
    norms = np.sqrt(np.einsum("ij,ij->i", g, g))[:, None]
    dead = norms < 1e-300
    r[...] = np.where(dead, r, g / np.where(dead, 1.0, norms))


def _mixing_dual(w, stream, tol):
    """Coordinate ascent for max <W, RR'> over unit rows of R.

    W = [[0, B], [B', 0]] is bipartite, so no row of one side couples to
    another row of the same side and a row-by-row sweep is exactly the
    two-block update R1 = rownorm(B R2), then R2 = rownorm(B' R1).  The
    rank exceeds the guaranteed rank of an extreme optimal solution, so
    second-order critical points of the ascent are global optima of the
    relaxation; the row norms of WR are the matching dual variables.
    The ascent stops once its duality gap is at most tol (see _ascend),
    so <W, RR'> is then within tol of the relaxation's optimum.

    Returns (nu, primal, sweeps): the row norms of WR, <W, RR'> and the
    number of sweeps run.
    """
    m = w.shape[0]
    rank = int(np.ceil(np.sqrt(2.0 * m))) + 1
    r = _gaussian(stream, m, rank)
    r /= np.linalg.norm(r, axis=1)[:, None]
    sweeps = _ascend(w[:m // 2, m // 2:], r, tol)
    wr = w @ r
    return (np.linalg.norm(wr, axis=1), float(np.einsum("ij,ij->", r, wr)),
            sweeps)


def _ascend(b, r, tol):
    """Two-block sweeps on the unit rows r = [R1; R2], in place, until
    the duality gap is certified at most tol (_gap_certified) or
    _MIXING_SWEEP_CAP sweeps have run; returns the number of sweeps.

    Sweeps run in chunks of _MIXING_CHUNK (the last one shortened so the
    cap stays exact) and the gap is tested at the end of each chunk.  A
    chunk with a row norm below 1e-300 or not finite is replayed from
    its start, sweep by sweep, through the guarded _normalize_rows,
    which keeps such rows unchanged.
    """
    n, rank = b.shape[0], r.shape[1]
    r1, r2 = r[:n], r[n:]
    start = np.empty_like(r)
    # norms[2s] and norms[2s + 1] divide R1 and R2 in sweep s of a chunk
    norms = np.empty((2 * _MIXING_CHUNK, n, 1))
    g = np.empty((n, rank))
    sweeps = 0
    while sweeps < _MIXING_SWEEP_CAP:
        length = min(_MIXING_CHUNK, _MIXING_SWEEP_CAP - sweeps)
        start[...] = r
        # a zero or non-finite norm divides badly here; such a chunk is
        # replayed below
        with np.errstate(divide="ignore", invalid="ignore"):
            for s in range(length):
                np.matmul(b, r2, out=g)
                np.sqrt(np.einsum("ij,ij->i", g, g)[:, None],
                        out=norms[2 * s])
                np.divide(g, norms[2 * s], out=r1)
                np.matmul(b.T, r1, out=g)
                np.sqrt(np.einsum("ij,ij->i", g, g)[:, None],
                        out=norms[2 * s + 1])
                np.divide(g, norms[2 * s + 1], out=r2)
        used = norms[:2 * length]
        # written so that NaN fails it
        if not (used.min() >= 1e-300 and used.max() < np.inf):
            r[...] = start
            for _ in range(length):
                _normalize_rows(b @ r2, r1)
                _normalize_rows(b.T @ r1, r2)
        sweeps += length
        if _gap_certified(b, r, tol):
            break
    return sweeps


def _gap_certified(b, r, tol):
    """Whether the duality gap at the unit rows r = [R1; R2] is at most tol.

    With nu the row norms of WR, c = sum(nu) - <W, RR'> is never negative
    (each unit row r_i has r_i . (WR)_i <= nu_i).  If c < tol and
    diag(nu) + sI - W with s = (tol - c) / m has a Cholesky factor, then
    nu + s is dual feasible with value <W, RR'> + tol, so the primal
    value <W, RR'> and that dual value bracket the relaxation's optimum
    within tol.  A NaN in c fails the test.  The factorization only
    decides when to stop; dup_bound certifies its bound separately.
    """
    n = b.shape[0]
    wr = np.concatenate((b @ r[n:], b.T @ r[:n]))
    nu = np.sqrt(np.einsum("ij,ij->i", wr, wr))
    c = nu.sum() - np.einsum("ij,ij->", r, wr)
    if not c < tol:
        return False
    m = 2 * n
    shifted = np.zeros((m, m))
    shifted[:n, n:] = -b
    shifted[n:, :n] = -b.T
    shifted[np.diag_indices(m)] = nu + (tol - c) / m
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _solve_master(cuts, rhs):
    """Master LP: min 1'nu s.t. sum_i v_i^2 nu_i >= v'Wv per cut row v of
    cuts, nu >= 0."""
    objective = np.ones(cuts.shape[1])
    nu = solve_lp(LinearProgram(objective=objective,
                                constraints=np.square(cuts), rhs=rhs))
    if nu is None:
        raise NumericalBreakdown("master LP returned status infeasible")
    return float(np.dot(objective, nu)), nu


def dup_bound(w: CouplingMatrix, tol: float = DEFAULT_TOL) -> BoundResult:
    """Certified upper bound: min 1'nu over diag(nu) - W PSD, plus repair.

    Deterministic: the coordinate-ascent initialization uses a fixed
    internal seed.  The ascent stops once its duality gap is at most
    tol (DEFAULT_TOL by default), so the bound is within tol of the
    relaxation's optimum (BoundResult.gap).  One oracle eigensolve of
    diag(nu) - W at the ascent's iterate gives lambda_min and the cuts of
    the master LP; the cheaper of the two candidates, each shifted by
    max(0, -lambda_min), is re-verified by a fresh eigendecomposition:
    lambda_min(diag(nu) - W) >= -tol, up to tol and not exactly, so
    bound = sum(nu) dominates x'Wx up to tol * 2n for every
    unit-modulus x, real or complex.
    """
    if not isinstance(w, CouplingMatrix):
        raise SizeMismatchError("dup_bound expects a CouplingMatrix")
    tol = check_real(tol, "tol")
    matrix = w.w
    m = matrix.shape[0]

    # stage 1: near-optimal dual iterate from the low-rank ascent
    x, primal, sweeps = _mixing_dual(matrix, derive_stream(_MIXING_SEED, 0),
                                     tol)

    # stage 2: the eigenvectors at the bottom of the spectrum, orthonormal
    # and so never duplicates, are the master LP's cuts
    eigenvalues, vectors = jacobi_eigh(np.diag(x) - matrix)
    lam_min = float(eigenvalues[0])
    threshold = max(_NEAR_NULL_FLOOR, 10.0 * abs(lam_min))
    cuts = vectors[:, :np.count_nonzero(eigenvalues <= threshold)].T
    master_value, nu_master = _solve_master(
        cuts, np.array([float(v @ matrix @ v) for v in cuts]))

    # stage 3: the cheaper repaired candidate, re-checked from scratch
    chosen, chosen_lam = x, lam_min
    master_eigs, _ = jacobi_eigh(np.diag(nu_master) - matrix)
    lam_master = float(master_eigs[0])
    if lam_master >= -tol:
        repaired_master = nu_master.sum() + m * max(0.0, -lam_master)
        if repaired_master < chosen.sum() + m * max(0.0, -chosen_lam):
            chosen, chosen_lam = nu_master, lam_master
    nu = chosen + max(0.0, -chosen_lam)
    for _ in range(3):
        fresh, _ = jacobi_eigh(np.diag(nu) - matrix)
        if fresh[0] >= -tol:
            break
        nu = nu + (-float(fresh[0]))
    else:
        raise NumericalBreakdown(
            "feasibility repair failed to certify the bound")
    nu = np.asarray(nu, dtype=float)
    nu.setflags(write=False)
    bound = float(nu.sum())
    return BoundResult(nu=nu, bound=bound, min_eig_residual=chosen_lam,
                       cuts=len(cuts), master_history=(master_value,),
                       sweeps=sweeps, gap=bound - primal)
