"""Certified upper bound on the phase-alignment trace objective.

The permutation-free objective is a quadratic form x'Wx in the stacked
phase vector x = (d1; d2).  Relaxing the unit-modulus constraints gives
the semidefinite program

    maximize <W, X>  subject to  X PSD, diag(X) = 1,

whose dual  minimize 1'nu  subject to  diag(nu) - W PSD  yields a valid
upper bound from ANY feasible nu, with tol = DEFAULT_TOL * max(1, max|b|)
in the coupling's own units.  A low-rank coordinate-ascent pass runs
until its duality gap is at most tol: its stop test reads nu as the row
norms of WR and factors diag(nu + s) - W, for a shift s <= tol / 2n,
and that same nu is the dual iterate, within tol of the relaxation's
optimum, that the bound starts from.  One eigenvalue-oracle round
follows: the eigendecomposition of diag(nu) - W gives its minimum
eigenvalue, and its bottom eigenvectors are the cuts of a master linear
program, whose value is reported.  The iterate is shifted once along
the diagonal by its eigenvalue deficit, and the shifted nu is certified
by the test the ascent stops on, one Cholesky factorization
(_has_cholesky): diag(nu + tol) - W must have a factor, so diag(nu) - W
is at least -tol on its spectrum, up to the factorization's rounding.
The bound is thus within tol of the relaxation's optimum, and valid up
to tol * 2n for unit-modulus phases.

A coupling with max|b| > 1 is bounded at the power-of-two scale 2^-e,
e the binary exponent of max|b|, so that its entries lie below 1:
HiGHS reads LP bounds of 1e20 and more as infinite, and the ascent's
squared row norms overflow from about 1e150.  tol is scaled alike, and
the results are scaled back; a power of two carries through every step
without rounding (short of underflow).  A bound that is not finite in
the coupling's own units raises NumericalBreakdown.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalBreakdown, SizeMismatchError
from .graphs import as_real
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
    to tol = DEFAULT_TOL * max(1, max|b|): diag(nu + tol) - W has a
    floating Cholesky factor, so lambda_min(diag(nu) - W) >= -tol up to
    the factorization's rounding, not exactly non-negative, and
    x'Wx <= bound + tol * x'x (tol * 2n for unit-modulus x).

    min_eig_residual is lambda_min at the ascent's iterate, before its
    one diagonal shift.  cuts counts the oracle's cuts, the eigenvectors at
    the bottom of the spectrum; master_history holds the master linear
    program's value, one entry for the one oracle round.

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

    Returns (nu, primal, sweeps): the row norms of WR and <W, RR'> that
    the ascent's last gap test read (_gap_certified), and the number of
    sweeps run.
    """
    m = w.shape[0]
    rank = int(np.ceil(np.sqrt(2.0 * m))) + 1
    r = _gaussian(stream, m, rank)
    r /= np.linalg.norm(r, axis=1)[:, None]
    return _ascend(w, r, tol)


def _ascend(w, r, tol):
    """Two-block sweeps on the unit rows r = [R1; R2], in place, with B
    the upper-right block of w, until the duality gap is certified at
    most tol (_gap_certified) or _MIXING_SWEEP_CAP sweeps have run;
    returns (nu, primal, sweeps), with nu and primal from the last gap
    test.

    Sweeps run in chunks of _MIXING_CHUNK (the last one shortened so the
    cap stays exact) and the gap is tested at the end of each chunk.  A
    chunk with a row norm below 1e-300 or not finite is replayed from
    its start, sweep by sweep, through the guarded _normalize_rows,
    which keeps such rows unchanged.
    """
    n, rank = w.shape[0] // 2, r.shape[1]
    b = w[:n, n:]
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
        certified, nu, primal = _gap_certified(w, r, tol)
        if certified:
            break
    return nu, primal, sweeps


def _gap_certified(w, r, tol):
    """(certified, nu, primal) at the unit rows r: nu the row norms of
    WR, primal = <W, RR'>, and whether the duality gap is at most tol.

    c = sum(nu) - primal is never negative (each unit row r_i has
    r_i . (WR)_i <= nu_i).  If c < tol and diag(nu + s) - W with
    s = (tol - c) / m has a Cholesky factor, then nu + s is dual
    feasible with value primal + tol, so primal and that dual value
    bracket the relaxation's optimum within tol.  A NaN in c fails the
    test.  dup_bound certifies its bound with the same factorization
    test (_has_cholesky), at its repaired nu shifted by tol.
    """
    wr = w @ r
    nu = np.linalg.norm(wr, axis=1)
    primal = float(np.einsum("ij,ij->", r, wr))
    c = nu.sum() - primal
    certified = c < tol and _has_cholesky(nu + (tol - c) / w.shape[0], w)
    return certified, nu, primal


def _has_cholesky(nu, w):
    """Whether diag(nu) - w has a Cholesky factor with finite entries
    (numpy.linalg.cholesky), so is positive definite in floating point.

    This is DUP's one certificate test: the ascent's stop test and
    dup_bound's re-check of its repaired bound both call it.  numpy
    factors a matrix with NaN entries without raising, so a factor with
    a non-finite entry fails the test.
    """
    try:
        return bool(np.isfinite(np.linalg.cholesky(np.diag(nu) - w)).all())
    except np.linalg.LinAlgError:
        return False


def _solve_master(cuts, rhs):
    """Master LP: min 1'nu s.t. sum_i v_i^2 nu_i >= v'Wv per cut row v of
    cuts, nu >= 0."""
    objective = np.ones(cuts.shape[1])
    nu = solve_lp(LinearProgram(objective=objective,
                                constraints=np.square(cuts), rhs=rhs))
    if nu is None:
        raise NumericalBreakdown("master LP returned status infeasible")
    return float(np.dot(objective, nu)), nu


def dup_bound(w: CouplingMatrix) -> BoundResult:
    """Certified upper bound: min 1'nu over diag(nu) - W PSD, plus repair.

    Deterministic: the coordinate-ascent initialization uses a fixed
    internal seed.  With tol = DEFAULT_TOL * max(1, max|b|), the ascent
    stops once its duality gap is at most tol, so the bound is within
    tol of the relaxation's optimum (BoundResult.gap).  One oracle
    eigensolve of diag(nu) - W at the ascent's iterate gives lambda_min
    and the cuts of the master LP; the iterate, shifted once by
    max(0, -lambda_min), is re-checked once by the Cholesky test the
    ascent stops on: diag(nu + tol) - W must have a factor, so
    lambda_min(diag(nu) - W) >= -tol up to the factorization's
    rounding, not exactly, and bound = sum(nu) dominates x'Wx up to
    tol * 2n for every unit-modulus x, real or complex.  Raises
    NumericalBreakdown if the re-check fails or the bound is not finite.

    A coupling with max|b| > 1 is worked on as 2^-e W, e the binary
    exponent of max|b| (numpy.frexp), with tol scaled alike; nu,
    min_eig_residual, the master value and the primal value are scaled
    back by 2^e.  A coupling with max|b| <= 1, as every one that
    build_coupling makes, is worked on as W itself.
    """
    if not isinstance(w, CouplingMatrix):
        raise SizeMismatchError("dup_bound expects a CouplingMatrix")
    scale = float(np.max(np.abs(w.b)))
    matrix, tol = w.w, DEFAULT_TOL * max(1.0, scale)
    # a coupling above 1 is worked on at 2^-e times its size, max|b| in
    # [1/2, 1), so that no square overflows and the master LP's bounds
    # stay finite for HiGHS; a power of two scales every step exactly
    e = int(np.frexp(scale)[1]) if scale > 1.0 else 0
    if e:
        matrix, tol = np.ldexp(matrix, -e), np.ldexp(tol, -e)

    # stage 1: near-optimal dual iterate from the low-rank ascent
    x, primal, sweeps = _mixing_dual(matrix, derive_stream(_MIXING_SEED, 0),
                                     tol)

    # stage 2: the eigenvectors at the bottom of the spectrum, orthonormal
    # and so never duplicates, are the master LP's cuts
    eigenvalues, vectors = jacobi_eigh(np.diag(x) - matrix)
    lam_min = float(eigenvalues[0])
    threshold = max(_NEAR_NULL_FLOOR, 10.0 * abs(lam_min))
    cuts = vectors[:, :np.count_nonzero(eigenvalues <= threshold)].T
    master_value, _ = _solve_master(
        cuts, np.array([float(v @ matrix @ v) for v in cuts]))

    # stage 3: the repaired iterate, re-checked once by the stop test's
    # factorization, shifted by tol
    nu = x + max(0.0, -lam_min)
    if not _has_cholesky(nu + tol, matrix):
        raise NumericalBreakdown(
            "feasibility repair failed to certify the bound")
    # back to the coupling's own units, where the bound may overflow
    with np.errstate(over="ignore"):
        nu = np.ldexp(nu, e)
        bound = float(nu.sum())
    nu.setflags(write=False)
    if not np.isfinite(bound):
        raise NumericalBreakdown("the bound %r is not finite" % bound)
    return BoundResult(nu=nu, bound=bound,
                       min_eig_residual=float(np.ldexp(lam_min, e)),
                       cuts=len(cuts),
                       master_history=(float(np.ldexp(master_value, e)),),
                       sweeps=sweeps, gap=bound - float(np.ldexp(primal, e)))
