"""Dualness objective and the CD / CDPM alternating optimizers.

A solution is a tuple (d1, p1, d2, p2) of per-side unit-modulus phase
vectors and permutations scoring

    objective = Re tr(V1 D1 P1 V2 D2 P2),

with dualness = sqrt(max(0, 2n - 2 objective)).  Permutations are stored
as index arrays sigma with matrix P[i, sigma(i)] = 1, so P.M = M[sigma]
and M.P = M[:, sigma_inverse].
"""

import math
from dataclasses import dataclass

import numpy as np

from .assignment import solve_assignment_max
from .errors import (IndexOutOfRangeError, NonOrthogonalInputError,
                     NonUnitPhaseError, RepeatedEigenvaluesError,
                     SizeMismatchError, NotCirculantError)
from .graphs import Graph, check_permutation, invert_permutation, is_circulant
from .rng import derive_stream, derived_words
from .spectral import (dft_matrix, eigendecompose, has_distinct_eigenvalues,
                       minimum_eigenvalue_gap)

ZERO_DIAGONAL_TOL = 1e-12
ORTHOGONALITY_TOL = 1e-8
CIRCULANT_DIAG_TOL = 1e-9
UNIT_PHASE_TOL = 1e-9
# CDPM forms the score matrices of at most this many complex entries at
# once: one GEMM per block, without a full (R, n, n) stack in memory
_SCORE_BLOCK_ENTRIES = 2 ** 14

CD = "CD"
CDPM = "CDPM"


@dataclass(frozen=True)
class SolverConfig:
    """Convergence threshold, iteration cap, restart count and seed."""

    epsilon: float = 1e-8
    max_iterations: int = 500
    restarts: int = 200
    seed: int = 0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class AlignmentSolution:
    """The best start's phases, permutations, objective and descent, with
    every start's iteration count and convergence flag in start order
    (read-only arrays, length 1 for a single start)."""

    d1: np.ndarray
    d2: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    objective: float
    dualness: float
    iterations: int
    converged: bool
    restart_iterations: np.ndarray
    restart_converged: np.ndarray


def _check_square(v, name):
    v = np.asarray(v)
    if np.iscomplexobj(v):
        v = v.astype(complex)
    else:
        v = v.astype(float)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise SizeMismatchError("%s must be square, got shape %s" % (name, v.shape))
    return v


def _check_orthogonal(v, name):
    v = _check_square(v, name)
    n = v.shape[0]
    residual = np.max(np.abs(v.conj().T @ v - np.eye(n))) if n else 0.0
    if residual > ORTHOGONALITY_TOL:
        raise NonOrthogonalInputError(
            "%s is not orthogonal: max |V*V - I| = %.3e" % (name, residual))
    return v


def _check_phases(d, n, name):
    d = np.asarray(d, dtype=complex)
    if d.shape != (n,):
        raise SizeMismatchError("%s must have length %d" % (name, n))
    return d


def _check_phase_stack(d, n, name):
    """One start, shape (n,), or a stack of starts, shape (R, n), as (R, n);
    every entry must be finite with modulus 1 within UNIT_PHASE_TOL."""
    d = np.asarray(d, dtype=complex)
    stack = d[None] if d.ndim == 1 else d
    if stack.ndim != 2 or stack.shape[1] != n or stack.shape[0] < 1:
        raise SizeMismatchError("%s must have shape (%d,) or (R, %d), got %s"
                                % (name, n, n, d.shape))
    error = np.abs(np.abs(stack) - 1.0)
    # written so that NaN fails it
    if not np.all(error <= UNIT_PHASE_TOL):
        raise NonUnitPhaseError(
            "%s must hold finite unit-modulus phases, max ||d| - 1| = %.3e"
            % (name, np.max(error)))
    return stack


def _check_permutation_stack(p, n, name):
    p = np.asarray(p, dtype=np.intp)
    stack = p[None] if p.ndim == 1 else p
    if stack.ndim != 2 or stack.shape[1] != n or stack.shape[0] < 1:
        raise SizeMismatchError("%s must have shape (%d,) or (R, %d), got %s"
                                % (name, n, n, p.shape))
    if n == 0 or not (np.sort(stack, axis=1) == np.arange(n)).all():
        raise IndexOutOfRangeError("%s rows must be bijections of 0..%d"
                                   % (name, n - 1))
    return stack


def _check_start_count(stacks):
    counts = {stack.shape[0] for stack in stacks}
    if len(counts) != 1:
        raise SizeMismatchError("init stacks hold different numbers of "
                                "starts: %s" % sorted(counts))


def _dualness_from_objective(n, objective):
    return math.sqrt(max(0.0, 2.0 * n - 2.0 * objective))


def trace_objective(v1, d1, p1, v2, d2, p2):
    """Re tr(V1 diag(d1) P1 V2 diag(d2) P2)."""
    v1 = _check_orthogonal(v1, "V1")
    v2 = _check_orthogonal(v2, "V2")
    n = v1.shape[0]
    if v2.shape[0] != n:
        raise SizeMismatchError("V1 is %dx%d but V2 is %dx%d"
                                % (n, n, v2.shape[0], v2.shape[0]))
    d1 = _check_phases(d1, n, "d1")
    d2 = _check_phases(d2, n, "d2")
    p1 = check_permutation(p1, n)
    p2 = check_permutation(p2, n)
    # Re tr(L R) = Re sum(L * R'), with no n^3 product
    left = (v1 * d1)[:, invert_permutation(p1)]
    right = (v2 * d2)[:, invert_permutation(p2)]
    return float(np.real(np.sum(left * right.T)))


def _phases_of_diagonal(diag):
    """Best unit phases conj(a)/|a| for the entries a of diag (any shape)
    and the summed value over the last axis; |a| <= 1e-12 gets phase 1
    and contributes 0."""
    mag = np.abs(diag)
    # written so that NaN takes the masked path
    if mag.min(initial=np.inf) > ZERO_DIAGONAL_TOL:
        return np.conj(diag) / mag, mag.sum(axis=-1)
    keep = mag > ZERO_DIAGONAL_TOL
    d = np.where(keep, np.conj(diag) / np.where(keep, mag, 1.0), 1.0 + 0.0j)
    value = np.sum(np.where(keep, mag, 0.0), axis=-1)
    return d, value


def optimal_phases(a):
    """Closed-form phase update d_k = conj(A_kk)/|A_kk| and its value.

    Near-zero diagonal entries (|A_kk| <= 1e-12) get phase 1 and
    contribute 0 to the value.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SizeMismatchError("optimal_phases needs a square matrix")
    d, value = _phases_of_diagonal(np.diagonal(a).astype(complex))
    return d, float(value)


def _descend(v1, v2, d1, p1, d2, p2, epsilon, max_iterations,
             update_permutations, trace=None):
    """Shared CD/CDPM loop over a stack of starts, rows of the (R, n)
    arrays d1, p1, d2, p2.  Mutates nothing.

    Each start stops at its own convergence or at max_iterations and is
    frozen from then on.  Returns the best start's index, final state and
    objective (ties keep the earliest start) and every start's iteration
    count and convergence flag.  trace, when given (one start only),
    receives the objective after every half-step.
    """
    d1 = d1.astype(complex)
    d2 = d2.astype(complex)
    p1 = p1.copy()
    p2 = p2.copy()
    count, n = d1.shape
    columns = np.arange(n)
    block = max(1, _SCORE_BLOCK_ENTRIES // max(1, n * n))
    # the fixed operands, complex once here rather than at every product:
    # CD's diag(Va Da Vb) = da (Va' o Vb), CDPM's Va of S = Va Da Pa Vb
    if update_permutations:
        fixed = (v1.astype(complex), v2.astype(complex))
        # CDPM's workspaces, allocated once per descent: respond fills a
        # prefix of each for every block with out=.  The gathered Vb rows
        # keep the bases' dtype (a real basis gathers real rows)
        size = min(count, block) * n * n
        gathered = np.empty(size, dtype=np.result_type(v1, v2))
        v1 = v1.astype(gathered.dtype, copy=False)
        v2 = v2.astype(gathered.dtype, copy=False)
        products = np.empty(size, dtype=complex)
        scores = np.empty(size, dtype=complex)
        magnitudes = np.empty(size)
    else:
        fixed = ((v1.T * v2).astype(complex), (v2.T * v1).astype(complex))

    def respond(a, vb, da, pa, pb_now=None):
        """Best phases and permutations of side b against side a: the
        objective is Re tr(Pb S Db) = sum_k Re(S[pb(k), k] db[k]) with
        S = Va Da Pa Vb and a the fixed operand of side a.  Returns the
        phases, their value, pb (None for CD) and, when pb_now is given,
        the entries S[pb_now(k), k] that score side b's current state."""
        if not update_permutations:
            # diag(Va Da Vb)_k = sum_j Va[k, j] da[j] Vb[j, k]: one
            # (R, n) x (n, n) product gives every start's diagonal
            diag = da @ a
            return _phases_of_diagonal(diag) + (None, diag)
        diag = np.empty(da.shape, dtype=complex)
        now = None if pb_now is None else np.empty(da.shape, dtype=complex)
        pb = np.empty(pa.shape, dtype=np.intp)
        for lo in range(0, da.shape[0], block):
            part = slice(lo, lo + block)
            # S_r = Va Da_r Pa_r Vb for every start r of the block from one
            # product: S[:, r, :] = Va X[:, r, :], X[l, r, k] = da[r, l]
            # Vb[pa[r, l], k]
            m = da[part].shape[0]
            used = m * n * n
            # the permutation checks and LSAP keep pa in range, so clip
            # never clips (and, unlike raise, does not buffer out)
            rows = np.take(vb, pa[part].T, axis=0, mode="clip",
                           out=gathered[:used].reshape(n, m, n))
            x = np.multiply(da[part].T[:, :, None], rows,
                            out=products[:used].reshape(n, m, n))
            s = np.matmul(a, x.reshape(n, m * n),
                          out=scores[:used].reshape(n, m * n))
            s = s.reshape(n, m, n).transpose(1, 0, 2)
            # |S| in (start, column, row) order, so that the negated cost
            # solve_assignment_max builds from its transpose is one
            # contiguous pass
            magnitude = np.abs(s.transpose(0, 2, 1),
                               out=magnitudes[:used].reshape(m, n, n))
            pb[part], _ = solve_assignment_max(magnitude.transpose(0, 2, 1))
            starts = np.arange(m)[:, None]
            diag[part] = s[starts, pb[part], columns]
            if now is not None:
                now[part] = s[starts, pb_now[part], columns]
        return _phases_of_diagonal(diag) + (pb, now)

    iterations = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    active = np.arange(count)
    for it in range(max_iterations):
        d2_next, half_value, pb, now = respond(
            fixed[0], v2, d1[active], p1[active],
            p2[active] if it == 0 else None)
        if it == 0:
            # every start is active: the first product also scores the
            # starts, Re sum_k S[p2(k), k] d2[k]
            previous = np.real(np.sum(now * d2, axis=1))
            current = previous.copy()
            if trace is not None:
                trace.append(float(previous[0]))
        d2[active] = d2_next
        if pb is not None:
            p2[active] = pb
        if trace is not None:
            trace.append(float(half_value[0]))
        d1[active], value, pb, _ = respond(fixed[1], v1, d2[active],
                                           p2[active])
        if pb is not None:
            p1[active] = pb
        if trace is not None:
            trace.append(float(value[0]))
        iterations[active] += 1
        current[active] = value
        done = value - previous[active] < epsilon
        converged[active[done]] = True
        previous[active] = value
        active = active[~done]
        if active.size == 0:
            break
    best = int(np.argmax(current))
    return (best, d1[best], p1[best], d2[best], p2[best],
            float(current[best]), iterations, converged)


def _prepare_pair(v1, v2):
    v1 = _check_orthogonal(v1, "V1")
    v2 = _check_orthogonal(v2, "V2")
    if v1.shape != v2.shape:
        raise SizeMismatchError("V1 and V2 sizes differ: %s vs %s"
                                % (v1.shape, v2.shape))
    return v1, v2, v1.shape[0]


def _solve(v1, v2, n, d1, p1, d2, p2, config, update_permutations, trace):
    if trace is not None and d1.shape[0] != 1:
        raise ValueError("trace needs a single start, got %d"
                         % d1.shape[0])
    best, d1, p1, d2, p2, objective, iterations, converged = _descend(
        v1, v2, d1, p1, d2, p2, config.epsilon, config.max_iterations,
        update_permutations, trace)
    iterations.setflags(write=False)
    converged.setflags(write=False)
    return AlignmentSolution(d1, d2, p1, p2, objective,
                             _dualness_from_objective(n, objective),
                             int(iterations[best]), bool(converged[best]),
                             iterations, converged)


def cd_align(v1, v2, config=SolverConfig(), init=None, trace=None):
    """Coordinate descent on the phases with permutations fixed to identity.

    init is an optional (d1, d2) pair: phase vectors of length n for one
    start, or (R, n) stacks for R starts run together, of which the best
    is returned (ties keep the earliest).  The default start is all-ones
    phases.  trace, when a list, receives the objective value after the
    initialization and after every half-step; it needs a single start.
    """
    v1, v2, n = _prepare_pair(v1, v2)
    if init is None:
        init = (np.ones(n), np.ones(n))
    d1 = _check_phase_stack(init[0], n, "init d1")
    d2 = _check_phase_stack(init[1], n, "init d2")
    _check_start_count((d1, d2))
    identity = np.tile(np.arange(n, dtype=np.intp), (d1.shape[0], 1))
    return _solve(v1, v2, n, d1, identity, d2, identity, config,
                  update_permutations=False, trace=trace)


def cdpm_align(v1, v2, config=SolverConfig(), init=None, trace=None):
    """CD extended with per-iteration exact max-assignment permutation updates.

    init is an optional (d1, p1, d2, p2) tuple: vectors of length n for
    one start, or (R, n) stacks for R starts run together, of which the
    best is returned (ties keep the earliest).  The default start is
    all-ones phases and identity permutations.  trace, when a list,
    receives the objective value after the initialization and after
    every half-step; it needs a single start.
    """
    v1, v2, n = _prepare_pair(v1, v2)
    if init is None:
        identity = np.arange(n, dtype=np.intp)
        init = (np.ones(n), identity, np.ones(n), identity)
    d1 = _check_phase_stack(init[0], n, "init d1")
    p1 = _check_permutation_stack(init[1], n, "init p1")
    d2 = _check_phase_stack(init[2], n, "init d2")
    p2 = _check_permutation_stack(init[3], n, "init p2")
    _check_start_count((d1, p1, d2, p2))
    return _solve(v1, v2, n, d1, p1, d2, p2, config,
                  update_permutations=True, trace=trace)


def _random_init(stream, n, with_permutations):
    d1 = stream.unit_phases(n)
    d2 = stream.unit_phases(n)
    if not with_permutations:
        return d1, d2
    p1 = stream.permutation(n)
    p2 = stream.permutation(n)
    return d1, p1, d2, p2


def _random_starts(seed, count, n, with_permutations):
    """Starts 0..count-1 as (R, n) stacks; start r equals
    _random_init(derive_stream(seed, r), n, with_permutations).

    Each stream's words are drawn in one block: 2n phase words, then
    n - 1 Fisher-Yates words per permutation, swapped for all starts at
    once.  A start with a word that integer_below would reject draws
    more words than that and is redrawn by _random_init.
    """
    swaps = max(n - 1, 0)
    words = derived_words(seed, count,
                          2 * n + (2 * swaps if with_permutations else 0))
    # SplitMix64.random and unit_phases, elementwise
    angles = 2.0 * np.pi * ((words[:, :2 * n] >> np.uint64(11)) * 2.0**-53)
    phases = np.cos(angles) + 1j * np.sin(angles)
    d1, d2 = phases[:, :n], phases[:, n:]
    if not with_permutations:
        return d1, d2
    # Fisher-Yates position i swaps with integer_below(i + 1), i = n-1..1;
    # integer_below accepts words below (2**64 // b) * b
    bounds = range(n, 1, -1)
    last_accepted = np.array([((1 << 64) // b) * b - 1 for b in bounds],
                             dtype=np.uint64)
    words = words[:, 2 * n:].reshape(count, 2, swaps)
    rejected = np.flatnonzero(np.any(words > last_accepted, axis=(1, 2)))
    targets = (words % np.array(bounds, dtype=np.uint64)).astype(np.intp)
    perms = np.tile(np.arange(n, dtype=np.intp), (count, 2, 1))
    starts = np.arange(count)[:, None]
    sides = np.arange(2)
    for t, i in enumerate(range(n - 1, 0, -1)):
        j = targets[:, :, t]
        held = perms[starts, sides, j]
        perms[starts, sides, j] = perms[:, :, i]
        perms[:, :, i] = held
    p1, p2 = perms[:, 0], perms[:, 1]
    for r in rejected:
        d1[r], p1[r], d2[r], p2[r] = _random_init(derive_stream(seed, r), n,
                                                  True)
    return d1, p1, d2, p2


def multistart(method, v1, v2, config=SolverConfig()):
    """Best of config.restarts independent seeded runs of CD or CDPM.

    Restart r uses the derived stream SplitMix64(seed + r); phases are
    uniform on the unit circle, permutations uniform.  All starts are
    drawn in one block and run as one stacked descent; the best
    objective wins and ties keep the earliest restart.
    """
    method = method.upper()
    if method not in (CD, CDPM):
        raise ValueError("method must be CD or CDPM, got %r" % (method,))
    v1, v2, n = _prepare_pair(v1, v2)
    init = _random_starts(config.seed, config.restarts, n, method == CDPM)
    if method == CD:
        return cd_align(v1, v2, config, init)
    return cdpm_align(v1, v2, config, init)


def run_pair(g1: Graph, g2: Graph, method, config=SolverConfig()):
    """Eigendecompose a graph pair and run the multistart optimizer."""
    if g1.n != g2.n:
        raise SizeMismatchError("graphs have different sizes: %d vs %d"
                                % (g1.n, g2.n))
    dec1 = eigendecompose(g1)
    dec2 = eigendecompose(g2)
    for which, dec in (("first", dec1), ("second", dec2)):
        if not has_distinct_eigenvalues(dec):
            gap = minimum_eigenvalue_gap(dec)
            raise RepeatedEigenvaluesError(
                "%s graph has repeated eigenvalues (min gap %.3e)"
                % (which, gap), min_gap=gap)
    return multistart(method, dec1.vectors, dec2.vectors, config)


def verify_circulant_duality(g1: Graph, g2: Graph):
    """Residual of the circulant-pair dualness-0 certificate.

    Uses V1 = dft_matrix(n) and V2 = V1^H, checks both diagonalize their
    adjacencies, and returns ||V1 V2 - I||_F (0 for any circulant pair).
    This bypasses the distinct-eigenvalue restriction entirely.
    """
    if g1.n != g2.n:
        raise SizeMismatchError("graphs have different sizes: %d vs %d"
                                % (g1.n, g2.n))
    for which, g in (("first", g1), ("second", g2)):
        if not is_circulant(g):
            raise NotCirculantError("%s graph is not circulant" % which)
    n = g1.n
    v1 = dft_matrix(n)
    v2 = v1.conj().T
    for v, g in ((v1, g1), (v2, g2)):
        lam = v.conj().T @ g.adjacency @ v
        off = lam - np.diag(np.diagonal(lam))
        if np.max(np.abs(off)) > CIRCULANT_DIAG_TOL:
            raise NotCirculantError(
                "DFT basis fails to diagonalize a circulant adjacency "
                "(off-diagonal %.3e)" % np.max(np.abs(off)))
    return float(np.linalg.norm(v1 @ v2 - np.eye(n)))


def isomorphism_transport(solution: AlignmentSolution, p, side):
    """Transport a solution across a relabelling of one side.

    If side graph's vertices are relabelled by p (its eigenvector matrix
    becoming V[p_inverse]), the returned solution achieves the identical
    objective on the relabelled pair: the opposite-side permutation
    absorbs p.
    """
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    n = solution.d1.shape[0]
    p = check_permutation(p, n)
    if side == 1:
        p1 = solution.p1
        p2 = p[solution.p2]
    else:
        p1 = p[solution.p1]
        p2 = solution.p2
    return AlignmentSolution(solution.d1, solution.d2, p1, p2,
                             solution.objective, solution.dualness,
                             solution.iterations, solution.converged,
                             solution.restart_iterations,
                             solution.restart_converged)
