"""Dualness objective and the CD / CDPM alternating optimizers.

A solution is a tuple (d1, p1, d2, p2) of per-side unit-modulus phase
vectors and permutations scoring

    objective = Re tr(V1 D1 P1 V2 D2 P2),

with dualness = sqrt(max(0, 2n - 2 objective)).  Permutations are stored
as index arrays sigma with matrix P[i, sigma(i)] = 1, so P.M = M[sigma]
and M.P = M[:, sigma_inverse].
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .assignment import solve_assignment_max
from .errors import NonUnitPhaseError, SizeMismatchError, NotCirculantError
from .graphs import (Graph, as_numeric, check_count, check_permutation,
                     check_permutations, check_real, invert_permutation,
                     is_circulant)
from .rng import check_integer, check_seed, derived_randoms
from .spectral import (check_basis_pair, check_same_size, check_square,
                       decompose_pair, dft_matrix)

ZERO_DIAGONAL_TOL = 1e-12
CIRCULANT_DIAG_TOL = 1e-9
UNIT_PHASE_TOL = 1e-9
# CDPM forms the score matrices of at most this many complex entries at
# once: one GEMM per block, without a full (R, n, n) stack in memory
_SCORE_BLOCK_ENTRIES = 2 ** 14

# the iterated local search of multistart("CDPM"): at most this many
# perturbation rounds (tuned on seeded sweeps, see CHANGES.md)
_PERTURB_ROUNDS = 5

CD = "CD"
CDPM = "CDPM"


@dataclass(frozen=True)
class SolverConfig:
    """Convergence threshold, iteration cap, restart count (the number of
    descents multistart runs) and seed (rng.check_seed)."""

    epsilon: float = 1e-8
    max_iterations: int = 500
    restarts: int = 200
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "epsilon",
                           check_real(self.epsilon, "epsilon"))
        for name in ("max_iterations", "restarts"):
            object.__setattr__(self, name, check_count(getattr(self, name),
                                                       name))
        object.__setattr__(self, "seed", check_seed(self.seed, ValueError))


@dataclass(frozen=True, eq=False)
class AlignmentSolution:
    """The best start's phases, permutations, objective and descent, with
    every start's iteration count, convergence flag and final objective
    in start order (read-only arrays, length 1 for a single start)."""

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
    restart_objectives: np.ndarray


def _check_phase_stack(d, n, name):
    """One start, shape (n,), or a stack of starts, shape (R, n), as (R, n);
    every entry must be numeric (as_numeric), finite and of modulus 1
    within UNIT_PHASE_TOL."""
    d = as_numeric(d, name).astype(complex, copy=False)
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


def _check_starts(v1, v2, init, with_permutations):
    """The front of cd_align and cdpm_align: the checked bases and the
    starts of init, (d1, d2) or (d1, p1, d2, p2), as (R, n) stacks
    v1, v2, d1, p1, d2, p2 with one R; CD's permutations are the
    identity."""
    v1, v2, n = check_basis_pair(v1, v2)
    identity = np.arange(n, dtype=np.intp)
    if init is None:
        init = (np.ones(n), identity, np.ones(n), identity)
    elif not with_permutations:
        init = (init[0], identity, init[1], identity)
    d1 = _check_phase_stack(init[0], n, "init d1")
    p1 = check_permutations(init[1], n, "init p1")
    d2 = _check_phase_stack(init[2], n, "init d2")
    p2 = check_permutations(init[3], n, "init p2")
    stacks = (d1, p1, d2, p2) if with_permutations else (d1, d2)
    counts = {stack.shape[0] for stack in stacks}
    if len(counts) != 1:
        raise SizeMismatchError("init stacks hold different numbers of "
                                "starts: %s" % sorted(counts))
    if not with_permutations:
        p1 = p2 = np.tile(identity, (d1.shape[0], 1))
    return v1, v2, d1, p1, d2, p2


def dualness_from_objective(n, objective):
    """sqrt(max(0, 2n - 2 objective))."""
    return math.sqrt(max(0.0, 2.0 * n - 2.0 * objective))


def trace_objective(v1, d1, p1, v2, d2, p2):
    """Re tr(V1 diag(d1) P1 V2 diag(d2) P2)."""
    v1, v2, n = check_basis_pair(v1, v2)
    for name, d in (("d1", d1), ("d2", d2)):
        if np.shape(d) != (n,):
            raise SizeMismatchError("%s must have length %d" % (name, n))
    d1 = _check_phase_stack(d1, n, "d1")[0]
    d2 = _check_phase_stack(d2, n, "d2")[0]
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


def _descend(v1, v2, d1, p1, d2, p2, config, update_permutations, trace):
    """Shared CD/CDPM loop over a stack of starts, rows of the (R, n)
    arrays d1, p1, d2, p2.  Mutates nothing.

    The loop holds working arrays for the running starts only, in start
    order.  A start leaves at its own convergence or at
    config.max_iterations: its final state, objective, iteration count
    and flag are written back once, and the working arrays shrink to the
    starts still running.  Returns the AlignmentSolution of the best
    start (ties keep the earliest).  trace, when given (one start only,
    else ValueError), receives the objective after every half-step.

    CDPM defers the matching while it would keep the permutations.  A
    full iteration solves both assignments exactly; when it gains at
    least epsilon and keeps both permutations, the start turns lazy and
    its half-steps become CD's with those permutations fixed, against
    the operand A[l, k] = V1[p2(k), l] V2[p1(l), k] (diag = d1 A, then
    d2 A'), until an iteration gains less than epsilon.  The next
    iteration is full again, and a start converges only on a full
    iteration that gains less than epsilon, so both matchings of a
    converged start are exact for its final phases.  Every iteration,
    lazy or full, counts towards iterations and max_iterations.  A full
    half-step scores a block of starts at a time, one product and one
    solve_assignment_max call per block (respond).
    """
    count, n = d1.shape
    if trace is not None and count != 1:
        raise ValueError("trace needs a single start, got %d" % count)
    columns = np.arange(n)
    block = max(1, _SCORE_BLOCK_ENTRIES // max(1, n * n))
    # the fixed operands, built once here rather than at every product:
    # CD's diag(Va Da Vb) = da (Va' o Vb), CDPM's Va and Vb of
    # S = Va Da Pa Vb, the bases themselves
    if update_permutations:
        fixed = (v1, v2)
        # the lazy starts' operands, rows aligned with the running starts;
        # a full start's row is multiplied and its product discarded, so
        # every row starts finite
        operands = np.zeros((count, n, n), dtype=complex)
    else:
        fixed = ((v1.T * v2).astype(complex), (v2.T * v1).astype(complex))

    def respond(side, da, pa, pb_now=None):
        """The matching of side b against side a: the objective is
        Re tr(Pb S Db) = sum_k Re(S[pb(k), k] db[k]) with
        S = Va Da Pa Vb.  Returns the entries S[pb(k), k] for the best
        pb, pb and, when pb_now is given, the entries S[pb_now(k), k]
        that score side b's current state."""
        a, vb = fixed[side], fixed[1 - side]
        diag = np.empty(da.shape, dtype=complex)
        now = None if pb_now is None else np.empty(da.shape, dtype=complex)
        pb = np.empty(pa.shape, dtype=np.intp)
        for lo in range(0, da.shape[0], block):
            part = slice(lo, lo + block)
            # S_r = Va Da_r Pa_r Vb for every start r of the block from one
            # product: S[:, r, :] = Va X[:, r, :], X[l, r, k] = da[r, l]
            # Vb[pa[r, l], k]
            m = da[part].shape[0]
            x = (da[part].T[:, :, None] * vb[pa[part].T]).reshape(n, m * n)
            # a real Va multiplies the interleaved real and imaginary
            # parts of X in one real product; a complex Va sees X as is
            s = (a @ x.view(a.dtype)).view(complex)
            s = s.reshape(n, m, n).transpose(1, 0, 2)
            pb[part], _ = solve_assignment_max(np.abs(s))
            starts = np.arange(m)[:, None]
            diag[part] = s[starts, pb[part], columns]
            if now is not None:
                now[part] = s[starts, pb_now[part], columns]
        return diag, pb, now

    def half_step(side, da, pa, pb, score=False):
        """Best phases of side b against side a, their value, pb and, when
        score is set, the entries that score side b's current state.
        CD's diag(Va Da Vb)_k = sum_j Va[k, j] da[j] Vb[j, k] is one
        (R, n) x (n, n) product for every start.  CDPM matches every
        start when none is lazy; otherwise it takes every start's
        operand product and, when some start is full, overwrites the
        full starts' rows with their matching, the only split of the
        stack."""
        now = None
        if not update_permutations:
            diag = now = da @ fixed[side]
        elif lazy_count == 0:
            diag, pb, now = respond(side, da, pa, pb if score else None)
        else:
            # da A (side 0) or A da (side 1) with each start's operand A
            diag = (np.matmul(da[:, None, :], operands)[:, 0] if side == 0
                    else np.matmul(operands, da[:, :, None])[:, :, 0])
            if lazy_count < da.shape[0]:
                full = ~lazy
                pb = pb.copy()
                diag[full], pb[full], _ = respond(side, da[full], pa[full])
        phases, value = _phases_of_diagonal(diag)
        return phases, value, pb, now

    d1 = d1.astype(complex)
    d2 = d2.astype(complex)
    # every start's final state, written once when it leaves the loop
    final = tuple(np.empty_like(state) for state in (d1, p1, d2, p2))
    objectives = np.empty(count)
    iterations = np.empty(count, dtype=int)
    converged = np.empty(count, dtype=bool)
    active = np.arange(count)
    lazy = np.zeros(count, dtype=bool)
    lazy_count = 0
    for it in range(config.max_iterations):
        held = p1, p2
        d2_next, half_value, p2, now = half_step(0, d1, p1, p2, it == 0)
        if it == 0:
            # the first product also scores the starts,
            # Re sum_k S[p2(k), k] d2[k]
            previous = np.real(np.sum(now * d2, axis=1))
            if trace is not None:
                trace.append(float(previous[0]))
        d2 = d2_next
        if trace is not None:
            trace.append(float(half_value[0]))
        d1, value, p1, _ = half_step(1, d2, p2, p1)
        if trace is not None:
            trace.append(float(value[0]))
        done = value - previous < config.epsilon
        if update_permutations:
            # a full iteration that rises and keeps both permutations
            # makes its start lazy; a lazy iteration that gains less than
            # epsilon hands the start back to a full one, which alone may
            # converge
            settle = (~lazy & ~done & (p1 == held[0]).all(axis=1)
                      & (p2 == held[1]).all(axis=1))
            # built a score block of starts at a time, so that the
            # temporaries stay as small as a block's scores
            rows = np.flatnonzero(settle)
            for lo in range(0, rows.size, block):
                r = rows[lo:lo + block]
                operands[r] = (v1[p2[r][:, None, :], columns[:, None]]
                               * v2[p1[r]])
            lazy, done = lazy & ~done | settle, done & ~lazy
            lazy_count = np.count_nonzero(lazy)
        leaving = done | (it + 1 == config.max_iterations)
        if leaving.any():
            gone = active[leaving]
            for out, state in zip(final, (d1, p1, d2, p2)):
                out[gone] = state[leaving]
            objectives[gone] = value[leaving]
            iterations[gone] = it + 1
            converged[gone] = done[leaving]
            staying = ~leaving
            active = active[staying]
            if active.size == 0:
                break
            d1, p1, d2, p2 = d1[staying], p1[staying], d2[staying], p2[staying]
            value = value[staying]
            if update_permutations:
                # a start leaves early only on a full iteration, so
                # lazy_count still holds
                lazy = lazy[staying]
                # compacted in place, a block at a time: kept is
                # increasing, so no block reads a row written before it
                kept = np.flatnonzero(staying)
                for lo in range(0, kept.size, block):
                    r = kept[lo:lo + block]
                    operands[lo:lo + r.size] = operands[r]
                operands = operands[:kept.size]
        previous = value
    d1, p1, d2, p2 = final
    best = int(np.argmax(objectives))
    objective = float(objectives[best])
    for array in (iterations, converged, objectives):
        array.setflags(write=False)
    return AlignmentSolution(d1[best], d2[best], p1[best], p2[best], objective,
                             dualness_from_objective(n, objective),
                             int(iterations[best]), bool(converged[best]),
                             iterations, converged, objectives)


def cd_align(v1, v2, config=SolverConfig(), init=None, trace=None):
    """Coordinate descent on the phases with permutations fixed to identity.

    init is an optional (d1, d2) pair: phase vectors of length n for one
    start, or (R, n) stacks for R starts run together, of which the best
    is returned (ties keep the earliest).  The default start is all-ones
    phases.  trace, when a list, receives the objective value after the
    initialization and after every half-step; it needs a single start.
    """
    return _descend(*_check_starts(v1, v2, init, False), config,
                    update_permutations=False, trace=trace)


def cdpm_align(v1, v2, config=SolverConfig(), init=None, trace=None):
    """CD extended with exact max-assignment permutation updates, solved
    lazily.

    A full iteration matches each side exactly against the other.  While
    full iterations keep both permutations, the start runs CD half-steps
    with them fixed and solves the matching again only once its phases
    gain less than config.epsilon in an iteration (_descend).  The
    matching is exact at every full iteration and at convergence: a
    start converges only on a full iteration that gains less than
    epsilon.  iterations counts full and lazy iterations alike.

    init is an optional (d1, p1, d2, p2) tuple: vectors of length n for
    one start, or (R, n) stacks for R starts run together, of which the
    best is returned (ties keep the earliest).  The default start is
    all-ones phases and identity permutations.  trace, when a list,
    receives the objective value after the initialization and after
    every half-step, lazy ones included; it needs a single start.
    """
    return _descend(*_check_starts(v1, v2, init, True), config,
                    update_permutations=True, trace=trace)


def _random_starts(seed, count, n, with_permutations):
    """Starts 0..count-1 as (R, n) stacks.  Start r reads the first 2n
    (CD) or 4n (CDPM) random() floats of derive_stream(seed, r): floats
    [0, n) and [n, 2n) times 2 pi are the angles of d1 and d2, and floats
    [2n, 3n) and [3n, 4n), ranked, are p1 and p2.  So start r equals the
    scalar draws unit_phases(n), unit_phases(n), permutation(n),
    permutation(n) of that stream.
    """
    sides = 4 if with_permutations else 2
    u = derived_randoms(seed, count, sides * n).reshape(count, sides, n)
    # SplitMix64.unit_phases and permutation, row by row
    angles = 2.0 * np.pi * u[:, :2]
    phases = np.cos(angles) + 1j * np.sin(angles)
    if not with_permutations:
        return phases[:, 0], phases[:, 1]
    perms = np.argsort(u[:, 2:], axis=-1, kind="stable")
    return phases[:, 0], perms[:, 0], phases[:, 1], perms[:, 1]


def _perturbed_starts(solution, seed, first, count):
    """Starts first..first+count-1 of the search as (R, n) stacks: each
    copies solution's phases and permutations, and start first + k swaps
    one position pair (i, j), i != j, of p1 and then one of p2.

    Each pair comes from two random() floats u, v of
    derive_stream(seed, first + k) as i = int(u * n) and
    j = int(v * (n - 1)), plus 1 when j >= i, so one block of floats
    gives every start's swaps; a size-1 pair has nothing to swap and its
    starts are plain copies.
    """
    n = solution.p1.shape[0]
    perms = np.tile(np.stack([solution.p1, solution.p2]), (count, 1, 1))
    if n > 1:
        # (start, side, i or j)
        u = derived_randoms(seed + first, count, 4).reshape(count, 2, 2)
        i = (u[..., 0] * n).astype(np.intp)
        j = (u[..., 1] * (n - 1)).astype(np.intp)
        j += j >= i
        starts = np.arange(count)[:, None]
        sides = np.arange(2)
        perms[starts, sides, i], perms[starts, sides, j] = (
            perms[starts, sides, j], perms[starts, sides, i])
    return (np.tile(solution.d1, (count, 1)), perms[:, 0],
            np.tile(solution.d2, (count, 1)), perms[:, 1])


def _joined(runs, name):
    joined = np.concatenate([getattr(run, name) for run in runs])
    joined.setflags(write=False)
    return joined


def multistart(method, v1, v2, config=SolverConfig()):
    """Best of config.restarts seeded descents of CD or CDPM.

    Both methods follow one schedule.  Seeded descent r starts from the
    first random() floats of derive_stream(seed, r) (_random_starts):
    phases uniform on the unit circle and, for CDPM, permutations
    uniform as the ranks of floats (SplitMix64.permutation).  The first
    descents, all config.restarts of them for CD and ceil(restarts / 2)
    for CDPM, run from such starts as one stacked descent.  CDPM spends
    the rest as an iterated local search: at most _PERTURB_ROUNDS stacked
    rounds of near-equal size (earlier rounds one larger) whose starts
    perturb the best solution so far (_perturbed_starts), descent r again
    drawing from derive_stream(seed, r).  The best objective wins and
    ties keep the earliest descent; the restart_* arrays cover every
    descent in draw order.  method is read as str(method).upper(),
    ExperimentConfig's rule; a name other than CD or CDPM raises
    ValueError.
    """
    method = str(method).upper()
    if method not in (CD, CDPM):
        raise ValueError("method must be CD or CDPM, got %r" % (method,))
    # cd_align and cdpm_align check the pair; the starts need only n
    n = check_square(v1, "V1").shape[0]
    cdpm = method == CDPM
    align = cdpm_align if cdpm else cd_align
    first = -(-config.restarts // 2) if cdpm else config.restarts
    best = align(v1, v2, config, _random_starts(config.seed, first, n, cdpm))
    runs = [best]
    left = config.restarts - first
    rounds = min(_PERTURB_ROUNDS, left)
    for k in range(rounds):
        count = left // rounds + (k < left % rounds)
        run = align(v1, v2, config,
                    _perturbed_starts(best, config.seed, first, count))
        runs.append(run)
        first += count
        if run.objective > best.objective:
            best = run
    return replace(best, **{name: _joined(runs, name) for name in (
        "restart_iterations", "restart_converged", "restart_objectives")})


def run_pair(g1: Graph, g2: Graph, method, config=SolverConfig()):
    """Eigendecompose a graph pair and run the multistart optimizer."""
    dec1, dec2 = decompose_pair(g1, g2)
    return multistart(method, dec1.vectors, dec2.vectors, config)


def verify_circulant_duality(g1: Graph, g2: Graph):
    """Residual of the circulant-pair dualness-0 certificate.

    Uses V1 = dft_matrix(n) and V2 = V1^H, checks both diagonalize their
    adjacencies (off-diagonal of V* A V at most CIRCULANT_DIAG_TOL times
    max(1, max A)), and returns ||V1 V2 - I||_F (0 for any circulant pair).
    This bypasses the distinct-eigenvalue restriction entirely.
    """
    check_same_size(g1, g2)
    for which, g in (("first", g1), ("second", g2)):
        if not is_circulant(g):
            raise NotCirculantError("%s graph is not circulant" % which)
    n = g1.n
    v1 = dft_matrix(n)
    v2 = v1.conj().T
    for v, g in ((v1, g1), (v2, g2)):
        lam = v.conj().T @ g.adjacency @ v
        off = lam - np.diag(np.diagonal(lam))
        scale = max(1.0, float(np.max(g.adjacency)))
        if np.max(np.abs(off)) > CIRCULANT_DIAG_TOL * scale:
            raise NotCirculantError(
                "DFT basis fails to diagonalize a circulant adjacency "
                "(off-diagonal %.3e)" % np.max(np.abs(off)))
    return float(np.linalg.norm(v1 @ v2 - np.eye(n)))


def isomorphism_transport(solution: AlignmentSolution, p, side):
    """Transport a solution across a relabelling of one side.

    If side graph's vertices are relabelled by p (its eigenvector matrix
    becoming V[p_inverse]), the returned solution achieves the identical
    objective on the relabelled pair: the opposite-side permutation
    absorbs p.  side must be the integer (rng.check_integer) 1 or 2, else
    ValueError.
    """
    if check_integer(side, "side", ValueError) not in (1, 2):
        raise ValueError("side must be 1 or 2")
    n = solution.d1.shape[0]
    p = check_permutation(p, n)
    if side == 1:
        return replace(solution, p2=p[solution.p2])
    return replace(solution, p1=p[solution.p1])
