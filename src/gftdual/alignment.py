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
from .spectral import (check_basis_pair, check_same_size, decompose_pair,
                       dft_matrix)

ZERO_DIAGONAL_TOL = 1e-12
CIRCULANT_DIAG_TOL = 1e-9
UNIT_PHASE_TOL = 1e-9
# multistart("CDPM") runs its descents after block 0 in blocks of
# _BLOCK, every _SEEDED_EVERY-th block seeded and the others perturbed
# (tuned on pair seeds 30000 onwards, see CHANGES.md)
_BLOCK = 9
_SEEDED_EVERY = 6

CD = "CD"
CDPM = "CDPM"


def method_name(method, allowed):
    """method read as str(method).upper(), the one reading of a method
    name, which must be one of allowed; ValueError otherwise."""
    name = str(method).upper()
    if name not in allowed:
        raise ValueError("unknown method %r, expected one of %s"
                         % (method, ", ".join(allowed)))
    return name


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
    else ValueError), receives the start's objective and then the
    objective after every half-step.

    The first half-step replaces the start's second side (d2, and
    CDPM's p2) with a best response, so a start's first gain is measured
    from that half-step's value.  The start's d2 then enters only the
    trace's first entry, and CDPM's p2 also the first test for turning
    lazy.

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
    half-step scores all its starts with one stacked product, one product
    per start, and one solve_assignment_max call (respond).  CD's
    half-step is one product over the running stack, which BLAS computes
    row by row alike for two rows or more; a lone start's row is doubled
    to take that kernel too.  So every start, CD or CDPM, descends bit
    for bit as it does alone.
    """
    count, n = d1.shape
    if trace is not None and count != 1:
        raise ValueError("trace needs a single start, got %d" % count)
    columns = np.arange(n)
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

    def respond(side, da, pa):
        """The matching of side b against side a: the objective is
        Re tr(Pb S Db) = sum_k Re(S[pb(k), k] db[k]) with
        S = Va Da Pa Vb.  Returns the entries S[pb(k), k] for the best pb,
        and pb."""
        a = fixed[side]
        # S_r = Va X_r with X_r[l, k] = da[r, l] Vb[pa[r, l], k] for every
        # start r, one product per start in one stacked call, so that a
        # start's S does not depend on the other starts of the stack (one
        # product over all of them rounds a column by the number of
        # columns).  A real Va multiplies the interleaved real and
        # imaginary parts of X_r in one real product; a complex Va sees
        # X_r as is.  X stays unnamed, so it is freed after the product
        s = np.matmul(a, (da[:, :, None] * fixed[1 - side][pa])
                      .view(a.dtype)).view(complex)
        pb, _ = solve_assignment_max(np.abs(s))
        return s[np.arange(s.shape[0])[:, None], pb, columns], pb

    def half_step(side, da, pa, pb):
        """Best phases of side b against side a, their value and pb.
        CD's diag(Va Da Vb)_k = sum_j Va[k, j] da[j] Vb[j, k] is one
        (R, n) x (n, n) product for every start, at least two rows
        long.  CDPM matches every start when none is lazy; otherwise it
        takes every start's operand product and, when some start is
        full, overwrites the full starts' rows with their matching, the
        only split of the stack."""
        if not update_permutations:
            # numpy sends a lone row to BLAS's matrix-vector kernel, which
            # rounds otherwise than the matrix-matrix kernel of a larger
            # stack; doubled, it takes the stack's kernel, so a start's
            # product does not depend on how many starts are still running
            rows = np.repeat(da, 2, axis=0) if da.shape[0] == 1 else da
            diag = (rows @ fixed[side])[:da.shape[0]]
        elif lazy_count == 0:
            diag, pb = respond(side, da, pa)
        else:
            # da A (side 0) or A da (side 1) with each start's operand A
            diag = (np.matmul(da[:, None, :], operands)[:, 0] if side == 0
                    else np.matmul(operands, da[:, :, None])[:, :, 0])
            if lazy_count < da.shape[0]:
                full = ~lazy
                pb = pb.copy()
                diag[full], pb[full] = respond(side, da[full], pa[full])
        phases, value = _phases_of_diagonal(diag)
        return phases, value, pb

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
    if trace is not None:
        trace.append(trace_objective(v1, d1[0], p1[0], v2, d2[0], p2[0]))
    for it in range(config.max_iterations):
        held = p1, p2
        d2, half_value, p2 = half_step(0, d1, p1, p2)
        if it == 0:
            # the first half-step replaced the start's second side, so the
            # first gain is measured from its value
            previous = half_value
        if trace is not None:
            trace.append(float(half_value[0]))
        d1, value, p1 = half_step(1, d2, p2, p1)
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
            operands[settle] = (v1[p2[settle][:, None, :], columns[:, None]]
                                * v2[p1[settle]])
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
                operands = operands[staying]
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
    is returned (ties keep the earliest); each start descends bit for
    bit as it does alone (_descend).  The default start is all-ones
    phases.  The first half-step replaces the start's d2, which enters
    only the trace's first entry.  trace, when a list, receives the
    objective value after the initialization and after every half-step;
    it needs a single start.
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
    all-ones phases and identity permutations.  The first half-step
    replaces the start's d2 and p2: d2 enters only the trace's first
    entry, and p2 also the first test for turning lazy.  trace, when a
    list, receives the objective value after the initialization and
    after every half-step, lazy ones included; it needs a single start.
    """
    return _descend(*_check_starts(v1, v2, init, True), config,
                    update_permutations=True, trace=trace)


def _random_starts(seed, count, n, with_permutations):
    """Starts 0..count-1 as (R, n) stacks.  Start r reads the first 2n
    (CD) or 4n (CDPM) random() floats of derive_stream(seed, r): floats
    [0, n) and [n, 2n) times 2 pi are the angles of d1 and d2, and floats
    [2n, 3n) and [3n, 4n), ranked, are the permutations sigma1 and sigma2
    (_seeded_starts).  So start r equals the scalar draws unit_phases(n),
    unit_phases(n), permutation(n), permutation(n) of that stream.
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
    one position pair (i, j), i != j, of p1.  p2 is kept, since the first
    half-step of a descent matches side 2 afresh (_descend).

    The pair comes from the first two random() floats u, v of
    derive_stream(seed, first + k) as i = int(u * n) and
    j = int(v * (n - 1)), plus 1 when j >= i, so one block of floats
    gives every start's swap; a size-1 pair has nothing to swap and its
    starts are plain copies.
    """
    n = solution.p1.shape[0]
    p1 = np.tile(solution.p1, (count, 1))
    if n > 1:
        u = derived_randoms(seed + first, count, 2)
        i = (u[:, 0] * n).astype(np.intp)
        j = (u[:, 1] * (n - 1)).astype(np.intp)
        j += j >= i
        starts = np.arange(count)
        p1[starts, i], p1[starts, j] = p1[starts, j], p1[starts, i]
    return (np.tile(solution.d1, (count, 1)), p1,
            np.tile(solution.d2, (count, 1)), np.tile(solution.p2, (count, 1)))


def _magnitude_matching(a, b):
    """The permutation p, p[j] = i, that matches column j of a to row i
    of b with the least sum of ||sort a[:, j] - sort b[i, :]||^2 over j
    (solve_assignment_max on the negated costs)."""
    columns = np.sort(a, axis=0).T
    rows = np.sort(b, axis=1)
    # cost[j, i], formed entry by entry, so that permuting the rows of b
    # permutes its columns exactly
    cost = columns[:, None, :] - rows[None, :, :]
    np.square(cost, out=cost)
    return solve_assignment_max(-cost.sum(axis=-1).T)[0]


def _signature_start(v1, v2):
    """The start (d1, p1, d2, p2) that reads only entry magnitudes
    (Umeyama, IEEE TPAMI 10, 1988).  At an optimum of dualness 0, column
    b of V1 and row p1(b) of V2 hold the same magnitudes, and so do
    column d of V2 and row p2(d) of V1: p1 and p2 match them by their
    sorted magnitudes.  The phases are those of the top singular pair of
    M[l, m] = V1[p2(m), l] V2[p1(l), m], the objective's d1' M d2 at
    these permutations.  Relabelling either graph's vertices carries the
    start along."""
    a1, a2 = np.abs(v1), np.abs(v2)
    p1 = _magnitude_matching(a1, a2)
    p2 = _magnitude_matching(a2, a1)
    u, _, vh = np.linalg.svd(v1[p2].T * v2[p1])
    # d1 = conj(u)/|u| and d2 = v/|v| for v = conj(vh[0])
    d1, _ = _phases_of_diagonal(u[:, 0])
    d2, _ = _phases_of_diagonal(vh[0])
    return d1, p1, d2, p2


def _seeded_starts(signature, seed, first, count):
    """Seeded starts first..first+count-1 as (R, n) stacks, drawn on the
    eigenvalue side: start r takes its phases and permutations sigma1,
    sigma2 from derive_stream(seed, r) (_random_starts) and starts at
    p1 = sig_p1[sigma1], p2 = sig_p2[sigma2] for the signature start's
    permutations, so that a relabelling carries it along too."""
    n = signature[1].shape[0]
    d1, s1, d2, s2 = _random_starts(seed + first, count, n, True)
    return d1, signature[1][s1], d2, signature[3][s2]


def _first_seeded(n):
    """The seeded descents of block 0 at size n: 9 from n = 11 on, and
    1200 // n^2 below, where a fresh start finds a better basin more
    often than a swap from the incumbent does (see CHANGES.md)."""
    return max(9, 1200 // n ** 2)


def _cd_search(v1, v2, config):
    """multistart's CD search on the checked pair (v1, v2)."""
    run = cd_align(v1, v2, config, _random_starts(
        config.seed, config.restarts, v1.shape[0], False))
    return _best_of(run, [run])


def _cdpm_search(v1, v2, config):
    """multistart's CDPM search on the checked pair (v1, v2)."""
    seed, restarts = config.seed, config.restarts
    signature = _signature_start(v1, v2)
    seeded = _first_seeded(v1.shape[0])
    done = min(restarts, 1 + seeded)
    starts = tuple(np.concatenate([one[None], many])[:done]
                   for one, many in zip(signature, _seeded_starts(
                       signature, seed, 1, seeded)))
    best = cdpm_align(v1, v2, config, starts)
    runs = [best]
    while done < restarts:
        count = min(_BLOCK, restarts - done)
        if len(runs) % _SEEDED_EVERY == 0:
            starts = _seeded_starts(signature, seed, done, count)
        else:
            starts = _perturbed_starts(best, seed, done, count)
        run = cdpm_align(v1, v2, config, starts)
        runs.append(run)
        done += count
        if run.objective > best.objective:
            best = run
    return _best_of(best, runs)


def _best_of(best, runs):
    """best, with the restart_* arrays of every run joined in run order
    (read-only)."""
    joined = {}
    for name in ("restart_iterations", "restart_converged",
                 "restart_objectives"):
        joined[name] = np.concatenate([getattr(run, name) for run in runs])
        joined[name].setflags(write=False)
    return replace(best, **joined)


def _magnitude_order(v1, v2):
    """-1, 0 or 1 as the sorted entry magnitudes of v1 come before, equal
    or after those of v2 lexicographically; relabelling and phases leave
    it unchanged."""
    k1, k2 = (np.sort(np.abs(v), axis=None).tolist() for v in (v1, v2))
    return (k1 > k2) - (k1 < k2)


def _swapped(solution):
    """The solution of (V1, V2) from that of (V2, V1): tr(AB) = tr(BA)."""
    return replace(solution, d1=solution.d2, p1=solution.p2,
                   d2=solution.d1, p2=solution.p1)


def multistart(method, v1, v2, config=SolverConfig()):
    """Best of config.restarts descents of CD or CDPM.

    For both methods budget R runs the first R descents of any larger
    budget, so the answer never falls as R grows: every descent runs one
    BLAS kernel whatever the stack it runs in (_descend).

    Both methods solve the order whose first basis has the
    lexicographically smaller sorted entry magnitudes (_magnitude_order)
    and map the answer back, the solution (e1, q1, e2, q2) of (V2, V1)
    being (e2, q2, e1, q1) of (V1, V2), so swapping the arguments swaps
    the answer.  Equal sorted magnitudes, as of a graph paired with
    itself or with any relabelling of itself, run both orders, so 2R
    descents, and keep the higher objective (then the higher
    restart_objectives).

    CD runs one stacked cd_align on seeded starts: start r takes its
    phases from the first random() floats of derive_stream(seed, r)
    (_random_starts).

    CDPM runs an iterated local search (Lourenco, Martin and Stuetzle,
    2003).  Descent 0 starts at the magnitude signature (_signature_start).
    Block 0 stacks it on _first_seeded(n) seeded descents: descent r draws
    phases and permutations sigma1, sigma2 from derive_stream(seed, r) and
    starts at p1 = sig_p1[sigma1], p2 = sig_p2[sigma2] (_seeded_starts).
    Each later block holds _BLOCK descents: block k is seeded alike when k
    is a multiple of _SEEDED_EVERY, and otherwise its descents perturb the
    best solution so far (_perturbed_starts): descent r swaps one
    position pair of the incumbent's p1, drawn from the first two floats
    of derive_stream(seed, r), and keeps its phases and p2 (its first
    half-step matches side 2 afresh).  Every start is indexed by
    eigenvalues, so relabelling a graph's vertices carries the answer along
    (isomorphism_transport), unless the graph's symmetries tie the
    signature's matchings.

    The best objective wins and ties keep the earliest descent; the
    restart_* arrays cover the kept order's R descents in draw order, so
    when equal magnitudes run both orders, the other order's R descents
    are not in them.  method is read by method_name, as ExperimentConfig
    reads its methods; a name other than CD or CDPM raises ValueError.
    """
    method = method_name(method, (CD, CDPM))
    search = _cd_search if method == CD else _cdpm_search
    v1, v2, _ = check_basis_pair(v1, v2)
    order = _magnitude_order(v1, v2)
    runs = []
    if order <= 0:
        runs.append(search(v1, v2, config))
    if order >= 0:
        runs.append(_swapped(search(v2, v1, config)))
    return max(runs, key=lambda run: (run.objective,
                                      run.restart_objectives.tolist()))


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
