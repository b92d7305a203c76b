"""Test oracles: exhaustive assignment and explicit permutation matrices,
the scaled coupling blocks that DUP's tolerance is tested on, and the
certified optimum of the dualness objective at small n."""

import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment

from gftdual.alignment import CD, SolverConfig, multistart
from gftdual.dup import build_coupling, dup_bound


def assignment_bruteforce(s):
    """(sigma, value) maximizing sum_i s[sigma(i), i] over all n!
    permutations of a square s; the lexicographically least optimum."""
    s = np.asarray(s, dtype=float)
    n = s.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.intp), 0.0
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    values = s[perms, np.arange(n)].sum(axis=1)
    # argmax keeps the first maximum
    best = int(np.argmax(values))
    return perms[best], float(values[best])


def permutation_matrix(perm):
    """Matrix P with P[i, perm[i]] = 1, so P @ M gathers rows: M[perm]."""
    n = len(perm)
    mat = np.zeros((n, n))
    mat[np.arange(n), perm] = 1.0
    return mat


def scaled_blocks():
    """(scale, b) for 15 Gaussian n x n blocks, 3 <= n < 15, per scale
    1, 1e4, 1e6, 1e8, 1e10 and 1e12 in that order, all drawn from one
    np.random.default_rng(1)."""
    rng = np.random.default_rng(1)
    for scale in (1.0, 1e4, 1e6, 1e8, 1e10, 1e12):
        for _ in range(15):
            n = rng.integers(3, 15)
            yield scale, rng.normal(size=(n, n)) * scale


def certified_optimum(v1, v2):
    """The maximum of Re tr(V1 D1 P1 V2 D2 P2) over unit phases and
    permutations for real orthogonal n x n bases, by a branch and bound
    over the n!^2 permutation pairs (small n only).

    The objective of (p1, p2) is CD's on (V1[p2], V2[p1]).  By the
    triangle inequality it is at most sum_i C[p2(i), i] with
    C = |V1| |V2[p1]|, so one assignment on C bounds every p2 of a p1,
    and C's sums bound single pairs.  A pair whose bound beats the best
    objective so far by more than margin = 1e-6 gets dup_bound; where
    that bound beats it too, CD multistart on the pair raises the best.
    The p1 and then the pairs are visited in descending order of their
    bounds, so each loop stops at the first that cannot beat the best.
    AssertionError unless every DUP bound ends within margin of the
    returned optimum, which then holds to margin plus DUP's tol * 2n.
    """
    n, margin = len(v1), 1e-6
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    # scores[k] is C for p1 = perms[k]
    scores = np.abs(v1) @ np.abs(v2)[perms]
    tops = np.array([c[linear_sum_assignment(c, maximize=True)].sum()
                     for c in scores])
    best = highest = -np.inf
    for k in np.argsort(-tops, kind="stable"):
        if tops[k] <= best + margin:
            break
        sums = scores[k][perms, np.arange(n)].sum(axis=1)
        for j in np.argsort(-sums, kind="stable"):
            if sums[j] <= best + margin:
                break
            w1, w2 = v1[perms[j]], v2[perms[k]]
            bound = dup_bound(build_coupling(w1, w2)).bound
            if bound > best + margin:
                highest = max(highest, bound)
                run = multistart(CD, w1, w2, SolverConfig(restarts=50))
                best = max(best, run.objective)
    assert highest <= best + margin, (highest, best)
    return best
