"""Test oracles: exhaustive assignment and explicit permutation matrices,
the scaled coupling blocks that DUP's tolerance is tested on, the
certified optimum of the dualness objective at small n, and planted
pairs whose optimum is known at any n."""

import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment

from gftdual.alignment import CD, SolverConfig, multistart
from gftdual.dup import build_coupling, dup_bound
from gftdual.graphs import erdos_renyi
from gftdual.rng import SplitMix64
from gftdual.spectral import eigendecompose


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


def planted_pair(n, seed, noise=0.0):
    """(v1, v2, planted) for a pair with a planted solution.

    V1 is the eigenbasis of erdos_renyi(n, 0.4, 7000 + seed).  Signs s1,
    s2 (random() < 0.5 gives -1) and permutations p1, p2 are drawn from
    SplitMix64(seed) in that order, and V2 = (S1 P1)' V1' (S2 P2)', the
    eigenbasis of a relabelled exact dual, so planted = (s1, p1, s2, p2)
    reaches objective n up to rounding (dualness 0).  With noise > 0, V2
    is then replaced by the Q factor (signs fixed so that R has a positive
    diagonal) of V2 + noise N / sqrt(n), N standard Gaussian from
    np.random.default_rng(seed): the planted objective on that pair is a
    lower bound on its optimum.
    """
    v1 = eigendecompose(erdos_renyi(n, 0.4, 7000 + seed)).vectors
    stream = SplitMix64(seed)
    s1 = np.where(stream.randoms(n) < 0.5, -1.0, 1.0)
    p1 = stream.permutation(n)
    s2 = np.where(stream.randoms(n) < 0.5, -1.0, 1.0)
    p2 = stream.permutation(n)
    q1 = s1[:, None] * permutation_matrix(p1)
    q2 = s2[:, None] * permutation_matrix(p2)
    v2 = q1.T @ v1.T @ q2.T
    if noise > 0.0:
        gauss = np.random.default_rng(seed).standard_normal((n, n))
        q, r = np.linalg.qr(v2 + noise * gauss / np.sqrt(n))
        v2 = q * np.sign(np.diagonal(r))
    return v1, v2, (s1, p1, s2, p2)


def planted_cases():
    """(seed, noise) of the planted-dual gate: seeds 0-11 planted (noise
    0), then seeds 12-19 near-dual with noise 0.02, 0.05, 0.1 and 0.2,
    twice over."""
    return ([(seed, 0.0) for seed in range(12)]
            + [(12 + k, (0.02, 0.05, 0.1, 0.2)[k % 4]) for k in range(8)])
