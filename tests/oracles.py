"""Test oracles: exhaustive assignment and explicit permutation matrices,
and the scaled coupling blocks that DUP's tolerance is tested on."""

import itertools

import numpy as np


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
