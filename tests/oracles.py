"""Test oracles: exhaustive assignment and explicit permutation matrices."""

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
