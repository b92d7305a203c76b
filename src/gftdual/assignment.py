"""Maximum-weight linear assignment on dense square score matrices.

The convention throughout is the one used by the alignment optimizers:
a permutation sigma scores sum_i s[sigma(i), i], picking exactly one
entry from each row and each column.
"""

import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import NonFiniteEntryError, NotSquareError, TooLargeError

BRUTEFORCE_LIMIT = 9


def _checked_scores(s, allow_stack=False):
    s = np.asarray(s, dtype=float)
    if (s.ndim not in ((2, 3) if allow_stack else (2,))
            or s.shape[-2] != s.shape[-1]):
        raise NotSquareError("score matrix must be square, got shape %s"
                             % (s.shape,))
    if s.size and not np.isfinite(s).all():
        raise NonFiniteEntryError("score matrix contains non-finite entries")
    return s


def _values(stack, sigma):
    """sum_i s[sigma(i), i] for each matrix s of a stack and row of sigma,
    summed the same way for every row so equal inputs give equal floats."""
    count, n = sigma.shape
    return stack[np.arange(count)[:, None], sigma, np.arange(n)].sum(axis=1)


def solve_assignment_max(s):
    """Return (sigma, value) maximizing sum_i s[sigma(i), i].

    sigma is returned as an index array; the matching permutation matrix
    is P[i, sigma(i)] = 1.  s may also be an (R, n, n) stack, checked
    once and solved matrix by matrix: sigma is then (R, n) and value
    (R,), row r equal to the call on s[r] alone, which is the R = 1
    case of the same path.  Deterministic: the same input always yields
    the same optimum.
    """
    s = _checked_scores(s, allow_stack=True)
    stack = s[None] if s.ndim == 2 else s
    count, n = stack.shape[:2]
    # sum_i s[sigma(i), i] = sum_i s.T[i, sigma(i)]; maximize=True would
    # negate each s.T into a contiguous copy, so negate the stack once
    cost = np.negative(stack.transpose(0, 2, 1), order="C")
    sigma = np.empty((count, n), dtype=np.intp)
    for r in range(count):
        sigma[r] = linear_sum_assignment(cost[r])[1]
    values = _values(stack, sigma)
    if s.ndim == 2:
        return sigma[0], float(values[0])
    return sigma, values


def assignment_bruteforce(s):
    """Exhaustive-enumeration optimum of the same objective (test oracle)."""
    s = _checked_scores(s)
    n = s.shape[0]
    if n > BRUTEFORCE_LIMIT:
        raise TooLargeError(
            "bruteforce assignment limited to n <= %d, got n = %d"
            % (BRUTEFORCE_LIMIT, n))
    if n == 0:
        return np.zeros(0, dtype=np.intp), 0.0
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    values = s[perms, np.arange(n)].sum(axis=1)
    # argmax keeps the first maximum, the lexicographically least optimum
    best = int(np.argmax(values))
    sigma = perms[best]
    return sigma, float(_values(s[None], sigma[None])[0])
