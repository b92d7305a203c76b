"""Maximum-weight linear assignment on dense square score matrices.

The convention throughout is the one used by the alignment optimizers:
a permutation sigma scores sum_i s[sigma(i), i], picking exactly one
entry from each row and each column.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import SizeMismatchError
from .graphs import as_real


def solve_assignment_max(s):
    """Return (sigma, value) maximizing sum_i s[sigma(i), i].

    sigma is returned as an index array; the matching permutation matrix
    is P[i, sigma(i)] = 1.  s may also be an (R, n, n) stack, checked
    once and solved matrix by matrix: sigma is then (R, n) and value
    (R,), row r equal to the call on s[r] alone, which is the R = 1
    case of the same path.  Deterministic: the same input always yields
    the same optimum.
    """
    s = as_real(s, "score matrix")
    if s.ndim not in (2, 3) or s.shape[-2] != s.shape[-1]:
        raise SizeMismatchError("score matrix must be square, got shape %s"
                                % (s.shape,))
    stack = s[None] if s.ndim == 2 else s
    count, n = stack.shape[:2]
    # sum_i s[sigma(i), i] = sum_i s.T[i, sigma(i)]; maximize=True would
    # negate each s.T into a contiguous copy, so negate the stack once
    cost = np.negative(stack.transpose(0, 2, 1), order="C")
    sigma = np.empty((count, n), dtype=np.intp)
    for r in range(count):
        sigma[r] = linear_sum_assignment(cost[r])[1]
    # summed the same way for every row, so equal inputs give equal floats
    values = stack[np.arange(count)[:, None], sigma, np.arange(n)].sum(axis=1)
    if s.ndim == 2:
        return sigma[0], float(values[0])
    return sigma, values

