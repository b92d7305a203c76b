"""A fixed reference computation that tracks the machine's speed.

On a shared host the CPU speed the benchmark sees changes by up to 1.6x
from one minute to the next, and every timing changes with it.  The
benchmark runs this kernel before the first item and after every item,
outside the item's own timing, and scales each item's time by
NOMINAL_S over the kernel's time around it.  The kernel is the
benchmark's own code: no change to the program can move it.

Its mix follows the program's: a Python loop, small numpy calls and a
small BLAS matrix-vector product.
"""

import statistics
import time

import numpy as np

# the kernel's typical time, in seconds, on the 2-core x86-64 host the
# benchmark was written on; it only sets the scale of scaled timings
NOMINAL_S = 0.002

_SIZE = 32
_MATRIX = (np.arange(_SIZE * _SIZE, dtype=float).reshape(_SIZE, _SIZE) % 7
           - 3.0) / _SIZE
_MATRIX = _MATRIX + _MATRIX.T


def run():
    """Seconds one pass of the kernel takes now."""
    start = time.perf_counter()
    x = np.ones(_SIZE)
    for _ in range(300):
        y = _MATRIX @ x
        x = y / np.sqrt(y @ y)
        total = 0.0
        for j in range(40):
            total += j * 0.5
    return time.perf_counter() - start


def scale_setup(seconds, samples=15):
    """Set-up time scaled by the kernel's median time right after it."""
    return seconds * NOMINAL_S / statistics.median(run()
                                                   for _ in range(samples))
