"""Deterministic pseudo-random numbers.

All randomness in the library flows through SplitMix64, a 64-bit generator
with a single word of state (Steele, Lea and Flood's mixer). It is
implemented here, rather than taken from numpy, so that streams are
bit-identical across platforms and library versions.

Stream splitting rule: the k-th derived stream of a seed is
``SplitMix64((seed + k) mod 2**64)``. Multistart restarts use k = restart
index; the experiment harness draws sub-seeds from a sequencer stream (see
experiment.py for the documented draw order). The j-th word (j >= 1) of a
derived stream depends only on its state ``seed + k + j * GAMMA``, so
``derived_words`` computes the first words of many streams in one array
expression, and ``derived_randoms`` their random() floats.

Float rule: a word w gives the float (w >> 11) * 2**-53 in [0, 1), with
53 random bits; derived_randoms is its one implementation.  Permutation
rule: a random permutation of 0..n-1 is the stable argsort of n such
floats (SplitMix64.permutation), so every permutation is equally likely
up to ties among the floats.

Seed rule (check_seed): a seed is any integer, numpy integers included,
taken mod 2**64. A bool, a float (even 2.0) or a string is refused, since
a cast would truncate 2.5 to seed 2 and read True as seed 1.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def check_seed(seed, error=TypeError) -> int:
    """seed mod 2**64 as an int; seed must be an integer and not a bool,
    error, the caller's documented class, otherwise."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = None
    if value is None or isinstance(seed, (bool, np.bool_)):
        raise error(f"seed must be an integer, got {seed!r}")
    return value & _MASK64


class SplitMix64:
    """64-bit SplitMix generator.

    >>> SplitMix64(0).next_uint64() == SplitMix64(0).next_uint64()
    True
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = check_seed(seed)

    def next_uint64(self) -> int:
        """Next raw 64-bit word."""
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def words(self, k: int) -> np.ndarray:
        """The next k raw words as a uint64 array; the state advances
        exactly as k calls of next_uint64 would advance it."""
        block = derived_words(self._state, 1, k)[0]
        self._state = (self._state + k * _GAMMA) & _MASK64
        return block

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return float(self.randoms(1)[0])

    def randoms(self, k: int) -> np.ndarray:
        """The next k random() floats as one array."""
        block = derived_randoms(self._state, 1, k)[0]
        self._state = (self._state + k * _GAMMA) & _MASK64
        return block

    def integer_below(self, bound: int) -> int:
        """Unbiased integer in [0, bound) via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = ((1 << 64) // bound) * bound
        while True:
            word = self.next_uint64()
            if word < limit:
                return word % bound

    def permutation(self, n: int) -> np.ndarray:
        """Uniform random permutation of 0..n-1: the ranks of the next n
        random() floats (stable argsort, so ties keep index order)."""
        return np.argsort(self.randoms(n), kind="stable")

    def unit_phases(self, n: int) -> np.ndarray:
        """n complex numbers uniform on the unit circle."""
        angles = 2.0 * np.pi * self.randoms(n)
        return np.cos(angles) + 1j * np.sin(angles)


def derive_stream(seed: int, index: int) -> SplitMix64:
    """The index-th derived stream of a master seed (see module docstring)."""
    return SplitMix64(check_seed(seed) + check_seed(index))


def derived_words(seed: int, count: int, k: int) -> np.ndarray:
    """The first k words of derived streams 0..count-1 as a (count, k)
    uint64 array: row r equals k calls of derive_stream(seed, r).next_uint64().
    """
    if count < 0 or k < 0:
        raise ValueError("count and k must be non-negative")
    # uint64 array arithmetic wraps mod 2**64, as the scalar masks do
    starts = np.uint64(check_seed(seed)) + np.arange(count, dtype=np.uint64)
    steps = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z = starts[:, None] + steps[None, :]
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def derived_randoms(seed: int, count: int, k: int) -> np.ndarray:
    """The first k random() floats of derived streams 0..count-1 as a
    (count, k) float array: the float rule applied to derived_words."""
    return (derived_words(seed, count, k) >> np.uint64(11)) * 2.0**-53
