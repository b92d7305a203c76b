"""SplitMix64 stream tests against the published reference outputs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gftdual.rng import (SplitMix64, check_seed, derive_stream,
                         derived_randoms, derived_words)

# First outputs of the reference mixer for two seeds, computed from the
# published algorithm (state += 0x9E3779B97F4A7C15; two xor-multiply
# mixing rounds; final xorshift).
REFERENCE_SEED_0 = [
    16294208416658607535,
    7960286522194355700,
    487617019471545679,
]
REFERENCE_SEED_1234567 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
]


def _reference(seed, count):
    mask = (1 << 64) - 1
    x = seed & mask
    out = []
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & mask
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_known_vectors():
    assert [SplitMix64(0).next_uint64() for _ in range(1)] == REFERENCE_SEED_0[:1]
    stream = SplitMix64(0)
    assert [stream.next_uint64() for _ in range(3)] == REFERENCE_SEED_0
    stream = SplitMix64(1234567)
    assert [stream.next_uint64() for _ in range(3)] == REFERENCE_SEED_1234567


def test_matches_reference_implementation():
    for seed in (0, 1, 42, 2**63, 2**64 - 1, 987654321123456789):
        stream = SplitMix64(seed)
        assert [stream.next_uint64() for _ in range(20)] == _reference(seed, 20)


def test_seed_masked_to_64_bits():
    assert SplitMix64(2**64 + 5).next_uint64() == SplitMix64(5).next_uint64()


@pytest.mark.parametrize("seed", [np.int64(-3), np.uint64(2**64 - 3), -3,
                                  np.int8(-3)])
def test_any_integer_is_a_seed_mod_2_64(seed):
    first = SplitMix64(2**64 - 3).next_uint64()
    assert check_seed(seed) == 2**64 - 3
    assert SplitMix64(seed).next_uint64() == first
    assert derive_stream(seed, 0).next_uint64() == first
    assert derive_stream(0, seed).next_uint64() == first
    assert int(derived_words(seed, 1, 1)[0, 0]) == first


_NOT_INTEGERS = [True, np.True_, 2.5, 2.0, np.float64(2.0), "2", 2 + 0j,
                 None]


@pytest.mark.parametrize("seed", _NOT_INTEGERS)
def test_seeds_that_are_not_integers_raise(seed):
    # a cast would run 2.5 as seed 2 and True as seed 1
    for call in (SplitMix64, check_seed, lambda s: derive_stream(s, 0),
                 lambda s: derive_stream(0, s),
                 lambda s: derived_words(s, 2, 2)):
        with pytest.raises(TypeError, match="seed must be an integer"):
            call(seed)
    with pytest.raises(ValueError, match="seed must be an integer"):
        check_seed(seed, ValueError)


@pytest.mark.parametrize("value", _NOT_INTEGERS)
def test_sizes_that_are_not_integers_raise(value):
    # a cast would draw 2 floats for a size of 2.0 and 1 for True, and
    # integer_below(2.5) returned 0.5
    stream = SplitMix64(0)
    for name, call in (("count", lambda c: derived_words(0, c, 3)),
                       ("k", lambda k: derived_words(0, 2, k)),
                       ("k", lambda k: derived_randoms(0, 2, k)),
                       ("k", stream.randoms), ("k", stream.permutation),
                       ("k", stream.unit_phases),
                       ("bound", stream.integer_below)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            call(value)
    # no refused call moved the stream
    assert stream.next_uint64() == SplitMix64(0).next_uint64()


def test_numpy_integer_sizes_draw_like_ints():
    # k * GAMMA overflowed an int64 k, so permutation(np.int64(5)) raised
    for size in (np.int64(5), np.uint64(5), np.int8(5)):
        block, plain = SplitMix64(7), SplitMix64(7)
        assert np.array_equal(block.permutation(size), plain.permutation(5))
        assert block.next_uint64() == plain.next_uint64()


def test_random_unit_interval():
    stream = SplitMix64(7)
    values = [stream.random() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert 0.4 < np.mean(values) < 0.6


def test_random_has_53_bit_resolution():
    stream = SplitMix64(3)
    assert all((stream.random() * 2.0**53) % 1.0 == 0.0 for _ in range(100))


def test_integer_below_bounds_and_coverage():
    stream = SplitMix64(11)
    draws = [stream.integer_below(6) for _ in range(600)]
    assert all(0 <= d < 6 for d in draws)
    assert set(draws) == set(range(6))
    with pytest.raises(ValueError):
        stream.integer_below(0)


def test_permutation_validity_and_coverage():
    stream = SplitMix64(13)
    for _ in range(50):
        p = stream.permutation(8)
        assert p.dtype == np.intp
        assert np.array_equal(np.sort(p), np.arange(8))
    seen = set()
    stream = SplitMix64(17)
    for _ in range(2000):
        seen.add(tuple(stream.permutation(3)))
    assert len(seen) == 6


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 64))
def test_permutation_is_a_bijection(seed, n):
    p = SplitMix64(seed).permutation(n)
    assert p.dtype == np.intp
    assert np.array_equal(np.sort(p), np.arange(n))


def test_unit_phases_modulus():
    phases = SplitMix64(19).unit_phases(500)
    assert phases.shape == (500,)
    assert np.max(np.abs(np.abs(phases) - 1.0)) < 1e-14


def test_derive_stream_rule():
    assert derive_stream(5, 2).next_uint64() == SplitMix64(7).next_uint64()
    assert derive_stream(2**64 - 1, 1).next_uint64() == SplitMix64(0).next_uint64()


def test_determinism():
    a = SplitMix64(99)
    b = SplitMix64(99)
    assert [a.next_uint64() for _ in range(10)] == [b.next_uint64() for _ in range(10)]
    assert np.array_equal(SplitMix64(4).permutation(20), SplitMix64(4).permutation(20))
    assert np.array_equal(SplitMix64(4).unit_phases(20), SplitMix64(4).unit_phases(20))


@settings(max_examples=60, deadline=None)
@given(seed=st.one_of(st.integers(2**64 - 40, 2**64 - 1),
                      st.integers(0, 2**64 - 1)),
       count=st.integers(0, 45), k=st.integers(0, 12))
def test_derived_words_equal_scalar_streams(seed, count, k):
    # seeds near 2**64 make seed + r wrap around for some rows
    words = derived_words(seed, count, k)
    assert words.shape == (count, k) and words.dtype == np.uint64
    for r in range(count):
        stream = derive_stream(seed, r)
        assert [int(w) for w in words[r]] == [stream.next_uint64()
                                             for _ in range(k)]


def test_derived_words_wraps_and_rejects_negative_sizes():
    words = derived_words(2**64 - 1, 3, 2)
    assert [int(w) for w in words[1]] == _reference(0, 2)
    with pytest.raises(ValueError):
        derived_words(0, -1, 2)
    with pytest.raises(ValueError):
        derived_words(0, 2, -1)


def test_randoms_equal_scalar_draws():
    # the reference words, as (w >> 11) * 2**-53 in Python arithmetic;
    # seed 2**64 - 3 makes the derived streams wrap around 2**64
    seed = 2**64 - 3
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    floats = block.randoms(50)
    assert floats.dtype == np.float64
    expected = [(w >> 11) * 2.0**-53 for w in _reference(seed, 51)]
    assert floats.tolist() == expected[:50]
    assert [scalar.random() for _ in range(51)] == expected
    assert block.random() == expected[50]
    rows = derived_randoms(seed, 5, 3)
    for r in range(5):
        assert rows[r].tolist() == [(w >> 11) * 2.0**-53
                                    for w in _reference(seed + r, 3)]
