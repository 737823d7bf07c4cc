"""derive_seed and rng_from against the plain formula they shortcut.

The reference is the definition: a SeedSequence over the list of ints,
each masked to 63 bits, read as one uint64; and default_rng of that seed.
Pinned literals catch a numpy release that changes SeedSequence itself,
which would move every digest rather than fail one test.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from netdecomp.seeding import derive_seed, rng_from

MASK = (1 << 63) - 1


def reference_seed(seed: int, *parts: int) -> int:
    entropy = [seed & MASK] + [int(p) & MASK for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def some_int(r: random.Random) -> int:
    """0, a small id, a one-word int, a two-word int, an int at or above
    2**63 (masked) or a negative int, with equal odds."""
    return [
        0,
        r.randrange(1, 1000),
        r.randrange(1000, 1 << 32),
        r.randrange(1 << 32, 1 << 63),
        r.randrange(1 << 63, 1 << 80),
        -r.randrange(1, 1 << 70),
    ][r.randrange(6)]


def test_same_integers_and_draws_as_the_reference():
    r = random.Random(2024)
    for _ in range(2500):
        seed = some_int(r)
        parts = [some_int(r) for _ in range(r.randrange(4))]
        child = reference_seed(seed, *parts)
        assert derive_seed(seed, *parts) == child, (seed, parts)
        ours, ref = rng_from(seed, *parts), np.random.default_rng(child)
        assert ours.random(2).tolist() == ref.random(2).tolist(), (seed, parts)
        assert ours.integers(1 << 62) == ref.integers(1 << 62), (seed, parts)


def test_numpy_int_parts():
    assert derive_seed(np.int64(5), np.int64(7), np.uint64(9)) == reference_seed(5, 7, 9)


@pytest.mark.parametrize("x", [0, 1, 12345, (1 << 32) - 1])
def test_a_zero_high_word_seeds_the_same_stream_as_the_int(x):
    # rng_from always hands numpy two words; a child seed below 2**32 (odds
    # 2**-32 per call, so random inputs never reach it) relies on numpy
    # padding an int's single word with zeros
    words = np.array([x, 0], dtype=np.uint32)
    ours = np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
    assert ours.random(3).tolist() == np.random.default_rng(x).random(3).tolist()


def test_pinned_child_seeds():
    assert derive_seed(0) == 15793235383387715774
    assert derive_seed(1, 2, 3) == 12997252459554536576
    assert derive_seed(2**63 + 5, -1, 2**40) == 18012347309687714370
    assert rng_from(0, 17, 2).integers(2**62) == 1569817443655201376
