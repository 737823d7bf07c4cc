"""Deterministic seed derivation.

All randomized pieces (generators, the randomized weak carving) receive their
entropy through `derive_seed`, keyed on structural identifiers (iteration
index, component min-id, attempt counter) rather than on execution order.
This keeps every run a pure function of (graph, eps, master seed) no matter
how components are scheduled.

A child seed is `SeedSequence([seed, *parts]).generate_state(1, uint64)`,
each int masked to 63 bits. numpy reads a list of ints as the concatenation
of each int's 32-bit little-endian words (one word for an int below 2**32,
zero included), so both functions below hand it that uint32 array ready
made, which is cheaper than letting it convert the list, and gives the same
state.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 63) - 1
_LOW = (1 << 32) - 1


def _child_words(seed: int, parts) -> np.ndarray:
    """The two uint32 words of the child seed of (seed, *parts), low first."""
    words = []
    for x in (seed, *parts):
        x = int(x) & _MASK
        if x > _LOW:
            words += (x & _LOW, x >> 32)
        else:
            words.append(x)
    entropy = np.array(words, dtype=np.uint32)
    return np.random.SeedSequence(entropy).generate_state(2, np.uint32)


def derive_seed(seed: int, *parts: int) -> int:
    """Derive a child seed from a master seed and structural context ints."""
    lo, hi = _child_words(seed, parts).tolist()
    return lo | hi << 32


def rng_from(seed: int, *parts: int) -> np.random.Generator:
    """`np.random.default_rng(derive_seed(seed, *parts))`, built from the
    child seed's two words: numpy pads an int's words with zeros to its
    4-word pool, so the words [lo, hi] seed the same stream as the int."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_child_words(seed, parts))))
