"""Measuring a k-node cluster allocates k-sized memory, not n-sized.

The verifiers measure every cluster of a decomposition, so each measurement
must cost O(k) in a graph of n nodes. A set of fewer than `_WIDE` nodes
slices its rows out of the graph's CSR; a larger one maps its rows
through a position array of n entries, which the verifiers allocate once
per call and hand to every measurement. The graph's Python adjacency lists
(`Graph.adj`, O(n) Python objects) are never built: a verifier run on a
graph just read from a file, with no decomposition before it, must not
build them either. Each call runs once unmeasured first.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from netdecomp import generate, induced_diameter
from netdecomp import verify as verifymod

N = 1_000_000
KIB = 1024


@pytest.fixture(scope="module")
def path():
    return generate("path", n=N)


def peak_bytes(call) -> int:
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_small_set_allocates_set_sized_memory(path):
    nodes = range(500_000, 500_040)
    assert len(nodes) < verifymod._WIDE
    peak = peak_bytes(lambda: induced_diameter(path, nodes))
    assert peak < 64 * KIB, f"a 40-node set of a {N}-node path peaked at {peak} bytes"
    assert path._adj is None, "measuring a small set built the graph's adjacency lists"


def test_wide_set_through_a_shared_buffer_allocates_no_n_sized_array(path):
    nodes = np.arange(500_000, 500_000 + 2 * verifymod._WIDE)
    positions = np.full(N, -1, dtype=np.int64)
    want = verifymod.DiameterResult(nodes.size - 1, True, True)
    shared = peak_bytes(lambda: verifymod._induced_diameter(path, nodes, positions))
    assert shared < 64 * KIB, f"a {nodes.size}-node set with the buffer peaked at {shared} bytes"
    assert verifymod._induced_diameter(path, nodes, positions) == want
    assert (positions == -1).all()
    # called alone, the same measurement allocates its own n entries
    alone = peak_bytes(lambda: induced_diameter(path, nodes))
    assert alone >= 8 * N
