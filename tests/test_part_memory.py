"""A call on a small part of a big graph allocates part-sized memory, and a
call with a wide growth window allocates for the layers its BFS explores.

The strong pipeline calls the weak black box, and the component split, on
thousands of small parts; each such call must cost O(part), not O(n). The
graph, its adjacency lists and the part's mask are built before measuring,
and each call runs once unmeasured first, so that the graph's traversal
workspace exists (it is built once per graph, like the adjacency lists).
"""

from __future__ import annotations

import tracemalloc

import pytest

from netdecomp import (
    NodeMask,
    carve_strong,
    connected_components,
    cut_or_cluster,
    generate,
    graph_from_edges,
    grow_ball,
    linial_saks_black_box,
    trivial_black_box,
)

N = 200_000
PART = range(100_000, 100_040)  # 40 consecutive nodes: a connected part
KIB = 1024


@pytest.fixture(scope="module")
def part():
    g = generate("path", n=N)
    g.adj
    mask = NodeMask.from_nodes(N, PART)
    mask.as_bytes()
    return g, mask


def peak_bytes(call) -> int:
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


CALLS = {
    "connected_components": (lambda g, m: connected_components(g, m), 64 * KIB),
    "trivial_black_box": (lambda g, m: trivial_black_box(g, m, 0.1, 3), 64 * KIB),
    "linial_saks_black_box": (lambda g, m: linial_saks_black_box(g, m, 0.1, 3), 64 * KIB),
    "grow_ball": (lambda g, m: grow_ball(g, m, 100_020, 0, 6, 0.5), 64 * KIB),
    "cut_or_cluster": (lambda g, m: cut_or_cluster(g, m, 0.5), 64 * KIB),
    # builds an n-length mask per part; bounded by the few alive at a time
    "carve_strong": (lambda g, m: carve_strong(g, m, 0.5, 3, linial_saks_black_box), 1024 * KIB),
}


@pytest.mark.parametrize("name", list(CALLS))
def test_part_sized_call_allocates_part_sized_memory(part, name):
    g, mask = part
    call, bound = CALLS[name]
    peak = peak_bytes(lambda: call(g, mask))
    assert peak < bound, f"{name} on a 40-node part of {N} nodes peaked at {peak} bytes"


@pytest.mark.parametrize("name", list(CALLS))
def test_part_sized_call_leaves_the_numpy_twins_unallocated(part, name):
    # no BFS layer of a 40-node part is wide enough for the numpy expander,
    # whose n-length twins would cost 16 bytes a node of the whole graph
    g, mask = part
    CALLS[name][0](g, mask)
    assert g.scratch.seen is None and g.scratch.first is None


def test_wide_traversal_allocates_the_numpy_twins_once_per_graph():
    # a star's 200 leaves form one wide BFS layer, beside a long path that
    # makes the twins' 2 * 8n bytes stand out: the first call allocates
    # them, a later call on the same graph reuses them
    n = 200_000
    leaves = [(0, v) for v in range(1, 201)]
    path = [(v, v + 1) for v in range(201, n - 1)]
    g = graph_from_edges(n, leaves + path)
    g.adj
    star = NodeMask.from_nodes(n, range(201))
    star.as_bytes()
    cut_or_cluster(g, star, 0.5)
    seen, first = g.scratch.seen, g.scratch.first
    assert seen is not None and first is not None
    peak = peak_bytes(lambda: cut_or_cluster(g, star, 0.5))
    assert g.scratch.seen is seen and g.scratch.first is first
    assert peak < 64 * KIB, f"a wide traversal after the first peaked at {peak} bytes"


WIDE_WINDOWS = {
    # growth window of 10**7 layers on a path of 50 nodes
    "grow_ball": lambda g, m: grow_ball(g, m, 0, 0, 10**7, 0.5),
    # eps 1e-3 gives a final-ball window of about 34,000 layers
    "cut_or_cluster": lambda g, m: cut_or_cluster(g, m, 1e-3),
}


@pytest.mark.parametrize("name", list(WIDE_WINDOWS))
def test_wide_growth_window_allocates_the_explored_depth(name):
    # the BFS saturates the path long before the window ends; one saturated
    # ball size past that point ends the search, however wide the window
    g = generate("path", n=50)
    mask = NodeMask.full(50)
    call = WIDE_WINDOWS[name]
    peak = peak_bytes(lambda: call(g, mask))
    assert peak < 64 * KIB, f"{name} with a wide window on a 50-node path peaked at {peak} bytes"
