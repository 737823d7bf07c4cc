import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdecomp import graph as graphmod
from netdecomp import (
    BarrierSpec,
    NodeMask,
    bfs_layers,
    complete_graph,
    connected_components,
    from_text,
    generate,
    graph_from_edges,
    induced_diameter,
    to_text,
)

from conftest import (
    fw_distances,
    fuzz_graph,
    largest_component_graph,
    ref_ball_sizes,
    uf_components,
)


def test_bfs_path_line_distances():
    g = generate("path", n=5)
    cum, dist = bfs_layers(g, NodeMask.full(5), [0], 4)
    assert cum == [1, 2, 3, 4, 5]
    assert dist.tolist() == [0, 1, 2, 3, 4]


def test_bfs_star_all_leaves_at_one():
    g = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    cum, _ = bfs_layers(g, NodeMask.full(5), [0], 1)
    assert cum == [1, 5]


def test_bfs_grid_corner_matches_floyd_warshall():
    g = generate("grid", rows=5, cols=5)
    cum, dist = bfs_layers(g, NodeMask.full(25), [0], 8)
    # frozen from the Floyd-Warshall oracle below
    assert cum == [1, 3, 6, 10, 15, 19, 22, 24, 25]
    d = fw_distances(g)
    oracle = [(d[0] <= r).sum() for r in range(9)]
    assert cum == oracle
    assert (dist == d[0]).all()


def test_bfs_requires_sources():
    g = generate("path", n=3)
    with pytest.raises(ValueError, match="no sources"):
        bfs_layers(g, NodeMask.full(3), [], 1)


def test_bfs_rejects_dead_source():
    g = generate("path", n=3)
    with pytest.raises(ValueError):
        bfs_layers(g, NodeMask.full(3).without([1]), [1], 1)


def test_bfs_saturation_pads():
    g = generate("path", n=3)
    cum, _ = bfs_layers(g, NodeMask.full(3), [1], 10)
    assert cum == [1, 3] + [3] * 9


def test_components_dead_middle_node():
    g = generate("path", n=5)
    comps = connected_components(g, NodeMask.full(5).without([2]))
    assert [c.tolist() for c in comps] == [[0, 1], [3, 4]]


def test_components_connected_graph_single():
    g = complete_graph(6)
    comps = connected_components(g, NodeMask.full(6))
    assert len(comps) == 1 and comps[0].tolist() == list(range(6))


def test_components_match_union_find_oracle():
    rng = np.random.default_rng(7)
    g = generate("gnp", 42, n=20, p=0.1)
    for _ in range(20):
        alive = rng.random(20) < 0.7
        mask = NodeMask(alive)
        ours = {frozenset(int(v) for v in c) for c in connected_components(g, mask)}
        oracle = set(uf_components(g, mask))
        assert ours == oracle


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_bfs_cumulative_sizes_monotone_and_capped(seed):
    rng = np.random.default_rng(seed)
    g = fuzz_graph(rng, max_n=60)
    alive = rng.random(g.n) < 0.8
    if not alive.any():
        alive[0] = True
    mask = NodeMask(alive)
    src = [int(np.flatnonzero(alive)[0])]
    cum, dist = bfs_layers(g, mask, src, g.n)
    assert all(a <= b for a, b in zip(cum, cum[1:]))
    assert cum[-1] <= int(alive.sum())
    oracle = ref_ball_sizes(g, set(np.flatnonzero(alive).tolist()), src, g.n)
    assert cum == oracle


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_bfs_distances_match_floyd_warshall(seed):
    rng = np.random.default_rng(seed)
    g = fuzz_graph(rng, max_n=40)
    mask = NodeMask.full(g.n)
    _, dist = bfs_layers(g, mask, [0], g.n)
    d = fw_distances(g)
    expect = np.where(d[0] >= 10**9, -1, d[0])
    assert (dist == expect).all()


def test_bfs_triangle_inequality_against_all_pairs_oracle_n200():
    g = generate("gnp", 99, n=200, p=0.02)
    mask = NodeMask.full(200)
    d = fw_distances(g)
    for src in (0, 57, 199):
        _, dist = bfs_layers(g, mask, [src], 200)
        expect = np.where(d[src] >= 10**9, -1, d[src])
        assert (dist == expect).all()
        # triangle inequality across every edge
        for u in range(200):
            if dist[u] >= 0:
                for v in g.adj[u]:
                    assert dist[v] >= 0 and abs(dist[v] - dist[u]) <= 1


def test_components_partition_alive_set():
    rng = np.random.default_rng(3)
    for _ in range(30):
        g = fuzz_graph(rng, max_n=80)
        alive = rng.random(g.n) < 0.6
        mask = NodeMask(alive)
        comps = connected_components(g, mask)
        assert sum(len(c) for c in comps) == int(alive.sum())
        seen = np.concatenate([c for c in comps]) if comps else np.zeros(0)
        assert len(set(seen.tolist())) == len(seen)
        # no alive edge crosses two components
        owner = {}
        for i, c in enumerate(comps):
            for v in c.tolist():
                owner[v] = i
        for u in range(g.n):
            if alive[u]:
                for v in g.adj[u]:
                    if alive[v]:
                        assert owner[u] == owner[v]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_from_nodes_keeps_sorted_unique_ids(data):
    n = data.draw(st.integers(1, 60))
    nodes = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    array = np.asarray(nodes, dtype=np.int64)
    mask = NodeMask.from_nodes(n, array if data.draw(st.booleans()) else iter(nodes))
    expect = np.flatnonzero(mask.alive)
    assert expect.tolist() == sorted(set(nodes))
    assert mask.count() == expect.size
    assert mask.node_ids().tolist() == expect.tolist()
    assert bytes(mask.as_bytes()) == mask.alive.tobytes()
    assert array.flags.writeable  # the caller's array is copied, not frozen


def test_from_nodes_rejects_out_of_range_ids():
    for nodes in ([5], [-1, 2]):
        with pytest.raises(ValueError, match="out of range"):
            NodeMask.from_nodes(5, nodes)


def test_traversals_share_one_workspace_per_graph():
    g = generate("path", n=9)
    assert g.scratch is g.scratch
    mask = NodeMask.from_nodes(9, [0, 1, 2, 4, 5, 7])
    first = [c.tolist() for c in connected_components(g, mask)]
    bfs_layers(g, mask, [4], 3)  # another traversal in between
    assert [c.tolist() for c in connected_components(g, mask)] == first == [[0, 1, 2], [4, 5], [7]]


# ----------------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------------


def test_generate_path_single_node():
    g = generate("path", n=1)
    assert g.n == 1 and g.m == 0


def test_generate_barrier_k4_subdivision_counts():
    # base K4: 4 nodes, 6 edges; each edge becomes a 3-edge path
    g = generate("barrier", 0, base_nodes=4, degree=3, subdivision_length=3)
    assert g.n == 4 + 6 * 2
    assert g.m == 6 * 3
    degs = np.diff(g.indptr)
    assert (np.sort(degs)[-4:] == 3).all()  # base nodes keep degree 3
    assert (degs[4:] == 2).all()  # internal path nodes


def test_generate_barrier_spec_invariant():
    spec = BarrierSpec(base_nodes=8, degree=3, subdivision_length=5, seed=1)
    g = generate("barrier", 1, spec=spec)
    assert g.n == spec.expected_nodes
    assert g.m == spec.expected_edges


def test_barrier_every_base_edge_is_a_path():
    g = generate("barrier", 2, base_nodes=6, degree=3, subdivision_length=4)
    degs = np.diff(g.indptr)
    internal = np.flatnonzero(degs == 2)
    assert len(internal) == (6 * 3 // 2) * 3
    # walking from any internal node in both directions hits base nodes
    # within subdivision_length steps total
    for v in internal.tolist()[:6]:
        a, b = g.adj[v]
        seen = {v}
        ends = []
        for start in (a, b):
            prev, cur = v, start
            steps = 1
            while degs[cur] == 2:
                nxt = [w for w in g.adj[cur] if w != prev][0]
                prev, cur = cur, nxt
                steps += 1
            ends.append((cur, steps))
        assert ends[0][1] + ends[1][1] == 4


def test_generate_regular_two_seeds_differ():
    g1 = generate("regular_expander", 1, n=100, deg=4)
    g2 = generate("regular_expander", 2, n=100, deg=4)
    assert (np.diff(g1.indptr) == 4).all()
    assert (np.diff(g2.indptr) == 4).all()
    assert sorted(g1.edges()) != sorted(g2.edges())


def test_generate_regular_rejects_odd_product():
    with pytest.raises(ValueError):
        generate("regular_expander", 0, n=5, deg=3)


def test_generate_gnp_deterministic_and_valid():
    a = generate("gnp", 11, n=60, p=0.1)
    b = generate("gnp", 11, n=60, p=0.1)
    assert sorted(a.edges()) == sorted(b.edges())
    with pytest.raises(ValueError):
        generate("gnp", 0, n=10, p=1.5)


def test_generate_unknown_kind():
    with pytest.raises(ValueError):
        generate("torus", n=5)


def test_graph_simple_invariants_on_generators():
    rng = np.random.default_rng(5)
    for _ in range(15):
        g = fuzz_graph(rng, max_n=60)
        for u in range(g.n):
            nbrs = g.adj[u]
            assert list(nbrs) == sorted(set(nbrs))
            assert u not in nbrs
            for v in nbrs:
                assert u in g.adj[v]


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 4)], "out of range"),
        ([(-1, 0)], "out of range"),
        ([(2, 2)], "self-loop at node 2"),
        ([(0, 1), (1, 0)], r"duplicate edge \(0, 1\)"),
    ],
)
def test_graph_from_edges_rejects_bad_edges(edges, message):
    with pytest.raises(ValueError, match=message):
        graph_from_edges(4, edges)


def test_graph_from_edges_empty_list_gives_isolated_nodes():
    g = graph_from_edges(3, [])
    assert g.n == 3 and g.m == 0
    assert g.indptr.tolist() == [0, 0, 0, 0]
    assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int64
    assert g.adj == ([], [], [])


def test_negative_node_count_names_n():
    with pytest.raises(ValueError, match="n=-1"):
        graph_from_edges(-1, [])
    with pytest.raises(ValueError, match="n=-1"):
        from_text("-1 0\n")


def test_graph_from_edges_ignores_order_and_orientation():
    rng = np.random.default_rng(21)
    for _ in range(30):
        g = fuzz_graph(rng, max_n=60)
        edges = np.asarray(g.edges(), dtype=np.int64).reshape(-1, 2)
        edges = edges[rng.permutation(len(edges))]
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip, ::-1]
        h = graph_from_edges(g.n, edges.tolist())
        assert np.array_equal(h.indptr, g.indptr)
        assert np.array_equal(h.indices, g.indices)
        nbrs = {v: set() for v in range(g.n)}
        for u, v in edges.tolist():
            nbrs[u].add(v)
            nbrs[v].add(u)
        assert list(h.adj) == [sorted(nbrs[v]) for v in range(g.n)]


# ----------------------------------------------------------------------------
# text format
# ----------------------------------------------------------------------------


def test_text_roundtrip_identity():
    rng = np.random.default_rng(9)
    for _ in range(10):
        g = fuzz_graph(rng, max_n=40)
        text = to_text(g)
        assert to_text(from_text(text)) == text
        assert text.startswith(f"{g.n} {g.m}\n")


def test_text_rejects_bad_edges():
    with pytest.raises(ValueError):
        from_text("3 1\n2 1\n")  # u >= v
    with pytest.raises(ValueError):
        from_text("3 2\n0 1\n")  # count mismatch
    for text in (
        "3 2\n0 1\n1 2 0\n",  # three tokens
        "3 2\n0 1\n2\n",  # one token
        "3 1\n0 x\n",  # non-integer token
        "3 1\n1 3\n",  # v >= n
    ):
        with pytest.raises(ValueError):
            from_text(text)


# ----------------------------------------------------------------------------
# induced diameter
# ----------------------------------------------------------------------------


def _fuzz_node_set(rng: np.random.Generator) -> tuple:
    """A fuzz graph of at most 120 nodes and a node set in it: the whole
    graph, its largest component or a random subset (often disconnected)."""
    pick = int(rng.integers(3))
    g = fuzz_graph(rng, max_n=120, connected=pick == 1)
    if pick < 2:
        return g, list(range(g.n))
    k = int(rng.integers(1, g.n + 1))
    return g, sorted(rng.choice(g.n, size=k, replace=False).tolist())


def test_induced_diameter_matches_floyd_warshall(monkeypatch):
    # each set is measured twice: with the module's constants (bounds met or
    # the bitset finisher, always exact) and with a budget of 7 runs and no
    # bitset finisher (exact, or a certified upper bound labelled inexact)
    calls = {"bitset": 0}
    bitset = graphmod._diameter_bitset

    def counted(*args):
        calls["bitset"] += 1
        return bitset(*args)

    monkeypatch.setattr(graphmod, "_diameter_bitset", counted)
    seen = collections.Counter()
    rng = np.random.default_rng(13)
    for _ in range(220):
        g, nodes = _fuzz_node_set(rng)
        sub = fw_distances(g, alive=set(nodes))[np.ix_(nodes, nodes)]
        true_d = int(sub.max())
        before = calls["bitset"]
        res = induced_diameter(g, nodes)
        assert res.connected == (true_d < 10**9)
        if not res.connected:
            assert not res.exact
            seen["disconnected"] += 1
            continue
        assert res.exact and res.value == true_d
        seen["bitset" if calls["bitset"] > before else "bounds met"] += 1
        with monkeypatch.context() as m:
            m.setattr(graphmod, "_BFS_BUDGET", 7)
            m.setattr(graphmod, "_EXACT_THRESHOLD", 0)
            res = induced_diameter(g, nodes)
        if res.exact:
            assert res.value == true_d
        else:
            assert res.value >= true_d
            seen["bound"] += 1
    assert set(seen) == {"disconnected", "bounds met", "bitset", "bound"}, seen


def test_induced_diameter_bound_when_budget_runs_out(monkeypatch):
    monkeypatch.setattr(graphmod, "_BFS_BUDGET", 7)
    monkeypatch.setattr(graphmod, "_EXACT_THRESHOLD", 0)
    g = largest_component_graph(generate("gnp", seed=4, n=120, p=0.05))
    res = induced_diameter(g, range(g.n))
    assert res.connected and res.exact is False
    assert res.value >= fw_distances(g).max()


def test_induced_diameter_exact_on_grid_and_long_path():
    g = generate("grid", rows=64, cols=64)
    assert induced_diameter(g, range(g.n)) == graphmod.DiameterResult(126, True, True)
    g = generate("path", n=20000)
    assert induced_diameter(g, range(g.n)) == graphmod.DiameterResult(19999, True, True)
