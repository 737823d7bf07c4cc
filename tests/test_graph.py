import collections
import contextlib
import importlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from netdecomp import graph as graphmod
from netdecomp import (
    Graph,
    NodeMask,
    complete_graph,
    connected_components,
    decompose,
    from_text,
    generate,
    graph_from_edges,
    linial_saks_black_box,
    make_refined_carver,
    to_text,
)
from netdecomp.refine import _census, _coverage_radius

from conftest import (
    count_calls,
    fuzz_graph,
    ref_ball_sizes,
    ref_coverage_radius,
    ref_gnp,
    ref_skips,
    uf_components,
)
from oracles import fw_distances

# the package's `refine` function shadows the submodule of the same name
refinemod = importlib.import_module("netdecomp.refine")


def _layers(g, mask, source, r_max=None):
    """`_bfs_layers` from `source`: its cum, and each node's distance read
    off the result as the index of its layer (-1 where unreached)."""
    cum, touched = graphmod._bfs_layers(g.adj, mask.as_bytes(), source, g.scratch, r_max)
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[touched] = np.repeat(np.arange(len(cum)), np.diff(cum, prepend=0))
    return cum, dist


def test_bfs_path_line_distances():
    g = generate("path", n=5)
    cum, dist = _layers(g, NodeMask.full(5), 0, 4)
    assert cum == [1, 2, 3, 4, 5]
    assert dist.tolist() == [0, 1, 2, 3, 4]


def test_bfs_star_all_leaves_at_one():
    g = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    cum, _ = _layers(g, NodeMask.full(5), 0, 1)
    assert cum == [1, 5]


def test_bfs_grid_corner_matches_floyd_warshall():
    g = generate("grid", rows=5, cols=5)
    cum, dist = _layers(g, NodeMask.full(25), 0, 8)
    # frozen from the Floyd-Warshall oracle below
    assert cum == [1, 3, 6, 10, 15, 19, 22, 24, 25]
    d = fw_distances(g)
    oracle = [(d[0] <= r).sum() for r in range(9)]
    assert cum == oracle
    assert (dist == d[0]).all()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bfs_kernel_parents_are_one_layer_closer(data):
    # the layer sizes match the oracle, and every reached node but the
    # source has as parent an alive neighbour one layer closer: together
    # these make each node's layer its exact distance from the source
    g = fuzz_graph(np.random.default_rng(data.draw(st.integers(0, 2**31 - 1))), max_n=60)
    alive = np.asarray(data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)))
    alive_ids = np.flatnonzero(alive).tolist()
    assume(alive_ids)
    source = data.draw(st.sampled_from(alive_ids))
    r_max = data.draw(st.none() | st.integers(0, g.n))
    scratch = g.scratch
    cum, touched = graphmod._bfs_layers(
        g.adj, NodeMask(alive).as_bytes(), source, scratch, r_max=r_max
    )
    depth = len(cum) - 1
    assert r_max is None or depth <= r_max
    alive_set = set(alive_ids)
    assert cum == ref_ball_sizes(g, alive_set, [source], depth)
    assert len(set(touched)) == len(touched) == cum[-1]
    layer = {v: r for r in range(depth + 1) for v in touched[cum[r - 1] if r else 0 : cum[r]]}
    assert touched[: cum[0]] == [source]
    for v, r in layer.items():
        p = scratch.parent[v]
        if r == 0:
            assert p == -1
        else:
            assert p in alive_set and p in g.adj[v] and layer.get(p) == r - 1


def ref_census(g, alive: set[int], seeds, stop: int) -> tuple[list[int], int]:
    """FIFO BFS from the distinct seeds in order, neighbours in adjacency
    order: the discovery order up to and including the discoveries of the
    first expanded node whose scan brings the count to `stop` (the seeds
    alone if they reach it), and the depth of the last discovery."""
    dist = dict.fromkeys(seeds, 0)
    q = collections.deque(dist)
    while q and len(dist) < stop:
        u = q.popleft()
        for w in g.adj[u]:
            if w in alive and w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return list(dist), max(dist.values())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_census_stops_at_the_frontier_node_that_reaches_its_target(data):
    _check_census_against_reference(data)


def _check_census_against_reference(data):
    # the layers before the last, the coverage radius, and the BFS order up
    # to the stopping node (so the last, possibly partial, layer) all match
    # an independent BFS; a component smaller than stop is covered whole
    g = fuzz_graph(np.random.default_rng(data.draw(st.integers(0, 2**31 - 1))), max_n=60)
    alive = np.asarray(data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)))
    alive_ids = np.flatnonzero(alive).tolist()
    assume(alive_ids)
    seeds = data.draw(st.lists(st.sampled_from(alive_ids), min_size=1, max_size=6))
    target_times_3 = data.draw(st.integers(1, 3 * len(alive_ids) + 3))
    stop = (target_times_3 + 2) // 3
    alive_set = set(alive_ids)
    cum, touched = _census(g.adj, NodeMask(alive).as_bytes(), seeds, g.scratch, target_times_3)
    depth = len(cum) - 1
    full = ref_ball_sizes(g, alive_set, seeds, len(alive_ids))
    assert cum[:-1] == full[:depth]
    assert len(set(touched)) == len(touched) == cum[-1]
    try:
        radius = ref_coverage_radius(g, alive_set, seeds, target_times_3 / 3)
    except AssertionError:  # the seeds' component holds fewer than stop nodes
        radius = None
    assert _coverage_radius(cum, target_times_3) == radius
    order, ref_depth = ref_census(g, alive_set, seeds, stop)
    assert depth == ref_depth
    assert touched == order


@contextlib.contextmanager
def _wide_layer(width: int):
    """Run the algorithms' BFS kernels with `_WIDE_LAYER` = width (the census
    reads its own import of the name)."""
    with mock.patch.object(graphmod, "_WIDE_LAYER", width), mock.patch.object(
        refinemod, "_WIDE_LAYER", width
    ):
        yield


def _kernel_state(g, alive, source, r_max):
    """`_bfs_layers`' cum and touched, each touched node's parent, and
    whether each touched node carries the traversal's stamp."""
    scratch = g.scratch
    cum, touched = graphmod._bfs_layers(g.adj, alive, source, scratch, r_max)
    gen = scratch.gen
    return cum, touched, [scratch.parent[v] for v in touched], all(
        scratch.stamp[v] == gen for v in touched
    )


@pytest.mark.parametrize("wide", [1, 3])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_bfs_kernel_numpy_layers_match_the_node_loop(wide, data):
    # width 1 expands every layer in numpy, 3 switches between the two
    # within most traversals: layers, BFS order, parents and stamps all
    # equal the node loop's, and the layers still give the distances
    g = fuzz_graph(np.random.default_rng(data.draw(st.integers(0, 2**31 - 1))), max_n=60)
    alive = np.asarray(data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)))
    alive_ids = np.flatnonzero(alive).tolist()
    assume(alive_ids)
    source = data.draw(st.sampled_from(alive_ids))
    r_max = data.draw(st.none() | st.integers(0, g.n))
    mask = NodeMask(alive)
    with _wide_layer(g.n + 1):
        want = _kernel_state(g, mask.as_bytes(), source, r_max)
        want_cum, want_dist = _layers(g, mask, source, r_max)
    with _wide_layer(wide):
        got = _kernel_state(g, mask.as_bytes(), source, r_max)
        cum, dist = _layers(g, mask, source, r_max)
    assert got == want and got[3]
    assert cum == want_cum == got[0] and (dist == want_dist).all()


@pytest.mark.parametrize("wide", [1, 3])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_preorder_read_off_wide_layers_equals_the_walk(wide, data):
    # width 1 reads every tree's preorder off its BFS layers in numpy, 3
    # every tree whose layers average 3 nodes or more: the order and the
    # eccentricity equal those of the depth-first walk, inside a drawn mask
    # and in the whole graph, whose trees branch more
    g = fuzz_graph(np.random.default_rng(data.draw(st.integers(0, 2**31 - 1))), max_n=60)
    alive = np.asarray(data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)))
    alive_ids = np.flatnonzero(alive).tolist()
    assume(alive_ids)
    root = data.draw(st.sampled_from(alive_ids))
    for mask in (NodeMask(alive), NodeMask.full(g.n)):
        with _wide_layer(g.n + 1):
            want = graphmod._preorder(g.adj, mask.as_bytes(), root, g.scratch)
        with _wide_layer(wide):
            got = graphmod._preorder(g.adj, mask.as_bytes(), root, g.scratch)
        assert got == want


@pytest.mark.parametrize("wide", [1, 3])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_census_numpy_layers_match_the_reference(wide, data):
    # the census's checks above, with layers and seed lists expanded in
    # numpy (width 1) or switching between numpy and the node loop (3); the
    # chunks of a wide layer then start at 1 or 3 rows, so the stop falls
    # inside, at the end of and after a chunk
    with _wide_layer(wide):
        _check_census_against_reference(data)


def test_wide_kernels_on_a_gnp_wide_graph_equal_the_node_loop(monkeypatch):
    # the refined pipeline on a gnp-wide graph: its census, preorder and
    # ball layers go through the expander, and the clusters and the ledger
    # equal those of a run whose kernels expand every layer node by node
    text = to_text(generate("gnp", seed=1, n=20000, p=8 / 20000))

    def run():
        d, ledger = decompose(from_text(text), 0, make_refined_carver(linial_saks_black_box))
        return d.to_json(), ledger.to_json()

    with _wide_layer(20001):
        want = run()
    calls = count_calls(monkeypatch, graphmod, "_expand")
    monkeypatch.setattr(refinemod, "_expand", graphmod._expand)
    assert run() == want
    assert calls["_expand"] > 0


def test_census_broom_stops_mid_layer():
    # 100 seeds with 10 private leaves each: the first five seeds' scans
    # bring the count to 150, so the other 950 leaves stay unscanned
    edges = [(i, 100 + 10 * i + j) for i in range(100) for j in range(10)]
    g = graph_from_edges(1100, edges)
    cum, touched = _census(
        g.adj, NodeMask.full(1100).as_bytes(), list(range(100)), g.scratch, 3 * 150
    )
    assert cum == [100, 150]
    assert touched == list(range(150))


def test_components_dead_middle_node():
    g = generate("path", n=5)
    comps = connected_components(g, NodeMask.from_nodes(5, [0, 1, 3, 4]))
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
    src = int(np.flatnonzero(alive)[0])
    cum, _ = _layers(g, mask, src)
    assert all(a <= b for a, b in zip(cum, cum[1:]))
    assert cum[-1] <= int(alive.sum())
    # the BFS stops only once the ball stops growing
    oracle = ref_ball_sizes(g, set(np.flatnonzero(alive).tolist()), [src], g.n)
    assert cum + [cum[-1]] * (g.n + 1 - len(cum)) == oracle


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_bfs_distances_match_floyd_warshall(seed):
    rng = np.random.default_rng(seed)
    g = fuzz_graph(rng, max_n=40)
    mask = NodeMask.full(g.n)
    _, dist = _layers(g, mask, 0)
    d = fw_distances(g)
    expect = np.where(d[0] >= 10**9, -1, d[0])
    assert (dist == expect).all()


def test_bfs_triangle_inequality_against_all_pairs_oracle_n200():
    g = generate("gnp", 99, n=200, p=0.02)
    mask = NodeMask.full(200)
    d = fw_distances(g)
    for src in (0, 57, 199):
        _, dist = _layers(g, mask, src, 200)
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


@settings(max_examples=200, deadline=None)
@given(
    a=st.lists(st.integers(-40, 40), unique=True).map(sorted),
    drop=st.lists(st.integers(-60, 60), max_size=30),
)
def test_setdiff_equals_numpy_setdiff1d(a, drop):
    # drop may repeat ids, be unsorted and hold ids that are not in a
    ids = np.asarray(a, dtype=np.int64)
    expect = np.setdiff1d(ids, np.asarray(drop, dtype=np.int64))
    got = graphmod._setdiff(ids, np.asarray(drop, dtype=np.int64))
    assert got.dtype == expect.dtype and got.tolist() == expect.tolist()
    assert graphmod._setdiff(ids, drop).tolist() == expect.tolist()


def test_from_nodes_rejects_out_of_range_ids():
    for nodes in ([5], [-1, 2]):
        with pytest.raises(ValueError, match="out of range"):
            NodeMask.from_nodes(5, nodes)


def test_mask_owns_a_copy_of_its_array():
    a = np.ones(5, dtype=bool)
    mask = NodeMask(a)
    mask.as_bytes()
    a[0] = False  # the caller's array is not the mask's
    assert mask.alive.all() and mask.count() == 5
    assert bytes(mask.as_bytes()) == mask.alive.tobytes() == b"\x01" * 5
    assert mask.node_ids().tolist() == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        mask.alive[1] = False  # nor can the mask's own view change
    assert a.flags.writeable


def test_traversals_share_one_workspace_per_graph():
    g = generate("path", n=9)
    assert g.scratch is g.scratch
    mask = NodeMask.from_nodes(9, [0, 1, 2, 4, 5, 7])
    first = [c.tolist() for c in connected_components(g, mask)]
    _layers(g, mask, 4, 3)  # another traversal in between
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
    base_nodes, degree, ell = 8, 3, 5
    g = generate("barrier", 1, base_nodes=base_nodes, degree=degree, subdivision_length=ell)
    base_edges = base_nodes * degree // 2
    assert g.n == base_nodes + base_edges * (ell - 1)
    assert g.m == base_edges * ell


@pytest.mark.parametrize(
    "base_nodes, degree, ell, message",
    [
        (8, 2, 3, "degree must be >= 3"),
        (8, 3, 0, "subdivision length must be >= 1"),
        (7, 3, 3, "n \\* deg must be even"),
        (4, 4, 3, "need 0 <= deg < n"),
    ],
)
def test_generate_barrier_rejects_bad_parameters(base_nodes, degree, ell, message):
    with pytest.raises(ValueError, match=message):
        generate("barrier", 0, base_nodes=base_nodes, degree=degree, subdivision_length=ell)


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
    assert to_text(g1) != to_text(g2)


def test_generate_regular_rejects_odd_product():
    with pytest.raises(ValueError):
        generate("regular_expander", 0, n=5, deg=3)


def test_generate_gnp_deterministic_and_valid():
    a = generate("gnp", 11, n=60, p=0.1)
    b = generate("gnp", 11, n=60, p=0.1)
    assert to_text(a) == to_text(b)
    with pytest.raises(ValueError):
        generate("gnp", 0, n=10, p=1.5)


def test_generate_regular_gives_up_with_value_error():
    # K7 is the only 6-regular graph on 7 nodes: pairings almost never hit it
    with pytest.raises(ValueError, match=r"6-regular graph on n=7 nodes in 10000 pairings"):
        generate("regular_expander", 0, n=7, deg=6)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    p=st.sampled_from([0.0, 1e-12, 1e-9, 0.999, 1.0])
    | st.floats(0.0, 1.0, allow_subnormal=False),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, p=1e-9, seed=0)  # a skip capped at total would draw the edge (0, 1)
@example(n=1, p=0.5, seed=0)  # a skip capped at total would never end the walk
def test_gnp_draws_the_scalar_oracles_graph(n, p, seed):
    assert to_text(generate("gnp", seed, n=n, p=p)) == to_text(ref_gnp(n, p, seed))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [1e-320, 1e-300, 1e-12, 8 / 20000, 0.5, 0.999, 1 - 1e-12])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 300])
def test_gnp_matches_the_scalar_skips_at_edge_cases(n, p):
    for seed in (0, 1, 2**32 - 1):
        assert to_text(generate("gnp", seed, n=n, p=p)) == to_text(ref_gnp(n, p, seed))


def _adversarial_draws(lq: float, ks) -> np.ndarray:
    """Draws whose quotient log(1 - u) / lq sits on an integer k, for each k
    in ks, with the three floats on either side, plus both ends of [0, 1)."""
    u = -np.expm1(np.asarray(ks, dtype=np.float64) * lq)  # 1 - exp(k * lq)
    down, up, near = u, u, [u]
    for _ in range(3):
        down, up = np.nextafter(down, 0.0), np.nextafter(up, 1.0)
        near += [down, up]
    u = np.concatenate([[0.0, math.nextafter(1.0, 0.0)], *near])
    return u[(u >= 0.0) & (u < 1.0)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("total", [0, 1, 3, 10**6, 2**53 + 1, 2**62])
def test_skips_equal_the_scalar_expression_on_adversarial_draws(total):
    # the fixed p cover a subnormal, an infinite and a sub-1 quotient; the
    # random sweep puts draws where np.log and math.log round differently
    # across an integer (20 of its 229422 draws with numpy 2.4 on x86-64)
    rng = np.random.default_rng(15)
    fixed = [5e-324, 1e-320, 1e-300, 1e-12, 8 / 20000, 0.3, 0.5, 0.999, 1 - 1e-12]
    for p in fixed + (10 ** rng.uniform(-15, -0.01, 400)).tolist():
        lq = math.log1p(-p)
        ks = [*range(1, 40), *rng.integers(1, int(min(1e12, 30 / p)) + 2, 40).tolist(),
              2**40, 2**52, 2**53]
        draws = _adversarial_draws(lq, ks)
        skips = graphmod._skips(draws, lq, total)
        assert skips.dtype == np.int64
        assert skips.tolist() == ref_skips(draws.tolist(), lq, total), p


def test_gnp_subnormal_p_draws_no_edges():
    # log(1 - u) / log(1 - p) overflows to infinity: the skip must still end
    # the walk, not raise OverflowError
    assert generate("gnp", 0, n=300, p=5e-324).m == 0


def test_graph_takes_no_adjacency_argument():
    g = generate("path", n=3)
    with pytest.raises(TypeError):
        Graph(n=3, indptr=g.indptr, indices=g.indices, _adj=g.adj)


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
        edges = graphmod._edge_array(g)
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


def test_graph_from_edges_matches_a_sorted_reference():
    rng = np.random.default_rng(33)
    for _ in range(60):
        n = int(rng.integers(2, 80))
        pairs = {tuple(sorted(rng.choice(n, 2, replace=False).tolist())) for _ in range(3 * n)}
        edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs]
        edges = [edges[i] for i in rng.permutation(len(edges))]
        nbrs = [sorted({b for a, b in pairs if a == v} | {a for a, b in pairs if b == v})
                for v in range(n)]
        g = graph_from_edges(n, edges)
        assert g.indptr.tolist() == [0, *np.cumsum([len(x) for x in nbrs]).tolist()]
        assert g.indices.tolist() == [w for x in nbrs for w in x]
        assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int64
        # an edge repeated in the reverse orientation is named as (min, max)
        x, y = edges[int(rng.integers(len(edges)))]
        with pytest.raises(ValueError, match=rf"duplicate edge \({min(x, y)}, {max(x, y)}\)$"):
            graph_from_edges(n, [*edges, (y, x)])


@pytest.mark.parametrize("n", [3_037_000_500, 4_000_000_000])
def test_graph_from_edges_refuses_n_squared_beyond_int64_before_allocating(monkeypatch, n):
    # n * n > 2**63 - 1, so the sort key src * n + dst could overflow; the
    # node count is refused before any n-sized array is requested
    def refuse(*args, **kwargs):
        raise AssertionError("an n-sized array was requested")

    monkeypatch.setattr(graphmod.np, "zeros", refuse)
    monkeypatch.setattr(graphmod.np, "bincount", refuse)
    with pytest.raises(ValueError, match=rf"node count n={n} is too large to allocate"):
        graph_from_edges(n, [(0, 1)])


@pytest.mark.parametrize(
    "kind, params",
    [
        ("path", {"n": 10**15}),
        ("gnp", {"n": 10**15, "p": 0.0}),
        ("gnp", {"n": 10**15, "p": 1e-300}),
        ("grid", {"rows": 10**9, "cols": 10**6}),
        ("regular_expander", {"n": 10**15, "deg": 4}),
    ],
)
def test_generate_too_large_to_allocate_names_n(kind, params):
    # 10**15 nodes need 7.1 PiB per id array: refused at once, never reserved
    with pytest.raises(ValueError, match=rf"node count n={10**15} is too large to allocate"):
        generate(kind, 0, **params)


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
        "1_0 0\n",  # int() reads 1_0 as 10
        "\u0663 2\n0 1\n1 2\n",  # an Arabic-Indic 3, which int() reads as 3
    ):
        with pytest.raises(ValueError):
            from_text(text)
