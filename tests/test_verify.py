import collections
import functools

import numpy as np
import pytest

from netdecomp import (
    NodeMask,
    SteinerTree,
    StrongCarving,
    StrongCluster,
    RoundLedger,
    Violation,
    Violations,
    WeakCarving,
    WeakCluster,
    complete_graph,
    decompose,
    generate,
    graph_from_edges,
    induced_diameter,
    linial_saks_black_box,
    make_refined_carver,
    no_large_lowdiam_component,
    refined_diameter_bound,
    verify_decomposition,
    verify_strong_carving,
    verify_weak_carving,
)
from netdecomp import verify as verifymod
from netdecomp.decompose import DecompCluster, NetworkDecomposition

from conftest import count_calls, fuzz_graph, largest_component_graph
from oracles import (
    dense_no_large_lowdiam_component,
    dense_verify_decomposition,
    dense_verify_strong_carving,
    dense_verify_weak_carving,
    fw_distances,
)


def _decomp(n, assignments):
    clusters = [
        DecompCluster(id=i, color=color, nodes=np.asarray(nodes, dtype=np.int64), center=nodes[0])
        for i, (color, nodes) in enumerate(assignments)
    ]
    return NetworkDecomposition(n=n, colors=max(c for c, _ in assignments), clusters=clusters)


def _carving(clusters, dead, n):
    return StrongCarving(
        clusters=[
            StrongCluster(nodes=np.asarray(c, dtype=np.int64), center=c[0]) for c in clusters
        ],
        dead_black_box=np.asarray(dead, dtype=np.int64),
        dead_boundary=np.zeros(0, dtype=np.int64),
        ledger=RoundLedger(),
    )


def test_adjacent_same_color_witnessed():
    g = generate("path", n=2)
    d = _decomp(2, [(1, [0]), (1, [1])])
    violations = verify_decomposition(g, d, 2, 1)
    assert [v.kind for v in violations] == ["adjacent-same-color"]
    assert violations[0].witness["edge"] == [0, 1]


def test_adjacent_pair_witnessed_by_its_smallest_edge():
    # clusters [9, 16] and [10, 17] of one color touch along 9-10 and 16-17
    g = generate("path", n=20)
    rest = [v for v in range(20) if v not in (9, 10, 16, 17)]
    d = _decomp(20, [(1, [9, 16]), (1, [10, 17])] + [(2 + i, [v]) for i, v in enumerate(rest)])
    adjacent = [v for v in verify_decomposition(g, d, 100, 100) if v.kind == "adjacent-same-color"]
    assert [v.witness for v in adjacent] == [{"edge": [9, 10], "clusters": [0, 1]}]


def test_valid_two_coloring_of_p4():
    g = generate("path", n=4)
    d = _decomp(4, [(1, [0, 1]), (2, [2, 3])])
    assert verify_decomposition(g, d, 2, 1) == []


def test_uncovered_node_not_partition():
    g = generate("path", n=3)
    d = _decomp(3, [(1, [0, 1])])
    kinds = {v.kind for v in verify_decomposition(g, d, 2, 2)}
    assert "not-partition" in kinds


def test_repeated_cluster_id_checks_both_clusters():
    # two clusters with id 0: both are checked, so the same-colored edge 1-2
    # between them is found and nodes 0, 1 are not reported uncovered
    g = generate("path", n=4)
    d = _decomp(4, [(1, [0, 1]), (1, [2, 3])])
    for c in d.clusters:
        c.id = 0
    for verifier in (verify_decomposition, dense_verify_decomposition):
        violations = verifier(g, d, 2, 3)
        assert sorted(v.kind for v in violations) == ["adjacent-same-color", "not-partition"]
        assert [v.witness["reason"] for v in violations if v.kind == "not-partition"] == [
            "duplicate-id"
        ]
    adjacent = [v for v in verify_decomposition(g, d, 2, 3) if v.kind == "adjacent-same-color"]
    assert adjacent[0].witness == {"edge": [1, 2], "clusters": [0, 0]}


def test_color_bound_exceeded():
    g = generate("path", n=3)
    d = _decomp(3, [(1, [0]), (2, [1]), (3, [2])])
    kinds = {v.kind for v in verify_decomposition(g, d, 2, 2)}
    assert "color-bound-exceeded" in kinds


def test_diameter_exceeded_and_disconnected():
    g = generate("path", n=5)
    d = _decomp(5, [(1, list(range(5)))])
    violations = verify_decomposition(g, d, 1, 3)
    assert [v.kind for v in violations] == ["diameter-exceeded"]
    assert violations[0].measured == 4 and violations[0].bound == 3
    d2 = _decomp(5, [(1, [0, 1]), (2, [2]), (1, [3, 4])])
    ok = verify_decomposition(g, d2, 2, 4)
    assert ok == []
    d3 = _decomp(5, [(1, [0, 4]), (2, [1, 2, 3])])
    kinds = {v.kind for v in verify_decomposition(g, d3, 2, 4)}
    assert "disconnected-cluster" in kinds


def test_large_cluster_diameter_violation_is_exact():
    # above 5000 nodes the diameter is still exact: a 6000-node path
    # measures 5999, with no "exact" label in the witness
    g = generate("path", n=6000)
    d = _decomp(6000, [(1, list(range(6000)))])
    violations = verify_decomposition(g, d, 1, 5998)
    assert [v.kind for v in violations] == ["diameter-exceeded"]
    assert violations[0].measured == 5999
    assert "exact" not in violations[0].witness


def test_verifiers_report_what_they_measured():
    g = generate("path", n=5)
    d = _decomp(5, [(1, [0, 1]), (2, [2]), (1, [3, 4])])
    res = verify_decomposition(g, d, 2, 4)
    assert res == [] and isinstance(res, Violations)
    assert {k: r.value for k, r in res.diameters.items()} == {0: 1, 1: 0, 2: 1}
    assert all(r.exact for r in res.diameters.values())
    c = _carving([[0, 1, 2], [4]], [3], 5)
    res = verify_strong_carving(g, NodeMask.full(5), c, 0.5, 4)
    assert res == [] and {k: r.value for k, r in res.diameters.items()} == {0: 2, 1: 0}


def test_giant_gnp_cluster_measured_with_numpy_layers(monkeypatch):
    # the benchmark's gnp-wide instance (graph seed 1, decompose seed 0) has
    # one cluster of more than 5000 nodes; its sweeps and iFUB spend the BFS
    # budget, so it gets the certified bound 12 (its diameter is 9)
    g = generate("gnp", seed=1, n=20000, p=8 / 20000)
    d, _ = decompose(g, 0, make_refined_carver(linial_saks_black_box))
    giant = max(d.clusters, key=lambda c: c.nodes.size)
    assert giant.nodes.size > 5000
    calls = count_calls(monkeypatch, verifymod, "_wide_layer")
    res = verify_decomposition(g, d, 10, refined_diameter_bound(g.n, 0.5))
    assert res == []
    assert res.diameters[giant.id] == verifymod.DiameterResult(12, True, False)
    assert calls["_wide_layer"] > 0


@pytest.mark.parametrize("bad", [7, -1])
def test_node_outside_graph_is_only_outside_input(bad):
    # the node is reported, and never used as an index: no IndexError for 7,
    # no wrap-around to node 4 (and no spurious disconnected cluster) for -1
    g = generate("path", n=5)
    expected = [("not-partition", {"reason": "outside-input", "nodes": [bad]})]
    d = _decomp(5, [(1, [0, 1, 2, 3, 4, bad])])
    res = verify_decomposition(g, d, 1, 4)
    assert [(v.kind, v.witness) for v in res] == expected
    assert res.diameters[0].value == 4
    c = _carving([[0, 1, bad], [3, 4]], [2], 5)
    res = verify_strong_carving(g, NodeMask.full(5), c, 0.5, 4)
    assert [(v.kind, v.witness) for v in res] == expected
    nodes = np.array([0, 1, bad])
    tree = SteinerTree(root=0, parent={1: 0})
    w = _weak([WeakCluster(nodes=nodes, tree=tree, depth=1)], [2, 3, 4], 1, 1)
    assert [(v.kind, v.witness) for v in verify_weak_carving(g, NodeMask.full(5), w, 0.9)] == expected


def test_steiner_tree_through_a_node_outside_graph():
    g = generate("path", n=3)
    nodes = np.array([0, 1])
    tree = SteinerTree(root=0, parent={1: 0, 9: 1})
    w = _weak([WeakCluster(nodes=nodes, tree=tree, depth=2)], [2], 2, 1)
    res = verify_weak_carving(g, NodeMask.full(3), w, 0.5)
    assert [(v.kind, v.witness["reason"]) for v in res] == [
        ("steiner-terminals", "tree node outside graph")
    ]


def test_strong_carving_dead_budget_edge():
    g = generate("path", n=10)
    mask = NodeMask.full(10)
    c = _carving([[0, 1, 2, 3], [5, 6, 7, 8, 9]], [4], 10)
    # eps = 0.1 allows exactly one dead node
    assert verify_strong_carving(g, mask, c, 0.1, 9) == []
    # eps just below 1/10 rejects it
    kinds = {v.kind for v in verify_strong_carving(g, mask, c, 0.099, 9)}
    assert "dead-budget-exceeded" in kinds


def test_strong_whole_graph_cluster_at_exact_diameter():
    g = generate("grid", rows=4, cols=4)
    mask = NodeMask.full(16)
    c = _carving([list(range(16))], [], 16)
    assert verify_strong_carving(g, mask, c, 0.5, 6) == []
    kinds = {v.kind for v in verify_strong_carving(g, mask, c, 0.5, 5)}
    assert kinds == {"diameter-exceeded"}


def _weak(clusters_with_trees, dead, depth, congestion):
    return WeakCarving(
        clusters=clusters_with_trees,
        dead=np.asarray(dead, dtype=np.int64),
        declared_depth=depth,
        declared_congestion=congestion,
    )


def test_weak_missing_terminal():
    g = generate("path", n=3)
    nodes = np.array([0, 1, 2])
    tree = SteinerTree(root=0, parent={1: 0})  # 2 missing
    w = _weak([WeakCluster(nodes=nodes, tree=tree, depth=2)], [], 2, 1)
    res = verify_weak_carving(g, NodeMask.full(3), w, 0.5)
    assert [(v.kind, v.witness["reason"]) for v in res] == [
        ("steiner-terminals", "terminal missing from tree")
    ]


@pytest.mark.parametrize(
    "parent, reason",
    [
        ({1: 2, 2: 1}, "terminal does not reach root"),  # terminal 1 on the cycle
        ({1: 0, 2: 3, 3: 2}, "tree node does not reach root"),  # no terminal on it
    ],
)
def test_weak_parent_cycle_reason(parent, reason):
    g = generate("path", n=4)
    tree = SteinerTree(root=0, parent=parent)
    w = _weak([WeakCluster(nodes=np.array([0, 1]), tree=tree, depth=1)], [2, 3], 1, 1)
    res = verify_weak_carving(g, NodeMask.full(4), w, 0.5)
    assert [(v.kind, v.witness["reason"]) for v in res] == [("steiner-terminals", reason)]


def test_weak_congestion_counted():
    # two clusters whose trees share edge (1,2) while declaring L = 1
    g = generate("path", n=4)
    mask = NodeMask.full(4)
    t1 = SteinerTree(root=0, parent={1: 0, 2: 1})
    t2 = SteinerTree(root=3, parent={2: 3, 1: 2})
    w = _weak(
        [
            WeakCluster(nodes=np.array([0, 2]), tree=t1, depth=2),
            WeakCluster(nodes=np.array([1, 3]), tree=t2, depth=2),
        ],
        [],
        2,
        1,
    )
    kinds = [v.kind for v in verify_weak_carving(g, mask, w, 0.5)]
    # clusters {0,2} and {1,3} are adjacent too; congestion must be flagged
    assert "steiner-congestion" in kinds


def test_weak_depth_exceeded():
    g = generate("path", n=4)
    nodes = np.array([0, 1, 2, 3])
    tree = SteinerTree(root=0, parent={1: 0, 2: 1, 3: 2})
    w = _weak([WeakCluster(nodes=nodes, tree=tree, depth=3)], [], 2, 1)
    kinds = [v.kind for v in verify_weak_carving(g, NodeMask.full(4), w, 0.5)]
    assert kinds == ["steiner-depth"]


def test_violation_kinds_validated_and_json():
    with pytest.raises(ValueError):
        Violation("made-up-kind")
    v = Violation("diameter-exceeded", {"cluster": 1}, measured=5, bound=4)
    assert v.to_json() == {
        "kind": "diameter-exceeded",
        "witness": {"cluster": 1},
        "measured": 5,
        "bound": 4,
    }


# ----------------------------------------------------------------------------
# no_large_lowdiam_component
# ----------------------------------------------------------------------------


def test_ball_certificate_on_path():
    g = generate("path", n=9)
    # max |B_1(v)| = 3 < 4
    assert no_large_lowdiam_component(g, 1, 4)
    # |B_2(v)| reaches 5, so threshold 4 fails
    assert not no_large_lowdiam_component(g, 2, 4)


def test_ball_certificate_complete_graph():
    g = complete_graph(7)
    assert not no_large_lowdiam_component(g, 1, 7)
    assert no_large_lowdiam_component(g, 0, 2)


def test_ball_certificate_barrier_matches_dense_oracle():
    g = generate("barrier", 0, base_nodes=4, degree=3, subdivision_length=3)
    for r in range(0, 8):
        for t in (2, 4, 8, g.n // 3):
            assert no_large_lowdiam_component(g, r, t) == dense_no_large_lowdiam_component(
                g, r, t
            )


# ----------------------------------------------------------------------------
# double-implementation agreement (smoke; the 200-case run lives in
# test_acceptance)
# ----------------------------------------------------------------------------


def _kinds(violations):
    return sorted(v.kind for v in violations)


def test_dense_twin_agrees_on_crafted_cases():
    g = generate("path", n=6)
    mask = NodeMask.full(6)
    cases = [
        _carving([[0, 1, 2], [3, 4, 5]], [], 6),          # adjacent clusters
        _carving([[0, 1], [3, 4]], [2, 5], 6),            # valid at eps=0.5
        _carving([[0, 1], [3]], [2], 6),                  # node 4,5 uncovered
        _carving([[0, 1, 2, 3], [5]], [4, 0], 6),         # overlap w/ dead
    ]
    # clusters holding ids outside 0..5, which both sides report as
    # not-partition only: no IndexError for 7 or 6, no wrap-around of -1 to 5
    for nodes in ([0, 1, -1], [0, 1, 7], [5, 6]):
        rest = [v for v in range(6) if v not in nodes]
        cases.append(_carving([nodes, rest[1:]], rest[:1], 6))
        d = _decomp(6, [(1, nodes), (2, rest)])
        fast = _kinds(verify_decomposition(g, d, 2, 5))
        slow = _kinds(dense_verify_decomposition(g, d, 2, 5))
        assert fast == slow == ["not-partition"], (nodes, fast, slow)
    for c in cases:
        fast = _kinds(verify_strong_carving(g, mask, c, 0.5, 5))
        slow = _kinds(dense_verify_strong_carving(g, mask, c, 0.5, 5))
        assert fast == slow, (fast, slow)


def test_dense_twin_agrees_on_weak_cases():
    g = generate("path", n=4)
    mask = NodeMask.full(4)
    nodes = np.array([0, 1, 2, 3])
    good = SteinerTree(root=0, parent={1: 0, 2: 1, 3: 2})
    broken = SteinerTree(root=0, parent={1: 3, 2: 1, 3: 2})
    cases = [(nodes, good, 3), (nodes, good, 2), (nodes, broken, 3)]
    # ids outside 0..3: a tree through node 9, a terminal at -1 or at 7
    cases.append((np.array([0, 1]), SteinerTree(root=0, parent={1: 0, 9: 1}), 2))
    # a cycle 2 <-> 3 that no terminal walks through
    cases.append((np.array([0, 1]), SteinerTree(root=0, parent={1: 0, 2: 3, 3: 2}), 1))
    for bad in (-1, 7):
        cases.append((np.array([0, 1, bad]), SteinerTree(root=0, parent={1: 0}), 1))
    for nodes, tree, depth in cases:
        dead = [v for v in range(4) if v not in nodes]
        w = _weak([WeakCluster(nodes=nodes, tree=tree, depth=depth)], dead, depth, 1)
        fast = _kinds(verify_weak_carving(g, mask, w, 0.5))
        slow = _kinds(dense_verify_weak_carving(g, mask, w, 0.5))
        assert fast == slow, (tree, fast, slow)


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


def _floyd_warshall_corpus(monkeypatch) -> collections.Counter:
    """Measure every set of the fuzz corpus against Floyd-Warshall twice:
    with the module's budget and finisher (always exact) and with a budget
    of 7 runs and no bitset finisher (exact, or a certified upper bound
    labelled inexact). Returns how each set was settled."""
    calls = count_calls(monkeypatch, verifymod, "_diameter_bitset")
    seen = collections.Counter()
    rng = np.random.default_rng(13)
    for _ in range(220):
        g, nodes = _fuzz_node_set(rng)
        sub = fw_distances(g, alive=set(nodes))[np.ix_(nodes, nodes)]
        true_d = int(sub.max())
        before = calls["_diameter_bitset"]
        res = induced_diameter(g, nodes)
        assert res.connected == (true_d < 10**9)
        if not res.connected:
            assert not res.exact
            seen["disconnected"] += 1
            continue
        assert res.exact and res.value == true_d
        seen["bitset" if calls["_diameter_bitset"] > before else "bounds met"] += 1
        with monkeypatch.context() as m:
            m.setattr(verifymod, "_BFS_BUDGET", 7)
            m.setattr(verifymod, "_EXACT_THRESHOLD", 0)
            res = induced_diameter(g, nodes)
        if res.exact:
            assert res.value == true_d
        else:
            assert res.value >= true_d
            seen["bound"] += 1
    return seen


def test_induced_diameter_matches_floyd_warshall(monkeypatch):
    seen = _floyd_warshall_corpus(monkeypatch)
    assert set(seen) == {"disconnected", "bounds met", "bitset", "bound"}, seen


@pytest.mark.parametrize("wide", [1, 3])
def test_induced_diameter_numpy_layers_match_floyd_warshall(monkeypatch, wide):
    # _WIDE = 1 expands every layer in numpy; 3 switches back and forth
    # between the two kernels within one BFS on most fuzz sets
    monkeypatch.setattr(verifymod, "_WIDE", wide)
    calls = count_calls(monkeypatch, verifymod, "_wide_layer")
    seen = _floyd_warshall_corpus(monkeypatch)
    assert set(seen) == {"disconnected", "bounds met", "bitset", "bound"}, seen
    assert calls["_wide_layer"] > 0


def _dict_local_graph(g, nodes) -> tuple[list[int], list[int]]:
    """The subgraph induced by the sorted `nodes` in local ids, built from
    dicts: its row starts and its sorted rows, concatenated."""
    local = {v: i for i, v in enumerate(nodes)}
    rows = [sorted(local[w] for w in g.adj[v] if w in local) for v in nodes]
    ip = [0]
    for row in rows:
        ip.append(ip[-1] + len(row))
    return ip, [y for row in rows for y in row]


def test_local_graph_matches_dict_induced_subgraph():
    rng = np.random.default_rng(29)
    cases = [_fuzz_node_set(rng) for _ in range(150)]
    # nodes 3 and 5 are isolated in g; ids 0 and n - 1 = 6 are in the sets
    g = graph_from_edges(7, [(0, 1), (1, 2), (4, 6)])
    for nodes in ([0], [3], [6], [3, 5], [0, 2, 3, 4], [0, 6], [4, 6], list(range(7))):
        cases.append((g, nodes))
    for g, nodes in cases:
        local = verifymod._LocalGraph(g, np.asarray(nodes, dtype=np.int64))
        ip, dst = _dict_local_graph(g, nodes)
        assert local.ip.tolist() == local.ip_list == ip
        assert local.dst.tolist() == local.dst_list == dst
        assert local.rows == [None] * len(nodes) and not local.wide


def test_induced_diameter_bound_when_budget_runs_out(monkeypatch):
    monkeypatch.setattr(verifymod, "_BFS_BUDGET", 7)
    monkeypatch.setattr(verifymod, "_EXACT_THRESHOLD", 0)
    g = largest_component_graph(generate("gnp", seed=4, n=120, p=0.05))
    res = induced_diameter(g, range(g.n))
    assert res.connected and res.exact is False
    assert res.value >= fw_distances(g).max()


def test_induced_diameter_rejects_out_of_range_ids():
    g = generate("path", n=5)
    for nodes, bad in (([7], 7), ([-1, 0], -1)):
        with pytest.raises(ValueError, match=f"node {bad} out of range"):
            induced_diameter(g, nodes)


def test_induced_diameter_exact_on_grid_and_long_path(monkeypatch):
    calls = count_calls(monkeypatch, verifymod, "_wide_layer")
    # the first BFS, from corner 0, meets diagonals of at most `rows` nodes:
    # narrower than _WIDE on 64 x 64, which then runs list BFS only
    for rows, wide in ((64, False), (100, True)):
        g = generate("grid", rows=rows, cols=rows)
        want = verifymod.DiameterResult(2 * rows - 2, True, True)
        assert induced_diameter(g, range(g.n)) == want
        assert (calls["_wide_layer"] > 0) == wide
        calls["_wide_layer"] = 0
    g = generate("path", n=20000)
    assert induced_diameter(g, range(g.n)) == verifymod.DiameterResult(19999, True, True)
    assert calls["_wide_layer"] == 0  # a thin set runs list BFS only


def test_induced_diameter_switches_kernels_both_ways(monkeypatch):
    # a 200-clique on nodes 0..199 with a 5000-node tail from node 199: a BFS
    # from the tail's end meets the clique as one wide layer after 5000
    # narrow ones, and one from inside the clique goes wide, then narrow
    clique = np.column_stack(np.triu_indices(200, k=1))
    tail = np.arange(199, 5199)
    g = graph_from_edges(5200, np.concatenate((clique, np.column_stack((tail, tail + 1)))))
    calls = count_calls(monkeypatch, verifymod, "_wide_layer")
    assert induced_diameter(g, range(g.n)) == verifymod.DiameterResult(5001, True, True)
    assert calls["_wide_layer"] > 0


@pytest.mark.parametrize("count", [1, 16, 64])
def test_eccentricity_sweep_equals_one_bfs_per_source(count):
    # one bitset sweep from `count` sources, a lane each, gives every source
    # the eccentricity of a plain BFS from it; 64 sources fill one word
    rng = np.random.default_rng(31 + count)
    for _ in range(60):
        g = fuzz_graph(rng, max_n=120, connected=True)
        if g.n < 2:
            continue
        local = verifymod._LocalGraph(g, np.arange(g.n))
        ip = local.ip_list
        rows = [local.dst_list[ip[x] : ip[x + 1]] for x in range(g.n)]
        sources = rng.choice(g.n, size=min(count, g.n), replace=False).tolist()
        got = verifymod._eccentricities(local, sources).tolist()
        assert got == [max(verifymod._local_bfs(rows, s)) for s in sources]


@functools.lru_cache(maxsize=None)
def _gnp_wide_giant(seed: int) -> tuple:
    """The benchmark's gnp-wide graph for graph seed `seed`, and the node
    ids of its decomposition's largest cluster (decompose seed 0)."""
    g = generate("gnp", seed=seed, n=20000, p=8 / 20000)
    d, _ = decompose(g, 0, make_refined_carver(linial_saks_black_box))
    return g, max(d.clusters, key=lambda c: c.nodes.size).nodes


@pytest.mark.parametrize("family, size", [("gnp", 1), ("gnp", 2), ("gnp", 3), ("grid", 100)])
def test_array_route_equals_the_list_route(monkeypatch, family, size):
    # gnp-wide's giant cluster (graph seeds 1-3) and grid 100 x 100: a set
    # whose first BFS goes wide measures with distance arrays and one sweep
    # per fringe; with _WIDE above its size it runs list BFS only, and the
    # result, bound and exact flag included, is the same
    if family == "grid":
        g = generate("grid", rows=size, cols=size)
        nodes = np.arange(g.n)
    else:
        g, nodes = _gnp_wide_giant(size)
    calls = count_calls(monkeypatch, verifymod, "_wide_layer")
    got = induced_diameter(g, nodes)
    assert calls["_wide_layer"] > 0
    calls["_wide_layer"] = 0
    monkeypatch.setattr(verifymod, "_WIDE", nodes.size + 1)
    assert induced_diameter(g, nodes) == got
    assert calls["_wide_layer"] == 0


def test_giant_cluster_runs_seven_bfs_and_one_eight_lane_sweep(monkeypatch):
    # graph seed 1's giant cluster: the first BFS, the four ends of the two
    # double sweeps, the second sweep's start and the iFUB root run one at
    # a time; the deepest level's 8 fringe nodes share one sweep, and the
    # next level's would exceed the budget of 16
    g, nodes = _gnp_wide_giant(1)
    bfs = count_calls(monkeypatch, verifymod, "_layered_bfs")
    lanes = []
    sweep = verifymod._eccentricities

    def spy(local, sources):
        lanes.append(len(sources))
        return sweep(local, sources)

    monkeypatch.setattr(verifymod, "_eccentricities", spy)
    assert induced_diameter(g, nodes) == verifymod.DiameterResult(12, True, False)
    assert bfs["_layered_bfs"] == 7 and lanes == [8]
