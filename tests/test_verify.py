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
    generate,
    no_large_lowdiam_component,
    verify_decomposition,
    verify_strong_carving,
    verify_weak_carving,
)
from netdecomp.dense_check import (
    dense_no_large_lowdiam_component,
    dense_verify_strong_carving,
    dense_verify_weak_carving,
)
from netdecomp.decompose import DecompCluster, NetworkDecomposition


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


def test_valid_two_coloring_of_p4():
    g = generate("path", n=4)
    d = _decomp(4, [(1, [0, 1]), (2, [2, 3])])
    assert verify_decomposition(g, d, 2, 1) == []


def test_uncovered_node_not_partition():
    g = generate("path", n=3)
    d = _decomp(3, [(1, [0, 1])])
    kinds = {v.kind for v in verify_decomposition(g, d, 2, 2)}
    assert "not-partition" in kinds


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
    tree = SteinerTree(root=0, parent={1: 0}, terminals=nodes)
    w = _weak([WeakCluster(nodes=nodes, tree=tree, depth=1)], [2, 3, 4], 1, 1)
    assert [(v.kind, v.witness) for v in verify_weak_carving(g, NodeMask.full(5), w, 0.9)] == expected


def test_steiner_tree_through_a_node_outside_graph():
    g = generate("path", n=3)
    nodes = np.array([0, 1])
    tree = SteinerTree(root=0, parent={1: 0, 9: 1}, terminals=nodes)
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
    tree = SteinerTree(root=0, parent={1: 0}, terminals=nodes)  # 2 missing
    w = _weak([WeakCluster(nodes=nodes, tree=tree, depth=2)], [], 2, 1)
    kinds = [v.kind for v in verify_weak_carving(g, NodeMask.full(3), w, 0.5)]
    assert kinds == ["steiner-terminals"]


def test_weak_congestion_counted():
    # two clusters whose trees share edge (1,2) while declaring L = 1
    g = generate("path", n=4)
    mask = NodeMask.full(4)
    t1 = SteinerTree(root=0, parent={1: 0, 2: 1}, terminals=np.array([0, 2]))
    t2 = SteinerTree(root=3, parent={2: 3, 1: 2}, terminals=np.array([1, 3]))
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
    tree = SteinerTree(root=0, parent={1: 0, 2: 1, 3: 2}, terminals=nodes)
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
    for c in cases:
        fast = _kinds(verify_strong_carving(g, mask, c, 0.5, 5))
        slow = _kinds(dense_verify_strong_carving(g, mask, c, 0.5, 5))
        assert fast == slow, (fast, slow)


def test_dense_twin_agrees_on_weak_cases():
    g = generate("path", n=4)
    mask = NodeMask.full(4)
    nodes = np.array([0, 1, 2, 3])
    good = SteinerTree(root=0, parent={1: 0, 2: 1, 3: 2}, terminals=nodes)
    broken = SteinerTree(root=0, parent={1: 3, 2: 1, 3: 2}, terminals=nodes)
    for tree, depth in ((good, 3), (good, 2), (broken, 3)):
        w = _weak([WeakCluster(nodes=nodes, tree=tree, depth=depth)], [], depth, 1)
        fast = _kinds(verify_weak_carving(g, mask, w, 0.5))
        slow = _kinds(dense_verify_weak_carving(g, mask, w, 0.5))
        assert fast == slow, (tree, fast, slow)
