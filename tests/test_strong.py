import json
import math

import numpy as np
import pytest

from netdecomp import (
    CarvingParams,
    InvariantViolation,
    NodeMask,
    RoundLedger,
    SteinerTree,
    WeakCarving,
    WeakCluster,
    carve_strong,
    complete_graph,
    detect_giant,
    generate,
    grow_ball,
    induced_diameter,
    linial_saks_black_box,
    trivial_black_box,
    verify_strong_carving,
)

from conftest import fuzz_graph, ref_ball_sizes


def test_params_materialized_from_n_and_eps():
    p = CarvingParams.for_entry(1024, 0.5)
    assert p.i_max == 10
    assert p.eps_prime == 0.5 / 20
    assert p.eps_prime * p.i_max <= 0.5 / 2 + 1e-12
    assert p.growth_cap == math.ceil(math.log(1024) / -math.log1p(-0.25)) + 1
    single = CarvingParams.for_entry(1, 0.3)
    assert single.i_max == 1 and single.growth_cap == 1


# ----------------------------------------------------------------------------
# grow_ball
# ----------------------------------------------------------------------------


def test_grow_ball_star_saturates():
    from netdecomp import graph_from_edges

    star = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    r, ball, boundary = grow_ball(star, NodeMask.full(5), 0, 1, 5, 0.5)
    assert r == 1
    assert ball.tolist() == [0, 1, 2, 3, 4]
    assert boundary.size == 0


def test_grow_ball_path_closed_form():
    # layers add one node each: |B_r|/|B_{r+1}| = (r+1)/(r+2); first r >= 5
    # with ratio >= 3/4 is r = 5
    g = generate("path", n=100)
    r, ball, boundary = grow_ball(g, NodeMask.full(100), 0, 5, 60, 0.5)
    assert r == 5
    assert len(ball) == 6
    assert len(boundary) == 1


def test_grow_ball_dead_center_errors():
    g = generate("path", n=4)
    with pytest.raises(ValueError):
        grow_ball(g, NodeMask.full(4).without([2]), 2, 0, 3, 0.5)


def test_grow_ball_rejects_out_of_range_center():
    g = generate("path", n=5)
    for bad in (-1, 5):
        with pytest.raises(ValueError, match=f"center {bad} out of range"):
            grow_ball(g, NodeMask.full(5), bad, 0, 2, 0.5)


def _grow_ball_oracle(g, alive_set, center, r_start, k, eps):
    sizes = ref_ball_sizes(g, alive_set, [center], r_start + k + 1)
    for r in range(r_start, r_start + k + 1):
        if sizes[r] >= (1 - eps / 2) * sizes[r + 1]:
            return r, sizes
    return None, sizes


def test_grow_ball_matches_scan_oracle_on_random_instances():
    rng = np.random.default_rng(101)
    for _ in range(120):
        g = fuzz_graph(rng, max_n=60, connected=True)
        eps = float(rng.uniform(0.1, 0.9))
        center = int(rng.integers(g.n))
        r_start = int(rng.integers(0, 5))
        k = math.ceil(math.log(max(g.n, 2)) / -math.log1p(-eps / 2)) + 1
        r, ball, boundary = grow_ball(g, NodeMask.full(g.n), center, r_start, k, eps)
        r_oracle, sizes = _grow_ball_oracle(g, set(range(g.n)), center, r_start, k, eps)
        assert r == r_oracle
        assert len(ball) == sizes[r]
        assert len(boundary) == sizes[r + 1] - sizes[r]


# ----------------------------------------------------------------------------
# detect_giant
# ----------------------------------------------------------------------------


def _mk_carving(sizes):
    clusters = []
    base = 0
    for s in sizes:
        nodes = np.arange(base, base + s)
        tree = SteinerTree(root=int(nodes[0]), parent={}, terminals=nodes)
        clusters.append(WeakCluster(nodes=nodes, tree=tree, depth=0))
        base += s + 1
    return WeakCarving(
        clusters=clusters,
        dead=np.zeros(0, dtype=np.int64),
        declared_depth=0,
        declared_congestion=1,
    )


def test_detect_giant_none_when_all_small():
    assert detect_giant(_mk_carving([3, 3, 2]), 4) is None


def test_detect_giant_unique():
    carving = _mk_carving([9, 2])
    giant = detect_giant(carving, 8)
    assert giant is carving.clusters[0]


def test_detect_giant_two_is_invariant_violation():
    with pytest.raises(InvariantViolation):
        detect_giant(_mk_carving([9, 9]), 8)


def test_detect_giant_threshold_positive():
    with pytest.raises(ValueError):
        detect_giant(_mk_carving([2]), 0)


def test_detect_giant_trivial_whole_graph():
    g = generate("gnp", 3, n=20, p=0.3)
    wc, _ = trivial_black_box(g, NodeMask.full(20), 0.5, 0)
    giant = detect_giant(wc, 10)
    assert giant is wc.clusters[0]


# ----------------------------------------------------------------------------
# carve_strong
# ----------------------------------------------------------------------------


def test_single_node_one_cluster():
    g = generate("path", n=1)
    sc = carve_strong(g, NodeMask.full(1), 0.5, 0, trivial_black_box)
    assert len(sc.clusters) == 1
    assert induced_diameter(g, sc.clusters[0].nodes).value == 0
    assert len(sc.dead) == 0


def test_complete_k8_saturates_in_one_ball():
    g = complete_graph(8)
    sc = carve_strong(g, NodeMask.full(8), 0.5, 0, trivial_black_box)
    assert len(sc.clusters) == 1
    assert sc.clusters[0].nodes.tolist() == list(range(8))
    assert len(sc.dead) == 0
    assert induced_diameter(g, sc.clusters[0].nodes).value == 1


def test_p64_linial_saks_passes_verifier_with_metadata_bound():
    g = generate("path", n=64)
    mask = NodeMask.full(64)
    sc = carve_strong(g, mask, 0.5, 7, linial_saks_black_box)
    assert len(sc.dead) <= 32
    bound = 2 * sc.meta["max_black_box_depth"] + 2 * sc.meta["growth_cap"]
    assert bound == sc.meta["diameter_bound"]
    violations = verify_strong_carving(g, mask, sc, 0.5, bound)
    assert not violations, [v.to_json() for v in violations]
    assert sc.meta["budget_split_ok"]


def test_budget_split_tagged_and_within_eps_half():
    rng = np.random.default_rng(7)
    for trial in range(12):
        g = fuzz_graph(rng, max_n=120)
        mask = NodeMask.full(g.n)
        eps = float(rng.uniform(0.2, 0.8))
        sc = carve_strong(g, mask, eps, trial, linial_saks_black_box)
        assert sc.meta["budget_split_ok"]
        # tags are exact: the two pools are disjoint and within eps/2 each,
        # per entry component, hence globally
        assert len(sc.dead_black_box) <= (eps / 2) * g.n
        assert len(sc.dead_boundary) <= (eps / 2) * g.n
        assert not set(sc.dead_black_box.tolist()) & set(sc.dead_boundary.tolist())
        violations = verify_strong_carving(g, mask, sc, eps, sc.meta["diameter_bound"])
        assert not violations, [v.to_json() for v in violations]


def test_component_shrinkage_trace():
    rng = np.random.default_rng(11)
    for trial in range(8):
        g = fuzz_graph(rng, max_n=150, connected=True)
        sc = carve_strong(g, NodeMask.full(g.n), 0.5, trial, linial_saks_black_box)
        for comp_trace in sc.meta["trace"]:
            n0 = comp_trace["entry_n"]
            for i, sizes in enumerate(comp_trace["iterations"], start=1):
                for s in sizes:
                    assert s * (1 << (i - 1)) <= n0


def test_determinism_identical_output_and_ledger():
    g = generate("gnp", 21, n=90, p=0.05)
    mask = NodeMask.full(90)
    a = carve_strong(g, mask, 0.5, 5, linial_saks_black_box)
    b = carve_strong(g, mask, 0.5, 5, linial_saks_black_box)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


def test_dead_cause_tags_in_json():
    g = generate("path", n=256)
    sc = carve_strong(g, NodeMask.full(256), 0.5, 3, linial_saks_black_box)
    obj = sc.to_json()
    causes = {d["cause"] for d in obj["dead"]}
    assert causes <= {"black-box", "boundary"}
    nodes = [d["node"] for d in obj["dead"]]
    assert nodes == sorted(nodes)


# ----------------------------------------------------------------------------
# black-box interface surface (the contract a deterministic clustering
# routine would have to meet; exercised here with scripted stand-ins)
# ----------------------------------------------------------------------------


def _segment_black_box(segment: int):
    """Compliant scripted instance for paths: kill every (segment+1)-th node,
    cluster the runs between kills. Only valid when eps budgets allow."""

    def bb(g, mask, eps, seed):
        alive = sorted(int(v) for v in mask.node_ids())
        dead = alive[segment :: segment + 1]
        dead_set = set(dead)
        clusters = []
        run = []
        for v in alive:
            if v in dead_set:
                if run:
                    clusters.append(run)
                    run = []
            else:
                run.append(v)
        if run:
            clusters.append(run)
        out = []
        for run in clusters:
            nodes = np.asarray(run, dtype=np.int64)
            parent = {run[i]: run[i - 1] for i in range(1, len(run))}
            tree = SteinerTree(root=run[0], parent=parent, terminals=nodes)
            out.append(WeakCluster(nodes=nodes, tree=tree, depth=len(run) - 1))
        led = RoundLedger()
        led.add("scripted", 1)
        return (
            WeakCarving(
                clusters=out,
                dead=np.asarray(dead, dtype=np.int64),
                declared_depth=max((c.depth for c in out), default=0),
                declared_congestion=1,
            ),
            led,
        )

    return bb


def test_scripted_black_box_drives_no_giant_path():
    # segments of 40 on a 200-path: no cluster exceeds half, so the first
    # iteration must take the thin case and recurse on the runs
    g = generate("path", n=200)
    mask = NodeMask.full(200)
    sc = carve_strong(g, mask, 0.5, 0, _segment_black_box(40))
    assert len(sc.clusters) > 1
    assert len(sc.dead_black_box) > 0
    violations = verify_strong_carving(g, mask, sc, 0.5, sc.meta["diameter_bound"])
    assert not violations, [v.to_json() for v in violations]


def test_everything_dead_black_box_fails_soft():
    def killer(g, mask, eps, seed):
        led = RoundLedger()
        led.add("scripted", 0)
        return (
            WeakCarving(
                clusters=[],
                dead=mask.node_ids(),
                declared_depth=0,
                declared_congestion=1,
            ),
            led,
        )

    g = generate("path", n=16)
    sc = carve_strong(g, NodeMask.full(16), 0.5, 0, killer)
    assert len(sc.clusters) == 0
    assert len(sc.dead_black_box) == 16
    assert not sc.meta["budget_split_ok"]


def test_eps_validation():
    g = generate("path", n=4)
    with pytest.raises(ValueError):
        carve_strong(g, NodeMask.full(4), 1.2, 0, trivial_black_box)


# ----------------------------------------------------------------------------
# charge-rule recomputation (ledger entries against logged run metadata)
# ----------------------------------------------------------------------------


def test_bfs_charges_equal_logged_r_star_plus_one():
    # the merged ledger keeps the critical-path component per iteration, so
    # its bfs entries are a sub-multiset of {r*+1} over the logged radii
    from collections import Counter

    g = generate("path", n=512)
    sc = carve_strong(g, NodeMask.full(512), 0.5, 7, linial_saks_black_box)
    (trace,) = sc.meta["trace"]
    bfs_entries = Counter(r for label, r in sc.ledger.breakdown if label == "bfs")
    logged = Counter(r + 1 for r in trace["r_stars"])
    assert sum(bfs_entries.values()) > 0
    assert bfs_entries == bfs_entries & logged
    # on a single-iteration run the correspondence is exact
    k8 = complete_graph(8)
    sck = carve_strong(k8, NodeMask.full(8), 0.5, 0, trivial_black_box)
    (tracek,) = sck.meta["trace"]
    assert [r for l, r in sck.ledger.breakdown if l == "bfs"] == [
        r + 1 for r in tracek["r_stars"]
    ]


def test_steiner_aggregate_charges_equal_declared_product():
    from collections import Counter

    g = generate("path", n=512)
    sc = carve_strong(g, NodeMask.full(512), 0.5, 7, linial_saks_black_box)
    (trace,) = sc.meta["trace"]
    agg = Counter(r for label, r in sc.ledger.breakdown if label == "steiner-aggregate")
    logged = Counter(d * c for d, c in trace["black_box_bounds"])
    assert sum(agg.values()) > 0
    assert agg == agg & logged


def test_parallel_merge_equals_per_component_replay():
    # two far-apart paths inside one graph: the whole-graph run must charge
    # exactly the max of the isolated per-component runs
    from netdecomp import graph_from_edges

    edges = [(i, i + 1) for i in range(99)] + [(i, i + 1) for i in range(100, 160)]
    g = graph_from_edges(161, edges)
    whole = carve_strong(g, NodeMask.full(161), 0.5, 3, linial_saks_black_box)
    parts = []
    for nodes in (range(0, 100), range(100, 161)):
        mask = NodeMask.from_nodes(161, nodes)
        parts.append(
            carve_strong(g, mask, 0.5, 3, linial_saks_black_box)
        )
    assert whole.ledger.total_rounds == max(p.ledger.total_rounds for p in parts)
