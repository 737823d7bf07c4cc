import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netdecomp import (
    InvariantViolation,
    NodeMask,
    connected_components,
    generate,
    linial_saks_black_box,
    trivial_black_box,
    verify_weak_carving,
    weak,
)

from conftest import fuzz_graph, ref_bfs_tree, ref_eccentricity, wide_layer
from oracles import claim_by_definition, tree_edge_uses


BLACK_BOXES = {"trivial": trivial_black_box, "linial_saks": linial_saks_black_box}


def test_eps_out_of_range():
    g = generate("path", n=3)
    for black_box in BLACK_BOXES.values():
        for eps in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(ValueError):
                black_box(g, NodeMask.full(3), eps, 0)


def test_empty_alive_set():
    g = generate("path", n=3)
    for black_box in BLACK_BOXES.values():
        with pytest.raises(ValueError):
            black_box(g, NodeMask(np.zeros(3, dtype=bool)), 0.5, 0)


def test_radii_near_the_cap_limit_stay_in_range():
    # with p = 1e-18 a draw u < e**-9.3 gives a radius past int64 before the
    # clip; it must come out as r_cap, not as a wrapped negative number
    r = weak._draw_radii(np.random.default_rng(0), 100_000, 1e-18, 2**61)
    assert r.min() >= 0 and r.max() == 2**61


def test_linial_saks_eps_too_small_for_the_radius_cap():
    # ceil(2 ln(3) / eps) does not fit in int64; eps / 2 underflows to 0
    g = generate("path", n=3)
    for eps in (1e-300, 5e-324):
        with pytest.raises(ValueError, match="eps="):
            linial_saks_black_box(g, NodeMask.full(3), eps, 0)


@pytest.mark.parametrize("impl", sorted(BLACK_BOXES))
def test_single_node(impl):
    g = generate("path", n=1)
    wc, _ = BLACK_BOXES[impl](g, NodeMask.full(1), 0.5, 3)
    assert len(wc.clusters) == 1
    assert wc.clusters[0].nodes.tolist() == [0]
    assert len(wc.dead) == 0
    assert wc.declared_depth == 0


def test_trivial_connected_graph_one_cluster():
    g = generate("gnp", 7, n=30, p=0.2)
    mask = NodeMask.full(30)
    wc, led = trivial_black_box(g, mask, 0.5, 0)
    assert len(wc.clusters) == 1
    assert wc.clusters[0].nodes.tolist() == list(range(30))
    assert wc.declared_congestion == 1
    assert len(wc.dead) == 0
    assert not verify_weak_carving(g, mask, wc, 0.5)
    # leader election on the BFS tree: 3 * radius from the min-id node
    assert led.total_rounds == 3 * wc.declared_depth


def test_trivial_handles_components_independently():
    g = generate("path", n=7)
    mask = NodeMask.from_nodes(7, [0, 1, 2, 4, 5, 6])
    wc, _ = trivial_black_box(g, mask, 0.5, 0)
    assert len(wc.clusters) == 2
    assert sorted(c.nodes.tolist() for c in wc.clusters) == [[0, 1, 2], [4, 5, 6]]
    assert not verify_weak_carving(g, mask, wc, 0.5)


def test_linial_saks_structural_over_seeds():
    g = generate("gnp", 5, n=120, p=0.03)
    mask = NodeMask.full(120)
    for seed in range(20):
        wc, _ = linial_saks_black_box(g, mask, 0.3, seed)
        violations = verify_weak_carving(g, mask, wc, 0.3)
        assert not violations, [v.to_json() for v in violations]


def test_linial_saks_respects_radius_cap():
    import math

    g = generate("gnp", 1, n=80, p=0.05)
    mask = NodeMask.full(80)
    eps = 0.25
    r_cap = max(1, math.ceil(2 * math.log(80) / eps))
    for seed in range(10):
        wc, _ = linial_saks_black_box(g, mask, eps, seed)
        assert wc.declared_depth <= r_cap
        assert wc.declared_congestion <= r_cap


def test_linial_saks_declares_exact_congestion():
    # declared congestion is the largest tree-edge multiplicity, not just a
    # bound on it; the corpus reaches a shared edge held in both
    # orientations where that decides the maximum, a child under a second
    # parent, and disconnected graphs (one congestion per component)
    graphs = [generate("gnp", s, n=150, p=0.04) for s in range(3)]
    graphs += [generate("gnp", s, n=300, p=0.01) for s in range(3)]
    graphs += [generate("grid", rows=12, cols=15), generate("grid", rows=4, cols=60)]
    graphs.append(generate("path", n=200))
    seen = set()
    reversed_decides = second_parents = 0
    for g in graphs:
        mask = NodeMask.full(g.n)
        for eps in (0.05, 0.2, 0.5):
            for seed in range(6):
                wc, _ = linial_saks_black_box(g, mask, eps, seed)
                most, most_one_way, second_parent = tree_edge_uses(wc)
                assert wc.declared_congestion == most, (g.n, eps, seed)
                seen.add(most)
                reversed_decides += most_one_way < most
                second_parents += second_parent
    assert seen >= {1, 2, 3, 4, 5, 6, 7}, seen
    assert reversed_decides and second_parents


@pytest.mark.parametrize("top", ["silent", "short", "covers"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_claim_equals_its_definition_at_every_layer_width(top, data):
    # the component's top broadcaster (its max id) has radius 0 ("silent"),
    # one below its eccentricity, so that later floods run on the budgets
    # its flood set ("short"), or at least its eccentricity ("covers"); the
    # claim with every BFS layer expanded in numpy equals the node loop's,
    # and both equal the claim by its definition
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    g = fuzz_graph(rng, max_n=60)
    mask = NodeMask(rng.random(g.n) < data.draw(st.sampled_from([1.0, 0.8])))
    assume(mask.count())
    comp = max(connected_components(g, mask), key=len).tolist()
    alive = set(mask.node_ids().tolist())
    ecc = ref_eccentricity(g, alive, comp[-1])
    radii = data.draw(st.lists(st.integers(0, 5), min_size=len(comp), max_size=len(comp)))
    if top == "silent":
        radii[-1] = 0
    elif top == "short":
        assume(ecc >= 2)
        radii[-1] = data.draw(st.integers(1, ecc - 1))
    else:
        radii[-1] = ecc + data.draw(st.integers(0, 2))

    def claim():
        clusters, dead, rounds, congestion = weak._claim(
            g.adj, mask.as_bytes(), comp, radii, g.scratch
        )
        shape = [
            (c.tree.root, c.nodes.tolist(), c.depth, sorted(c.tree.parent.items()))
            for c in clusters
        ]
        return (shape, sorted(dead), rounds, congestion), clusters

    want, clusters = claim()
    with wide_layer(1):
        assert claim()[0] == want
    shape, dead, rounds, congestion = want
    by_definition, dead_by_definition = claim_by_definition(g, alive, comp, radii)
    assert [(root, (nodes, depth)) for root, nodes, depth, _ in shape] == sorted(
        by_definition.items()
    )
    assert dead == dead_by_definition
    for root, nodes, _, tree in shape:
        parent, _ = ref_bfs_tree(g, alive, root)
        assert all(parent[v] == p for v, p in tree)
        assert set(nodes) <= {root, *dict(tree)}
    assert congestion == tree_edge_uses(SimpleNamespace(clusters=clusters))[0]
    if top == "covers":
        # one flood, of its radius or of one round past the BFS's last layer
        assert rounds == min(radii[-1], ecc + 1)


def test_linial_saks_clusters_non_adjacent_exhaustive():
    rng = np.random.default_rng(17)
    for _ in range(25):
        g = fuzz_graph(rng, max_n=70)
        mask = NodeMask.full(g.n)
        wc, _ = linial_saks_black_box(g, mask, 0.4, int(rng.integers(2**31)))
        owner = {}
        for k, c in enumerate(wc.clusters):
            for v in c.nodes.tolist():
                owner[v] = k
        for u in range(g.n):
            if u in owner:
                for v in g.adj[u]:
                    if v in owner:
                        assert owner[u] == owner[v], (u, v)


def test_linial_saks_dead_within_budget_every_run():
    # the instance resamples until compliant, so the bound is per-run hard
    rng = np.random.default_rng(23)
    for _ in range(15):
        g = fuzz_graph(rng, max_n=90)
        mask = NodeMask.full(g.n)
        eps = float(rng.uniform(0.1, 0.6))
        wc, _ = linial_saks_black_box(g, mask, eps, int(rng.integers(2**31)))
        assert len(wc.dead) <= eps * g.n


def test_linial_saks_deterministic():
    g = generate("gnp", 9, n=100, p=0.04)
    mask = NodeMask.full(100)
    a, led_a = linial_saks_black_box(g, mask, 0.3, 42)
    b, led_b = linial_saks_black_box(g, mask, 0.3, 42)
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())
    assert led_a.to_json() == led_b.to_json()
    c, _ = linial_saks_black_box(g, mask, 0.3, 43)
    assert json.dumps(a.to_json()) != json.dumps(c.to_json()) or len(a.clusters) == 1


def test_steiner_root_may_sit_outside_its_cluster():
    # structural property: trees must live inside the component and cover
    # exactly the terminals; roots outside the cluster are legitimate
    rng = np.random.default_rng(31)
    seen_outside = 0
    for trial in range(40):
        g = fuzz_graph(rng, max_n=60)
        mask = NodeMask.full(g.n)
        wc, _ = linial_saks_black_box(g, mask, 0.5, trial)
        assert not verify_weak_carving(g, mask, wc, 0.5)
        for c in wc.clusters:
            if int(c.tree.root) not in set(c.nodes.tolist()):
                seen_outside += 1
    # not asserting seen_outside > 0: rare but allowed; the verifier accepting
    # every run is the real check


def test_linial_saks_g500_hundred_seeds_mean_dead_and_structure():
    # empirical statistic: mean dead fraction over 100 seeds stays within
    # eps; structure (partition, non-adjacency, depth, congestion) holds on
    # every single run
    g = generate("gnp", 500, n=500, p=0.02)
    mask = NodeMask.full(500)
    eps = 0.25
    fractions = []
    for seed in range(100):
        wc, _ = linial_saks_black_box(g, mask, eps, seed)
        violations = verify_weak_carving(g, mask, wc, eps)
        assert not violations, (seed, [v.to_json() for v in violations])
        fractions.append(len(wc.dead) / 500)
    mean = sum(fractions) / len(fractions)
    assert mean <= eps, mean


# the five generator families, n <= 200
small_graphs = st.one_of(
    st.builds(lambda n: generate("path", n=n), st.integers(1, 200)),
    st.builds(
        lambda r, c: generate("grid", rows=r, cols=c), st.integers(1, 14), st.integers(1, 14)
    ),
    st.builds(
        lambda n, s: generate("gnp", s, n=n, p=min(1.0, 3.0 / n)),
        st.integers(1, 200),
        st.integers(0, 999),
    ),
    st.builds(
        lambda n, s: generate("regular_expander", s, n=n, deg=4),
        st.integers(5, 200),
        st.integers(0, 999),
    ),
    st.builds(
        lambda b, k, s: generate("barrier", s, base_nodes=b, degree=3, subdivision_length=k),
        st.sampled_from([4, 6, 10, 20]),
        st.integers(1, 5),
        st.integers(0, 999),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    g=small_graphs,
    keep=st.one_of(st.none(), st.floats(0.3, 0.95)),
    mask_seed=st.integers(0, 2**16),
    eps=st.sampled_from([0.5, 0.1, 0.02]),
    seed=st.integers(0, 2**63 - 1),
)
def test_linial_saks_trees_are_bfs_trees_from_their_roots(g, keep, mask_seed, eps, seed):
    # every cluster's tree is the BFS tree from its root inside the mask,
    # restricted to the paths up from its members, and depth is the largest
    # member distance
    if keep is None:
        mask = NodeMask.full(g.n)
    else:
        mask = NodeMask(np.random.default_rng(mask_seed).random(g.n) < keep)
    if mask.count() == 0:
        return
    wc, _ = linial_saks_black_box(g, mask, eps, seed)
    alive = set(mask.node_ids().tolist())
    for c in wc.clusters:
        root = int(c.tree.root)
        parent, dist = ref_bfs_tree(g, alive, root)
        assert root not in c.tree.parent
        for v, p in c.tree.parent.items():
            assert parent[v] == p, (root, v)
        assert c.depth == max(dist[m] for m in c.nodes.tolist())


def test_linial_saks_redraw_exhaustion_raises_invariant_violation(monkeypatch):
    g = generate("gnp", seed=1, n=200, p=0.02)
    full = NodeMask.full(g.n)
    # the default number of attempts finds a compliant draw for every component
    linial_saks_black_box(g, full, 0.2, 2)
    monkeypatch.setattr(weak, "MAX_REDRAWS", 1)
    with pytest.raises(InvariantViolation, match=r"component min id 0, eps=0\.2\)"):
        linial_saks_black_box(g, full, 0.2, 2)
