import gc
import importlib
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from netdecomp import (
    NodeMask,
    complete_graph,
    cut_or_cluster,
    generate,
    induced_diameter,
    make_strong_carver,
    min_ratio_layer,
    refine,
    refined_diameter_bound,
    trivial_black_box,
    linial_saks_black_box,
    verify_strong_carving,
)
from netdecomp.graph import _preorder
from netdecomp.refine import _halve

from conftest import (
    check_cut_or_cluster_outcome,
    check_halvings,
    fuzz_graph,
    record_halvings,
)

# the package's `refine` function shadows the submodule of the same name
refine_mod = importlib.import_module("netdecomp.refine")


# ----------------------------------------------------------------------------
# min_ratio_layer
# ----------------------------------------------------------------------------


def test_min_ratio_arithmetic_example():
    assert min_ratio_layer([3, 4, 8, 9], 0) == 2


def test_min_ratio_constant_sizes_first_index():
    assert min_ratio_layer([7, 7, 7, 7], 5) == 5


def test_min_ratio_empty_range():
    with pytest.raises(ValueError):
        min_ratio_layer([4], 0)


def test_min_ratio_matches_fraction_scan_oracle():
    rng = np.random.default_rng(77)
    for _ in range(300):
        k = int(rng.integers(2, 12))
        sizes = np.cumsum(rng.integers(0, 5, size=k) + (rng.random(k) < 0.5)).astype(int) + 1
        sizes = sizes.tolist()
        lo = int(rng.integers(0, 50))
        got = min_ratio_layer(sizes, lo)
        ratios = [Fraction(sizes[i + 1], sizes[i]) for i in range(len(sizes) - 1)]
        best = min(range(len(ratios)), key=lambda i: (ratios[i], i))
        assert got == lo + best


# ----------------------------------------------------------------------------
# the halving step of cut_or_cluster
# ----------------------------------------------------------------------------


def halve(g, seeds, b):
    """One halving step on the whole (connected) graph, with the seeds put
    in the preorder cut_or_cluster keeps its seed set in."""
    alive = NodeMask.full(g.n).as_bytes()
    pos = {v: i for i, v in enumerate(_preorder(g.adj, alive, 0, g.scratch)[0])}
    ordered = sorted((int(v) for v in seeds), key=pos.__getitem__)
    return _halve(g.adj, alive, ordered, g.scratch, g.n, b)


def test_halve_two_node_edge():
    g = generate("path", n=2)
    chosen, a1, a2 = halve(g, [0, 1], b=1)
    assert chosen in ([0], [1])
    assert min(a1, a2) <= 1


def test_halve_p8_full_seed_keeps_zero_radius():
    # |S| = 8 on P8: both halves already cover n/3 = 8/3 at radius 0
    g = generate("path", n=8)
    chosen, a1, a2 = halve(g, range(8), b=0)
    assert min(a1, a2) == 0
    assert len(chosen) == 4


def test_halve_requires_two_nodes():
    g = generate("path", n=3)
    with pytest.raises(ValueError):
        halve(g, [1], b=0)


def test_halve_radius_never_exceeds_b_random():
    from conftest import ref_coverage_radius

    rng = np.random.default_rng(5)
    for _ in range(40):
        g = fuzz_graph(rng, max_n=60, connected=True)
        if g.n < 2:
            continue
        alive = set(range(g.n))
        k = int(rng.integers(2, g.n + 1))
        seed_nodes = sorted(rng.choice(g.n, size=k, replace=False).tolist())
        a = ref_coverage_radius(g, alive, seed_nodes, g.n / 3)
        b = ref_coverage_radius(g, alive, seed_nodes, 2 * g.n / 3)
        chosen, a1, a2 = halve(g, seed_nodes, b)
        # recompute the new radius from scratch
        a_new = ref_coverage_radius(g, alive, chosen, g.n / 3)
        assert a_new == min(a1, a2)
        assert a_new <= b


# ----------------------------------------------------------------------------
# cut_or_cluster
# ----------------------------------------------------------------------------


def test_complete_graph_forces_component_variant():
    g = complete_graph(9)
    out, _ = cut_or_cluster(g, NodeMask.full(9), 0.5)
    assert out.variant == "component"
    assert out.inner.tolist() == list(range(9))
    assert out.layer.size == 0 and out.outer.size == 0
    assert induced_diameter(g, out.inner).value == 1


def test_single_node_component():
    g = generate("path", n=1)
    out, _ = cut_or_cluster(g, NodeMask.full(1), 0.5)
    assert out.variant == "component" and out.inner.tolist() == [0] and out.center == 0
    assert out.layer.size == 0 and out.outer.size == 0


@pytest.mark.parametrize("eps", [1e-300, 1e-15])
def test_eps_too_small_for_the_halo_window(eps):
    # rho = 1 + eps / (8 ln n) rounds to 1, so log(rho) is 0
    g = generate("path", n=50)
    with pytest.raises(ValueError, match="eps="):
        cut_or_cluster(g, NodeMask.full(50), eps)


def test_refine_budget_errors_name_the_passed_eps():
    # eps/(4*LMAX) fits the trivial carver's growth cap, but cut_or_cluster's
    # 1 + eps_cc / (8 ln n) rounds to 1; for 1e-300 the carver's cap fails
    g, mask = generate("path", n=50), NodeMask.full(50)
    carver = make_strong_carver(trivial_black_box)
    with pytest.raises(ValueError, match=r"^eps=1e-15: cut_or_cluster rejects eps="):
        refine(g, mask, 1e-15, 0, carver)
    with pytest.raises(ValueError, match=r"^eps=1e-300: the carver rejects eps/\(4\*LMAX\)="):
        refine(g, mask, 1e-300, 0, carver)


def test_refine_empty_mask_declares_a_zero_bound():
    g = generate("path", n=3)
    empty = NodeMask.from_nodes(3, [])
    sc = refine(g, empty, 0.5, 7, make_strong_carver(trivial_black_box))
    assert sc.clusters == [] and sc.meta["diameter_bound"] == 0 and sc.meta["seed"] == 7


def test_disconnected_input_rejected():
    g = generate("path", n=4)
    with pytest.raises(ValueError):
        cut_or_cluster(g, NodeMask.from_nodes(4, [0, 2, 3]), 0.5)


def test_connectivity_is_read_off_the_preorder(monkeypatch):
    def refuse(g, mask):
        raise AssertionError("cut_or_cluster split its mask into components")

    monkeypatch.setattr(refine_mod, "connected_components", refuse)
    g = generate("path", n=30)
    mask = NodeMask.full(30)
    out, _ = cut_or_cluster(g, mask, 0.5)
    check_cut_or_cluster_outcome(g, mask.node_ids(), out, 0.5)
    with pytest.raises(ValueError, match="connected"):
        cut_or_cluster(g, NodeMask.from_nodes(30, [v for v in range(30) if v != 10]), 0.5)


def test_long_path_yields_single_layer_cut(monkeypatch):
    calls = record_halvings(monkeypatch)
    g = generate("path", n=4096)
    mask = NodeMask.full(4096)
    out, led = cut_or_cluster(g, mask, 0.5)
    assert out.variant == "cut"
    assert len(out.layer) <= 2
    check_cut_or_cluster_outcome(g, mask.node_ids(), out, 0.5)
    check_halvings(g, mask.node_ids(), out, 0.5, calls)
    # ledger within (3D)(H+1) + D for the true diameter D = n-1
    assert led.total_rounds <= 3 * 4095 * (len(calls) + 1) + 4095


def test_fuzz_outcomes_verified_with_trace_oracle(monkeypatch):
    calls = record_halvings(monkeypatch)
    rng = np.random.default_rng(404)
    for trial in range(30):
        g = fuzz_graph(rng, max_n=120, connected=True)
        mask = NodeMask.full(g.n)
        eps = float(rng.uniform(0.15, 0.9))
        calls.clear()
        out, _ = cut_or_cluster(g, mask, eps)
        exact = None
        if out.variant == "component":
            exact = induced_diameter(g, out.inner).value
        check_cut_or_cluster_outcome(g, mask.node_ids(), out, eps, exact_diameter=exact)
        check_halvings(g, mask.node_ids(), out, eps, calls)


# ----------------------------------------------------------------------------
# refine
# ----------------------------------------------------------------------------


def test_refine_single_node():
    g = generate("path", n=1)
    sc = refine(g, NodeMask.full(1), 0.5, 0, make_strong_carver(trivial_black_box))
    assert len(sc.clusters) == 1 and len(sc.dead) == 0


def test_refine_complete_graph_one_cluster_no_dead():
    g = complete_graph(40)
    sc = refine(g, NodeMask.full(40), 0.5, 1, make_strong_carver(trivial_black_box))
    assert len(sc.clusters) == 1
    assert len(sc.dead) == 0
    assert induced_diameter(g, sc.clusters[0].nodes).value == 1


def _spied_strong_carver():
    """The strong carver, plus the list of parts refine hands it."""
    carver = make_strong_carver(linial_saks_black_box)
    parts: list[frozenset] = []

    def spy(g, mask, eps, seed):
        parts.append(frozenset(mask.node_ids().tolist()))
        return carver(g, mask, eps, seed)

    return spy, parts


def _recursion_depth(parts) -> int:
    """Deepest refine level: a part's level is 1 plus its strict ancestors."""
    return max(1 + sum(1 for q in parts[:k] if p < q) for k, p in enumerate(parts))


def test_refine_sparse_gnp_passes_verifier_with_refined_bound():
    # moderately large sparse instance; both bounds hold individually
    g = generate("gnp", 3, n=2000, p=0.003)
    mask = NodeMask.full(g.n)
    carver, parts = _spied_strong_carver()
    sc = refine(g, mask, 0.5, 3, carver)
    bound = sc.meta["diameter_bound"]
    assert bound == refined_diameter_bound(2000, 0.5)
    violations = verify_strong_carving(g, mask, sc, 0.5, bound)
    assert not violations, [v.to_json() for v in violations]
    assert _recursion_depth(parts) <= math.ceil(math.log(2000) / math.log(1.5))


def test_refine_path_recursion_within_levels_bound():
    # the gnp instance above is settled at the first level; a long path recurses
    g = generate("path", n=2000)
    carver, parts = _spied_strong_carver()
    refine(g, NodeMask.full(g.n), 0.5, 3, carver)
    assert 1 < _recursion_depth(parts) <= math.ceil(math.log(2000) / math.log(1.5))


def test_refine_dead_budget_split_under_half_eps():
    rng = np.random.default_rng(15)
    for trial in range(8):
        g = fuzz_graph(rng, max_n=200)
        mask = NodeMask.full(g.n)
        eps = float(rng.uniform(0.2, 0.8))
        sc = refine(g, mask, eps, trial, make_strong_carver(linial_saks_black_box))
        assert len(sc.dead) <= eps * g.n
        violations = verify_strong_carving(g, mask, sc, eps, sc.meta["diameter_bound"])
        assert not violations


def test_refined_bound_monotone_in_n():
    vals = [refined_diameter_bound(n, 0.5) for n in (2, 16, 256, 4096)]
    assert vals == sorted(vals)
    assert refined_diameter_bound(1000, 0.25) > refined_diameter_bound(1000, 0.5)


def test_refine_frees_the_graph_without_a_garbage_collection():
    # a reference cycle through the graph (and its traversal workspace)
    # would keep both alive until the next full collection
    g = generate("path", n=300)
    alive = weakref.ref(g)
    gc.disable()
    try:
        refine(g, NodeMask.full(g.n), 0.5, 1, make_strong_carver(linial_saks_black_box))
        del g
        assert alive() is None
    finally:
        gc.enable()
