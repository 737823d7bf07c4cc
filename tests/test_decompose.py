import json
import math

import numpy as np
import pytest

from netdecomp import (
    InvariantViolation,
    RoundLedger,
    StrongCarving,
    StrongCluster,
    complete_graph,
    decompose,
    generate,
    make_refined_carver,
    make_strong_carver,
    refined_diameter_bound,
    trivial_black_box,
    linial_saks_black_box,
    verify_decomposition,
)

from conftest import fuzz_graph


def _bounds(n):
    c = (max(1, math.ceil(math.log2(n))) if n > 1 else 0) + 1
    return c, refined_diameter_bound(max(n, 1), 0.5)


def test_single_node_one_cluster_color_one():
    g = generate("path", n=1)
    d, led = decompose(g, 0, make_refined_carver(trivial_black_box))
    assert d.colors == 1
    assert len(d.clusters) == 1
    assert d.clusters[0].color == 1
    assert not verify_decomposition(g, d, 1, 0)


def test_complete_graph_single_color():
    g = complete_graph(12)
    d, _ = decompose(g, 0, make_strong_carver(trivial_black_box))
    assert d.colors == 1
    assert len(d.clusters) == 1


def test_gnp_1000_refined_within_bounds():
    g = generate("gnp", 5, n=1000, p=0.01)
    d, led = decompose(g, 5, make_refined_carver(linial_saks_black_box))
    c_bound, d_bound = _bounds(1000)
    assert c_bound == 11
    violations = verify_decomposition(g, d, c_bound, d_bound)
    assert not violations, [v.to_json() for v in violations]
    assert d.stats["rounds"] == led.total_rounds


def test_remaining_counts_halve():
    rng = np.random.default_rng(2)
    for trial in range(6):
        g = fuzz_graph(rng, max_n=300)
        d, _ = decompose(g, trial, make_refined_carver(linial_saks_black_box))
        trace = d.stats["remaining_trace"]
        for before, after in zip(trace, trace[1:]):
            assert after <= before / 2
        assert d.colors <= _bounds(g.n)[0]


def test_colors_assigned_by_iteration_and_ids_unique():
    g = generate("path", n=600)
    d, _ = decompose(g, 9, make_refined_carver(linial_saks_black_box))
    ids = [c.id for c in d.clusters]
    assert ids == list(range(len(ids)))
    colors = sorted({c.color for c in d.clusters})
    assert colors == list(range(1, d.colors + 1))
    # every node exactly once
    cid, col = d.assignment()
    assert (cid >= 0).all() and (col >= 1).all()


def test_budget_breach_raises_invariant_violation():
    def bad_carver(g, mask, eps, seed):
        ids = mask.node_ids()
        keep = ids[: max(1, len(ids) // 4)]
        dead = ids[max(1, len(ids) // 4) :]
        return StrongCarving(
            clusters=[StrongCluster(nodes=keep, center=int(keep[0]))],
            dead_black_box=dead,
            dead_boundary=np.zeros(0, dtype=np.int64),
            ledger=RoundLedger(),
        )

    g = generate("path", n=64)
    with pytest.raises(InvariantViolation):
        decompose(g, 0, bad_carver)


def test_decomposition_json_schema():
    g = generate("gnp", 4, n=50, p=0.1)
    d, led = decompose(g, 4, make_refined_carver(linial_saks_black_box))
    obj = d.to_json()
    assert set(obj) == {"colors", "clusters", "stats"}
    assert set(obj["stats"]) == {"rounds", "diameter_bound", "n"}
    assert obj["stats"]["diameter_bound"] == refined_diameter_bound(50, 0.5)
    for c in obj["clusters"]:
        assert set(c) == {"id", "color", "nodes"}
    assert obj["stats"]["rounds"] == led.total_rounds
    assert obj["stats"]["n"] == 50


def test_disconnected_graph_components_handled():
    g = generate("gnp", 8, n=120, p=0.015)  # typically disconnected
    d, _ = decompose(g, 8, make_refined_carver(linial_saks_black_box))
    c_bound, d_bound = _bounds(120)
    assert not verify_decomposition(g, d, c_bound, d_bound)


def test_determinism_bytes():
    g = generate("gnp", 6, n=200, p=0.02)
    a = decompose(g, 11, make_refined_carver(linial_saks_black_box))
    b = decompose(g, 11, make_refined_carver(linial_saks_black_box))
    assert json.dumps(a[0].to_json()) == json.dumps(b[0].to_json())
    assert json.dumps(a[1].to_json()) == json.dumps(b[1].to_json())
