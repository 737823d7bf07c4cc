"""Tests of the benchmark's independent checker and of its traced layers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import netdecomp as nd  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SMALL = [
    ("path", {"n": 300}, "strong"),
    ("path", {"n": 2000}, "refined"),
    ("gnp", {"n": 400, "p": 0.01}, "refined"),
    ("grid", {"rows": 15, "cols": 20}, "strong"),
]


def _decomposition(spec, seed=1):
    kind, params, pipeline = spec
    g = nd.generate(kind, seed=seed, **params)
    carver, bounds = run.recording_carver(nd, pipeline, nd.linial_saks_black_box)
    d, _ = nd.decompose(g, run.DECOMPOSE_SEED, carver)
    return g, list(d.clusters), bounds


def _failures(g, clusters, bounds):
    return check.check_decomposition(g.indptr, g.indices, clusters, bounds).failures


def _colors(g, clusters):
    col = np.zeros(g.n, dtype=np.int64)
    for c in clusters:
        col[c.nodes] = c.color
    return col


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("spec", SMALL)
def test_real_outputs_pass(spec, seed):
    op = run.run_op(nd, check, spec, seed)
    assert op["failures"] == []
    assert op["max_radius"] >= 1 and op["colors"] >= 1


def test_dropped_node_is_flagged():
    g, clusters, bounds = _decomposition(SMALL[0])
    k = next(i for i, c in enumerate(clusters) if len(c.nodes) > 1)
    c = clusters[k]
    drop = next(v for v in c.nodes if v != c.center)
    clusters[k] = dataclasses.replace(c, nodes=c.nodes[c.nodes != drop])
    assert any("not in exactly one cluster" in f for f in _failures(g, clusters, bounds))


def test_adjacent_clusters_of_one_color_are_flagged():
    g, clusters, bounds = _decomposition(SMALL[0])
    col = _colors(g, clusters)
    u = next(v for v in range(g.n - 1) if col[v] != col[v + 1])
    k = next(i for i, c in enumerate(clusters) if u + 1 in c.nodes)
    clusters[k] = dataclasses.replace(clusters[k], color=int(col[u]))
    assert any("joins two clusters" in f for f in _failures(g, clusters, bounds))


def test_cluster_split_in_two_is_flagged():
    # On a path every cluster is an interval; taking out an inner node that
    # is not the center leaves the cluster in two pieces.
    g, clusters, bounds = _decomposition(SMALL[0])
    k = next(i for i, c in enumerate(clusters) if len(c.nodes) >= 4)
    c = clusters[k]
    cut = int(c.nodes[1]) if c.nodes[1] != c.center else int(c.nodes[-2])
    other = next(col for col in bounds if col != c.color)
    clusters[k] = dataclasses.replace(c, nodes=c.nodes[c.nodes != cut])
    clusters.append(
        dataclasses.replace(c, id=len(clusters), color=other, nodes=np.array([cut]), center=cut)
    )
    pieces = f"{len(clusters) + 1} connected pieces for {len(clusters)} clusters"
    assert _failures(g, clusters, bounds) == [pieces]


def test_center_beyond_half_the_bound_is_flagged():
    g = nd.generate("path", n=9)
    whole = nd.DecompCluster(id=0, color=1, nodes=np.arange(9), center=4)
    assert _failures(g, [whole], {1: 8}) == []
    moved = dataclasses.replace(whole, center=0)
    assert _failures(g, [moved], {1: 8}) == ["cluster 0: 2*ecc(center)=16 exceeds bound 8"]


def test_too_many_colors_are_flagged():
    g = nd.generate("path", n=4)
    clusters = [nd.DecompCluster(id=v, color=v + 1, nodes=np.array([v]), center=v) for v in range(4)]
    bounds = {c: 0 for c in range(1, 5)}
    assert _failures(g, clusters, bounds) == ["4 colors exceed the bound 3"]


def test_ledger_and_text_checks():
    led = nd.RoundLedger()
    led.add("bfs", 3)
    assert check.check_ledger(led, nd.RoundLedger) == []
    led.total_rounds += 1
    assert check.check_ledger(led, nd.RoundLedger) != []
    g = nd.generate("path", n=5)
    assert check.check_text_roundtrip(g, nd.from_text(nd.to_text(g))) == []
    assert check.check_text_roundtrip(g, nd.generate("path", n=6)) != []


def test_an_operation_fails_on_a_failed_check_an_exception_or_a_changed_count(monkeypatch):
    first, problems = run.attempt(nd, check, SMALL[0], 1, None, None)
    assert problems == []
    assert run.attempt(nd, check, SMALL[0], 1, None, first)[1] == []
    assert run.attempt(nd, check, SMALL[0], 1, None, {**first, "rounds": first["rounds"] + 1})[1]

    real = run.run_op
    monkeypatch.setattr(run, "run_op", lambda *a: {**real(*a), "failures": ["corrupted"]})
    assert run.attempt(nd, check, SMALL[0], 1, None, first)[1] == ["corrupted"]

    def raising(*a):
        raise nd.InvariantViolation("broken")

    monkeypatch.setattr(run, "run_op", raising)
    op, problems = run.attempt(nd, check, SMALL[0], 1, None, first)
    assert op is None and "InvariantViolation" in problems[0]


@pytest.mark.parametrize("trace", [0, 1])
def test_main_counts_a_failed_operation(monkeypatch, capsys, tmp_path, trace):
    monkeypatch.setitem(run.WORKLOADS, "path-strong", SMALL[0])
    argv = ["--workload", "path-strong", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)

    real = run.run_op
    monkeypatch.setattr(run, "run_op", lambda *a: {**real(*a), "failures": ["corrupted"]})
    assert run.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "corrupted" in captured.err


# Layer metrics and the phase whose span encloses them.
PHASE_LAYERS = {
    "phase.setup_s": ("graph.generate_s", "graph.to_text_s", "graph.from_text_s"),
    "phase.decompose_s": (
        "decompose.s",
        "decompose.diameter_s",
        "strong.s",
        "refine.s",
        "refine.cut_or_cluster_s",
        "weak.s",
        "graph.components_s",
    ),
    "phase.verify_s": ("verify.s", "verify.diameter_s"),
}


@pytest.mark.parametrize("spec", SMALL[:3])
def test_layer_self_times_add_up_to_each_phase(spec):
    originals = [getattr(mod, attr) for mod, attr, _ in spans.PATCHES]
    tracer = spans.Tracer()
    with tracer.install():
        op = run.run_op(nd, check, spec, 1, tracer)
    assert [getattr(mod, attr) for mod, attr, _ in spans.PATCHES] == originals
    assert op["failures"] == []
    layers = run.layer_metrics(tracer)
    assert set(layers) == set(run.TIME_LAYERS.values()) | set(PHASE_LAYERS) | set(run.COUNTERS)
    for phase, names in PHASE_LAYERS.items():
        total = sum(layers[n] for n in names)
        assert total <= layers[phase] and total == pytest.approx(layers[phase], rel=0.01, abs=1e-3)
    assert layers["weak.calls"] >= 1 and layers["graph.components_calls"] >= 1
