import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netdecomp import generate, induced_diameter, refined_diameter_bound, weak
from netdecomp import verify as verifymod
from netdecomp.cli import cli_main


def run(argv):
    return cli_main(argv)


def test_gen_path_file_header(tmp_path):
    out = tmp_path / "p5.g"
    assert run(["gen", "--type", "path", "--n", "5", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("5 4\n")


def test_decompose_then_verify_roundtrip(tmp_path):
    gfile = tmp_path / "p5.g"
    dfile = tmp_path / "d.json"
    assert run(["gen", "--type", "path", "--n", "5", "--out", str(gfile)]) == 0
    assert (
        run(
            [
                "decompose",
                "--in", str(gfile),
                "--eps-impl", "refined",
                "--seed", "1",
                "--out", str(dfile),
            ]
        )
        == 0
    )
    assert (
        run(
            [
                "verify",
                "--mode", "decomposition",
                "--in", str(gfile),
                "--clustering", str(dfile),
            ]
        )
        == 0
    )


def test_verify_detects_tampering_exit_3(tmp_path, capsys):
    gfile = tmp_path / "g.g"
    dfile = tmp_path / "d.json"
    run(["gen", "--type", "gnp", "--n", "30", "--p", "0.2", "--seed", "2", "--out", str(gfile)])
    run(["decompose", "--in", str(gfile), "--seed", "2", "--out", str(dfile)])
    obj = json.loads(dfile.read_text())
    # drop one node out of the partition
    obj["clusters"][0]["nodes"].pop()
    dfile.write_text(json.dumps(obj))
    code = run(
        ["verify", "--mode", "decomposition", "--in", str(gfile), "--clustering", str(dfile)]
    )
    assert code == 3


def test_carve_writes_strong_carving_json(tmp_path):
    gfile = tmp_path / "g.g"
    cfile = tmp_path / "c.json"
    lfile = tmp_path / "c.ledger.json"
    run(["gen", "--type", "path", "--n", "64", "--out", str(gfile)])
    assert (
        run(
            [
                "carve",
                "--in", str(gfile),
                "--eps", "0.5",
                "--seed", "7",
                "--out", str(cfile),
                "--ledger-out", str(lfile),
            ]
        )
        == 0
    )
    obj = json.loads(cfile.read_text())
    assert obj["type"] == "strong-carving"
    for d in obj["dead"]:
        assert d["cause"] in ("black-box", "boundary")
    led = json.loads(lfile.read_text())
    assert led["total"] == sum(e["rounds"] for e in led["breakdown"])
    code = run(
        ["verify", "--mode", "carving", "--in", str(gfile), "--clustering", str(cfile),
         "--eps", "0.5", "--d-bound", str(obj["stats"]["diameter_bound"])]
    )
    assert code == 0


def test_bad_flags_exit_2(capsys):
    assert run(["frobnicate"]) == 2
    assert run(["gen", "--type", "dodecahedron", "--out", "x"]) == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--type", "regular_expander", "--n", "7", "--deg", "6"],
        ["--type", "barrier", "--base-nodes", "7", "--deg", "6", "--sub-len", "2"],
    ],
    ids=["regular_expander", "barrier"],
)
def test_gen_undrawable_regular_base_exit_2(tmp_path, capsys, flags):
    # the configuration model gives up on the only 6-regular graph on 7 nodes
    out = tmp_path / "g.g"
    assert run(["gen", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n=7" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--type", "path", "--n", str(10**15)],
        ["--type", "gnp", "--n", str(10**15), "--p", "0"],
        ["--type", "grid", "--rows", str(10**9), "--cols", str(10**6)],
    ],
    ids=["path", "gnp", "grid"],
)
def test_gen_unallocatable_node_count_exit_2(tmp_path, capsys, flags):
    # 10**15 nodes need 7.1 PiB per id array: refused at once, never reserved
    out = tmp_path / "g.g"
    assert run(["gen", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: node count n={10**15} is too large to allocate\n"
    assert not out.exists()


@pytest.mark.parametrize("eps_impl", ["refined", "strong"])
def test_carve_empty_graph(tmp_path, eps_impl):
    gfile = tmp_path / "empty.g"
    gfile.write_text("0 0\n")
    out = tmp_path / "c.json"
    argv = ["carve", "--in", str(gfile), "--eps", "0.5", "--eps-impl", eps_impl, "--seed", "7"]
    assert run([*argv, "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["clusters"] == [] and obj["seed"] == 7
    assert obj["stats"]["diameter_bound"] == 0


@pytest.mark.parametrize("eps", ["1e-300", "5e-324"])
@pytest.mark.parametrize("eps_impl", ["refined", "strong"])
def test_carve_eps_too_small_exit_2(tmp_path, capsys, eps_impl, eps):
    # no growth window or radius cap derived from this eps fits below 2**62;
    # refined hands its carver eps/(4*LMAX), 2.5e-302 or 0.0 on 50 nodes, and
    # the error names the eps on the command line, the derived one as reason
    gfile = tmp_path / "p50.g"
    assert run(["gen", "--type", "path", "--n", "50", "--out", str(gfile)]) == 0
    out = tmp_path / "c.json"
    argv = ["carve", "--in", str(gfile), "--eps", eps, "--eps-impl", eps_impl]
    assert run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith((f"error: eps={eps}:", f"error: eps={eps} ")), err
    assert "Traceback" not in err
    assert not out.exists()


def test_missing_file_exit_1(tmp_path):
    assert run(["decompose", "--in", str(tmp_path / "nope.g"), "--out", str(tmp_path / "o")]) == 1


def test_strong_trivial_decomposition_checked_against_its_own_bound(tmp_path):
    # the strong pipeline with the trivial black box guarantees 2*R_bb + 2*K,
    # far above the refined pipeline's bound on a long path
    gfile = tmp_path / "p.g"
    dfile = tmp_path / "d.json"
    assert run(["gen", "--type", "path", "--n", "6000", "--out", str(gfile)]) == 0
    assert run(["decompose", "--in", str(gfile), "--eps-impl", "strong",
                "--black-box", "trivial", "--out", str(dfile)]) == 0
    stats = json.loads(dfile.read_text())["stats"]
    assert stats["max_diameter"] <= stats["diameter_bound"]
    assert stats["diameter_bound"] > refined_diameter_bound(6000, 0.5)
    assert run(["verify", "--mode", "decomposition", "--in", str(gfile),
                "--clustering", str(dfile)]) == 0


def test_malformed_graph_file_exit_4(tmp_path):
    gfile = tmp_path / "bad.g"
    gfile.write_text("3 1\n0 5\n")
    assert run(["decompose", "--in", str(gfile), "--out", str(tmp_path / "o")]) == 4
    gfile.write_bytes(b"\xff\xfe")
    assert run(["decompose", "--in", str(gfile), "--out", str(tmp_path / "o")]) == 4


def test_negative_node_count_file_exit_4(tmp_path):
    gfile = tmp_path / "neg.g"
    gfile.write_text("-1 0\n")
    dfile = tmp_path / "d.json"
    dfile.write_text("{}")
    argv = ["verify", "--mode", "decomposition", "--in", str(gfile), "--clustering", str(dfile)]
    assert run(argv) == 4


def test_unallocatable_node_count_file_exit_4(tmp_path, capsys):
    # 10**15 nodes need 7.1 PiB of offsets: refused at once, never reserved
    gfile = tmp_path / "huge.g"
    gfile.write_text(f"{10**15} 0\n")
    assert run(["decompose", "--in", str(gfile), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert f"n={10**15}" in err and "Traceback" not in err


def test_module_entry_point_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def module(*argv):
        cmd = [sys.executable, "-m", "netdecomp.cli", *argv]
        return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)

    out = tmp_path / "p5.g"
    assert module("gen", "--type", "path", "--n", "5", "--out", str(out)).returncode == 0
    assert out.read_text().startswith("5 4\n")
    assert module("gen", "--type", "nope", "--out", str(out)).returncode == 2


def test_invariant_violation_exit_5(tmp_path, monkeypatch):
    # radius 0 everywhere kills every node, so every redraw breaks the budget
    monkeypatch.setattr(
        weak, "_draw_radii", lambda rng, k, p, r_cap: np.zeros(k, dtype=np.int64)
    )
    gfile = tmp_path / "p.g"
    assert run(["gen", "--type", "path", "--n", "20", "--out", str(gfile)]) == 0
    out = tmp_path / "d.json"
    assert run(["decompose", "--in", str(gfile), "--out", str(out)]) == 5
    assert not out.exists()


# ----------------------------------------------------------------------------
# malformed clustering files
# ----------------------------------------------------------------------------


def _verify_clustering(tmp_path, clustering, mode="decomposition", n=5, flags=()):
    gfile = tmp_path / f"p{n}.g"
    assert run(["gen", "--type", "path", "--n", str(n), "--out", str(gfile)]) == 0
    dfile = tmp_path / "d.json"
    if isinstance(clustering, bytes):
        dfile.write_bytes(clustering)
    else:
        dfile.write_text(clustering if isinstance(clustering, str) else json.dumps(clustering))
    return run(["verify", "--mode", mode, "--in", str(gfile), "--clustering", str(dfile), *flags])


@pytest.mark.parametrize(
    "clustering",
    [
        {"clusters": [{"color": 1, "nodes": [0, 1, 2, 3, 4]}]},  # no "id"
        [{"id": 0, "color": 1, "nodes": [0, 1, 2, 3, 4]}],  # top level is a list
        {"clusters": [{"id": 0, "color": 1, "nodes": [0, 1, 2, 3, "x"]}]},
        {"clusters": [{"id": 0, "color": 1, "nodes": [0, 1, 2, 3, 4, 7]}]},
        {"clusters": [{"id": 0, "color": 1, "nodes": [-1, 0, 1, 2, 3, 4]}]},
        {"clusters": [{"id": True, "color": 1, "nodes": [0, 1, 2, 3, 4]}]},
        {"clusters": [[0, 1, 2, 3, 4]]},
    ],
    ids=["no-id", "top-level-list", "node-x", "node-7", "node-minus-1", "bool-id", "bare-list"],
)
def test_malformed_clustering_file_exit_4(tmp_path, capsys, clustering):
    assert _verify_clustering(tmp_path, clustering) == 4
    assert "malformed clustering file" in capsys.readouterr().err


def test_malformed_carving_dead_entry_exit_4(tmp_path):
    clustering = {"clusters": [{"id": 0, "nodes": [0, 1, 2, 3]}], "dead": [{"cause": "boundary"}]}
    assert _verify_clustering(tmp_path, clustering, mode="carving") == 4


def test_unparsable_clustering_json_exit_1(tmp_path):
    assert _verify_clustering(tmp_path, "{not json") == 1


@pytest.mark.parametrize(
    "clustering",
    [b"\xff\xfe{}", "[" * 200_000 + "]" * 200_000],  # not UTF-8; nested past the parser's limit
    ids=["not-utf8", "nested-200000"],
)
def test_undecodable_clustering_exit_1(tmp_path, capsys, clustering):
    assert _verify_clustering(tmp_path, clustering) == 1
    assert capsys.readouterr().err.startswith("I/O error:")


def _printed_violations(capsys) -> list[dict]:
    out = capsys.readouterr().out.splitlines()
    return [json.loads(line) for line in out if line.startswith("{")]


def test_repeated_cluster_id_exit_3(tmp_path, capsys):
    clustering = {
        "clusters": [{"id": 0, "color": 1, "nodes": [0, 1]}, {"id": 0, "color": 1, "nodes": [2, 3]}]
    }
    assert _verify_clustering(tmp_path, clustering, n=4) == 3
    found = _printed_violations(capsys)
    assert {"kind": "not-partition", "witness": {"reason": "duplicate-id", "ids": [0]}} in found
    assert {"kind": "adjacent-same-color", "witness": {"edge": [1, 2], "clusters": [0, 0]}} in found
    assert all(v["witness"].get("reason") != "uncovered" for v in found)


def test_huge_colors_are_compared_exactly(tmp_path, capsys):
    # colors are arbitrary integers, also ones beyond int64
    one = {"clusters": [{"id": 0, "color": 10**23, "nodes": [0, 1, 2, 3, 4]}]}
    assert _verify_clustering(tmp_path, one) == 0
    capsys.readouterr()
    two = {
        "clusters": [
            {"id": 0, "color": 10**23, "nodes": [0, 1]},
            {"id": 1, "color": 10**23, "nodes": [2, 3, 4]},
        ]
    }
    assert _verify_clustering(tmp_path, two) == 3
    found = _printed_violations(capsys)
    assert found == [{"kind": "adjacent-same-color", "witness": {"edge": [1, 2], "clusters": [0, 1]}}]


# one cluster of diameter 4 on a 5-node path, recorded bound 4: valid by default
_ONE_CLUSTER = {
    "colors": 1,
    "clusters": [{"id": 0, "color": 1, "nodes": [0, 1, 2, 3, 4]}],
    "stats": {"diameter_bound": 4},
}


def test_zero_bounds_are_bounds(tmp_path, capsys):
    assert _verify_clustering(tmp_path, _ONE_CLUSTER) == 0
    capsys.readouterr()
    assert _verify_clustering(tmp_path, _ONE_CLUSTER, flags=["--d-bound", "0"]) == 3
    assert [v["kind"] for v in _printed_violations(capsys)] == ["diameter-exceeded"]
    assert _verify_clustering(tmp_path, _ONE_CLUSTER, flags=["--c-bound", "0"]) == 3
    assert [v["kind"] for v in _printed_violations(capsys)] == ["color-bound-exceeded"]


# one cluster of diameter 5 on a 6-node path; the bound token is filled in
_PATH6_BOUND = (
    '{"clusters": [{"id": 0, "color": 1, "nodes": [0, 1, 2, 3, 4, 5]}],'
    ' "stats": {"diameter_bound": %s}}'
)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_bound_in_file_exit_4(tmp_path, capsys, token):
    # json.load accepts these tokens; a NaN or infinite bound passes any cluster
    assert _verify_clustering(tmp_path, _PATH6_BOUND % "2", n=6) == 3
    capsys.readouterr()
    assert _verify_clustering(tmp_path, _PATH6_BOUND % token, n=6) == 4
    assert "diameter_bound is not a finite number" in capsys.readouterr().err


def test_non_finite_eps_in_carving_file_exit_4(tmp_path, capsys):
    # 5 of 6 nodes dead exceeds any finite eps below 5/6
    dead = ", ".join(f'{{"node": {v}}}' for v in range(1, 6))
    carving = '{"eps": %s, "clusters": [{"id": 0, "nodes": [0]}], "dead": [%s]}'
    assert _verify_clustering(tmp_path, carving % ("0.5", dead), mode="carving", n=6) == 3
    capsys.readouterr()
    assert _verify_clustering(tmp_path, carving % ("NaN", dead), mode="carving", n=6) == 4
    assert "eps is not a finite number" in capsys.readouterr().err


# all 6 nodes of a 6-node path dead: over budget for every eps in (0, 1);
# the eps token is filled in
_PATH6_ALL_DEAD = (
    '{"eps": %s, "clusters": [], "dead": ['
    + ", ".join(f'{{"node": {v}}}' for v in range(6))
    + "]}"
)


def test_eps_outside_unit_interval_in_carving_file_exit_4(tmp_path, capsys):
    assert _verify_clustering(tmp_path, _PATH6_ALL_DEAD % "0.5", mode="carving", n=6) == 3
    capsys.readouterr()
    assert _verify_clustering(tmp_path, _PATH6_ALL_DEAD % "5", mode="carving", n=6) == 4
    err = capsys.readouterr().err
    assert "malformed clustering file" in err and "eps 5 is not in (0, 1)" in err


def test_verify_eps_flag_outside_unit_interval_exit_2(tmp_path, capsys):
    flags = ["--eps", "7"]
    assert _verify_clustering(tmp_path, _PATH6_ALL_DEAD % "0.5", "carving", 6, flags) == 2
    assert "'7' is not in (0, 1)" in capsys.readouterr().err


def test_verify_eps_flag_under_decomposition_mode_exit_2(tmp_path, capsys):
    # a decomposition has no eps to check: the flag would change nothing
    assert _verify_clustering(tmp_path, _ONE_CLUSTER, flags=["--eps", "0.5"]) == 2
    assert "--eps applies only to --mode carving" in capsys.readouterr().err


def test_verify_c_bound_flag_under_carving_mode_exit_2(tmp_path, capsys):
    # a carving has no colors to bound: the flag would change nothing
    flags = ["--c-bound", "3"]
    assert _verify_clustering(tmp_path, _PATH6_ALL_DEAD % "0.5", "carving", 6, flags) == 2
    assert "--c-bound applies only to --mode decomposition" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--d-bound", "--eps"])
def test_non_finite_verify_flag_exit_2(tmp_path, capsys, flag, value):
    mode = "carving" if flag == "--eps" else "decomposition"
    assert _verify_clustering(tmp_path, _PATH6_BOUND % "2", mode, 6, [flag, value]) == 2
    assert "is not a finite number" in capsys.readouterr().err


# ----------------------------------------------------------------------------
# measured diameters in the written JSON
# ----------------------------------------------------------------------------


def test_written_diameters_are_the_measured_ones(tmp_path):
    gfile = tmp_path / "g.g"
    dfile = tmp_path / "d.json"
    cfile = tmp_path / "c.json"
    run(["gen", "--type", "gnp", "--n", "60", "--p", "0.08", "--seed", "3", "--out", str(gfile)])
    g = generate("gnp", seed=3, n=60, p=0.08)
    assert run(["decompose", "--in", str(gfile), "--out", str(dfile)]) == 0
    obj = json.loads(dfile.read_text())
    assert set(obj["stats"]) == {
        "rounds", "diameter_bound", "n", "max_diameter", "max_diameter_exact"
    }
    measured = [induced_diameter(g, c["nodes"]) for c in obj["clusters"]]
    assert obj["stats"]["max_diameter"] == max(r.value for r in measured)
    assert obj["stats"]["max_diameter_exact"] is True
    assert run(["carve", "--in", str(gfile), "--eps", "0.5", "--out", str(cfile)]) == 0
    obj = json.loads(cfile.read_text())
    for c in obj["clusters"]:
        assert c["diameter"] == induced_diameter(g, c["nodes"]).value
    assert obj["stats"]["max_diameter"] == max(c["diameter"] for c in obj["clusters"])
    assert obj["stats"]["max_diameter_exact"] is True


def test_decompose_measures_each_cluster_once(tmp_path, monkeypatch):
    decompose_mod = importlib.import_module("netdecomp.decompose")
    verify_mod = importlib.import_module("netdecomp.verify")

    def refuse(g, nodes):
        raise AssertionError("decompose measured a cluster diameter")

    sizes = []

    def counted(g, nodes, positions, real=verify_mod._induced_diameter):
        sizes.append(len(nodes))
        return real(g, nodes, positions)

    monkeypatch.setattr(decompose_mod, "induced_diameter", refuse)
    monkeypatch.setattr(verify_mod, "_induced_diameter", counted)
    gfile = tmp_path / "p.g"
    dfile = tmp_path / "d.json"
    assert run(["gen", "--type", "path", "--n", "2000", "--out", str(gfile)]) == 0
    assert run(["decompose", "--in", str(gfile), "--out", str(dfile)]) == 0
    clusters = json.loads(dfile.read_text())["clusters"]
    assert sorted(sizes) == sorted(len(c["nodes"]) for c in clusters)


def test_certified_bound_written_as_inexact(tmp_path, monkeypatch):
    # with a tiny BFS budget and no exact finisher, the giant G(n,p) cluster
    # only gets a certified upper bound
    monkeypatch.setattr(verifymod, "_BFS_BUDGET", 7)
    monkeypatch.setattr(verifymod, "_EXACT_THRESHOLD", 0)
    gfile = tmp_path / "g.g"
    dfile = tmp_path / "d.json"
    run(["gen", "--type", "gnp", "--n", "120", "--p", "0.05", "--seed", "4", "--out", str(gfile)])
    assert run(["decompose", "--in", str(gfile), "--out", str(dfile)]) == 0
    stats = json.loads(dfile.read_text())["stats"]
    assert stats["max_diameter_exact"] is False
    assert stats["max_diameter"] <= stats["diameter_bound"]


# ----------------------------------------------------------------------------
# every pipeline the CLI accepts, on every generator family
# ----------------------------------------------------------------------------


def _gen_args(family: str, n: int) -> list[str]:
    if family == "gnp":
        return ["--type", "gnp", "--n", str(n), "--p", "0.1"]
    if family == "regular_expander":
        return ["--type", "regular_expander", "--n", str(max(n, 5)), "--deg", "4"]
    if family == "barrier":
        base = max(4, n // 4 * 2)  # even, so base * degree 3 is even
        return ["--type", "barrier", "--base-nodes", str(base), "--deg", "3", "--sub-len", "3"]
    return ["--type", family, "--n", str(n)]


@pytest.mark.parametrize("eps_impl", ["strong", "refined"])
@pytest.mark.parametrize("black_box", ["trivial", "linial_saks"])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    family=st.sampled_from(["path", "grid", "gnp", "regular_expander", "barrier"]),
    n=st.integers(1, 60),
    gen_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**16),
)
def test_every_pipeline_roundtrips_through_cli(
    tmp_path, eps_impl, black_box, family, n, gen_seed, seed
):
    gfile = tmp_path / "g.g"
    dfile = tmp_path / "d.json"
    argv = ["gen", *_gen_args(family, n), "--seed", str(gen_seed), "--out", str(gfile)]
    assert run(argv) == 0
    assert run(["decompose", "--in", str(gfile), "--eps-impl", eps_impl, "--black-box",
                black_box, "--seed", str(seed), "--out", str(dfile)]) == 0
    stats = json.loads(dfile.read_text())["stats"]
    assert stats["max_diameter"] <= stats["diameter_bound"]
    assert stats["max_diameter_exact"] is True
    assert run(["verify", "--mode", "decomposition", "--in", str(gfile),
                "--clustering", str(dfile)]) == 0
