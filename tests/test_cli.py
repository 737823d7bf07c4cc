import json

import numpy as np

from netdecomp import refined_diameter_bound, weak
from netdecomp.cli import CSV_HEADER, cli_main


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


def test_missing_file_exit_1(tmp_path):
    assert run(["decompose", "--in", str(tmp_path / "nope.g"), "--out", str(tmp_path / "o")]) == 1


def test_bench_csv_columns_and_determinism(tmp_path):
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    args = ["bench", "--family", "gnp", "--sizes", "32,64", "--trials", "2", "--seed", "9"]
    assert run(args + ["--csv", str(csv1)]) == 0
    assert run(args + ["--csv", str(csv2)]) == 0
    rows1 = csv1.read_text().strip().split("\n")
    assert rows1[0] == CSV_HEADER
    assert len(rows1) == 5
    strip = lambda text: ["," .join(r.split(",")[:-1]) for r in text.strip().split("\n")]
    # identical modulo the wall-clock column
    assert strip(csv1.read_text()) == strip(csv2.read_text())


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
