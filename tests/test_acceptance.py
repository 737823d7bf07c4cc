"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Everything here goes through public interfaces and the independent
oracles in conftest; nothing reaches into algorithm internals.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from netdecomp import (
    NodeMask,
    carve_strong,
    cut_or_cluster,
    complete_graph,
    decompose,
    generate,
    grow_ball,
    induced_diameter,
    linial_saks_black_box,
    make_refined_carver,
    min_ratio_layer,
    no_large_lowdiam_component,
    refined_diameter_bound,
    trivial_black_box,
    verify_decomposition,
    verify_strong_carving,
    verify_weak_carving,
    weak_carve,
)
from netdecomp.cli import cli_main
from netdecomp.seeding import derive_seed
from netdecomp.dense_check import (
    dense_verify_decomposition,
    dense_verify_strong_carving,
    dense_verify_weak_carving,
)

from conftest import (
    check_cut_or_cluster_outcome,
    check_halving_trace,
    fuzz_graph,
    ref_ball_sizes,
)

MASTER = 20260810


def _c_bound(n: int) -> int:
    return (max(1, math.ceil(math.log2(n))) if n > 1 else 0) + 1


def _log_uniform(rng, lo, hi):
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def _validity_corpus():
    """200 graphs: paths, grids, G(n,p) for p in {0.005, 0.02, 0.1}, and
    random 4-regular, all with n <= 4096; five fixed boundary cases plus
    195 log-uniform-sized random members."""
    rng = np.random.default_rng(MASTER)
    graphs = [
        ("path-max", generate("path", n=4096)),
        ("grid-max", generate("grid", rows=64, cols=64)),
        ("gnp-sparse-max", generate("gnp", 1, n=4096, p=0.005)),
        ("gnp-dense", generate("gnp", 2, n=700, p=0.1)),
        ("reg4-max", generate("regular_expander", 3, n=2048, deg=4)),
    ]
    for _ in range(38):
        graphs.append(("path", generate("path", n=_log_uniform(rng, 1, 4096))))
    for _ in range(38):
        r, c = _log_uniform(rng, 1, 64), _log_uniform(rng, 1, 64)
        graphs.append(("grid", generate("grid", rows=r, cols=c)))
    for p, count, max_n in ((0.1, 30, 700), (0.02, 30, 2000), (0.005, 29, 4096)):
        for _ in range(count):
            n = _log_uniform(rng, 2, max_n)
            graphs.append(
                (f"gnp{p}", generate("gnp", int(rng.integers(2**31)), n=n, p=p))
            )
    for _ in range(30):
        n = max(5, _log_uniform(rng, 5, 2048))
        if (n * 4) % 2:
            n += 1
        graphs.append(
            ("reg4", generate("regular_expander", int(rng.integers(2**31)), n=n, deg=4))
        )
    assert len(graphs) == 200
    return graphs


def test_criterion_1_validity_suite():
    t0 = time.time()
    corpus = _validity_corpus()
    carver = make_refined_carver(linial_saks_black_box)
    runs = 0
    for fam, g in corpus:
        c_bound = _c_bound(g.n)
        d_bound = refined_diameter_bound(g.n, 0.5)
        for seed in range(5):
            d, _ = decompose(g, seed, carver)
            violations = verify_decomposition(g, d, c_bound, d_bound)
            assert not violations, (fam, g.n, seed, [v.to_json() for v in violations])
            runs += 1
    dt = time.time() - t0
    assert runs == 1000
    assert dt < 600, f"validity suite took {dt:.0f}s"
    print(f"\nPASS criterion-1: 1000/1000 decompositions valid "
          f"(C <= ceil(log2 n)+1, D <= refined bound) in {dt:.1f}s")


def _budget_suite_runs():
    """Shared carve_strong runs for criteria 2 and 3."""
    rng = np.random.default_rng(MASTER + 1)
    runs = []
    for trial in range(50):
        g = fuzz_graph(rng, max_n=250)
        eps = float(rng.uniform(0.15, 0.85))
        bb = linial_saks_black_box if trial % 3 else trivial_black_box
        sc = carve_strong(g, NodeMask.full(g.n), eps, trial, bb)
        runs.append((g, eps, sc))
    for n in (64, 256, 1024):
        g = generate("path", n=n)
        sc = carve_strong(g, NodeMask.full(n), 0.5, 7, linial_saks_black_box)
        runs.append((g, 0.5, sc))
    return runs


@pytest.fixture(scope="module")
def budget_runs():
    return _budget_suite_runs()


def test_criterion_2_budget_split(budget_runs):
    for g, eps, sc in budget_runs:
        n = g.n
        bb, bd = sc.dead_black_box, sc.dead_boundary
        assert len(bb) <= (eps / 2) * n, (n, eps, len(bb))
        assert len(bd) <= (eps / 2) * n, (n, eps, len(bd))
        assert not set(bb.tolist()) & set(bd.tolist())
        assert len(bb) + len(bd) == len(sc.dead)
        assert sc.meta["budget_split_ok"]
    print(f"\nPASS criterion-2: dead-node budget split held on "
          f"{len(budget_runs)}/{len(budget_runs)} carve_strong runs")


def test_criterion_3_component_shrinkage(budget_runs):
    checked = 0
    for g, eps, sc in budget_runs:
        for comp_trace in sc.meta["trace"]:
            n0 = comp_trace["entry_n"]
            for i, sizes in enumerate(comp_trace["iterations"], start=1):
                for s in sizes:
                    assert s * (1 << (i - 1)) <= n0, (n0, i, s)
                    checked += 1
    assert checked > 0
    print(f"\nPASS criterion-3: component size <= n/2^(i-1) at every of "
          f"{checked} (component, iteration) trace points")


def test_criterion_4_dichotomy():
    rng = np.random.default_rng(MASTER + 2)
    cases = []
    for _ in range(100):
        g = fuzz_graph(rng, max_n=300, connected=True)
        cases.append((g, float(rng.uniform(0.15, 0.9))))
    cases.append((complete_graph(9), 0.5))
    cases.append((generate("path", n=4096), 0.5))
    cases.append(
        (generate("barrier", 4, base_nodes=64, degree=4, subdivision_length=8), 0.5)
    )
    # long thin graphs force the cut variant
    cases.append((generate("path", n=1024), 0.9))
    cases.append((generate("path", n=2048), 0.5))
    cases.append((generate("grid", rows=2, cols=1200), 0.5))
    cuts = comps = 0
    for g, eps in cases:
        mask = NodeMask.full(g.n)
        out, led = cut_or_cluster(g, mask, eps)
        exact = None
        if out.variant == "component":
            comps += 1
            exact = induced_diameter(g, out.component).value
        else:
            cuts += 1
        check_cut_or_cluster_outcome(g, mask.node_ids(), out, exact_diameter=exact)
        check_halving_trace(g, mask.node_ids(), out)
        if g.n <= 400:
            true_d = induced_diameter(g, range(g.n)).value
            halvings = sum(1 for s in out.trace if "chosen" in s)
            assert led.total_rounds <= 3 * true_d * (halvings + 1) + true_d
    print(f"\nPASS criterion-4: {len(cases)} dichotomy outcomes verified "
          f"({cuts} cuts, {comps} components), halving oracle never failed")


def test_criterion_5_barrier_obstruction():
    t0 = time.time()
    g = generate("barrier", 4, base_nodes=64, degree=4, subdivision_length=8)
    assert g.n == 64 + (64 * 4 // 2) * 7 == 960
    assert no_large_lowdiam_component(g, 8, g.n // 3)
    dt = time.time() - t0
    assert dt < 5.0
    # sanity on the certificate's edge: with a huge threshold it still holds,
    # with radius covering the graph it cannot
    assert not no_large_lowdiam_component(g, g.n, g.n // 3)
    print(f"\nPASS criterion-5: every radius-8 ball on the 960-node "
          f"subdivided expander has < n/3 nodes ({dt:.2f}s, exhaustive)")


def test_criterion_6_ledger_scaling():
    carver = make_refined_carver(linial_saks_black_box)
    ns, totals = [], []
    for n in (256, 512, 1024, 2048, 4096, 8192):
        for trial in range(2):
            seed = derive_seed(1, n, trial)
            g = generate("gnp", seed=derive_seed(seed, 0), n=n, p=8.0 / n)
            _, ledger = decompose(g, seed, carver)
            ns.append(g.n)
            totals.append(ledger.total_rounds)
    x = np.log(np.log(np.asarray(ns, dtype=float)))
    y = np.log(np.asarray(totals, dtype=float))
    residuals = []
    for k in range(0, 21):
        r = y - k * x
        residuals.append(float(((r - r.mean()) ** 2).sum()))
    best_k = int(np.argmin(residuals))
    assert best_k <= 12, f"fitted exponent {best_k}"
    c11 = max(t / math.log(n) ** 11 for n, t in zip(ns, totals))
    assert all(t <= c11 * math.log(n) ** 11 for n, t in zip(ns, totals))
    print(f"\nPASS criterion-6: ledger totals over n=256..8192 fit ln^k n with "
          f"k={best_k} (<= 12); c for the ln^11 envelope = {c11:.3g}")


def _corrupt_decomposition(rng, d):
    kind = rng.integers(4)
    clusters = [type(c)(id=c.id, color=c.color, nodes=c.nodes.copy(), center=c.center)
                for c in d.clusters]
    if kind == 0 and clusters:
        c = clusters[int(rng.integers(len(clusters)))]
        if len(c.nodes) > 1:
            c.nodes = c.nodes[:-1]  # uncovered node
    elif kind == 1 and len(clusters) > 1:
        i, j = rng.choice(len(clusters), size=2, replace=False)
        clusters[int(i)].color = clusters[int(j)].color
    elif kind == 2 and clusters:
        c = clusters[int(rng.integers(len(clusters)))]
        extra = int(rng.integers(d.n))
        c.nodes = np.unique(np.append(c.nodes, extra))  # likely overlap
    return type(d)(n=d.n, colors=d.colors, clusters=clusters)


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(MASTER + 3)

    # grow_ball vs independent scan, 1000 instances
    for _ in range(1000):
        g = fuzz_graph(rng, max_n=48, connected=True)
        eps = float(rng.uniform(0.1, 0.9))
        center = int(rng.integers(g.n))
        r_start = int(rng.integers(0, 4))
        k = math.ceil(math.log(max(g.n, 2)) / -math.log1p(-eps / 2)) + 1
        r, ball, boundary = grow_ball(g, NodeMask.full(g.n), center, r_start, k, eps)
        sizes = ref_ball_sizes(g, set(range(g.n)), [center], r_start + k + 1)
        r_expect = next(
            rr for rr in range(r_start, r_start + k + 1)
            if sizes[rr] >= (1 - eps / 2) * sizes[rr + 1]
        )
        assert r == r_expect and len(ball) == sizes[r]

    # min_ratio_layer vs Fraction scan, 1000 instances
    for _ in range(1000):
        k = int(rng.integers(2, 14))
        sizes = (np.cumsum(rng.integers(0, 6, size=k)) + 1).tolist()
        lo = int(rng.integers(0, 30))
        got = min_ratio_layer(sizes, lo)
        ratios = [Fraction(sizes[i + 1], sizes[i]) for i in range(k - 1)]
        assert got == lo + min(range(k - 1), key=lambda i: (ratios[i], i))

    # verifiers vs dense twins, 200 fuzz cases
    disagreements = 0
    kinds = lambda vs: sorted(v.kind for v in vs)
    for case in range(200):
        g = fuzz_graph(rng, max_n=90)
        mask = NodeMask.full(g.n)
        mode = case % 3
        if mode == 0:
            d, _ = decompose(g, case, make_refined_carver(linial_saks_black_box))
            if case % 2:
                d = _corrupt_decomposition(rng, d)
            cb, db = _c_bound(g.n), refined_diameter_bound(g.n, 0.5)
            if kinds(verify_decomposition(g, d, cb, db)) != kinds(
                dense_verify_decomposition(g, d, cb, db)
            ):
                disagreements += 1
        elif mode == 1:
            eps = float(rng.uniform(0.2, 0.8))
            sc = carve_strong(g, mask, eps, case, linial_saks_black_box)
            if case % 2 and len(sc.clusters) > 0 and len(sc.clusters[0].nodes) > 1:
                moved = sc.clusters[0].nodes[-1:]
                sc.clusters[0].nodes = sc.clusters[0].nodes[:-1]
                sc.dead_boundary = np.sort(np.append(sc.dead_boundary, moved))
            bound = sc.meta["diameter_bound"]
            if kinds(verify_strong_carving(g, mask, sc, eps, bound)) != kinds(
                dense_verify_strong_carving(g, mask, sc, eps, bound)
            ):
                disagreements += 1
        else:
            eps = float(rng.uniform(0.2, 0.8))
            wc, _ = weak_carve(g, mask, eps, case, impl="linial_saks")
            if case % 2 and wc.clusters:
                tc = wc.clusters[0]
                if len(tc.tree.parent) > 0:
                    child = next(iter(tc.tree.parent))
                    tc.tree.parent[child] = child  # break the tree
                else:
                    wc.declared_depth = -1
            if kinds(verify_weak_carving(g, mask, wc, eps)) != kinds(
                dense_verify_weak_carving(g, mask, wc, eps)
            ):
                disagreements += 1
    assert disagreements == 0
    print("\nPASS criterion-7: 1000+1000 brute-force scans and 200 verifier "
          "twin cases, zero disagreements")


def test_criterion_8_determinism(tmp_path):
    gfile = tmp_path / "det.g"
    assert cli_main(["gen", "--type", "gnp", "--n", "300", "--p", "0.02",
                     "--seed", "5", "--out", str(gfile)]) == 0
    blobs = []
    for repeat in range(6):
        out = tmp_path / f"d{repeat}.json"
        led = tmp_path / f"l{repeat}.json"
        code = cli_main(["decompose", "--in", str(gfile), "--eps-impl", "refined",
                         "--seed", "9", "--out", str(out), "--ledger-out", str(led)])
        assert code == 0
        blobs.append(out.read_bytes() + b"|" + led.read_bytes())
    assert len(set(blobs)) == 1
    print("\nPASS criterion-8: byte-identical clustering JSON and ledger across "
          "6 repeated runs")
