"""Benchmark: gen -> decompose -> verify, in one process and one thread.

Usage (from the repository root):

    python3 perfbench/run.py --workload path-deep --seed 1 --seconds 40 --trace 0

An operation is one instance taken through the same library calls as
`netdecomp gen`, `netdecomp decompose` and `netdecomp verify --mode
decomposition`, in memory instead of through files, followed by the
independent checks of `check.py`. `--seed` is the generator seed, as in
`netdecomp gen --seed`; the decompose seed is the CLI default. The run
repeats the operation until `--seconds` are used up and prints, as its last
line, one JSON object with the end-to-end metrics (`--trace 0`) or the
per-layer metrics of a traced run (`--trace 1`).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Workload -> (graph family, generator parameters, pipeline). Why each one
# is here is in README.md and BENCHMARK.json.
WORKLOADS = {
    "path-deep": ("path", {"n": 10000}, "refined"),
    "gnp-wide": ("gnp", {"n": 20000, "p": 8 / 20000}, "refined"),
    "path-strong": ("path", {"n": 8192}, "strong"),
}
DECOMPOSE_SEED = 0  # `netdecomp decompose` default
LEDGER_LABELS = ("halving-iteration", "ls-broadcast", "ls-tree", "steiner-aggregate", "bfs")
TIME_LAYERS = {
    "graph.generate": "graph.generate_s",
    "graph.to_text": "graph.to_text_s",
    "graph.from_text": "graph.from_text_s",
    "graph.components": "graph.components_s",
    "decompose": "decompose.s",
    "decompose.diameter": "decompose.diameter_s",
    "strong": "strong.s",
    "refine": "refine.s",
    "refine.cut_or_cluster": "refine.cut_or_cluster_s",
    "weak": "weak.s",
    "verify": "verify.s",
    "verify.diameter": "verify.diameter_s",
}
COUNTERS = (
    "graph.components_calls",
    "graph.components_alive_nodes",
    "graph.diameter_calls",
    "graph.diameter_inexact",
    "weak.calls",
    "weak.alive_nodes",
    "weak.dead_nodes",
    "strong.calls",
    "refine.cut_or_cluster_calls",
    "refine.cuts",
    "refine.balls",
)
TIMES = ("setup_s", "decompose_s", "verify_s", "pipeline_s")
EXACT = ("rounds", "colors", "max_radius")


def recording_carver(nd, pipeline: str, black_box):
    """The CLI's carver for `pipeline`, plus the diameter bound it declares
    for each color (decompose calls the carver once per color, in order)."""
    make = nd.make_refined_carver if pipeline == "refined" else nd.make_strong_carver
    inner = make(black_box)
    bounds: dict[int, float] = {}

    def carver(g, mask, eps, seed):
        sc = inner(g, mask, eps, seed)
        bounds[len(bounds) + 1] = sc.meta["diameter_bound"]
        return sc

    return carver, bounds


def run_op(nd, check, spec, gen_seed: int, tracer=None) -> dict:
    """One instance of `spec` = (family, generator parameters, pipeline)
    through setup, decompose, verify and the independent checks."""
    kind, params, pipeline = spec
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    wrap = tracer.wrap if tracer else (lambda name, fn: fn)
    carver, bounds = recording_carver(nd, pipeline, wrap("weak", nd.linial_saks_black_box))

    t0 = time.perf_counter()
    with span("phase.setup"):
        generated = wrap("graph.generate", nd.generate)(kind, seed=gen_seed, **params)
        text = wrap("graph.to_text", nd.to_text)(generated)
        g = wrap("graph.from_text", nd.from_text)(text)
    t1 = time.perf_counter()
    with span("phase.decompose"):
        decomp, ledger = wrap("decompose", nd.decompose)(g, DECOMPOSE_SEED, carver)
    t2 = time.perf_counter()
    c_bound = check.color_bound(g.n)
    with span("phase.verify"):
        violations = wrap("verify", nd.verify_decomposition)(
            g, decomp, c_bound, nd.refined_diameter_bound(g.n, 0.5)
        )
    t3 = time.perf_counter()

    failures = check.check_text_roundtrip(generated, g)
    failures += check.check_ledger(ledger, nd.RoundLedger)
    res = check.check_decomposition(generated.indptr, generated.indices, decomp.clusters, bounds)
    failures += res.failures
    failures += [f"verify_decomposition: {json.dumps(v.to_json())}" for v in violations[:3]]
    rounds_by_label = dict.fromkeys(LEDGER_LABELS, 0)
    for label, r in ledger.breakdown:
        if label in rounds_by_label:
            rounds_by_label[label] += r
    return {
        "failures": failures,
        "counts": {},
        "setup_s": t1 - t0,
        "decompose_s": t2 - t1,
        "verify_s": t3 - t2,
        "pipeline_s": t3 - t0,
        "rounds": ledger.total_rounds,
        "colors": len({c.color for c in decomp.clusters}),
        "max_radius": res.max_radius,
        "ledger": rounds_by_label,
    }


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer self times and counters of one traced operation."""
    selft = tracer.self_times()
    out = {metric: selft.get(layer, 0.0) for layer, metric in TIME_LAYERS.items()}
    for phase in ("setup", "decompose", "verify"):
        name = f"phase.{phase}"
        out[f"{name}_s"] = sum(e - b for s, _, b, e in tracer.spans if s == name) / 1e9
    for name in COUNTERS:
        out[name] = tracer.counts.get(name, 0)
    return out


def attempt(nd, check, spec, gen_seed: int, tracer, first: dict | None):
    """Run one operation. Returns it (None if it raised) and what went wrong
    with it: an exception, a failed check, or an exact count (rounds, colors,
    max radius, ledger labels, layer counters) that differs from `first`'s.
    An empty list means the operation passed."""
    try:
        with tracer.install() if tracer else contextlib.nullcontext():
            op = run_op(nd, check, spec, gen_seed, tracer)
    except Exception:
        return None, [traceback.format_exc()]
    if tracer:
        op["layers"] = layer_metrics(tracer)
        op["counts"] = {k: op["layers"][k] for k in COUNTERS}
    problems = list(op["failures"])
    if first is not None and any(op[k] != first[k] for k in (*EXACT, "ledger", "counts")):
        problems.append("an exact count differs from the first operation's")
    return op, problems


UNITS = {
    "setup_s": "s",
    "decompose_s": "s",
    "verify_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "rounds": "rounds",
    "colors": "count",
    "max_radius": "hops",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "netdecomp" / "__init__.py").is_file():
        print(f"netdecomp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import check
    import netdecomp as nd
    import spans

    attempted = failed = 0
    correct = True
    ops: list[dict] = []
    first_tracer = None
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        tracer = spans.Tracer() if args.trace else None
        op, problems = attempt(
            nd, check, WORKLOADS[args.workload], args.seed, tracer, ops[0] if ops else None
        )
        attempted += 1
        if problems:
            failed += 1
            correct = False
            print(f"operation {attempted} failed:", file=sys.stderr)
            for p in problems:
                print(f"  {p}", file=sys.stderr)
        else:
            ops.append(op)
            first_tracer = first_tracer or tracer
        op_s = time.perf_counter() - t
        if time.perf_counter() - start + op_s > args.seconds:
            break
    if not ops:
        print("no operation passed", file=sys.stderr)
        return 1

    if args.trace:
        # means, not medians, so that the layers still add up to each phase
        metrics = {
            k: (statistics.fmean(op["layers"][k] for op in ops), "s")
            for k in ops[0]["layers"]
            if k not in COUNTERS
        }
        metrics.update({k: (v, "count") for k, v in ops[0]["counts"].items()})
        for label in LEDGER_LABELS:
            metrics[f"ledger.{label}"] = (ops[0]["ledger"][label], "rounds")
        OUT.mkdir(exist_ok=True)
        dump = {
            "workload": args.workload,
            "seed": args.seed,
            "operations": len(ops),
            "per_layer": {k: v for k, (v, _) in metrics.items()},
            "spans": first_tracer.spans,
        }
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(dump) + "\n", encoding="utf-8")
    else:
        metrics = {k: (statistics.median(op[k] for op in ops), UNITS[k]) for k in TIMES}
        metrics.update({k: (ops[0][k], UNITS[k]) for k in EXACT})
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
