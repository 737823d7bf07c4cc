"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/spread.py --tag setA --seeds 1-10
    python3 perfbench/spread.py --tag setB --seeds 1-10 --compare setA
    python3 perfbench/spread.py --tag traced --seeds 1-3 --trace 1 --compare setA

Each run is a fresh `run.py` process with the run length from
BENCHMARK.json. Results go to `perfbench/out/<tag>.json`. The table gives,
per workload and metric, the median and quartiles over the runs, the spread
(q3 - q1) / median and the metric's bound. `--compare` adds the change of the
median against an earlier set; with `--trace 1` it compares each traced
phase time with the untraced median of that phase instead (tracing overhead).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PHASES = {"phase.setup_s": "setup_s", "phase.decompose_s": "decompose_s", "phase.verify_s": "verify_s"}


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_set(workloads, seeds, seconds, trace) -> dict:
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{w} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs[w].append(result)
            print(f"{w} seed {seed}: attempted {result['attempted']} failed "
                  f"{result['failed']} correct {result['correct']}", flush=True)
    return runs


def summarise(runs: dict, bench: dict, base: dict | None, trace: int) -> str:
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    lines = ["| workload | metric | median | q1 | q3 | spread | bound | vs base |",
             "|---|---|---|---|---|---|---|---|"]
    for w, rs in runs.items():
        for name in rs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            ref = ""
            base_name = PHASES.get(name, name) if trace else name
            if base and w in base and base_name in base[w][0]["metrics"]:
                bmed = statistics.median(r["metrics"][base_name]["value"] for r in base[w])
                ref = f"{(med - bmed) / bmed:+.1%}" if bmed else ""
            bound = bounds.get(name)
            lines.append(f"| {w} | {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.1%} | "
                         f"{'' if bound is None else bound} | {ref} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", default=None, help="tag of an earlier set")
    args = ap.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workloads = [w["name"] for w in bench["workloads"]]
    runs = run_set(workloads, args.seeds, bench["run_seconds"], args.trace)
    (OUT / f"{args.tag}.json").write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    base = None
    if args.compare:
        base = json.loads((OUT / f"{args.compare}.json").read_text(encoding="utf-8"))
    print(f"\n{args.tag}: {len(args.seeds)} runs per workload, {bench['run_seconds']} s each\n")
    print(summarise(runs, bench, base, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
