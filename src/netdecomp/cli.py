"""Command-line front end: generate, carve, decompose, verify, bench.

Exit codes: 0 ok, 1 I/O failure, 2 bad flags (argparse default), 3
verification found violations, 4 the graph file is malformed, 5 an algorithm
detected a broken guarantee (InvariantViolation). Carve and decompose verify
their own output, against the diameter bound their pipeline declares, before
writing unless --no-verify is passed; an invalid result is never written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import graph as graphmod
from .decompose import decompose, make_refined_carver, make_strong_carver
from .errors import InvariantViolation
from .graph import NodeMask, from_text, generate, to_text
from .seeding import derive_seed
from .strong import StrongCarving
from .verify import verify_decomposition, verify_strong_carving
from .weak import linial_saks_black_box, trivial_black_box

_BLACK_BOXES = {"linial_saks": linial_saks_black_box, "trivial": trivial_black_box}

CSV_HEADER = "n,m,eps,seed,algo,colors,max_diameter,rounds,wall_ms"


def _carver(eps_impl: str, black_box: str):
    bb = _BLACK_BOXES[black_box]
    if eps_impl == "refined":
        return make_refined_carver(bb)
    if eps_impl == "strong":
        return make_strong_carver(bb)
    raise ValueError(f"unknown eps-impl {eps_impl!r}")


def _color_bound(n: int) -> int:
    return (max(1, math.ceil(math.log2(n))) if n > 1 else 0) + 1


class _BadGraphFile(Exception):
    pass


def _read_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return from_text(fh.read())
        except ValueError as e:  # includes UnicodeDecodeError
            raise _BadGraphFile(f"{path}: {e}") from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    params = {}
    if args.type == "path":
        params = {"n": args.n}
    elif args.type == "grid":
        side = args.rows or int(round(math.sqrt(args.n)))
        cols = args.cols or side
        params = {"rows": side, "cols": cols}
    elif args.type == "gnp":
        params = {"n": args.n, "p": args.p}
    elif args.type == "regular_expander":
        params = {"n": args.n, "deg": args.deg}
    elif args.type == "barrier":
        params = {
            "base_nodes": args.base_nodes,
            "degree": args.deg,
            "subdivision_length": args.sub_len,
        }
    g = generate(args.type, seed=args.seed, **params)
    _write(args.out, to_text(g))
    print(f"wrote {args.out}: n={g.n} m={g.m}")
    return 0


def _cmd_carve(args) -> int:
    g = _read_graph(args.infile)
    mask = NodeMask.full(g.n)
    carver = _carver(args.eps_impl, args.black_box)
    sc: StrongCarving = carver(g, mask, args.eps, args.seed)
    for c in sc.clusters:
        c.diameter = graphmod.induced_diameter(g, c.nodes).value
    if not args.no_verify:
        bound = sc.meta.get("diameter_bound")
        violations = verify_strong_carving(g, mask, sc, args.eps, bound)
        if violations:
            for v in violations:
                print(json.dumps(v.to_json()), file=sys.stderr)
            print("carving failed verification; not writing output", file=sys.stderr)
            return 3
    _write(args.out, _json_dumps(sc.to_json()))
    if args.ledger_out:
        _write(args.ledger_out, _json_dumps(sc.ledger.to_json()))
    print(
        f"carved {args.infile}: clusters={len(sc.clusters)} dead={len(sc.dead)} "
        f"rounds={sc.ledger.total_rounds}"
    )
    return 0


def _cmd_decompose(args) -> int:
    g = _read_graph(args.infile)
    carver = _carver(args.eps_impl, args.black_box)
    decomp, ledger = decompose(g, args.seed, carver)
    if not args.no_verify:
        violations = verify_decomposition(g, decomp, _color_bound(g.n), decomp.diameter_bound)
        if violations:
            for v in violations:
                print(json.dumps(v.to_json()), file=sys.stderr)
            print("decomposition failed verification; not writing output", file=sys.stderr)
            return 3
    _write(args.out, _json_dumps(decomp.to_json()))
    if args.ledger_out:
        _write(args.ledger_out, _json_dumps(ledger.to_json()))
    print(
        f"decomposed {args.infile}: colors={decomp.colors} clusters={len(decomp.clusters)} "
        f"rounds={ledger.total_rounds}"
    )
    return 0


class _ClusterView:
    def __init__(self, obj):
        self.id = obj["id"]
        self.color = obj.get("color", 1)
        self.nodes = obj["nodes"]
        self.center = obj.get("center")


class _CarvingView:
    def __init__(self, obj):
        self.clusters = [_ClusterView(c) for c in obj["clusters"]]
        self.dead = [d["node"] for d in obj.get("dead", [])]


class _DecompView:
    def __init__(self, obj):
        self.clusters = [_ClusterView(c) for c in obj["clusters"]]


def _cmd_verify(args) -> int:
    g = _read_graph(args.infile)
    with open(args.clustering, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    d_bound = args.d_bound or obj.get("stats", {}).get("diameter_bound")
    if d_bound is None:
        d_bound = g.n  # no bound recorded: only structural checks bite
    if args.mode == "decomposition":
        c_bound = args.c_bound or _color_bound(g.n)
        violations = verify_decomposition(g, _DecompView(obj), c_bound, d_bound)
    else:
        view = _CarvingView(obj)
        eps = args.eps if args.eps is not None else obj.get("eps", 0.5)
        violations = verify_strong_carving(g, NodeMask.full(g.n), view, eps, d_bound)
    for v in violations:
        print(json.dumps(v.to_json()))
    if violations:
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return 3
    print("valid")
    return 0


def _bench_one(family: str, n: int, trial: int, master_seed: int, eps_impl: str, black_box: str):
    seed = derive_seed(master_seed, n, trial)
    if family == "gnp":
        g = generate("gnp", seed=derive_seed(seed, 0), n=n, p=8.0 / n)
    elif family == "path":
        g = generate("path", n=n)
    elif family == "grid":
        side = int(round(math.sqrt(n)))
        g = generate("grid", rows=side, cols=side)
    elif family == "regular":
        g = generate("regular_expander", seed=derive_seed(seed, 0), n=n, deg=4)
    else:
        raise ValueError(f"unknown family {family!r}")
    carver = _carver(eps_impl, black_box)
    t0 = time.perf_counter()
    decomp, ledger = decompose(g, seed, carver)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return {
        "n": g.n,
        "m": g.m,
        "eps": 0.5,
        "seed": seed,
        "algo": f"decompose-{eps_impl}",
        "colors": decomp.colors,
        "max_diameter": decomp.max_diameter(),
        "rounds": ledger.total_rounds,
        "wall_ms": wall_ms,
    }


def _cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    rows = [
        _bench_one(args.family, n, t, args.seed, args.eps_impl, args.black_box)
        for n in sizes
        for t in range(args.trials)
    ]
    rows.sort(key=lambda r: (args.family, r["n"], r["seed"]))
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r['n']},{r['m']},{r['eps']},{r['seed']},{r['algo']},{r['colors']},"
            f"{r['max_diameter']},{r['rounds']},{r['wall_ms']:.3f}"
        )
    out = "\n".join(lines) + "\n"
    if args.csv:
        _write(args.csv, out)
        print(f"wrote {args.csv} ({len(rows)} rows)")
    else:
        sys.stdout.write(out)
    return 0


# ----------------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="netdecomp")
    sub = ap.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("gen", help="generate a graph file")
    gen.add_argument("--type", required=True,
                     choices=["path", "grid", "gnp", "regular_expander", "barrier"])
    gen.add_argument("--n", type=int, default=0)
    gen.add_argument("--rows", type=int, default=0)
    gen.add_argument("--cols", type=int, default=0)
    gen.add_argument("--p", type=float, default=0.1)
    gen.add_argument("--deg", type=int, default=4)
    gen.add_argument("--base-nodes", type=int, default=64)
    gen.add_argument("--sub-len", type=int, default=8)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    for name in ("carve", "decompose"):
        p = sub.add_parser(name, help=f"{name} a graph, write clustering JSON")
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--ledger-out", default=None)
        p.add_argument("--eps-impl", default="refined", choices=["refined", "strong"])
        p.add_argument("--black-box", default="linial_saks", choices=sorted(_BLACK_BOXES))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--no-verify", action="store_true")
        if name == "carve":
            p.add_argument("--eps", type=float, required=True)
            p.set_defaults(func=_cmd_carve)
        else:
            p.set_defaults(func=_cmd_decompose)

    ver = sub.add_parser("verify", help="verify a clustering JSON against a graph")
    ver.add_argument("--mode", required=True, choices=["decomposition", "carving"])
    ver.add_argument("--in", dest="infile", required=True)
    ver.add_argument("--clustering", required=True)
    ver.add_argument("--eps", type=float, default=None)
    ver.add_argument("--c-bound", type=int, default=None)
    ver.add_argument("--d-bound", type=float, default=None)
    ver.set_defaults(func=_cmd_verify)

    ben = sub.add_parser("bench", help="scaling sweep, CSV output")
    ben.add_argument("--family", default="gnp", choices=["gnp", "path", "grid", "regular"])
    ben.add_argument("--sizes", required=True, help="comma-separated node counts")
    ben.add_argument("--trials", type=int, default=3)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--eps-impl", default="refined", choices=["refined", "strong"])
    ben.add_argument("--black-box", default="linial_saks", choices=sorted(_BLACK_BOXES))
    ben.add_argument("--csv", default=None)
    ben.set_defaults(func=_cmd_bench)
    return ap


def cli_main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 1
    except _BadGraphFile as e:
        print(f"malformed graph file {e}", file=sys.stderr)
        return 4
    except InvariantViolation as e:
        print(f"invariant violated: {e}", file=sys.stderr)
        return 5
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
