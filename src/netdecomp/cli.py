"""Command-line front end: generate, carve, decompose, verify.

Exit codes: 0 ok, 1 I/O failure, 2 bad flags or parameters (argparse, a
non-finite verify bound, a verify eps outside (0, 1), a verify flag that
the chosen mode does not read, or a library
ValueError such as a regular graph the configuration model cannot draw, a
generated graph too large to allocate or an eps too small for the
pipeline's growth windows), 3 verification found violations, 4 the graph
file or clustering file is malformed (a NaN or infinite number, or an eps
outside (0, 1), included), 5 an algorithm detected a broken guarantee
(InvariantViolation).
Carve and decompose always verify their own output, against the diameter
bound their pipeline declares, before writing; an invalid result is never
written. The cluster diameters they write are the ones the verifier measured.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .decompose import color_bound, decompose, make_refined_carver, make_strong_carver
from .errors import InvariantViolation
from .graph import KINDS, NodeMask, from_text, generate, to_text
from .strong import StrongCarving
from .verify import verify_decomposition, verify_strong_carving
from .weak import linial_saks_black_box, trivial_black_box

_BLACK_BOXES = {"linial_saks": linial_saks_black_box, "trivial": trivial_black_box}
_PIPELINES = {"refined": make_refined_carver, "strong": make_strong_carver}


def _carver(args):
    return _PIPELINES[args.eps_impl](_BLACK_BOXES[args.black_box])


class _MalformedFile(Exception):
    pass


def _read_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return from_text(fh.read())
        except ValueError as e:  # includes UnicodeDecodeError
            raise _MalformedFile(f"malformed graph file {path}: {e}") from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def _report(violations, what: str) -> int:
    for v in violations:
        print(json.dumps(v.to_json()), file=sys.stderr)
    print(f"{what} failed verification; not writing output", file=sys.stderr)
    return 3


def _measured_stats(diameters: dict) -> dict:
    """stats.max_diameter over the verifier's measurements, and whether
    every one was exact rather than a certified upper bound."""
    return {
        "max_diameter": max((r.value for r in diameters.values()), default=0),
        "max_diameter_exact": all(r.exact for r in diameters.values()),
    }


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
    sc: StrongCarving = _carver(args)(g, mask, args.eps, args.seed)
    violations = verify_strong_carving(g, mask, sc, args.eps, sc.meta["diameter_bound"])
    if violations:
        return _report(violations, "carving")
    obj = sc.to_json()
    for c in obj["clusters"]:
        c["diameter"] = violations.diameters[c["id"]].value
    obj["stats"].update(_measured_stats(violations.diameters))
    _write(args.out, _json_dumps(obj))
    if args.ledger_out:
        _write(args.ledger_out, _json_dumps(sc.ledger.to_json()))
    print(
        f"carved {args.infile}: clusters={len(sc.clusters)} dead={len(sc.dead)} "
        f"rounds={sc.ledger.total_rounds}"
    )
    return 0


def _cmd_decompose(args) -> int:
    g = _read_graph(args.infile)
    decomp, ledger = decompose(g, args.seed, _carver(args))
    violations = verify_decomposition(g, decomp, color_bound(g.n), decomp.diameter_bound)
    if violations:
        return _report(violations, "decomposition")
    obj = decomp.to_json()
    obj["stats"].update(_measured_stats(violations.diameters))
    _write(args.out, _json_dumps(obj))
    if args.ledger_out:
        _write(args.ledger_out, _json_dumps(ledger.to_json()))
    print(
        f"decomposed {args.infile}: colors={decomp.colors} clusters={len(decomp.clusters)} "
        f"rounds={ledger.total_rounds}"
    )
    return 0


def _need(ok: bool, what: str) -> None:
    if not ok:
        raise ValueError(what)


def _is_int(x) -> bool:
    return type(x) is int  # a JSON integer; bool does not count


def _is_finite(x) -> bool:
    # json.load reads the tokens NaN and Infinity, which no bound may be
    return type(x) in (int, float) and math.isfinite(x)


def _finite_float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return x


def _unit_eps(text: str) -> float:
    x = _finite_float(text)
    if not 0 < x < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not in (0, 1)")
    return x


class _ClusterView:
    def __init__(self, obj, n: int):
        _need(isinstance(obj, dict), f"cluster {obj!r:.40} is not an object")
        self.id, self.color, self.nodes = obj.get("id"), obj.get("color", 1), obj.get("nodes")
        _need(_is_int(self.id), f"cluster id {self.id!r} is not an integer")
        _need(_is_int(self.color), f"cluster {self.id}: color {self.color!r} is not an integer")
        _need(isinstance(self.nodes, list), f"cluster {self.id}: nodes is not a list")
        for v in self.nodes:
            _need(_is_int(v) and 0 <= v < n, f"cluster {self.id}: node {v!r} is not in 0..{n - 1}")


class _ClusteringView:
    """A decomposition or carving JSON as the verifiers read it, checked on
    load: anything malformed raises ValueError instead of reaching them."""

    def __init__(self, obj, n: int):
        _need(isinstance(obj, dict), "the top level is not an object")
        clusters, dead, stats = obj.get("clusters"), obj.get("dead", []), obj.get("stats", {})
        _need(isinstance(clusters, list), "clusters is not a list")
        self.clusters = [_ClusterView(c, n) for c in clusters]
        _need(isinstance(dead, list), "dead is not a list")
        for d in dead:
            ok = isinstance(d, dict) and _is_int(d.get("node")) and 0 <= d["node"] < n
            _need(ok, f"dead entry {d!r:.40} has no node in 0..{n - 1}")
        self.dead = [d["node"] for d in dead]
        _need(isinstance(stats, dict), "stats is not an object")
        self.d_bound, self.eps = stats.get("diameter_bound"), obj.get("eps", 0.5)
        ok = self.d_bound is None or _is_finite(self.d_bound)
        _need(ok, "diameter_bound is not a finite number")
        _need(_is_finite(self.eps), "eps is not a finite number")
        _need(0 < self.eps < 1, f"eps {self.eps} is not in (0, 1)")


def _read_clustering(path: str, n: int) -> _ClusteringView:
    with open(path, "r", encoding="utf-8") as fh:
        # JSON that does not parse is an I/O failure, and so is a file that
        # is not UTF-8 or nests too deep for the parser
        try:
            obj = json.load(fh)
        except (UnicodeDecodeError, RecursionError) as e:
            raise OSError(f"clustering file {path} is not JSON: {e}") from None
    try:
        return _ClusteringView(obj, n)
    except ValueError as e:
        raise _MalformedFile(f"malformed clustering file {path}: {e}") from None


def _cmd_verify(args) -> int:
    for flag, mode in (("eps", "carving"), ("c_bound", "decomposition")):
        if getattr(args, flag) is not None and args.mode != mode:
            raise ValueError(f"--{flag.replace('_', '-')} applies only to --mode {mode}")
    g = _read_graph(args.infile)
    view = _read_clustering(args.clustering, g.n)
    d_bound = args.d_bound if args.d_bound is not None else view.d_bound
    if d_bound is None:
        d_bound = g.n  # no bound recorded: only structural checks bite
    if args.mode == "decomposition":
        c_bound = args.c_bound if args.c_bound is not None else color_bound(g.n)
        violations = verify_decomposition(g, view, c_bound, d_bound)
    else:
        eps = args.eps if args.eps is not None else view.eps
        violations = verify_strong_carving(g, NodeMask.full(g.n), view, eps, d_bound)
    for v in violations:
        print(json.dumps(v.to_json()))
    if violations:
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return 3
    print("valid")
    return 0


# ----------------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="netdecomp")
    sub = ap.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("gen", help="generate a graph file")
    gen.add_argument("--type", required=True, choices=KINDS)
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
        p.add_argument("--eps-impl", default="refined", choices=sorted(_PIPELINES))
        p.add_argument("--black-box", default="linial_saks", choices=sorted(_BLACK_BOXES))
        p.add_argument("--seed", type=int, default=0)
        if name == "carve":
            p.add_argument("--eps", type=float, required=True)
            p.set_defaults(func=_cmd_carve)
        else:
            p.set_defaults(func=_cmd_decompose)

    ver = sub.add_parser("verify", help="verify a clustering JSON against a graph")
    ver.add_argument("--mode", required=True, choices=["decomposition", "carving"])
    ver.add_argument("--in", dest="infile", required=True)
    ver.add_argument("--clustering", required=True)
    ver.add_argument("--eps", type=_unit_eps, default=None)
    ver.add_argument("--c-bound", type=int, default=None)
    ver.add_argument("--d-bound", type=_finite_float, default=None)
    ver.set_defaults(func=_cmd_verify)
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
    except _MalformedFile as e:
        print(e, file=sys.stderr)
        return 4
    except InvariantViolation as e:
        print(f"invariant violated: {e}", file=sys.stderr)
        return 5
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
