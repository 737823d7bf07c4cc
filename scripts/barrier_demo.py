#!/usr/bin/env python3
"""Demonstrate the subdivided-expander obstruction at desk scale.

Builds the barrier graph (random regular base, each edge subdivided into a
path), certifies by exhaustive BFS that no radius-r ball reaches n/3 nodes,
and shows what cut_or_cluster does on such a graph.
"""

import argparse
import sys
import time

from netdecomp import (
    NodeMask,
    cut_or_cluster,
    generate,
    induced_diameter,
    no_large_lowdiam_component,
)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--base-nodes", type=int, default=64)
    ap.add_argument("--deg", type=int, default=4)
    ap.add_argument("--sub-len", type=int, default=8)
    ap.add_argument("--seed", type=int, default=4)
    ap.add_argument("--eps", type=float, default=0.5)
    args = ap.parse_args()

    g = generate(
        "barrier",
        args.seed,
        base_nodes=args.base_nodes,
        degree=args.deg,
        subdivision_length=args.sub_len,
    )
    print(f"barrier graph: n={g.n} m={g.m} "
          f"(base {args.base_nodes}-node {args.deg}-regular, paths of {args.sub_len})")
    dres = induced_diameter(g, range(g.n))
    print(f"graph diameter: {dres.value}")

    t0 = time.time()
    ok = no_large_lowdiam_component(g, args.sub_len, g.n // 3)
    print(f"no radius-{args.sub_len} ball holds n/3={g.n // 3} nodes: {ok} "
          f"({time.time() - t0:.2f}s exhaustive)")

    out, ledger = cut_or_cluster(g, NodeMask.full(g.n), args.eps)
    if out.variant == "cut":
        print(f"cut_or_cluster: cut with sides {len(out.inner)}/{len(out.outer)}, "
              f"separator {len(out.layer)}")
    else:
        print(f"cut_or_cluster: component of {len(out.inner)} nodes, "
              f"diameter {induced_diameter(g, out.inner).value}, "
              f"halo {len(out.layer)}")
    print(f"rounds charged: {ledger.total_rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
