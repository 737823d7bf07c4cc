"""All-pairs distances by Floyd-Warshall, and the slow dense twins of the
verifiers built on them, for double-implementation checks.

Every adjacency and every distance here is read off `fw_distances`: the
whole graph's matrix gives adjacency (distance 1), and a cluster passed as
`alive` gives its induced geometry. Nothing shares traversal code with the
library, neither with the algorithms nor with the fast verifiers and their
`induced_diameter` in `verify.py`; `tests/test_imports.py` holds this module
to importing only `Graph`, `NodeMask` and `Violation` from it, and
`verify.py` to importing no traversal code from `graph.py`. The twins refuse graphs of more
than 500 nodes. For the same input a twin must report the same multiset of
violation kinds as its fast verifier. Like the fast verifiers, a twin
reports a node id outside 0..n-1 in the partition check only, and keeps it
out of every other check.
"""

from __future__ import annotations

import numpy as np

from netdecomp import Graph, NodeMask, Violation

INF = 10**9
_CAP = 500


def fw_distances(g: Graph, alive: set[int] | None = None) -> np.ndarray:
    """All-pairs distances by Floyd-Warshall on a dense matrix, over the
    subgraph induced by `alive` (every node when None); INF where no path
    runs."""
    n = g.n
    d = np.full((n, n), INF, dtype=np.int64)
    keep = set(range(n)) if alive is None else alive
    for v in keep:
        d[v, v] = 0
    for u in range(n):
        if u not in keep:
            continue
        for v in g.adj[u]:
            if v in keep:
                d[u, v] = 1
    for k in range(n):
        if k not in keep:
            continue
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def _dense_distances(g: Graph, alive: set[int] | None = None) -> np.ndarray:
    if g.n > _CAP:
        raise ValueError(f"dense twin limited to n <= {_CAP}")
    return fw_distances(g, alive)


def _in_graph(g: Graph, nodes: set[int]) -> set[int]:
    return {v for v in nodes if 0 <= v < g.n}


def _partition_kinds(alive: set[int], parts: list[set[int]]) -> list[Violation]:
    out = []
    seen: set[int] = set()
    for part in parts:
        if seen & part:
            out.append(Violation("not-partition", {"reason": "overlap"}))
        seen |= part
    if seen - alive:
        out.append(Violation("not-partition", {"reason": "outside-input"}))
    if alive - seen:
        out.append(Violation("not-partition", {"reason": "uncovered"}))
    return out


def _adjacency_kinds(adj: np.ndarray, parts: list[set[int]], colors: list[int]) -> list[Violation]:
    out = []
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if colors[i] != colors[j]:
                continue
            si, sj = sorted(parts[i]), sorted(parts[j])
            if si and sj and adj[np.ix_(si, sj)].any():
                out.append(Violation("adjacent-same-color", {"clusters": [i, j]}))
    return out


def _geometry_kinds(g: Graph, parts: list[set[int]], d_bound: float) -> list[Violation]:
    out = []
    for k, nodes in enumerate(parts):
        if not nodes:
            continue
        order = sorted(nodes)
        diameter = int(_dense_distances(g, nodes)[np.ix_(order, order)].max())
        if diameter >= INF:
            out.append(Violation("disconnected-cluster", {"cluster": k}))
        elif diameter > d_bound:
            out.append(
                Violation("diameter-exceeded", {"cluster": k}, measured=diameter, bound=d_bound)
            )
    return out


def _carving_kinds(
    g: Graph, mask: NodeMask, c, eps: float
) -> tuple[list[Violation], list[set[int]], np.ndarray]:
    """Partition, dead budget and adjacency of a carving, plus its in-graph
    cluster sets and the graph's adjacency matrix."""
    adj = _dense_distances(g) == 1
    alive = set(int(v) for v in mask.node_ids())
    parts = [set(int(v) for v in cl.nodes) for cl in c.clusters]
    dead = set(int(v) for v in c.dead)
    out = _partition_kinds(alive, parts + [dead])
    if len(dead) > eps * len(alive):
        out.append(
            Violation("dead-budget-exceeded", {}, measured=len(dead), bound=eps * len(alive))
        )
    parts = [_in_graph(g, p) for p in parts]
    out.extend(_adjacency_kinds(adj, parts, [0] * len(parts)))
    return out, parts, adj


def dense_verify_strong_carving(
    g: Graph, mask: NodeMask, c, eps: float, d_bound: float
) -> list[Violation]:
    out, parts, _ = _carving_kinds(g, mask, c, eps)
    out.extend(_geometry_kinds(g, parts, d_bound))
    return out


def dense_verify_decomposition(g: Graph, d, c_bound: int, d_bound: float) -> list[Violation]:
    adj = _dense_distances(g) == 1
    clusters = list(d.clusters)
    parts = [set(int(v) for v in cl.nodes) for cl in clusters]
    out = _partition_kinds(set(range(g.n)), parts)
    ids = [int(cl.id) for cl in clusters]
    if len(set(ids)) < len(ids):
        out.append(Violation("not-partition", {"reason": "duplicate-id"}))
    colors = [int(cl.color) for cl in clusters]
    used = set(colors)
    if used and (min(used) < 1 or len(used) > c_bound):
        out.append(
            Violation("color-bound-exceeded", {}, measured=len(used), bound=c_bound)
        )
    parts = [_in_graph(g, p) for p in parts]
    out.extend(_adjacency_kinds(adj, parts, colors))
    out.extend(_geometry_kinds(g, parts, d_bound))
    return out


def dense_verify_weak_carving(g: Graph, mask: NodeMask, w, eps: float) -> list[Violation]:
    out, parts, adj = _carving_kinds(g, mask, w, eps)
    alive = set(int(v) for v in mask.node_ids())
    edge_use: dict[tuple[int, int], int] = {}
    for k, cl in enumerate(w.clusters):
        tree = cl.tree
        parent = {int(c): int(p) for c, p in tree.parent.items()}
        root = int(tree.root)
        tree_nodes = set(parent) | {root}
        # adj is indexed only once every tree node is known to be in the graph
        bad = (
            not parts[k] <= tree_nodes
            or root in parent
            or _in_graph(g, tree_nodes) != tree_nodes
            or any(
                p not in tree_nodes or not adj[c, p] or c not in alive or p not in alive
                for c, p in parent.items()
            )
        )
        if bad:
            out.append(Violation("steiner-terminals", {"cluster": k}))
            continue
        # depth by explicit level assignment over the parent relation
        level = {root: 0}
        pending = dict(parent)
        changed = True
        while pending and changed:
            changed = False
            for cnode in list(pending):
                pnode = pending[cnode]
                if pnode in level:
                    level[cnode] = level[pnode] + 1
                    del pending[cnode]
                    changed = True
        if pending:
            out.append(Violation("steiner-terminals", {"cluster": k, "reason": "cycle"}))
            continue
        worst = max((level[t] for t in parts[k]), default=0)
        if worst > w.declared_depth:
            out.append(
                Violation("steiner-depth", {"cluster": k}, measured=worst, bound=w.declared_depth)
            )
        for cnode, pnode in parent.items():
            e = (min(cnode, pnode), max(cnode, pnode))
            edge_use[e] = edge_use.get(e, 0) + 1
    if edge_use and max(edge_use.values()) > w.declared_congestion:
        out.append(
            Violation(
                "steiner-congestion",
                {},
                measured=max(edge_use.values()),
                bound=w.declared_congestion,
            )
        )
    return out


def dense_no_large_lowdiam_component(g: Graph, r: int, t: int) -> bool:
    ball_sizes = (_dense_distances(g) <= r).sum(axis=1)
    return bool(ball_sizes.max() < t)


def tree_edge_uses(w) -> tuple[int, int, bool]:
    """Tree-edge multiplicities of a weak carving, counted in plain dicts:
    the most cluster trees holding one edge (1 when no tree has an edge),
    the same with an edge's two orientations counted apart, and whether a
    node is a child under two different parents."""
    undirected: dict[tuple[int, int], int] = {}
    directed: dict[tuple[int, int], int] = {}
    first_parent: dict[int, int] = {}
    second_parent = False
    for cl in w.clusters:
        for c, p in cl.tree.parent.items():
            c, p = int(c), int(p)
            e = (min(c, p), max(c, p))
            undirected[e] = undirected.get(e, 0) + 1
            directed[c, p] = directed.get((c, p), 0) + 1
            second_parent |= first_parent.setdefault(c, p) != p
    return max(undirected.values(), default=1), max(directed.values(), default=1), second_parent
