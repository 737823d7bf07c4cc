"""Slow reference twins of the verifiers, for double-implementation checks.

Everything here works off a dense adjacency matrix and Floyd-Warshall
distances, deliberately sharing no traversal code with `verify`. Capped at
500 nodes. Fuzz tests assert that for the same input both implementations
report the same multiset of violation kinds.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, NodeMask
from .verify import Violation

_CAP = 500
_INF = 10**9


def _dense_adj(g: Graph) -> np.ndarray:
    if g.n > _CAP:
        raise ValueError(f"dense twin limited to n <= {_CAP}")
    a = np.zeros((g.n, g.n), dtype=bool)
    for u in range(g.n):
        for v in g.adj[u]:
            a[u, v] = True
    return a


def _fw_distances(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    d = np.full((n, n), _INF, dtype=np.int64)
    np.fill_diagonal(d, 0)
    d[a] = 1
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def _induced_dist(a: np.ndarray, nodes: list[int]) -> np.ndarray:
    sub = a[np.ix_(nodes, nodes)]
    return _fw_distances(sub)


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


def _geometry_kinds(
    a: np.ndarray, cluster_sets: list[set[int]], d_bound: float
) -> list[Violation]:
    out = []
    for k, nodes in enumerate(cluster_sets):
        if not nodes:
            continue
        order = sorted(nodes)
        d = _induced_dist(a, order)
        if d.max() >= _INF:
            out.append(Violation("disconnected-cluster", {"cluster": k}))
        elif d.max() > d_bound:
            out.append(
                Violation(
                    "diameter-exceeded", {"cluster": k}, measured=int(d.max()), bound=d_bound
                )
            )
    return out


def dense_verify_strong_carving(
    g: Graph, mask: NodeMask, c, eps: float, d_bound: float
) -> list[Violation]:
    a = _dense_adj(g)
    alive = set(int(v) for v in mask.node_ids())
    cluster_sets = [set(int(v) for v in cl.nodes) for cl in c.clusters]
    dead = set(int(v) for v in c.dead)
    out = _partition_kinds(alive, cluster_sets + [dead])
    if len(dead) > eps * len(alive):
        out.append(
            Violation("dead-budget-exceeded", {}, measured=len(dead), bound=eps * len(alive))
        )
    for i in range(len(cluster_sets)):
        for j in range(i + 1, len(cluster_sets)):
            si, sj = sorted(cluster_sets[i]), sorted(cluster_sets[j])
            if si and sj and a[np.ix_(si, sj)].any():
                out.append(Violation("adjacent-same-color", {"clusters": [i, j]}))
    out.extend(_geometry_kinds(a, cluster_sets, d_bound))
    return out


def dense_verify_decomposition(g: Graph, d, c_bound: int, d_bound: float) -> list[Violation]:
    a = _dense_adj(g)
    clusters = list(d.clusters)
    cluster_sets = [set(int(v) for v in cl.nodes) for cl in clusters]
    out = _partition_kinds(set(range(g.n)), cluster_sets)
    ids = [int(cl.id) for cl in clusters]
    if len(set(ids)) < len(ids):
        out.append(Violation("not-partition", {"reason": "duplicate-id"}))
    used = {int(cl.color) for cl in clusters}
    if used and (min(used) < 1 or len(used) > c_bound):
        out.append(
            Violation("color-bound-exceeded", {}, measured=len(used), bound=c_bound)
        )
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            if int(clusters[i].color) != int(clusters[j].color):
                continue
            si, sj = sorted(cluster_sets[i]), sorted(cluster_sets[j])
            if si and sj and a[np.ix_(si, sj)].any():
                out.append(Violation("adjacent-same-color", {"clusters": [i, j]}))
    out.extend(_geometry_kinds(a, cluster_sets, d_bound))
    return out


def dense_verify_weak_carving(g: Graph, mask: NodeMask, w, eps: float) -> list[Violation]:
    a = _dense_adj(g)
    alive = set(int(v) for v in mask.node_ids())
    cluster_sets = [set(int(v) for v in cl.nodes) for cl in w.clusters]
    dead = set(int(v) for v in w.dead)
    out = _partition_kinds(alive, cluster_sets + [dead])
    if len(dead) > eps * len(alive):
        out.append(
            Violation("dead-budget-exceeded", {}, measured=len(dead), bound=eps * len(alive))
        )
    for i in range(len(cluster_sets)):
        for j in range(i + 1, len(cluster_sets)):
            si, sj = sorted(cluster_sets[i]), sorted(cluster_sets[j])
            if si and sj and a[np.ix_(si, sj)].any():
                out.append(Violation("adjacent-same-color", {"clusters": [i, j]}))

    edge_use: dict[tuple[int, int], int] = {}
    for k, cl in enumerate(w.clusters):
        tree = cl.tree
        parent = {int(c): int(p) for c, p in tree.parent.items()}
        tree_nodes = set(parent) | {int(tree.root)}
        terminals = cluster_sets[k]
        bad = not terminals <= tree_nodes
        bad = bad or int(tree.root) in parent
        for cnode, pnode in parent.items():
            if pnode not in tree_nodes or not a[cnode, pnode]:
                bad = True
            if cnode not in alive or pnode not in alive:
                bad = True
        if bad:
            out.append(Violation("steiner-terminals", {"cluster": k}))
            continue
        # depth by explicit level assignment over the parent relation
        level = {int(tree.root): 0}
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
        worst = max(level[t] for t in terminals) if terminals else 0
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
    a = _dense_adj(g)
    d = _fw_distances(a)
    ball_sizes = (d <= r).sum(axis=1)
    return bool(ball_sizes.max() < t)
