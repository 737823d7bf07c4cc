"""Independent brute-force verifiers: the test suite's ground truth.

Every object the library produces (weak carvings, strong carvings,
decompositions) can be checked here against its definition, by direct
measurement: partitions by counting, adjacency by edge scans, diameters by
BFS inside each cluster. The verifiers are pure, know nothing about how the
objects were produced, and return violations as data rather than raising; a
node id outside 0..n-1 is reported as a violation, never used as an index.
This is the only place that measures cluster diameters: the strong-carving
and decomposition verifiers hand back what they measured.

Each verifier has an independently coded slow twin in `dense_check`
(adjacency-matrix based); fuzz tests require the two to agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .graph import Graph, NodeMask, induced_diameter

__all__ = [
    "Violation",
    "Violations",
    "verify_weak_carving",
    "verify_strong_carving",
    "verify_decomposition",
    "no_large_lowdiam_component",
]

VIOLATION_KINDS = (
    "not-partition",
    "adjacent-same-color",
    "diameter-exceeded",
    "dead-budget-exceeded",
    "steiner-depth",
    "steiner-congestion",
    "steiner-terminals",
    "disconnected-cluster",
    "color-bound-exceeded",
)


@dataclass
class Violation:
    """A concrete, independently re-checkable defect in a clustering object."""

    kind: str
    witness: dict = field(default_factory=dict)
    measured: float | None = None
    bound: float | None = None

    def __post_init__(self):
        if self.kind not in VIOLATION_KINDS:
            raise ValueError(f"unknown violation kind {self.kind!r}")

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "witness": self.witness}
        if self.measured is not None:
            out["measured"] = self.measured
        if self.bound is not None:
            out["bound"] = self.bound
        return out


class Violations(list):
    """The violations a verifier found, plus `diameters`: the
    `induced_diameter` result it measured for each cluster it sized, keyed
    by cluster id."""

    def __init__(self, *args):
        super().__init__(*args)
        self.diameters: dict = {}


def _as_int_set(nodes: Iterable[int]) -> set[int]:
    return set(int(v) for v in nodes)


def _in_range(g: Graph, nodes: set[int]) -> set[int]:
    """The members of `nodes` that are node ids of `g`; the others are
    reported by the partition check and kept out of every other check."""
    return {v for v in nodes if 0 <= v < g.n}


def _owners(cluster_sets: dict[int, set[int]]) -> dict[int, int]:
    """Node -> id of the (last) cluster holding it."""
    return {v: k for k, nodes in cluster_sets.items() for v in nodes}


def _check_partition(
    alive_ids: set[int], parts: list[set[int]], out: list[Violation]
) -> None:
    seen: set[int] = set()
    for part in parts:
        dup = seen & part
        if dup:
            out.append(
                Violation("not-partition", {"reason": "overlap", "nodes": sorted(dup)[:8]})
            )
        seen |= part
    extra = seen - alive_ids
    missing = alive_ids - seen
    if extra:
        out.append(
            Violation("not-partition", {"reason": "outside-input", "nodes": sorted(extra)[:8]})
        )
    if missing:
        out.append(
            Violation("not-partition", {"reason": "uncovered", "nodes": sorted(missing)[:8]})
        )


def _check_cluster_adjacency(
    g: Graph, owner: dict[int, int], out: list[Violation], colors: dict[int, int] | None = None
) -> None:
    """Edge scan: no alive edge may join two distinct (same-color) clusters.

    One violation per offending cluster pair, with a witness edge.
    """
    seen_pairs: dict[tuple[int, int], list[int]] = {}
    for u in owner:
        cu = owner[u]
        for v in g.adj[u]:
            if v <= u or v not in owner:
                continue
            cv = owner[v]
            if cu == cv:
                continue
            if colors is not None and colors[cu] != colors[cv]:
                continue
            pair = (min(cu, cv), max(cu, cv))
            if pair not in seen_pairs:
                seen_pairs[pair] = [u, v]
    for pair in sorted(seen_pairs):
        out.append(
            Violation(
                "adjacent-same-color",
                {"edge": seen_pairs[pair], "clusters": list(pair)},
            )
        )


def _check_cluster_geometry(
    g: Graph,
    cluster_id: int,
    nodes: Iterable[int],
    d_bound: float,
    out: Violations,
) -> None:
    nodes = sorted(nodes)
    res = induced_diameter(g, nodes)
    out.diameters[cluster_id] = res
    if not res.connected:
        out.append(
            Violation("disconnected-cluster", {"cluster": cluster_id, "size": len(nodes)})
        )
        return
    if res.value > d_bound:
        witness = {"cluster": cluster_id, "size": len(nodes)}
        if not res.exact:
            # `measured` is a certified upper bound, not the diameter
            witness["exact"] = False
        out.append(
            Violation("diameter-exceeded", witness, measured=res.value, bound=d_bound)
        )


# ----------------------------------------------------------------------------
# Weak carving
# ----------------------------------------------------------------------------


def verify_weak_carving(g: Graph, mask: NodeMask, w, eps: float) -> list[Violation]:
    """Check a weak carving against its declared depth/congestion budget.

    `w` needs: clusters (list of objects with .nodes and .tree where tree has
    .root, .parent dict, .terminals), dead (iterable), declared_depth,
    declared_congestion. Empty result means the carving is valid.
    """
    out: list[Violation] = []
    alive_ids = _as_int_set(mask.node_ids())
    cluster_sets = [_as_int_set(c.nodes) for c in w.clusters]
    dead = _as_int_set(w.dead)
    _check_partition(alive_ids, cluster_sets + [dead], out)
    cluster_sets = {k: _in_range(g, nodes) for k, nodes in enumerate(cluster_sets)}

    if len(dead) > eps * len(alive_ids):
        out.append(
            Violation(
                "dead-budget-exceeded",
                {},
                measured=len(dead),
                bound=eps * len(alive_ids),
            )
        )

    _check_cluster_adjacency(g, _owners(cluster_sets), out)

    edge_use: dict[tuple[int, int], int] = {}
    for k, cluster in enumerate(w.clusters):
        tree = cluster.tree
        _check_steiner_tree(g, mask, k, cluster_sets[k], tree, w.declared_depth, out, edge_use)
    if edge_use:
        worst_edge = max(edge_use, key=lambda e: (edge_use[e], e))
        if edge_use[worst_edge] > w.declared_congestion:
            out.append(
                Violation(
                    "steiner-congestion",
                    {"edge": list(worst_edge)},
                    measured=edge_use[worst_edge],
                    bound=w.declared_congestion,
                )
            )
    return out


def _check_steiner_tree(
    g: Graph,
    mask: NodeMask,
    cluster_id: int,
    members: set[int],
    tree,
    depth_bound: int,
    out: list[Violation],
    edge_use: dict[tuple[int, int], int],
) -> None:
    """At most one steiner-terminals and one steiner-depth violation per
    cluster; a structurally broken tree contributes nothing to edge_use."""
    alive = mask.as_bytes()
    parent = {int(c): int(p) for c, p in tree.parent.items()}
    root = int(tree.root)
    tree_nodes = set(parent) | {root}
    terminals = _in_range(g, _as_int_set(tree.terminals))

    reasons = []
    if terminals != members:
        reasons.append("terminals != cluster nodes")
    if not terminals <= tree_nodes:
        reasons.append("terminal missing from tree")
    if root in parent:
        reasons.append("root has a parent")
    if _in_range(g, tree_nodes) != tree_nodes:
        reasons.append("tree node outside graph")
    else:
        for c, p in parent.items():
            if p not in tree_nodes:
                reasons.append("parent outside tree")
                break
            if p not in g.adj[c]:
                reasons.append("parent edge not in graph")
                break
            if not alive[c] or not alive[p]:
                reasons.append("dead tree node")
                break
    depths: dict[int, int] = {}
    if not reasons:
        # walk each terminal to the root; a cycle shows up as an overlong walk
        limit = len(tree_nodes) + 1
        for t in terminals:
            depth = 0
            v = t
            while v != root:
                if v not in parent or depth > limit:
                    reasons.append("terminal does not reach root")
                    break
                v = parent[v]
                depth += 1
            if reasons:
                break
            depths[t] = depth
    if reasons:
        out.append(
            Violation("steiner-terminals", {"cluster": cluster_id, "reason": reasons[0]})
        )
        return
    if depths:
        worst = max(depths, key=lambda t: (depths[t], t))
        if depths[worst] > depth_bound:
            out.append(
                Violation(
                    "steiner-depth",
                    {"cluster": cluster_id, "terminal": worst},
                    measured=depths[worst],
                    bound=depth_bound,
                )
            )
    tree_edges = {(min(c, p), max(c, p)) for c, p in parent.items()}
    for e in tree_edges:
        edge_use[e] = edge_use.get(e, 0) + 1


# ----------------------------------------------------------------------------
# Strong carving
# ----------------------------------------------------------------------------


def verify_strong_carving(
    g: Graph, mask: NodeMask, c, eps: float, d_bound: float
) -> Violations:
    """Check a strong carving: partition, dead budget, non-adjacency, and
    per-cluster connectivity + induced diameter <= d_bound.

    `c` needs: clusters (objects with .nodes) and dead (iterable). The
    result's `diameters` is keyed by the cluster's position in c.clusters.
    """
    out = Violations()
    alive_ids = _as_int_set(mask.node_ids())
    cluster_sets = [_as_int_set(cl.nodes) for cl in c.clusters]
    dead = _as_int_set(c.dead)
    _check_partition(alive_ids, cluster_sets + [dead], out)
    cluster_sets = {k: _in_range(g, nodes) for k, nodes in enumerate(cluster_sets)}
    if len(dead) > eps * len(alive_ids):
        out.append(
            Violation(
                "dead-budget-exceeded",
                {},
                measured=len(dead),
                bound=eps * len(alive_ids),
            )
        )
    _check_cluster_adjacency(g, _owners(cluster_sets), out)
    for k, nodes in cluster_sets.items():
        if nodes:
            _check_cluster_geometry(g, k, nodes, d_bound, out)
    return out


# ----------------------------------------------------------------------------
# Network decomposition
# ----------------------------------------------------------------------------


def verify_decomposition(g: Graph, d, c_bound: int, d_bound: float) -> Violations:
    """Check a network decomposition: total partition of V, color count,
    same-color non-adjacency, and per-cluster connectivity + diameter.

    `d` needs: clusters (objects with .id, .color, .nodes). The result's
    `diameters` is keyed by cluster id.
    """
    out = Violations()
    all_ids = set(range(g.n))
    cluster_sets = {int(cl.id): _as_int_set(cl.nodes) for cl in d.clusters}
    colors = {int(cl.id): int(cl.color) for cl in d.clusters}
    _check_partition(all_ids, list(cluster_sets.values()), out)
    cluster_sets = {cid: _in_range(g, nodes) for cid, nodes in cluster_sets.items()}

    used_colors = set(colors.values())
    if used_colors and (min(used_colors) < 1 or len(used_colors) > c_bound):
        out.append(
            Violation(
                "color-bound-exceeded",
                {"colors": sorted(used_colors)[:16]},
                measured=len(used_colors),
                bound=c_bound,
            )
        )
    _check_cluster_adjacency(g, _owners(cluster_sets), out, colors=colors)
    for cid, nodes in cluster_sets.items():
        if nodes:
            _check_cluster_geometry(g, cid, nodes, d_bound, out)
    return out


# ----------------------------------------------------------------------------
# Ball-size obstruction certificate
# ----------------------------------------------------------------------------


def no_large_lowdiam_component(g: Graph, r: int, t: int) -> bool:
    """True iff every radius-r ball has fewer than t nodes.

    A connected node set of diameter <= r lies inside B_r(v) for each of its
    own nodes, so max ball size < t certifies that no connected subgraph of
    diameter <= r has t or more nodes. Exhaustive BFS from every node.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if t < 1:
        raise ValueError("t must be >= 1")
    adj = g.adj
    seen = [-1] * g.n  # seen[w] == v: w already reached from source v
    for v in range(g.n):
        seen[v] = v
        frontier = [v]
        size = 1
        for _ in range(r):
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if seen[w] != v:
                        seen[w] = v
                        nxt.append(w)
            if not nxt:
                break
            size += len(nxt)
            frontier = nxt
        if size >= t:
            return False
    return True
