"""Independent brute-force verifiers: the test suite's ground truth.

Every object the library produces (weak carvings, strong carvings,
decompositions) can be checked here against its definition, by direct
measurement: partitions by counting, adjacency by edge scans, diameters by
BFS inside each cluster. The verifiers are pure, know nothing about how the
objects were produced, and return violations as data rather than raising; a
node id outside 0..n-1 is reported as a violation, never used as an index.
This is the only place that measures cluster diameters (`induced_diameter`,
below), with none of the algorithms' traversal code: the strong-carving and
decomposition verifiers hand back what they measured.

Each verifier has an independently coded slow twin in the test suite's
`tests/oracles.py` (Floyd-Warshall based); fuzz tests require the two to
agree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .graph import Graph, NodeMask, _check_sorted_ids, _edge_array

__all__ = [
    "Violation",
    "Violations",
    "verify_weak_carving",
    "verify_strong_carving",
    "verify_decomposition",
    "no_large_lowdiam_component",
    "DiameterResult",
    "induced_diameter",
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
    if isinstance(nodes, np.ndarray) and nodes.dtype.kind in "iu":
        return set(nodes.tolist())  # Python ints, in one call
    return set(int(v) for v in nodes)


def _in_range(g: Graph, nodes: set[int]) -> set[int]:
    """The members of `nodes` that are node ids of `g`; the others are
    reported by the partition check and kept out of every other check."""
    return {v for v in nodes if 0 <= v < g.n}


def _check_partition(
    alive_ids: set[int], parts: list[set[int]], out: list[Violation]
) -> bool:
    """Report overlaps, ids outside `alive_ids` and uncovered ids; True if
    some id lies outside `alive_ids`."""
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
    return bool(extra)


def _check_cluster_adjacency(
    g: Graph,
    cluster_sets: list[set[int]],
    out: list[Violation],
    colors: list[int] | None = None,
    ids: list[int] | None = None,
) -> None:
    """Edge scan: no alive edge may join two distinct (same-color) clusters.

    `cluster_sets` holds in-range node ids; a node in several sets belongs
    to the last. `colors` is indexed by position, and a witness names a
    cluster by `ids[position]` (by its position when `ids` is None). One
    violation per offending cluster pair, in pair order, whose witness is
    the pair's smallest edge (u, v), u < v.
    """
    owner = np.full(g.n, -1, dtype=np.int64)
    sizes = [len(nodes) for nodes in cluster_sets]
    members = np.fromiter(chain.from_iterable(cluster_sets), dtype=np.int64, count=sum(sizes))
    np.maximum.at(owner, members, np.repeat(np.arange(len(sizes)), sizes))
    # the edges (u, v), u < v, ascending
    u, v = _edge_array(g).T
    cu, cv = owner[u], owner[v]
    keep = (cu >= 0) & (cv >= 0) & (cu != cv)
    if colors is not None:
        # colors are any Python ints, so their ranks are compared
        rank = {c: r for r, c in enumerate(sorted(set(colors)))}
        color = np.array([rank[c] for c in colors], dtype=np.int64)
        keep[keep] = color[cu[keep]] == color[cv[keep]]
    u, v, lo, hi = u[keep], v[keep], np.minimum(cu, cv)[keep], np.maximum(cu, cv)[keep]
    # edge order is ascending, so each pair's first edge is its smallest
    _, first = np.unique(lo * len(sizes) + hi, return_index=True)
    for i in first.tolist():
        pair = (int(lo[i]), int(hi[i]))
        named = list(pair) if ids is None else [ids[k] for k in pair]
        edge = [int(u[i]), int(v[i])]
        out.append(Violation("adjacent-same-color", {"edge": edge, "clusters": named}))


def _check_cluster_geometry(
    g: Graph,
    cluster_id: int,
    nodes: set[int],
    d_bound: float,
    out: Violations,
    positions: np.ndarray,
) -> None:
    res = _induced_diameter(g, sorted(nodes), positions)
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


def _check_carving(
    g: Graph, mask: NodeMask, c, eps: float, out: list[Violation]
) -> list[set[int]]:
    """The checks every carving gets: its clusters and dead nodes partition
    the alive set, at most eps of it is dead, and no edge joins two
    clusters. Returns the clusters' node sets, out-of-range ids dropped."""
    alive_ids = _as_int_set(mask.node_ids())
    cluster_sets = [_as_int_set(cl.nodes) for cl in c.clusters]
    dead = _as_int_set(c.dead)
    if _check_partition(alive_ids, cluster_sets + [dead], out):
        cluster_sets = [_in_range(g, nodes) for nodes in cluster_sets]
    if len(dead) > eps * len(alive_ids):
        out.append(
            Violation(
                "dead-budget-exceeded",
                {},
                measured=len(dead),
                bound=eps * len(alive_ids),
            )
        )
    _check_cluster_adjacency(g, cluster_sets, out)
    return cluster_sets


# ----------------------------------------------------------------------------
# Weak carving
# ----------------------------------------------------------------------------


def verify_weak_carving(g: Graph, mask: NodeMask, w, eps: float) -> list[Violation]:
    """Check a weak carving against its declared depth/congestion budget.

    `w` needs: clusters (list of objects with .nodes and .tree where tree has
    .root and .parent dict), dead (iterable), declared_depth,
    declared_congestion. A cluster's nodes are its tree's terminals. Empty
    result means the carving is valid.
    """
    out: list[Violation] = []
    cluster_sets = _check_carving(g, mask, w, eps, out)
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
    terminals: set[int],
    tree,
    depth_bound: int,
    out: list[Violation],
    edge_use: dict[tuple[int, int], int],
) -> None:
    """At most one steiner-terminals and one steiner-depth violation per
    cluster, whose in-range nodes are the tree's `terminals`; a structurally
    broken tree contributes nothing to edge_use."""
    alive = mask.as_bytes()
    parent = {int(c): int(p) for c, p in tree.parent.items()}
    root = int(tree.root)
    tree_nodes = set(parent) | {root}

    reasons = []
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
    depth = {root: 0}
    if not reasons:
        # walk every tree node, terminals first, up to a node of known
        # depth; a walk longer than the tree has nodes is caught in a cycle
        for node in chain(terminals, tree_nodes):
            path, v = [], node
            while v not in depth and len(path) <= len(tree_nodes):
                path.append(v)
                v = parent[v]
            if v not in depth:
                who = "terminal" if node in terminals else "tree node"
                reasons.append(f"{who} does not reach root")
                break
            for w in reversed(path):
                depth[w] = depth[v] + 1
                v = w
    if reasons:
        out.append(
            Violation("steiner-terminals", {"cluster": cluster_id, "reason": reasons[0]})
        )
        return
    if terminals:
        worst = max(terminals, key=lambda t: (depth[t], t))
        if depth[worst] > depth_bound:
            out.append(
                Violation(
                    "steiner-depth",
                    {"cluster": cluster_id, "terminal": worst},
                    measured=depth[worst],
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
    cluster_sets = _check_carving(g, mask, c, eps, out)
    positions = np.full(g.n, -1, dtype=np.int64)
    for k, nodes in enumerate(cluster_sets):
        if nodes:
            _check_cluster_geometry(g, k, nodes, d_bound, out, positions)
    return out


# ----------------------------------------------------------------------------
# Network decomposition
# ----------------------------------------------------------------------------


def verify_decomposition(g: Graph, d, c_bound: int, d_bound: float) -> Violations:
    """Check a network decomposition: total partition of V, color count,
    same-color non-adjacency, and per-cluster connectivity + diameter.

    `d` needs: clusters (objects with .id, .color, .nodes). Every cluster
    is checked, also one whose id another cluster repeats; a repeated id is
    a `not-partition` violation. Witnesses name clusters by id, and the
    result's `diameters` is keyed by cluster id.
    """
    out = Violations()
    clusters = list(d.clusters)
    ids = [int(cl.id) for cl in clusters]
    colors = [int(cl.color) for cl in clusters]
    cluster_sets = [_as_int_set(cl.nodes) for cl in clusters]
    outside = _check_partition(set(range(g.n)), cluster_sets, out)
    repeated = sorted(cid for cid, uses in Counter(ids).items() if uses > 1)
    if repeated:
        out.append(Violation("not-partition", {"reason": "duplicate-id", "ids": repeated[:8]}))
    if outside:
        cluster_sets = [_in_range(g, nodes) for nodes in cluster_sets]

    used_colors = set(colors)
    if used_colors and (min(used_colors) < 1 or len(used_colors) > c_bound):
        out.append(
            Violation(
                "color-bound-exceeded",
                {"colors": sorted(used_colors)[:16]},
                measured=len(used_colors),
                bound=c_bound,
            )
        )
    _check_cluster_adjacency(g, cluster_sets, out, colors=colors, ids=ids)
    positions = np.full(g.n, -1, dtype=np.int64)
    for cid, nodes in zip(ids, cluster_sets):
        if nodes:
            _check_cluster_geometry(g, cid, nodes, d_bound, out, positions)
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


# ----------------------------------------------------------------------------
# Induced diameter
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class DiameterResult:
    value: int
    connected: bool
    exact: bool


# Most BFS runs one induced_diameter call spends on sweeps and iFUB.
_BFS_BUDGET = 16

# A fringe's sweep (`_eccentricities`) has at most _BFS_BUDGET sources, so
# its lanes fit one uint64 word.
assert _BFS_BUDGET <= 64

# Largest node set that the bitset kernel finishes exactly when the bounds
# have not met within the budget.
_EXACT_THRESHOLD = 5000

# Frontier size from which induced_diameter expands a BFS layer in numpy
# rather than node by node. One layer costs the same either way at about 64
# frontier nodes on the gnp-wide giant cluster (mean degree 8) and about 96
# on grid 64x64 (degree 4); 80 keeps the grid within a few percent of the
# node loop and costs the giant cluster about 2% against 64. A set of fewer
# nodes never expands a layer in numpy, so `_LocalGraph` builds it no CSR.
_WIDE = 80


def induced_diameter(g: Graph, nodes: Sequence[int]) -> DiameterResult:
    """Diameter of the subgraph induced by `nodes`.

    Every BFS runs over a compact local copy of the induced subgraph
    (`_LocalGraph`): a set of fewer than _WIDE nodes maps its rows in g
    through a dict of its ids, in O(k) for k nodes; a larger one maps
    them through a position array of g.n entries. A call allocates that
    array for itself; the verifiers share one between all their calls
    (`_induced_diameter`), so that a cluster costs them O(k). Ids already
    strictly ascending are taken as they are, others sorted and made
    distinct.

    A BFS from the lowest node decides `connected`. A BFS layer whose
    frontier holds at least _WIDE nodes is expanded in numpy, a narrower
    one node by node. Two double sweeps (x -> the farthest a -> the
    farthest b, the second from the node nearest both a and b) give a
    lower bound, and the node nearest all four sweep ends is the root of
    iFUB (Crescenzi, Grossi, Habib, Lanzi & Marino, TCS 2013): the
    eccentricities of the root's BFS levels, deepest first, raise the
    lower bound until it meets the upper bound 2 * (level - 1).

    The first BFS picks the representation once. A set whose first BFS has
    no wide layer runs every BFS as a plain list BFS over Python lists, and
    measures a level's fringe one BFS per node. A set whose first BFS went
    wide keeps every distance vector as an int64 array (farthest and
    nearest nodes by argmax and argmin, which take the first of tied
    nodes, as a list's index does; a level by flatnonzero), and measures a
    level's fringe in one bitset sweep, one lane per node
    (`_eccentricities`). Both give the same result.

    If the bounds have not met within _BFS_BUDGET runs, a set of at most
    _EXACT_THRESHOLD nodes is finished exactly by a bitset all-pairs BFS;
    a larger set returns the certified upper bound with exact=False.

    A disconnected set has no finite diameter: the result has
    connected=False, exact=False and the eccentricity of the lowest node
    within its own component as value.
    """
    return _induced_diameter(g, nodes, None)


def _induced_diameter(
    g: Graph, nodes: Sequence[int], positions: np.ndarray | None
) -> DiameterResult:
    """`induced_diameter`, reading a set of _WIDE nodes or more through
    `positions`: an int64 array of g.n entries, all -1, which the call
    leaves all -1 again (None: allocate one)."""
    nodes = np.asarray(nodes, dtype=np.int64)
    if not (nodes[1:] > nodes[:-1]).all():
        nodes = _distinct(nodes)
    k = int(nodes.size)
    if k == 0:
        raise ValueError("empty node set")
    _check_sorted_ids(nodes, g.n)
    local = _LocalGraph(g, nodes, positions)

    dist0 = _layered_bfs(local, 0)
    if local.wide:
        # argmax and argmin take the first of tied entries, as a list's
        # index does, so both routes pick the same nodes
        def bfs(v: int) -> np.ndarray:
            return np.asarray(_layered_bfs(local, v))

        def farthest(dist: np.ndarray) -> int:
            return int(dist.argmax())

        def nearest(*ds: np.ndarray) -> int:
            return int(np.max(ds, axis=0).argmin())

        def eccentricity(dist: np.ndarray) -> int:
            return int(dist.max())

        def leveler(du: np.ndarray):
            return lambda i: np.flatnonzero(du == i).tolist()

        def fringe_eccentricities(fringe: list[int]) -> list[int]:
            return _eccentricities(local, fringe).tolist()

    else:
        # a set whose first BFS stayed narrow has had all its rows built by
        # it, and keeps the plain list BFS
        rows = local.rows

        def bfs(v: int) -> list[int]:
            return _local_bfs(rows, v)

        def farthest(dist: list[int]) -> int:
            return dist.index(max(dist))

        def nearest(*ds: list[int]) -> int:
            worst = list(map(max, *ds))
            return worst.index(min(worst))

        eccentricity = max

        def leveler(du: list[int]):
            levels: list[list[int]] = [[] for _ in range(max(du) + 1)]
            for v, d in enumerate(du):
                levels[d].append(v)
            return levels.__getitem__

        def fringe_eccentricities(fringe: list[int]) -> list[int]:
            return [max(bfs(z)) for z in fringe]

    if -1 in dist0:
        return DiameterResult(eccentricity(dist0), False, False)
    dists = {0: dist0}

    def sweep(v: int):
        if v not in dists:
            dists[v] = bfs(v)
        return dists[v]

    da = sweep(farthest(dist0))
    db = sweep(farthest(da))
    da2 = sweep(farthest(sweep(nearest(da, db))))
    db2 = sweep(farthest(da2))
    du = sweep(nearest(da, db, da2, db2))
    ecc = {v: eccentricity(d) for v, d in dists.items()}
    i = eccentricity(du)
    level = leveler(du)

    # a pair with an end deeper than level i is within that end's
    # eccentricity (in `ecc`, so at most lb); two nodes at levels <= i are
    # within 2 * i through the root: the diameter is at most max(lb, 2 * i)
    while True:
        lb = max(ecc.values())
        ub = min(2 * min(ecc.values()), max(lb, 2 * i))
        if lb >= ub:
            return DiameterResult(lb, True, True)
        fringe = [z for z in level(i) if z not in ecc]
        if len(ecc) + len(fringe) > _BFS_BUDGET:
            break
        ecc.update(zip(fringe, fringe_eccentricities(fringe)))
        i -= 1
    if k <= _EXACT_THRESHOLD:
        return DiameterResult(_diameter_bitset(local), True, True)
    return DiameterResult(ub, True, False)


class _LocalGraph:
    """The subgraph induced by the sorted, distinct, in-range `nodes` of
    `g`, in local ids 0..k-1: `rows[x]` is the adjacency list of x once
    built (None before), and `wide` turns true when a BFS first expands a
    layer in numpy.

    A set of fewer than _WIDE nodes never has a frontier of _WIDE nodes, so
    its BFS only ever reads rows: they are all built up front from the
    set's rows in g, each target mapped through a dict of the set's ids or
    dropped if outside the set. Those rows are read from `g.adj` if the
    graph has built it (the pipelines do), else sliced out of g's CSR: on
    path-strong's 15-node sets that costs about 8 us more per set (2-vCPU
    x86-64 host), but a graph that is only verified never builds its O(n)
    Python lists. Its CSR arrays are built from the rows only if the bitset
    kernel asks for them (`csr`). The switch is the set's size, not its
    shape: long thin sets read their rows faster off the CSR's lists (rows
    through the dict for every set made path-deep's verify 1.08x slower,
    graph seed 1).

    A larger set has its CSR arrays `ip` and `dst` and the same as Python
    lists; a narrow BFS layer builds the rows it reads from the lists. They
    come from the set's rows of g's CSR, each target mapped to its local id
    through `positions` (-1: not in the set, dropped; g.n entries allocated
    here when None), which is reset on the set's own nodes right after; the
    targets kept up to each row's end give `ip`."""

    __slots__ = ("ip", "dst", "ip_list", "dst_list", "rows", "wide")

    def __init__(self, g: Graph, nodes: np.ndarray, positions: np.ndarray | None = None):
        self.wide = False
        if nodes.size < _WIDE:
            ids = nodes.tolist()
            index = {v: x for x, v in enumerate(ids)}
            if g._adj is None:
                ip, targets = g.indptr, g.indices
                spans = zip(ip[nodes].tolist(), ip[nodes + 1].tolist())
                rows = (targets[a:b].tolist() for a, b in spans)
            else:
                rows = (g._adj[v] for v in ids)
            self.rows = [[index[w] for w in row if w in index] for row in rows]
            self.ip = self.dst = self.ip_list = self.dst_list = None
            return
        pos = np.full(g.n, -1, dtype=np.int64) if positions is None else positions
        pos[nodes] = np.arange(nodes.size)
        targets, ends = _gather_rows(g.indptr, g.indices, nodes)
        dst = pos[targets]
        pos[nodes] = -1
        keep = dst >= 0
        kept = np.zeros(dst.size + 1, dtype=np.int64)
        np.cumsum(keep, out=kept[1:])
        self.ip = np.zeros(nodes.size + 1, dtype=np.int64)
        self.ip[1:] = kept[ends]
        self.dst = dst[keep]
        self.ip_list, self.dst_list = self.ip.tolist(), self.dst.tolist()
        self.rows: list = [None] * nodes.size

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """`(ip, dst)`, built from the rows on the first call for a set of
        fewer than _WIDE nodes."""
        if self.ip is None:
            sizes = [len(row) for row in self.rows]
            self.ip = np.zeros(len(sizes) + 1, dtype=np.int64)
            np.cumsum(sizes, out=self.ip[1:])
            self.dst = np.fromiter(chain.from_iterable(self.rows), np.int64, int(self.ip[-1]))
        return self.ip, self.dst


def _gather_rows(ip: np.ndarray, targets: np.ndarray, rows: np.ndarray) -> tuple:
    """The CSR rows `rows` (at least one) of (ip, targets), concatenated in
    order, and the end of each row in the result."""
    lo = ip[rows]
    cnt = ip[rows + 1] - lo
    ends = np.cumsum(cnt)
    return targets[np.repeat(lo - ends + cnt, cnt) + np.arange(int(ends[-1]))], ends


def _layered_bfs(local: _LocalGraph, s: int) -> list[int] | np.ndarray:
    """Hop distances from `s` over `local`; -1 if unreached. A list if every
    layer was narrow, else an int64 array.

    A layer of fewer than _WIDE nodes is expanded node by node over a
    Python list of distances, building the rows it reads; a wider one by
    `_wide_layer` over a numpy array of distances. A target of layer d lies
    in layer d - 1, d or d + 1, so a switch either way hands over only the
    last two layers; the list's nodes are written into the array once, at
    the end.
    """
    ip, targets, rows = local.ip_list, local.dst_list, local.rows
    k = len(rows)
    dist = [-1] * k
    dist[s] = 0
    arr = None
    fresh = [s]  # the nodes reached node by node, for the merge at the end
    prev, frontier = [], [s]
    d = 0
    while True:
        while 0 < len(frontier) < _WIDE:
            d += 1
            nxt = []
            for x in frontier:
                row = rows[x]
                if row is None:
                    rows[x] = row = targets[ip[x] : ip[x + 1]]
                for y in row:
                    if dist[y] < 0:
                        dist[y] = d
                        nxt.append(y)
            fresh += nxt
            prev, frontier = frontier, nxt
        if not frontier:
            break
        if arr is None:
            local.wide = True
            arr = np.full(k, -1, dtype=np.int64)
        arr[prev] = d - 1
        arr[frontier] = d
        while len(frontier) >= _WIDE:
            d += 1
            prev, frontier = frontier, _wide_layer(local, arr, frontier, d)
        for at, layer in ((d - 1, prev), (d, frontier)):
            for y in np.asarray(layer).tolist():
                dist[y] = at
        frontier = frontier.tolist()
    if arr is None:
        return dist
    arr[fresh] = [dist[y] for y in fresh]
    return arr


def _wide_layer(local: _LocalGraph, dist: np.ndarray, frontier, d: int) -> np.ndarray:
    """Expand the BFS layer `frontier` (distance d - 1) in numpy: gather the
    frontier's rows, keep the targets not yet reached, set their distance to
    d in `dist` and return them, ascending and without repeats."""
    nb, _ = _gather_rows(local.ip, local.dst, np.asarray(frontier, dtype=np.int64))
    nb = nb[dist[nb] < 0]
    dist[nb] = d
    # sorting a few targets beats a scan of all k distances (on a 70 x 600
    # grid), and the scan beats sorting many (on the gnp-wide giant cluster)
    return _distinct(nb) if nb.size * 64 < dist.size else np.flatnonzero(dist == d)


def _distinct(ids: np.ndarray) -> np.ndarray:
    """np.unique(ids), by a sort and a neighbour test: numpy 2's np.unique
    hashes, and takes 3.4 ms to this 0.15 ms on the 20,000 ids of gnp-wide's
    giant cluster (2-vCPU x86-64 host)."""
    ids = np.sort(ids)
    step = ids[1:] != ids[:-1]
    if step.all():
        return ids
    return ids[np.concatenate(([True], step))]


def _local_bfs(adj: list[list[int]], s: int) -> list[int]:
    """Hop distances from `s` over local adjacency lists; -1 if unreached."""
    dist = [-1] * len(adj)
    dist[s] = 0
    frontier = [s]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if dist[y] < 0:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    return dist


def _eccentricities(local: _LocalGraph, sources) -> np.ndarray:
    """The eccentricities of `sources` in a connected local subgraph with
    k >= 2 nodes, by one BFS batched in bitsets: source j owns lane j of a
    (k, words) uint64 array, OR-propagated along edges, one numpy step per
    distance, and its eccentricity is the last step at which its lane grew.
    No row of such a subgraph is empty, so the row starts `ip[:-1]` are the
    reduceat runs."""
    ip, dst = local.csr()
    src = np.asarray(sources, dtype=np.int64)
    lanes = np.arange(src.size, dtype=np.uint64)
    reach = np.zeros((len(local.rows), (src.size + 63) // 64), dtype=np.uint64)
    reach[src, (lanes // np.uint64(64)).astype(np.int64)] = np.uint64(1) << (lanes % np.uint64(64))
    if reach.shape[1] == 1:
        reach = reach.ravel()  # gathers and reduceat run faster on one word as 1-D
    ecc = np.zeros(src.size, dtype=np.int64)
    step = 0
    while True:
        updated = np.bitwise_or.reduceat(reach[dst], ip[:-1], axis=0)
        updated |= reach
        reach ^= updated  # the bits each row gained
        grown = np.reshape(np.bitwise_or.reduce(reach, axis=0), -1)
        if not grown.any():
            return ecc
        step += 1
        # lane j is bit j % 64 of word j // 64
        bits = np.unpackbits(grown.astype("<u8").view(np.uint8), bitorder="little")
        ecc[bits[: src.size] == 1] = step
        reach = updated


def _diameter_bitset(local: _LocalGraph) -> int:
    """Exact diameter of a connected local subgraph with k >= 2 nodes: the
    largest eccentricity, with every node a source."""
    return int(_eccentricities(local, np.arange(len(local.rows))).max())
