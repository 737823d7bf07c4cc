"""Graph representation, BFS machinery, components, and generators.

The graph is immutable: a simple undirected graph over dense node ids
0..n-1 stored both as CSR arrays (for vectorized work) and as plain
adjacency lists (for the scalar BFS loops that dominate the algorithms).
Subgraphs are never materialized; every traversal takes a NodeMask and
only walks alive->alive edges.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Graph",
    "NodeMask",
    "BarrierSpec",
    "DiameterResult",
    "bfs_layers",
    "connected_components",
    "induced_diameter",
    "generate",
    "complete_graph",
    "graph_from_edges",
    "to_text",
    "from_text",
]


# ----------------------------------------------------------------------------
# Core types
# ----------------------------------------------------------------------------


@dataclass(eq=False)
class Graph:
    """Simple undirected graph with sorted CSR adjacency.

    Invariants: no self-loops, no multi-edges, u in adj(v) iff v in adj(u),
    neighbor lists sorted ascending. Instances are immutable after
    construction and safe to share across threads.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    _adj: tuple | None = field(default=None, repr=False)

    @property
    def m(self) -> int:
        return int(self.indices.size) // 2

    @property
    def adj(self) -> tuple:
        """Adjacency as a tuple of python lists (built once, cached)."""
        if self._adj is None:
            ip = self.indptr
            idx = self.indices.tolist()
            object.__setattr__(
                self,
                "_adj",
                tuple(idx[ip[v] : ip[v + 1]] for v in range(self.n)),
            )
        return self._adj

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in sorted order."""
        e = _edge_array(self)
        return list(zip(e[:, 0].tolist(), e[:, 1].tolist()))


def _edge_array(g: Graph) -> np.ndarray:
    """The (m, 2) array of edges (u, v) with u < v, sorted, read off the CSR."""
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    upper = src < g.indices
    return np.column_stack((src[upper], g.indices[upper]))


def graph_from_edges(n: int, edges) -> Graph:
    """Build a Graph from an (m, 2) integer array-like of edges.

    Either orientation is accepted; out-of-range ends, self-loops and
    duplicates (in either orientation) raise ValueError, as does a negative
    node count.
    """
    if n < 0:
        raise ValueError(f"node count n={n} is negative")
    e = np.asarray(edges, dtype=np.int64)
    if e.size == 0:
        e = e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError(f"edges must be an (m, 2) array, got shape {e.shape}")
    u, v = e[:, 0], e[:, 1]
    bad = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"edge ({u[i]},{v[i]}) out of range for n={n}")
    loop = u == v
    if loop.any():
        raise ValueError(f"self-loop at node {u[np.argmax(loop)]}")
    # both directions of every edge, sorted by (source, target): the CSR order
    src = np.concatenate((u, v))
    dst = np.concatenate((v, u))
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    dup = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
    if dup.any():
        i = int(np.argmax(dup))
        a, b = sorted((int(src[i]), int(dst[i])))
        raise ValueError(f"duplicate edge {(a, b)}")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return Graph(n=n, indptr=indptr, indices=dst)


class NodeMask:
    """Boolean alive-mask over a graph's nodes; induced-subgraph view.

    Treated as immutable: derived masks are new objects. The bytes buffer
    mirrors the numpy array for fast scalar indexing in BFS loops.
    """

    __slots__ = ("alive", "_bytes", "_count")

    def __init__(self, alive: np.ndarray):
        alive = np.asarray(alive, dtype=bool)
        self.alive = alive
        self._bytes: bytearray | None = None
        self._count: int | None = None

    @classmethod
    def full(cls, n: int) -> "NodeMask":
        return cls(np.ones(n, dtype=bool))

    @classmethod
    def from_nodes(cls, n: int, nodes: Iterable[int]) -> "NodeMask":
        a = np.zeros(n, dtype=bool)
        nodes = np.asarray(list(nodes), dtype=np.int64)
        if nodes.size:
            a[nodes] = True
        return cls(a)

    def as_bytes(self) -> bytearray:
        if self._bytes is None:
            self._bytes = bytearray(self.alive.astype(np.uint8).tobytes())
        return self._bytes

    def count(self) -> int:
        if self._count is None:
            self._count = int(self.alive.sum())
        return self._count

    def node_ids(self) -> np.ndarray:
        return np.flatnonzero(self.alive)

    def without(self, nodes: Iterable[int]) -> "NodeMask":
        a = self.alive.copy()
        nodes = np.asarray(list(nodes), dtype=np.int64)
        if nodes.size:
            a[nodes] = False
        return NodeMask(a)



@dataclass(frozen=True)
class BarrierSpec:
    """Parameters of the subdivided-expander obstruction graph.

    Every edge of a random `degree`-regular base graph on `base_nodes`
    nodes is replaced by a path of `subdivision_length` edges. The result
    has base_nodes + (base_nodes*degree/2)*(subdivision_length-1) nodes.
    """

    base_nodes: int
    degree: int
    subdivision_length: int
    seed: int = 0

    def __post_init__(self):
        if self.degree < 3:
            raise ValueError("barrier base degree must be >= 3")
        if self.subdivision_length < 1:
            raise ValueError("subdivision length must be >= 1")
        if (self.base_nodes * self.degree) % 2 != 0:
            raise ValueError("base_nodes * degree must be even")
        if self.base_nodes <= self.degree:
            raise ValueError("need base_nodes > degree for a simple base graph")

    @property
    def expected_nodes(self) -> int:
        base_edges = self.base_nodes * self.degree // 2
        return self.base_nodes + base_edges * (self.subdivision_length - 1)

    @property
    def expected_edges(self) -> int:
        return (self.base_nodes * self.degree // 2) * self.subdivision_length


# ----------------------------------------------------------------------------
# Scratch buffers: repeated small BFS calls on a big graph should cost
# O(touched), not O(n). Stamp arrays avoid clearing between calls.
# ----------------------------------------------------------------------------


class Scratch:
    __slots__ = ("dist", "stamp", "parent", "gen")

    def __init__(self, n: int):
        self.dist = [0] * n
        self.stamp = [0] * n
        self.parent = [0] * n
        self.gen = 0

    def begin(self) -> int:
        self.gen += 1
        return self.gen


def _bfs_layers(
    adj: tuple,
    alive: bytearray,
    sources: Sequence[int],
    scratch: Scratch,
    r_max: int | None = None,
    stop_size: int | None = None,
) -> tuple[list[int], list[int]]:
    """Layered BFS inside the alive mask.

    Returns (cum, touched): cum[r] = number of alive nodes at distance <= r
    from the source set, for r up to the last explored layer; touched lists
    reached nodes in BFS order. Distances stay readable via scratch until
    the next begin(). Stops early when the frontier dies, when r_max layers
    were explored, or (after finishing a layer) when cum >= stop_size.
    """
    gen = scratch.begin()
    dist, stamp = scratch.dist, scratch.stamp
    frontier = []
    for s in sources:
        if stamp[s] != gen:
            stamp[s] = gen
            dist[s] = 0
            frontier.append(s)
    touched = list(frontier)
    cum = [len(frontier)]
    r = 0
    while frontier:
        if r_max is not None and r >= r_max:
            break
        if stop_size is not None and cum[-1] >= stop_size:
            break
        nxt = []
        d = r + 1
        for u in frontier:
            for w in adj[u]:
                if alive[w] and stamp[w] != gen:
                    stamp[w] = gen
                    dist[w] = d
                    nxt.append(w)
        if not nxt:
            break
        touched.extend(nxt)
        cum.append(cum[-1] + len(nxt))
        frontier = nxt
        r = d
    return cum, touched


def _bfs_tree(
    adj: tuple,
    alive: bytearray,
    root: int,
    scratch: Scratch,
    r_max: int | None = None,
) -> tuple[list[int], int]:
    """BFS tree from a single root; fills scratch.parent for reached nodes.

    parent[root] = -1; otherwise parent = the first discoverer in BFS order.
    Returns (touched-in-BFS-order, eccentricity-within-explored-range).
    """
    gen = scratch.begin()
    dist, stamp, parent = scratch.dist, scratch.stamp, scratch.parent
    stamp[root] = gen
    dist[root] = 0
    parent[root] = -1
    frontier = [root]
    touched = [root]
    r = 0
    while frontier:
        if r_max is not None and r >= r_max:
            break
        nxt = []
        d = r + 1
        for u in frontier:
            for w in adj[u]:
                if alive[w] and stamp[w] != gen:
                    stamp[w] = gen
                    dist[w] = d
                    parent[w] = u
                    nxt.append(w)
        if not nxt:
            break
        touched.extend(nxt)
        frontier = nxt
        r = d
    return touched, r


def _preorder(
    adj: tuple,
    alive: bytearray,
    root: int,
    scratch: Scratch,
) -> list[int]:
    """Depth-first preorder of the BFS tree rooted at `root`.

    Children are visited in ascending id order; a node is emitted before
    its children. Preorder is the fixed traversal used wherever nodes of a
    component need a canonical linear order.
    """
    touched, _ = _bfs_tree(adj, alive, root, scratch)
    children: dict[int, list[int]] = {v: [] for v in touched}
    parent = scratch.parent
    for v in touched:
        if v != root:
            children[parent[v]].append(v)
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        kids = children[v]
        kids.sort()
        stack.extend(reversed(kids))
    return order


# ----------------------------------------------------------------------------
# Public operations
# ----------------------------------------------------------------------------


def bfs_layers(
    g: Graph,
    mask: NodeMask,
    sources: Iterable[int],
    r_max: int,
) -> tuple[list[int], np.ndarray]:
    """Cumulative ball sizes |B_0|..|B_r_max| around a source set.

    Returns (cum, dist) where cum has length r_max+1 (padded with the final
    size once the ball saturates) and dist[v] is the exact distance from the
    sources inside the alive subgraph, -1 where unreached.
    """
    src = sorted(set(int(s) for s in sources))
    if not src:
        raise ValueError("no sources")
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    alive = mask.as_bytes()
    for s in src:
        if not alive[s]:
            raise ValueError(f"source {s} is not alive")
    scratch = Scratch(g.n)
    cum, touched = _bfs_layers(g.adj, alive, src, scratch, r_max=r_max)
    dist = np.full(g.n, -1, dtype=np.int64)
    sd = scratch.dist
    for v in touched:
        dist[v] = sd[v]
    while len(cum) < r_max + 1:
        cum.append(cum[-1])
    return cum, dist


def connected_components(g: Graph, mask: NodeMask) -> list[np.ndarray]:
    """Partition of the alive nodes into components, ordered by min node id.

    Each component is a sorted ascending array. Empty mask gives [].
    """
    alive = mask.as_bytes()
    seen = bytearray(g.n)
    comps = []
    adj = g.adj
    for v in mask.node_ids().tolist():
        if not seen[v]:
            comp = [v]
            seen[v] = 1
            frontier = [v]
            while frontier:
                nxt = []
                for u in frontier:
                    for w in adj[u]:
                        if alive[w] and not seen[w]:
                            seen[w] = 1
                            nxt.append(w)
                comp.extend(nxt)
                frontier = nxt
            comp.sort()
            comps.append(np.asarray(comp, dtype=np.int64))
    return comps


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

# Largest node set that the bitset kernel finishes exactly when the bounds
# have not met within the budget.
_EXACT_THRESHOLD = 5000


def induced_diameter(g: Graph, nodes: Sequence[int]) -> DiameterResult:
    """Diameter of the subgraph induced by `nodes`.

    Every BFS runs over a compact local copy of the induced subgraph. A BFS
    from the lowest node decides `connected`. Two double sweeps (x -> the
    farthest a -> the farthest b, the second from the node nearest both a
    and b) give a lower bound, and the node nearest all four sweep ends is
    the root of iFUB (Crescenzi, Grossi, Habib, Lanzi & Marino, TCS 2013):
    the eccentricities of the root's BFS levels, deepest first, raise the
    lower bound until it meets the upper bound 2 * (level - 1).

    If the bounds have not met within _BFS_BUDGET runs, a set of at most
    _EXACT_THRESHOLD nodes is finished exactly by a bitset all-pairs BFS;
    a larger set returns the certified upper bound with exact=False.

    A disconnected set has no finite diameter: the result has
    connected=False, exact=False and the eccentricity of the lowest node
    within its own component as value.
    """
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    k = int(nodes.size)
    if k == 0:
        raise ValueError("empty node set")
    src, dst = _local_edges(g, nodes)
    ip = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=k), out=ip[1:])
    ip, targets = ip.tolist(), dst.tolist()
    adj = [targets[ip[v] : ip[v + 1]] for v in range(k)]

    dist0 = _local_bfs(adj, 0)
    if min(dist0) < 0:
        return DiameterResult(max(dist0), False, False)
    dists = {0: dist0}

    def sweep(v: int) -> list[int]:
        if v not in dists:
            dists[v] = _local_bfs(adj, v)
        return dists[v]

    def farthest(dist: list[int]) -> int:
        return dist.index(max(dist))

    def nearest(*ds: list[int]) -> int:
        worst = list(map(max, *ds))
        return worst.index(min(worst))

    da = sweep(farthest(dist0))
    db = sweep(farthest(da))
    da2 = sweep(farthest(sweep(nearest(da, db))))
    db2 = sweep(farthest(da2))
    du = sweep(nearest(da, db, da2, db2))
    ecc = {v: max(d) for v, d in dists.items()}
    i = max(du)
    levels: list[list[int]] = [[] for _ in range(i + 1)]
    for v, d in enumerate(du):
        levels[d].append(v)

    # a pair with an end deeper than level i is within that end's
    # eccentricity (in `ecc`, so at most lb); two nodes at levels <= i are
    # within 2 * i through the root: the diameter is at most max(lb, 2 * i)
    while True:
        lb = max(ecc.values())
        ub = min(2 * min(ecc.values()), max(lb, 2 * i))
        if lb >= ub:
            return DiameterResult(lb, True, True)
        fringe = [z for z in levels[i] if z not in ecc]
        if len(ecc) + len(fringe) > _BFS_BUDGET:
            break
        for z in fringe:
            ecc[z] = max(_local_bfs(adj, z))
        i -= 1
    if k <= _EXACT_THRESHOLD:
        return DiameterResult(_diameter_bitset(k, src, dst), True, True)
    return DiameterResult(ub, True, False)


def _local_edges(g: Graph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Directed edges of the subgraph induced by the sorted `nodes`, in local
    ids 0..k-1, sorted by source and then by target."""
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[nodes] = np.arange(nodes.size)
    counts = (g.indptr[nodes + 1] - g.indptr[nodes]).astype(np.int64)
    total = int(counts.sum())
    if not total:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    starts = g.indptr[nodes]
    offs = np.repeat(np.cumsum(counts) - counts, counts)
    flat = np.arange(total) - offs + np.repeat(starts, counts)
    dst_raw = g.indices[flat]
    src_raw = np.repeat(nodes, counts)
    keep = pos[dst_raw] >= 0
    return pos[src_raw[keep]], pos[dst_raw[keep]]


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


def _diameter_bitset(k: int, src: np.ndarray, dst: np.ndarray) -> int:
    """Exact diameter of a connected local subgraph with k >= 2 nodes, by an
    all-pairs BFS batched in bitsets (one uint64 lane per source,
    OR-propagated along edges): one numpy step per distance."""
    words = (k + 63) // 64
    reach = np.zeros((k, words), dtype=np.uint64)
    lanes = np.arange(k, dtype=np.uint64)
    reach[np.arange(k), (lanes // np.uint64(64)).astype(np.int64)] = (
        np.uint64(1) << (lanes % np.uint64(64))
    )
    starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
    diameter = 0
    while True:
        updated = reach | np.bitwise_or.reduceat(reach[dst], starts, axis=0)
        if np.array_equal(updated, reach):
            return diameter
        reach = updated
        diameter += 1


# ----------------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------------


def _gen_path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    i = np.arange(n - 1, dtype=np.int64)
    return graph_from_edges(n, np.column_stack((i, i + 1)))


def _gen_grid(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise ValueError("grid needs rows, cols >= 1")
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    right = np.column_stack((ids[:, :-1].ravel(), ids[:, 1:].ravel()))
    down = np.column_stack((ids[:-1].ravel(), ids[1:].ravel()))
    return graph_from_edges(rows * cols, np.concatenate((right, down)))


def _gen_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) by geometric skipping over the upper triangle: O(n + m)."""
    if n < 1:
        raise ValueError("gnp needs n >= 1")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must be in [0, 1]")
    if p == 1.0:
        return complete_graph(n)
    edges = []
    if p > 0.0:
        rng = np.random.default_rng(seed)
        lq = math.log1p(-p)
        total = n * (n - 1) // 2
        pos = -1
        while True:
            u = rng.random()
            pos += 1 + int(math.log(1.0 - u) / lq)
            if pos >= total:
                break
            # unrank the linear index into (i, j), i < j
            i = int((2 * n - 1 - math.sqrt((2 * n - 1) ** 2 - 8 * pos)) / 2)
            base = i * (2 * n - i - 1) // 2
            while base > pos:
                i -= 1
                base = i * (2 * n - i - 1) // 2
            while i * (2 * n - i - 1) // 2 + (n - i - 1) <= pos:
                i += 1
            base = i * (2 * n - i - 1) // 2
            j = i + 1 + (pos - base)
            edges.append((i, j))
    return graph_from_edges(n, edges)


def _gen_regular(n: int, deg: int, seed: int, max_attempts: int = 10000) -> Graph:
    """Random deg-regular simple graph via the configuration model.

    Stub pairings with self-loops or parallel edges are rejected wholesale
    and resampled; expansion is a statistical property of the ensemble, not
    certified per instance.
    """
    if deg < 0 or deg >= n:
        raise ValueError("need 0 <= deg < n")
    if (n * deg) % 2 != 0:
        raise ValueError("n * deg must be even")
    rng = np.random.default_rng(seed)
    stubs0 = np.repeat(np.arange(n, dtype=np.int64), deg)
    for _ in range(max_attempts):
        stubs = rng.permutation(stubs0)
        a, b = stubs[0::2], stubs[1::2]
        if (a == b).any():
            continue
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        keys = lo * n + hi
        if np.unique(keys).size != keys.size:
            continue
        return graph_from_edges(n, np.column_stack((lo, hi)))
    raise RuntimeError(f"configuration model failed after {max_attempts} attempts")


def _gen_barrier(spec: BarrierSpec) -> Graph:
    """Subdivide each edge of a random regular base graph into a path.

    Base nodes keep ids 0..base_nodes-1; internal path nodes are appended in
    the sorted order of base edges, so the construction is reproducible.
    """
    base = _edge_array(_gen_regular(spec.base_nodes, spec.degree, spec.seed))
    ell = spec.subdivision_length
    inner = spec.base_nodes + np.arange(len(base) * (ell - 1), dtype=np.int64)
    # row e is the chain u, internal nodes..., v replacing base edge e
    chains = np.column_stack((base[:, 0], inner.reshape(len(base), ell - 1), base[:, 1]))
    edges = np.column_stack((chains[:, :-1].ravel(), chains[:, 1:].ravel()))
    return graph_from_edges(spec.base_nodes + inner.size, edges)


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return graph_from_edges(n, np.column_stack(np.triu_indices(n, k=1)))


_KINDS = ("path", "grid", "gnp", "regular_expander", "barrier")


def generate(kind: str, seed: int = 0, **params) -> Graph:
    """Build a named graph family member; deterministic for a fixed seed.

    kinds: path(n), grid(rows, cols), gnp(n, p), regular_expander(n, deg),
    barrier(base_nodes, degree, subdivision_length).
    """
    if kind == "path":
        return _gen_path(int(params["n"]))
    if kind == "grid":
        return _gen_grid(int(params["rows"]), int(params["cols"]))
    if kind == "gnp":
        return _gen_gnp(int(params["n"]), float(params["p"]), seed)
    if kind == "regular_expander":
        return _gen_regular(int(params["n"]), int(params["deg"]), seed)
    if kind == "barrier":
        spec = params.get("spec")
        if spec is None:
            spec = BarrierSpec(
                base_nodes=int(params["base_nodes"]),
                degree=int(params["degree"]),
                subdivision_length=int(params["subdivision_length"]),
                seed=seed,
            )
        return _gen_barrier(spec)
    raise ValueError(f"unknown kind {kind!r}; expected one of {_KINDS}")


# ----------------------------------------------------------------------------
# Text format: "n m" then one "u v" line per edge with u < v, LF endings.
# ----------------------------------------------------------------------------


def to_text(g: Graph) -> str:
    e = _edge_array(g)
    return f"{g.n} {g.m}\n" + ("%d %d\n" * len(e)) % tuple(e.ravel().tolist())


def from_text(text: str) -> Graph:
    head, _, body = text.lstrip().partition("\n")
    if not head:
        raise ValueError("empty graph text")
    head = head.split()
    if len(head) != 2:
        raise ValueError("header must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if body.strip():
        # rejects ragged lines and non-integer tokens with ValueError
        edges = np.loadtxt(io.StringIO(body), dtype=np.int64, ndmin=2, comments=None)
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
    if len(edges) != m:
        raise ValueError(f"expected {m} edge lines, found {len(edges)}")
    if edges.shape[1] != 2:
        raise ValueError(f"bad edge line: {edges.shape[1]} tokens, expected 2")
    u, v = edges[:, 0], edges[:, 1]
    bad = ~((0 <= u) & (u < v) & (v < n))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"edge ({u[i]},{v[i]}) violates 0 <= u < v < n")
    return graph_from_edges(n, edges)
