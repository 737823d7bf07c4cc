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
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Graph",
    "NodeMask",
    "DiameterResult",
    "bfs_layers",
    "connected_components",
    "induced_diameter",
    "KINDS",
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
    neighbor lists sorted ascending. The edges never change after
    construction. The CSR arrays serve numpy work (subgraph copies, text
    output); `adj` holds the same lists as Python lists for the scalar BFS
    loops, which walk them three to four times faster than slices of the
    CSR. Every traversal the algorithms run on the graph reuses its one
    `scratch` workspace, so at most one traversal may run on a graph at a
    time; no library code uses threads.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    _adj: tuple | None = field(default=None, init=False, repr=False)
    _scratch: Scratch | None = field(default=None, init=False, repr=False)

    @property
    def m(self) -> int:
        return int(self.indices.size) // 2

    @property
    def adj(self) -> tuple:
        """Adjacency as a tuple of python lists (built once, cached)."""
        if self._adj is None:
            ip = self.indptr
            idx = self.indices.tolist()
            self._adj = tuple(idx[ip[v] : ip[v + 1]] for v in range(self.n))
        return self._adj

    @property
    def scratch(self) -> Scratch:
        """The traversal workspace (built once, cached); see `Scratch`."""
        if self._scratch is None:
            self._scratch = Scratch(self.n)
        return self._scratch

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in sorted order."""
        e = _edge_array(self)
        return list(zip(e[:, 0].tolist(), e[:, 1].tolist()))


def _edge_array(g: Graph) -> np.ndarray:
    """The (m, 2) array of edges (u, v) with u < v, sorted, read off the CSR."""
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    upper = src < g.indices
    return np.column_stack((src[upper], g.indices[upper]))


_INT64_MAX = np.iinfo(np.int64).max


@contextmanager
def _sized(n: int):
    """Turn an allocation failure inside the block into the ValueError that
    names the node count n behind it."""
    try:
        yield
    except MemoryError:
        raise ValueError(f"node count n={n} is too large to allocate") from None


def graph_from_edges(n: int, edges) -> Graph:
    """Build a Graph from an (m, 2) integer array-like of edges.

    Either orientation is accepted; out-of-range ends, self-loops and
    duplicates (in either orientation) raise ValueError, as do a negative
    node count and one whose square does not fit int64 (the sort key below).
    """
    if n < 0:
        raise ValueError(f"node count n={n} is negative")
    if n * n > _INT64_MAX:
        raise ValueError(f"node count n={n} is too large to allocate")
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
    # both directions of every edge as one key source * n + target, sorted:
    # the CSR order, in which equal keys are adjacent duplicates
    key = np.sort(np.concatenate((u * n + v, v * n + u)))
    dup = key[1:] == key[:-1]
    if dup.any():
        a, b = sorted(divmod(int(key[np.argmax(dup)]), n))
        raise ValueError(f"duplicate edge {(a, b)}")
    src = key // n
    with _sized(n):
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return Graph(n=n, indptr=indptr, indices=key - src * n)


class NodeMask:
    """Boolean alive-mask over a graph's nodes; induced-subgraph view.

    Immutable, and complete from construction: the mask owns one n-byte
    block, read as the read-only numpy view `alive` and as the bytes buffer
    the BFS loops index, and it holds its sorted node ids, so `count()` and
    `node_ids()` cost nothing. `NodeMask(alive)` copies the caller's array
    into that block; `from_nodes` fills it from a part's ids, so building
    the mask of a k-node part scans no n-length array. Derived masks are
    new objects.
    """

    __slots__ = ("alive", "_bytes", "_ids")

    def __init__(self, alive: np.ndarray):
        alive = np.asarray(alive, dtype=bool)
        self._own(bytearray(alive.tobytes()), np.flatnonzero(alive))

    def _own(self, buf: bytearray, ids: np.ndarray) -> None:
        """Take `buf` as this mask's block and `ids` as its alive ids."""
        self._bytes = buf
        self.alive = np.frombuffer(buf, dtype=bool)
        self.alive.flags.writeable = False
        ids.flags.writeable = False
        self._ids = ids

    @classmethod
    def full(cls, n: int) -> "NodeMask":
        return cls(np.ones(n, dtype=bool))

    @classmethod
    def from_nodes(cls, n: int, nodes: Iterable[int]) -> "NodeMask":
        """The mask of `nodes` (any iterable of ids in 0..n-1, in any order,
        repeats allowed)."""
        if not isinstance(nodes, np.ndarray):
            nodes = list(nodes)
        ids = np.array(nodes, dtype=np.int64)  # a copy: the mask owns its ids
        if ids.size > 1 and not (ids[1:] > ids[:-1]).all():
            ids = np.unique(ids)
        _check_sorted_ids(ids, n)
        buf = bytearray(n)
        np.frombuffer(buf, dtype=bool)[ids] = True
        mask = cls.__new__(cls)
        mask._own(buf, ids)
        return mask

    def as_bytes(self) -> bytearray:
        return self._bytes

    def count(self) -> int:
        return int(self._ids.size)

    def node_ids(self) -> np.ndarray:
        """The alive node ids, ascending (read-only)."""
        return self._ids

    def without(self, nodes: Iterable[int]) -> "NodeMask":
        drop = np.unique(np.asarray(list(nodes), dtype=np.int64))
        _check_sorted_ids(drop, self.alive.size)
        a = self.alive.copy()
        a[drop] = False
        return NodeMask(a)


def _check_sorted_ids(ids: np.ndarray, n: int) -> None:
    """Raise ValueError naming an id of the ascending `ids` outside 0..n-1,
    if there is one."""
    if ids.size and (ids[0] < 0 or ids[-1] >= n):
        bad = ids[0] if ids[0] < 0 else ids[-1]
        raise ValueError(f"node {bad} out of range for n={n}")


def _setdiff(ids: np.ndarray, drop) -> np.ndarray:
    """np.setdiff1d(ids, drop) for ascending unique ids and any `drop`."""
    drop = np.asarray(drop)
    keep = np.ones(ids.size, dtype=bool)
    if ids.size:
        pos = np.minimum(np.searchsorted(ids, drop), ids.size - 1)
        keep[pos[ids[pos] == drop]] = False
    return ids[keep]


# ----------------------------------------------------------------------------
# Traversal workspace: repeated small BFS calls on a big graph should cost
# O(touched), not O(n). Stamp arrays avoid clearing between calls.
# ----------------------------------------------------------------------------


class Scratch:
    """A graph's traversal workspace: n-length `stamp`, `parent` and `budget`
    lists, allocated once per graph (`Graph.scratch`) and reused by every
    traversal, which opens its own generation with `begin()`. A node belongs
    to the current traversal iff its stamp equals that generation, so no
    buffer is ever cleared.

    Traversals mark nodes in `stamp`. `_bfs_layers` and each flood of the
    Linial-Saks claim (`weak._claim`, which reads its trees off it) record
    each node's first discoverer in `parent`; `budget` holds the largest
    broadcast range the claim (its only user) has seen at each node. State
    is readable only until the next `begin()`: a stage may not call into
    another stage (or any traversal) while it still reads the workspace.
    """

    __slots__ = ("budget", "stamp", "parent", "gen")

    def __init__(self, n: int):
        self.budget = [0] * n
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
    """Layered BFS inside the alive mask: the one traversal kernel.

    Returns (cum, touched): cum[r] = number of alive nodes at distance <= r
    from the source set, for r up to the last explored layer; touched lists
    reached nodes in BFS order, so touched[cum[r-1]:cum[r]] is layer r and
    len(cum) - 1 is the depth reached. scratch.parent[v] is the first
    discoverer of each reached node (-1 for a source), so the parents form
    a BFS forest. Stops early when the frontier dies, when r_max layers were
    explored, or (after finishing a layer) when cum >= stop_size.
    """
    gen = scratch.begin()
    stamp, parent = scratch.stamp, scratch.parent
    frontier = []
    for s in sources:
        if stamp[s] != gen:
            stamp[s] = gen
            parent[s] = -1
            frontier.append(s)
    touched = list(frontier)
    cum = [len(touched)]
    # no limit given: a BFS has fewer than n layers and reaches at most n nodes
    max_layers = len(adj) if r_max is None else r_max
    stop = len(adj) + 1 if stop_size is None else stop_size
    while len(cum) <= max_layers and cum[-1] < stop:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if alive[w] and stamp[w] != gen:
                    stamp[w] = gen
                    parent[w] = u
                    nxt.append(w)
        if not nxt:
            break
        touched += nxt
        cum.append(len(touched))
        frontier = nxt
    return cum, touched


def _split_at(touched: list[int], cum: list[int], r: int) -> tuple[np.ndarray, np.ndarray]:
    """The r-ball and the layer just beyond it, as sorted int64 ids, read off
    a `_bfs_layers` result: touched is in BFS order, so its first cum[r]
    nodes are the r-ball and the next cum[r+1] - cum[r] are layer r + 1."""
    ball = np.sort(np.asarray(touched[: cum[r]], dtype=np.int64))
    layer = np.sort(np.asarray(touched[cum[r] : cum[r + 1]], dtype=np.int64))
    return ball, layer


def _window(num: float, den: float, eps: float) -> int:
    """ceil(num / den), a BFS window or radius cap derived from eps; a zero
    den or a window of 2**62 layers or more means eps is too small."""
    if den > 0 and num / den < 2.0**62:
        return math.ceil(num / den)
    raise ValueError(f"eps={eps} is too small: a window of {num}/{den} layers is not below 2**62")


def _pad_saturated(cum: list[int], r_start: int, r_max: int) -> None:
    """Pad ball sizes cum, from a BFS limited to r_max layers, for a window
    search from r_start. A BFS that stopped early is saturated, so every
    later layer is empty and thin, and one saturated entry past
    max(r_start, depth) ends any search, however wide its window."""
    depth = len(cum) - 1
    if depth < r_max:
        cum += [cum[-1]] * (max(r_start, depth) + 1 - depth)


def _preorder(
    adj: tuple,
    alive: bytearray,
    root: int,
    scratch: Scratch,
) -> tuple[list[int], int]:
    """Depth-first preorder of the BFS tree rooted at `root`, and the root's
    eccentricity within its component.

    Children are visited in ascending id order; a node is emitted before
    its children. Preorder is the fixed traversal used wherever nodes of a
    component need a canonical linear order; it lists exactly the root's
    component. The tree's BFS state stays readable in scratch.
    """
    cum, _ = _bfs_layers(adj, alive, [root], scratch)
    gen, stamp, parent = scratch.gen, scratch.stamp, scratch.parent
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        # the children of v, pushed in descending order so that they pop
        # ascending (adjacency lists are sorted)
        for w in reversed(adj[v]):
            if parent[w] == v and stamp[w] == gen:
                stack.append(w)
    return order, len(cum) - 1


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
    _check_sorted_ids(np.asarray(src), g.n)
    alive = mask.as_bytes()
    for s in src:
        if not alive[s]:
            raise ValueError(f"source {s} is not alive")
    cum, touched = _bfs_layers(g.adj, alive, src, g.scratch, r_max=r_max)
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[touched] = np.repeat(np.arange(len(cum)), np.diff(cum, prepend=0))
    cum += [cum[-1]] * (r_max + 1 - len(cum))
    return cum, dist


def connected_components(g: Graph, mask: NodeMask) -> list[np.ndarray]:
    """Partition of the alive nodes into components, ordered by min node id.

    Each component is a sorted ascending array. Empty mask gives [].
    A node is seen once it carries this call's stamp in the workspace.
    """
    alive = mask.as_bytes()
    adj = g.adj
    scratch = g.scratch
    gen = scratch.begin()
    stamp = scratch.stamp
    comps = []
    for v in mask.node_ids().tolist():
        if stamp[v] != gen:
            comp = [v]
            stamp[v] = gen
            for u in comp:  # the loop also visits the nodes it appends
                for w in adj[u]:
                    if alive[w] and stamp[w] != gen:
                        stamp[w] = gen
                        comp.append(w)
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
    _check_sorted_ids(nodes, g.n)
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
    """G(n, p) by geometric skipping over the upper triangle (Batagelj &
    Brandes, Phys. Rev. E 2005): O(n + m).

    The pairs (i, j), i < j, are ranked row by row. Each uniform draw u
    skips `_skips` ranks, the draws come in batches sized to the expected
    number of edges left, and each drawn rank is unranked exactly by a
    binary search over the row starts.
    """
    if n < 1:
        raise ValueError("gnp needs n >= 1")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must be in [0, 1]")
    if p == 1.0:
        return complete_graph(n)
    total = n * (n - 1) // 2
    # the row starts come first, so that an n too large to allocate fails
    # before any draw
    i = np.arange(n, dtype=np.int64)
    start = i * (2 * n - i - 1) // 2  # the rank of the pair (i, i + 1)
    ranks = [np.zeros(0, dtype=np.int64)]
    if p > 0.0:
        rng = np.random.default_rng(seed)
        lq = math.log1p(-p)
        pos = -1  # the last rank drawn
        while pos < total:
            run = pos + np.cumsum(_skips(rng.random(int(p * (total - pos)) + 64), lq, total))
            ranks.append(run[: np.searchsorted(run, total)])
            pos = int(run[-1])
    rank = np.concatenate(ranks)
    row = np.searchsorted(start, rank, side="right") - 1
    return graph_from_edges(n, np.column_stack((row, rank - start[row] + row + 1)))


def _skips(draws: np.ndarray, lq: float, total: int) -> np.ndarray:
    """The skip `1 + int(min(math.log(1.0 - u) / lq, total))` of each draw u,
    as an int64 array; lq = log(1 - p) < 0.

    A skip beyond total + 1 ends the walk just as total + 1 does; the cap
    keeps it in int64 and turns an infinite quotient (p subnormal) into a
    number. numpy computes q = log(1 - u) / lq with `np.log`, which may
    differ from `math.log` in the last bit, so the two quotients can differ
    by a few ulps; their floors then differ only if an integer lies between
    them, that is within 1e-12 * max(q, 1) of q. Exactly those draws are
    recomputed by the scalar expression, so every skip equals it. The test
    also catches q = 0 and every q >= 2**52 (there every float is an
    integer; q is clipped to 2**53 so that an infinite one stays finite),
    which keeps the cap at total exact however large total is.
    """
    with np.errstate(over="ignore"):  # p subnormal: the quotient is infinite
        q = np.minimum(np.log(1.0 - draws) / lq, 2.0**53)
    steps = 1 + np.minimum(q, total).astype(np.int64)
    for k in np.flatnonzero(np.abs(q - np.rint(q)) <= 1e-12 * np.maximum(q, 1.0)).tolist():
        steps[k] = 1 + int(min(math.log(1.0 - float(draws[k])) / lq, total))
    return steps


# Stub pairings the configuration model draws before it gives up.
_MAX_PAIRINGS = 10000


def _gen_regular(n: int, deg: int, seed: int) -> Graph:
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
    for _ in range(_MAX_PAIRINGS):
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
    raise ValueError(
        f"the configuration model drew no simple {deg}-regular graph on n={n} "
        f"nodes in {_MAX_PAIRINGS} pairings"
    )


def _gen_barrier(base_nodes: int, degree: int, subdivision_length: int, seed: int) -> Graph:
    """Subdivide each edge of a random `degree`-regular base graph on
    `base_nodes` nodes into a path of `subdivision_length` edges.

    Base nodes keep ids 0..base_nodes-1; internal path nodes are appended in
    the sorted order of base edges, so the construction is reproducible.
    """
    if degree < 3:
        raise ValueError("barrier base degree must be >= 3")
    if subdivision_length < 1:
        raise ValueError("subdivision length must be >= 1")
    base = _edge_array(_gen_regular(base_nodes, degree, seed))
    ell = subdivision_length
    inner = base_nodes + np.arange(len(base) * (ell - 1), dtype=np.int64)
    # row e is the chain u, internal nodes..., v replacing base edge e
    chains = np.column_stack((base[:, 0], inner.reshape(len(base), ell - 1), base[:, 1]))
    edges = np.column_stack((chains[:, :-1].ravel(), chains[:, 1:].ravel()))
    return graph_from_edges(base_nodes + inner.size, edges)


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return graph_from_edges(n, np.column_stack(np.triu_indices(n, k=1)))


KINDS = ("path", "grid", "gnp", "regular_expander", "barrier")


def generate(kind: str, seed: int = 0, **params) -> Graph:
    """Build a named graph family member; deterministic for a fixed seed.

    kinds: path(n), grid(rows, cols), gnp(n, p), regular_expander(n, deg),
    barrier(base_nodes, degree, subdivision_length). A family member too
    large to allocate raises ValueError naming its node count.
    """
    if kind == "path":
        n = int(params["n"])
        with _sized(n):
            return _gen_path(n)
    if kind == "grid":
        rows, cols = int(params["rows"]), int(params["cols"])
        with _sized(rows * cols):
            return _gen_grid(rows, cols)
    if kind == "gnp":
        n = int(params["n"])
        with _sized(n):
            return _gen_gnp(n, float(params["p"]), seed)
    if kind == "regular_expander":
        n = int(params["n"])
        with _sized(n):
            return _gen_regular(n, int(params["deg"]), seed)
    if kind == "barrier":
        base, degree, ell = (int(params[k]) for k in ("base_nodes", "degree", "subdivision_length"))
        with _sized(base + base * degree // 2 * (ell - 1)):
            return _gen_barrier(base, degree, ell, seed)
    raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")


# ----------------------------------------------------------------------------
# Text format: "n m" then one "u v" line per edge with u < v, LF endings.
# ----------------------------------------------------------------------------


def to_text(g: Graph) -> str:
    e = _edge_array(g)
    return f"{g.n} {g.m}\n" + ("%d %d\n" * len(e)) % tuple(e.ravel().tolist())


def _int_rows(text: str) -> np.ndarray:
    """The int64 rows of whitespace-separated tokens, one row per line. Every
    token must be a plain ASCII decimal integer (no `_`, no other script's
    digits) that fits int64; a bad token or a ragged line raises ValueError."""
    return np.loadtxt(io.StringIO(text), dtype=np.int64, ndmin=2, comments=None)


def from_text(text: str) -> Graph:
    head, _, body = text.lstrip().partition("\n")
    if not head:
        raise ValueError("empty graph text")
    head = _int_rows(head)
    if head.shape != (1, 2):
        raise ValueError("header must be 'n m'")
    n, m = int(head[0, 0]), int(head[0, 1])
    if body.strip():
        edges = _int_rows(body)
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
