"""Graph representation, the algorithms' BFS machinery, generators, text I/O.

The graph is immutable: a simple undirected graph over dense node ids
0..n-1 stored both as CSR arrays (for vectorized work) and as plain
adjacency lists (for the scalar BFS loops that dominate the algorithms).
Subgraphs are never materialized; every traversal takes a NodeMask and
only walks alive->alive edges. Diameters are measured by `verify.py`.
"""

from __future__ import annotations

import io
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "Graph",
    "NodeMask",
    "connected_components",
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
    construction. The CSR arrays serve numpy work: the verifiers' subgraph
    copies, text output, and the BFS layers of at least `_WIDE_LAYER` nodes
    that the algorithms' kernels expand in numpy. `adj` holds the same lists
    as Python lists for the scalar BFS loops, which walk them three to four
    times faster than slices of the CSR. Every traversal the algorithms run
    on the graph reuses its one `scratch` workspace, which the verifiers
    never touch, so at most one traversal may run on a graph at a time; no
    library code uses threads.
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
            ip = self.indptr.tolist()
            idx = self.indices.tolist()
            self._adj = tuple(idx[a:b] for a, b in zip(ip, ip[1:]))
        return self._adj

    @property
    def scratch(self) -> Scratch:
        """The traversal workspace (built once, cached); see `Scratch`."""
        if self._scratch is None:
            self._scratch = Scratch(self.indptr, self.indices)
        return self._scratch


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

    A mask built by `_of_sorted` from one component that
    `connected_components(g, _)` returned can carry g in `_component_of`:
    `connected_components` on g then returns the mask's ids as its one
    component without a traversal, and on any other graph scans as usual.
    """

    __slots__ = ("alive", "_bytes", "_ids", "_component_of")

    def __init__(self, alive: np.ndarray):
        alive = np.asarray(alive, dtype=bool)
        self._own(bytearray(alive.tobytes()), np.flatnonzero(alive))

    def _own(self, buf: bytearray, ids: np.ndarray, component_of: Graph | None = None) -> None:
        """Take `buf` as this mask's block, `ids` as its alive ids and
        `component_of` as the graph in which they form one component."""
        self._bytes = buf
        self.alive = np.frombuffer(buf, dtype=bool)
        self.alive.flags.writeable = False
        ids.flags.writeable = False
        self._ids = ids
        self._component_of = component_of

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
        return cls._of_sorted(n, ids)

    @classmethod
    def _of_sorted(cls, n: int, ids: np.ndarray, component_of: Graph | None = None) -> "NodeMask":
        """The mask of the ascending, unique, in-range int64 `ids`, which it
        takes as its own (read-only) without a copy or a check; pass
        `component_of=g` when the ids are one component in g."""
        buf = bytearray(n)
        np.frombuffer(buf, dtype=bool)[ids] = True
        mask = cls.__new__(cls)
        mask._own(buf, ids, component_of)
        return mask

    def as_bytes(self) -> bytearray:
        return self._bytes

    def count(self) -> int:
        return int(self._ids.size)

    def node_ids(self) -> np.ndarray:
        """The alive node ids, ascending (read-only)."""
        return self._ids


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
    each node's first discoverer in `parent`; the halving census
    (`refine._census`) stamps nodes but writes no `parent`. `budget` holds
    the largest broadcast range the claim (its only user) has seen at each
    node. `up` and `uses` count the claim's tree edges, keyed by child (the
    claim is their only user too, and resets `uses` on its component):
    `uses[v]` trees so far hold the edge from v to `up[v]`, the first parent
    v had in them. State is readable only until the next `begin()`: a stage
    may not call into another stage (or any traversal) while it still reads
    the workspace.

    The workspace also holds the graph's CSR (`indptr`, `indices`) for the
    BFS layers of at least `_WIDE_LAYER` nodes, which `_expand` expands in
    numpy, and two n-length int64 twins that `widen` allocates on the first
    such layer: `seen`, the numpy stamp, and `first`, `_expand`'s first
    gather position per target (and `_preorder`'s BFS position per node,
    once the BFS is done). The lists stay authoritative: after every
    traversal, all that its readers read is in `stamp` and `parent`, and no
    traversal reads a twin's value from an earlier one. A neighbour of a
    layer-d node lies in layer d - 1, d or d + 1, so a kernel that switches
    between list and numpy layers hands over the last two layers only:
    `widen` marks them `seen`, and on the way back the census writes their
    list stamps (`_bfs_layers` writes every numpy layer's stamps and parents
    into the lists as it goes).
    """

    __slots__ = (
        "budget", "stamp", "parent", "up", "uses", "gen", "indptr", "indices", "seen", "first"
    )

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        n = len(indptr) - 1
        self.budget = [0] * n
        self.stamp = [0] * n
        self.parent = [0] * n
        self.up = [0] * n
        self.uses = [0] * n
        self.gen = 0
        self.indptr, self.indices = indptr, indices
        self.seen = self.first = None

    def begin(self) -> int:
        self.gen += 1
        return self.gen

    def widen(self, alive: bytearray, layers: list[int], width: int):
        """Switch the current traversal to numpy layers. `layers` holds its
        last two layers, the frontier last, `width` nodes wide; marks them
        `seen` (allocating the twins on first use) and returns `alive` as a
        boolean array and the frontier as an int64 array."""
        if self.seen is None:
            n = len(self.stamp)
            self.seen = np.zeros(n, dtype=np.int64)
            self.first = np.zeros(n, dtype=np.int64)
        both = np.array(layers, dtype=np.int64)
        self.seen[both] = self.gen
        return np.frombuffer(alive, dtype=bool), both[len(both) - width :]


# Frontier size from which `_bfs_layers` and the halving census expand a
# BFS layer in numpy (`_expand`) rather than node by node. Timed on
# prefixes of real layers, one layer costs the same either way at about 48
# frontier nodes for the census and 128-192 for `_bfs_layers` (which also
# writes each node it finds into the lists) on gnp-wide's giant cluster
# (mean degree 8), and at about 96 on grid 64x64 (degree 4). Replaying the
# kernel calls of one decompose, 128 keeps grid 64x64 and path-deep's census
# seed layers (runs of a path's preorder, whose scans find almost nothing)
# within noise of the node loop, which 64 exceeds by 30% (grid's BFS) and 3%,
# and costs gnp-wide's census about 8% against 64.
_WIDE_LAYER = 128


def _last_two(touched: list[int], cum: list[int]) -> list[int]:
    """The last two layers of a layered BFS's (cum, touched), or its one
    layer."""
    return touched[cum[-3] if len(cum) > 2 else 0 :]


def _expand(scratch: Scratch, alive: np.ndarray, frontier: np.ndarray, need: int = 0):
    """Expand the BFS layer `frontier` (int64 ids) in numpy, after `widen`.

    Returns (new, parent): the alive targets of the frontier's rows not yet
    `seen` in the current generation, each once, in FIFO discovery order
    (the order in which a node-by-node scan of the frontier finds them),
    and each one's first discoverer in that scan; marks them seen.

    With need > 0 it stops right after the frontier node whose scan brings
    the count to need, the census's partial-layer rule. The rows are then
    gathered in chunks: first every row up to the first whose cumulative
    degree reaches need (no earlier node can stop the scan), at least
    _WIDE_LAYER rows, then chunks that double, so a stop early in a wide
    layer gathers little of it.
    """
    ip, idx, gen = scratch.indptr, scratch.indices, scratch.gen
    seen, first = scratch.seen, scratch.first
    start = ip[frontier]
    cnt = ip[1:][frontier] - start
    ends = np.add.accumulate(cnt)
    off = start - ends + cnt  # gather position p of a row reads idx[off[row] + p]
    k = len(frontier)
    size = max(_WIDE_LAYER, int(ends.searchsorted(need)) + 1) if need > 0 else k
    news, parents = [], []
    lo = 0
    while lo < k:
        hi = min(lo + size, k)
        base = int(ends[lo - 1]) if lo else 0
        rows, reps = frontier[lo:hi], cnt[lo:hi]
        nb = idx[off[lo:hi].repeat(reps) + np.arange(base, int(ends[hi - 1]))]
        hit = (alive[nb] & (seen[nb] != gen)).nonzero()[0]
        # keep each target's first gather position: np.minimum.at fixes the
        # minimum whatever order the fancy assignment writes in
        new = nb[hit]
        first[new] = hit
        np.minimum.at(first, new, hit)
        hit = hit[first[new] == hit]
        new = nb[hit]
        seen[new] = gen
        if 0 < need <= len(new):
            # keep what the scans up to the need-th discoverer's found
            last = ends.searchsorted(base + hit[need - 1], "right")
            keep = hit.searchsorted(ends[last] - base)
            hit, new = hit[:keep], new[:keep]
            hi = k
        need -= len(new)
        news.append(new)
        parents.append(rows.repeat(reps)[hit])
        lo, size = hi, 2 * size
    if len(news) == 1:
        return news[0], parents[0]
    return np.concatenate(news), np.concatenate(parents)


def _bfs_layers(
    adj: tuple,
    alive: bytearray,
    source: int,
    scratch: Scratch,
    r_max: int | None = None,
) -> tuple[list[int], list[int]]:
    """Layered BFS from `source` inside the alive mask: the one kernel for
    BFS trees, balls and preorders.

    Returns (cum, touched): cum[r] = number of alive nodes at distance <= r
    from the source, for r up to the last explored layer; touched lists
    reached nodes in BFS order, so touched[cum[r-1]:cum[r]] is layer r and
    len(cum) - 1 is the depth reached. scratch.parent[v] is the first
    discoverer of each reached node (-1 for the source), so the parents
    form a BFS tree. Stops early when the frontier dies or when r_max
    layers were explored. A layer of at least _WIDE_LAYER nodes is
    expanded by `_expand`, whose nodes and parents are written into the
    lists, so the result does not depend on which layers went wide.
    """
    gen = scratch.begin()
    stamp, parent = scratch.stamp, scratch.parent
    stamp[source] = gen
    parent[source] = -1
    frontier = [source]
    touched = [source]
    cum = [1]
    # no limit given: a BFS has fewer than n layers and reaches at most n nodes
    max_layers = len(adj) if r_max is None else r_max
    while True:
        while 0 < len(frontier) < _WIDE_LAYER and len(cum) <= max_layers:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if alive[w] and stamp[w] != gen:
                        stamp[w] = gen
                        parent[w] = u
                        nxt.append(w)
            touched += nxt
            cum.append(len(touched))
            frontier = nxt
        if not frontier or len(cum) > max_layers:
            break
        mask, layer = scratch.widen(alive, _last_two(touched, cum), len(frontier))
        while len(frontier) >= _WIDE_LAYER and len(cum) <= max_layers:
            layer, by = _expand(scratch, mask, layer)
            frontier = layer.tolist()
            for w, u in zip(frontier, by.tolist()):
                stamp[w] = gen
                parent[w] = u
            touched += frontier
            cum.append(len(touched))
    if not frontier:  # the last layer explored is empty
        cum.pop()
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

    A tree whose layers hold at least _WIDE_LAYER nodes on average is read
    off the BFS in numpy: the BFS appends each node's children as one
    ascending run of `touched`, the runs in their parents' BFS order, so a
    node's preorder position is its parent's plus 1 plus the sizes of the
    subtrees in its run before it. A narrower tree is walked depth-first.
    """
    cum, touched = _bfs_layers(adj, alive, root, scratch)
    if len(touched) >= _WIDE_LAYER * len(cum):
        return _preorder_of_layers(cum, touched, scratch), len(cum) - 1
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


def _preorder_of_layers(cum: list[int], touched: list[int], scratch: Scratch) -> list[int]:
    """`_preorder`'s order of a BFS tree that went through a wide layer (so
    `first` is allocated), from `_bfs_layers`' (cum, touched) and the
    parents in scratch. Nodes are indexed by BFS position, which `first`
    maps each touched node to; a node's parent index, `up`, then grows along
    `touched`, since the parents' order is the BFS order of their runs."""
    nodes = np.array(touched, dtype=np.int64)
    index = scratch.first
    index[nodes] = np.arange(nodes.size)
    parent = scratch.parent
    up = index[np.fromiter(map(parent.__getitem__, touched[1:]), np.int64, nodes.size - 1)]
    size = np.ones(nodes.size, dtype=np.int64)
    for r in range(len(cum) - 1, 0, -1):
        lo, hi = cum[r - 1], cum[r]
        np.add.at(size, up[lo - 1 : hi - 1], size[lo:hi])
    pos = np.zeros(nodes.size, dtype=np.int64)
    for r in range(1, len(cum)):
        lo, hi = cum[r - 1], cum[r]
        parents = up[lo - 1 : hi - 1]
        # the subtree sizes before each node in its run: an exclusive prefix
        # sum over the layer, less its value at the run's first node
        before = np.cumsum(size[lo:hi]) - size[lo:hi]
        pos[lo:hi] = pos[parents] + 1 + before - before[parents.searchsorted(parents)]
    order = np.empty_like(nodes)
    order[pos] = nodes
    return order.tolist()


# ----------------------------------------------------------------------------
# Public operations
# ----------------------------------------------------------------------------


def connected_components(g: Graph, mask: NodeMask) -> list[np.ndarray]:
    """Partition of the alive nodes into components, ordered by min node id.

    Each component is a sorted ascending array. Empty mask gives [].
    A node is seen once it carries this call's stamp in the workspace. A
    mask that carries its component in g (`NodeMask._of_sorted`) is
    answered with its own ids, without a traversal.
    """
    if mask._component_of is g:
        return [mask.node_ids()]
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
