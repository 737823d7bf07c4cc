"""Shared fixtures, independent oracles and spies.

The oracles here deliberately avoid the library's traversal code: components
come from union-find, ball sizes from a dict-based BFS, G(n, p) from a
scalar skip loop. All-pairs distances by Floyd-Warshall, and the dense twins
of the verifiers built on them, live in `oracles.py`. Tests compare library
outputs against these. The library reports no trace of its own: where a
guarantee is about intermediate steps (the halving walk, the parts the
black box is handed), a spy wrapped around a library function records the
calls and an oracle here recomputes every one of them.
"""

from __future__ import annotations

import contextlib
import importlib
import math
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, settings

from netdecomp import Graph, NodeMask, complete_graph, generate, graph_from_edges

# `scripts/mutants.py` runs its named tests with `--hypothesis-profile
# mutants`: a test stops at its first failing example instead of shrinking
# it. Shrinking runs only after a failure, so a passing run is the same
# under either profile.
settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.shrink])


# ----------------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------------


def uf_components(g: Graph, mask: NodeMask) -> list[frozenset]:
    """Alive components via union-find."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    alive = mask.alive
    for u in range(g.n):
        if not alive[u]:
            continue
        for v in g.adj[u]:
            if v > u and alive[v]:
                parent[find(u)] = find(v)
    groups: dict[int, set[int]] = {}
    for v in range(g.n):
        if alive[v]:
            groups.setdefault(find(v), set()).add(v)
    return [frozenset(s) for s in groups.values()]


def ref_ball_sizes(g: Graph, alive: set[int], sources, r_max: int) -> list[int]:
    """Cumulative ball sizes by an independent dict-based BFS."""
    dist = {s: 0 for s in sources}
    q = deque(sources)
    while q:
        u = q.popleft()
        for w in g.adj[u]:
            if w in alive and w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return [sum(1 for d in dist.values() if d <= r) for r in range(r_max + 1)]


def ref_bfs_tree(g: Graph, alive: set[int], root: int) -> tuple[dict[int, int], dict[int, int]]:
    """BFS parents and distances from root inside alive: a FIFO queue,
    neighbours in ascending id order, a node's first discoverer is its
    parent (the root has none)."""
    parent, dist = {}, {root: 0}
    q = deque([root])
    while q:
        u = q.popleft()
        for w in sorted(g.adj[u]):
            if w in alive and w not in dist:
                parent[w], dist[w] = u, dist[u] + 1
                q.append(w)
    return parent, dist


def ref_eccentricity(g: Graph, alive: set[int], v: int) -> int:
    dist = {v: 0}
    q = deque([v])
    ecc = 0
    while q:
        u = q.popleft()
        for w in g.adj[u]:
            if w in alive and w not in dist:
                dist[w] = dist[u] + 1
                ecc = max(ecc, dist[w])
                q.append(w)
    return ecc


def ref_skips(draws, lq: float, total: int) -> list[int]:
    """The geometric skips of `draws` by the scalar expression, in the list
    comprehension the generator evaluated before its skips were vectorised:
    `1 + int(min(math.log(1.0 - u) / lq, total))` with lq = log(1 - p)."""
    return [1 + int(min(math.log(1.0 - u) / lq, total)) for u in draws]


def ref_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) by the scalar geometric-skip loop with float unranking that
    `generate("gnp", ...)` used to run, one draw at a time, as the oracle the
    batched generator must match graph for graph (n >= 1, 0 <= p <= 1). Its
    skip is `ref_skips`: the cap at total ends the walk where an uncapped
    skip would, and keeps an infinite quotient (p subnormal) finite."""
    if p == 1.0:
        return complete_graph(n)
    edges = []
    if p > 0.0:
        rng = np.random.default_rng(seed)
        lq = math.log1p(-p)
        total = n * (n - 1) // 2
        pos = -1
        while True:
            pos += ref_skips([rng.random()], lq, total)[0]
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


# ----------------------------------------------------------------------------
# fuzz graph corpus
# ----------------------------------------------------------------------------

FAMILIES = ("path", "grid", "gnp005", "gnp02", "gnp1", "regular4")


def fuzz_graph(rng: np.random.Generator, max_n: int = 200, connected: bool = False) -> Graph:
    """One random graph from the acceptance families, sized for unit tests."""
    family = FAMILIES[int(rng.integers(len(FAMILIES)))]
    seed = int(rng.integers(2**31))
    if family == "path":
        return generate("path", n=int(rng.integers(1, max_n + 1)))
    if family == "grid":
        side = int(rng.integers(1, max(2, int(max_n**0.5)) + 1))
        return generate("grid", rows=side, cols=max(1, int(rng.integers(1, side + 1))))
    if family == "regular4":
        n = int(rng.integers(5, max_n + 1))
        if (n * 4) % 2:
            n += 1
        g = generate("regular_expander", seed=seed, n=n, deg=4)
    else:
        p = {"gnp005": 0.005, "gnp02": 0.02, "gnp1": 0.1}[family]
        n = int(rng.integers(2, max_n + 1))
        g = generate("gnp", seed=seed, n=n, p=p)
    if connected:
        g = largest_component_graph(g)
    return g


def largest_component_graph(g: Graph) -> Graph:
    """Relabel the largest component as its own graph."""
    comps = uf_components(g, NodeMask.full(g.n))
    best = max(comps, key=lambda c: (len(c), -min(c)))
    order = sorted(best)
    pos = {v: i for i, v in enumerate(order)}
    edges = [
        (pos[u], pos[v]) for u in order for v in g.adj[u] if v in best and u < v
    ]
    return graph_from_edges(len(order), edges)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


# ----------------------------------------------------------------------------
# cut-or-cluster oracles
# ----------------------------------------------------------------------------


def ref_preorder(g: Graph, alive: set[int], root: int) -> list[int]:
    """Independent reimplementation of the canonical traversal: BFS tree from
    root (first discoverer wins, neighbors ascending), then DFS preorder with
    children ascending."""
    parent = {root: -1}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if w in alive and w not in parent:
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    children: dict[int, list[int]] = {v: [] for v in parent}
    for v, p in parent.items():
        if p >= 0:
            children[p].append(v)
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(sorted(children[v], reverse=True))
    return order


def ref_coverage_radius(g: Graph, alive: set[int], seed_nodes, target: float) -> int:
    sizes = ref_ball_sizes(g, alive, list(seed_nodes), len(alive))
    for r, c in enumerate(sizes):
        if c >= target:
            return r
    raise AssertionError("coverage target unreachable")


def layer_params(n: int, eps: float) -> tuple[float, int, int]:
    """cut_or_cluster's (rho, k_l, cut_threshold) on an n-node part (n >= 2),
    by README's formulas with c_L = 8: rho = 1 + eps/(c_L ln n),
    K_L = ceil(ln 3 / ln rho) + 1, CT = ceil(ln 2 * c_L ln n / eps) + 2."""
    ln_n = math.log(n)
    rho = 1.0 + eps / (8 * ln_n)
    k_l = math.ceil(math.log(3) / math.log(rho)) + 1
    return rho, k_l, math.ceil(math.log(2) * 8 * ln_n / eps) + 2


def check_cut_or_cluster_outcome(g: Graph, alive_ids, outcome, eps, exact_diameter=None):
    """Assert the dichotomy postconditions by direct measurement. The outcome
    splits the alive set into inner | layer | outer, three sorted id arrays;
    the layer is exactly the inner side's outside neighbourhood (so no edge
    joins inner and outer) and holds at most (rho - 1) n nodes; the inner
    side holds at least n/3 nodes, and so does a cut's outer side. A
    component's inner side is the ball of some radius around its center, at
    most a + k_l with a the center's n/3-coverage radius."""
    n = len(alive_ids)
    alive_set = set(int(v) for v in alive_ids)
    parts = (outcome.inner, outcome.layer, outcome.outer)
    for p in parts:
        assert p.dtype == np.int64 and bool((p[1:] > p[:-1]).all())
    inner, layer, outer = (set(p.tolist()) for p in parts)
    assert inner | layer | outer == alive_set and sum(map(len, parts)) == n
    neigh = {w for u in inner for w in g.adj[u] if w in alive_set and w not in inner}
    assert neigh == layer
    assert 3 * len(inner) >= n
    if n == 1:
        assert outcome.variant == "component" and outcome.center == min(alive_set)
        return
    rho, k_l, _ = layer_params(n, eps)
    assert len(layer) <= (rho - 1) * n
    if outcome.variant == "cut":
        assert outcome.center is None
        assert 3 * len(outer) >= n
        return
    assert outcome.variant == "component"
    a = ref_coverage_radius(g, alive_set, [outcome.center], n / 3)
    dist = ref_bfs_tree(g, alive_set, outcome.center)[1]
    radius = max(dist[v] for v in inner)
    assert inner == {v for v, d in dist.items() if d <= radius}
    assert radius <= a + k_l
    if exact_diameter is not None:
        assert exact_diameter <= 2 * (a + k_l)


def record_halvings(monkeypatch) -> list[dict]:
    """Spy on cut_or_cluster's halving step: every `_halve` call appends its
    seed set, n, b and what it returned (the chosen half, a1, a2), in call
    order."""
    # the package's `refine` function shadows the submodule of the same name
    refine_mod = importlib.import_module("netdecomp.refine")
    halve = refine_mod._halve
    calls: list[dict] = []

    def spy(adj, alive, seeds, scratch, n, b):
        chosen, a1, a2 = halve(adj, alive, seeds, scratch, n, b)
        calls.append({"seeds": [int(v) for v in seeds], "n": n, "b": b,
                      "chosen": [int(v) for v in chosen], "a1": a1, "a2": a2})
        return chosen, a1, a2

    monkeypatch.setattr(refine_mod, "_halve", spy)
    return calls


def count_calls(monkeypatch, module, name: str) -> dict:
    """Spy on `module.<name>`: a wrapper counts its calls in the returned
    dict, under `name`."""
    calls = {name: 0}
    inner = getattr(module, name)

    def counted(*args):
        calls[name] += 1
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def check_halvings(g: Graph, alive_ids, outcome, eps, calls):
    """Replay cut_or_cluster's whole halving walk from the independent
    preorder. Each recorded call must halve the previous winner, with b the
    2n/3-coverage radius; the winner is the half with the strictly smaller
    n/3-coverage radius (ties go to the second half), and that radius is at
    most b. The walk halves only while no cut is due (the cut threshold
    comes from (n, eps)); a cut's last seed set has its coverage radii at
    least the threshold apart, and a component's is its center alone."""
    n = len(alive_ids)
    alive_set = set(int(v) for v in alive_ids)
    seeds = ref_preorder(g, alive_set, min(alive_set))
    cut_threshold = layer_params(n, eps)[2] if n > 1 else None
    for call in calls:
        assert call["seeds"] == seeds and call["n"] == n
        a = ref_coverage_radius(g, alive_set, seeds, n / 3)
        b = ref_coverage_radius(g, alive_set, seeds, 2 * n / 3)
        assert call["b"] == b, (call["b"], b)
        assert b - a < cut_threshold
        half = (len(seeds) + 1) // 2
        s1, s2 = seeds[:half], seeds[half:]
        a1 = ref_coverage_radius(g, alive_set, s1, n / 3)
        a2 = ref_coverage_radius(g, alive_set, s2, n / 3)
        assert (call["a1"], call["a2"]) == (a1, a2)
        seeds = s1 if a1 < a2 else s2
        assert call["chosen"] == seeds
        assert min(a1, a2) <= b
    if outcome.variant == "cut":
        a = ref_coverage_radius(g, alive_set, seeds, n / 3)
        assert ref_coverage_radius(g, alive_set, seeds, 2 * n / 3) - a >= cut_threshold
    else:
        assert seeds == [outcome.center]


# ----------------------------------------------------------------------------
# weak-to-strong oracles
# ----------------------------------------------------------------------------


class BlackBoxSpy:
    """A weak-carving black box that records each call's part (the alive
    node ids it was handed) and the WeakCarving it returned."""

    def __init__(self, black_box):
        self.black_box = black_box
        self.parts: list[np.ndarray] = []
        self.carvings: list = []

    def __call__(self, g, mask, eps, seed):
        wc, led = self.black_box(g, mask, eps, seed)
        self.parts.append(mask.node_ids().copy())
        self.carvings.append(wc)
        return wc, led

    @property
    def max_depth(self) -> int:
        return max((wc.declared_depth for wc in self.carvings), default=0)


def check_shrinkage(g: Graph, mask: NodeMask, parts) -> int:
    """Every part the black box saw at iteration i of its entry component's
    halving loop has at most n0 / 2^(i-1) nodes. A part's iteration is 1 plus
    the number of earlier parts containing it. Returns the parts checked."""
    comp_of = {}
    for comp in uf_components(g, mask):
        for v in comp:
            comp_of[v] = comp
    seen: list[frozenset] = []
    for part in parts:
        p = frozenset(int(v) for v in part)
        n0 = len(comp_of[min(p)])
        assert p <= comp_of[min(p)], "a part spans two entry components"
        i = 1 + sum(1 for q in seen if p <= q)
        assert len(p) * (1 << (i - 1)) <= n0, (n0, i, len(p))
        seen.append(p)
    return len(seen)


def pools_within_half_eps(g: Graph, mask: NodeMask, sc, eps: float) -> bool:
    """Both dead pools hold at most eps/2 of every entry component."""
    bb = set(int(v) for v in sc.dead_black_box)
    bd = set(int(v) for v in sc.dead_boundary)
    return all(
        max(len(comp & bb), len(comp & bd)) <= (eps / 2) * len(comp)
        for comp in uf_components(g, mask)
    )


@contextlib.contextmanager
def wide_layer(width: int):
    """Run the algorithms' BFS kernels with `_WIDE_LAYER` = width (the census
    reads its own import of the name)."""
    graph_mod = importlib.import_module("netdecomp.graph")
    refine_mod = importlib.import_module("netdecomp.refine")
    with mock.patch.object(graph_mod, "_WIDE_LAYER", width), mock.patch.object(
        refine_mod, "_WIDE_LAYER", width
    ):
        yield
