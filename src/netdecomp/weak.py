"""Weak-diameter ball carving: the black-box contract plus two instances.

The strong-diameter transformation only consumes this interface: given a
graph view and a boundary fraction eps, produce non-adjacent clusters
covering all but an eps fraction of the alive nodes, each cluster equipped
with a bounded-depth Steiner tree, with bounded per-edge tree congestion.

A black box is a function black_box(g, mask, eps, seed) -> (WeakCarving,
RoundLedger). Each instance here is one per-component function passed to the
driver `_carve`, which does everything else. Two instances are provided:

  * trivial: one cluster per connected component, the component's own BFS
    tree as Steiner tree (depth = radius from the min-id node), congestion 1,
    nothing removed. Useful as a deterministic baseline in tests.

  * linial_saks: every alive node draws a truncated-geometric broadcast
    radius with parameter eps/2, capped at ceil(2*ln(alive)/eps); each node
    joins the highest-id broadcaster whose radius reaches it, and dies iff
    the winning broadcast arrives with zero slack. The winner rule is
    id-primary (not slack-primary): with any global priority order, two
    adjacent survivors of different clusters would each force the other's
    broadcaster to outrank their own, which is impossible, so clusters are
    provably non-adjacent. Radii are redrawn (bounded retries, derived
    seeds) for any component whose dead count exceeds its eps budget, so
    the contract holds on every run, not just in expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .graph import _bfs_layers, _window, connected_components
from .ledger import RoundLedger, charge_leader_election, merge_parallel
from .seeding import rng_from

__all__ = [
    "SteinerTree",
    "WeakCluster",
    "WeakCarving",
    "trivial_black_box",
    "linial_saks_black_box",
]

MAX_REDRAWS = 200


@dataclass
class SteinerTree:
    """Rooted tree inside a component's induced subgraph.

    parent maps child -> parent for every tree node except the root. The
    terminals are the served cluster's nodes, all of them tree nodes; the
    root itself may lie outside the cluster (it only anchors the tree).
    """

    root: int
    parent: dict[int, int]


@dataclass
class WeakCluster:
    nodes: np.ndarray
    tree: SteinerTree
    depth: int


@dataclass
class WeakCarving:
    """Non-adjacent clusters plus removed nodes, with declared tree bounds."""

    clusters: list[WeakCluster]
    dead: np.ndarray
    declared_depth: int
    declared_congestion: int

    def to_json(self) -> dict:
        return {
            "type": "weak-carving",
            "clusters": [
                {
                    "id": k,
                    "nodes": [int(v) for v in c.nodes],
                    "steiner": {
                        "root": int(c.tree.root),
                        "parent": {str(a): int(b) for a, b in sorted(c.tree.parent.items())},
                    },
                    "depth": c.depth,
                }
                for k, c in enumerate(self.clusters)
            ],
            "dead": [int(v) for v in self.dead],
            "declared_depth": self.declared_depth,
            "declared_congestion": self.declared_congestion,
        }


def trivial_black_box(g, mask, eps, seed):
    """The trivial weak carving: each component is one cluster."""
    return _carve(g, mask, eps, seed, _trivial_component)


def linial_saks_black_box(g, mask, eps, seed):
    """The Linial-Saks-style weak carving described in the module docstring."""
    return _carve(g, mask, eps, seed, _linial_saks_component)


def _carve(g, mask, eps, seed, carve_component) -> tuple[WeakCarving, RoundLedger]:
    """Carve each component of the alive subgraph with carve_component(g,
    mask, comp, eps, seed) -> (clusters, dead, ledger, congestion), merge
    the ledgers in parallel, declare the deepest cluster tree as depth and
    the largest component congestion (the most trees sharing one edge, at
    least 1) as congestion: trees in different components share no edge."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    if mask.count() == 0:
        raise ValueError("alive set is empty")
    clusters: list[WeakCluster] = []
    dead_parts = []
    ledgers = []
    congestion = 1
    for comp in connected_components(g, mask):
        comp_clusters, comp_dead, led, comp_congestion = carve_component(g, mask, comp, eps, seed)
        clusters.extend(comp_clusters)
        dead_parts.append(comp_dead)
        ledgers.append(led)
        congestion = max(congestion, comp_congestion)
    dead = np.sort(np.concatenate(dead_parts))  # a nonempty mask has a component
    carving = WeakCarving(
        clusters=clusters,
        dead=dead,
        declared_depth=max((c.depth for c in clusters), default=0),
        declared_congestion=congestion,
    )
    return carving, merge_parallel(ledgers)


# ----------------------------------------------------------------------------
# trivial instance
# ----------------------------------------------------------------------------


def _trivial_component(g, mask, comp, eps, seed):
    alive = mask.as_bytes()
    scratch = g.scratch
    root = int(comp[0])
    cum, touched = _bfs_layers(g.adj, alive, root, scratch)
    ecc = len(cum) - 1
    parent = {v: scratch.parent[v] for v in touched if v != root}
    cluster = WeakCluster(nodes=comp, tree=SteinerTree(root=root, parent=parent), depth=ecc)
    led = RoundLedger()
    charge_leader_election(led, ecc)
    return [cluster], np.zeros(0, dtype=np.int64), led, 1


# ----------------------------------------------------------------------------
# Linial-Saks-style instance
# ----------------------------------------------------------------------------


def _draw_radii(rng: np.random.Generator, k: int, p: float, r_cap: int) -> np.ndarray:
    """Truncated geometric: P[r >= t] = (1-p)^t, clipped at r_cap."""
    u = 1.0 - rng.random(k)  # in (0, 1]
    # clipped before the cast, so a draw too long for int64 becomes r_cap
    return np.minimum(np.floor(np.log(u) / math.log1p(-p)), r_cap).astype(np.int64)


def _linial_saks_component(g, mask, comp, eps, seed):
    comp_list = comp.tolist()
    k = len(comp_list)
    p = eps / 2.0
    if p == 0.0:
        raise ValueError(f"eps={eps} is too small: eps/2 is 0")
    r_cap = max(1, _window(2.0 * math.log(mask.count()), eps, eps))

    for attempt in range(MAX_REDRAWS):
        rng = rng_from(seed, comp_list[0], attempt)
        radii = _draw_radii(rng, k, p, r_cap).tolist()
        clusters, dead, rounds, congestion = _claim(
            g.adj, mask.as_bytes(), comp_list, radii, g.scratch
        )
        led = RoundLedger()
        led.add("ls-broadcast", rounds + 1)
        if len(dead) <= eps * k:
            led.add("ls-tree", max((c.depth for c in clusters), default=0))
            return clusters, np.sort(np.asarray(dead, dtype=np.int64)), led, congestion
        # redraw this component with a fresh derived stream
    raise InvariantViolation(
        f"linial_saks: no compliant radius draw after {MAX_REDRAWS} attempts "
        f"(component min id {comp_list[0]}, eps={eps})"
    )


def _claim(adj, alive, comp_list, radii, scratch):
    """Assign each node the highest-id broadcaster reaching it, with slack
    (radius minus distance): slack 0 kills the node, slack >= 1 puts it in
    the broadcaster's cluster. Returns (clusters by ascending root, with
    their trees; dead nodes; deepest flood in hops; congestion, the most
    trees sharing one edge, at least 1).

    radii[i] is comp_list[i]'s radius; broadcasters go in descending id
    order; a node is claimed once it carries this call's stamp. best_budget
    (the workspace's `budget`, reset to -1 on the component, which holds
    every node a flood reaches) is the largest remaining range seen at each
    node; a later broadcast only passes v with a strictly larger one, as the
    earlier one covers the rest. That prunes floods without changing any
    winner, and a node's budget when claimed is its slack.

    u's tree is the paths up from its members through `parent`, walked
    before the next flood overwrites it. These are BFS-tree paths: no
    earlier flood reached a node on a shortest path from u to a node u
    claims with that much budget (it would have claimed the node), so u's
    flood reaches it at its BFS layer and, by induction on layers, first
    from its BFS parent.

    Each tree edge is counted as the walk adds it, keyed by its child in the
    workspace's `up` and `uses` (reset on the component with best_budget):
    a child's first parent there, and `extra` for any later one. An edge's
    trees are those holding it in either orientation.
    """
    gen = scratch.begin()
    best_budget, parent, stamp = scratch.budget, scratch.parent, scratch.stamp
    up, uses = scratch.up, scratch.uses
    for v in comp_list:
        best_budget[v] = -1
        uses[v] = 0
    extra: dict[tuple[int, int], int] = {}  # (child, parent) -> trees, past the first parent
    congestion = 1
    k = len(comp_list)
    clusters = []
    dead = []
    clustered = 0
    max_rounds = 0
    for i in range(k - 1, -1, -1):
        if clustered + len(dead) == k:
            break  # every node is claimed
        u, ru = comp_list[i], radii[i]
        if best_budget[u] >= ru:
            continue
        best_budget[u] = ru
        members = []
        if stamp[u] != gen:
            stamp[u] = gen
            (members if ru else dead).append(u)
        frontier = [u]
        b = ru
        while frontier and b > 0:
            b -= 1
            claims = members if b else dead
            nxt = []
            for x in frontier:
                for w in adj[x]:
                    if alive[w] and best_budget[w] < b:
                        best_budget[w] = b
                        parent[w] = x
                        if stamp[w] != gen:
                            stamp[w] = gen
                            claims.append(w)
                        nxt.append(w)
            frontier = nxt
        max_rounds = max(max_rounds, ru - b)
        if members:
            clustered += len(members)
            # u's flood set each member's budget once, when it claimed it,
            # and claimed them in flood order: the last is the deepest
            depth = ru - best_budget[members[-1]]
            members.sort()
            tree_parent: dict[int, int] = {}
            for v in members:
                while v != u and v not in tree_parent:
                    tree_parent[v] = p = parent[v]
                    if not uses[v]:
                        up[v] = p
                        uses[v] = c = 1
                    elif up[v] == p:
                        uses[v] = c = uses[v] + 1
                    else:
                        extra[v, p] = c = extra.get((v, p), 0) + 1
                    if uses[p]:  # p has been a child: add the trees holding p -> v
                        c += uses[p] if up[p] == v else extra.get((p, v), 0)
                    if c > congestion:
                        congestion = c
                    v = p
            tree = SteinerTree(root=u, parent=tree_parent)
            clusters.append(WeakCluster(np.asarray(members, dtype=np.int64), tree, depth))
    clusters.reverse()
    return clusters, dead, max_rounds, congestion
