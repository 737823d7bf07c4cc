"""Weak-diameter ball carving: the black-box contract plus two instances.

The strong-diameter transformation only consumes this interface: given a
graph view and a boundary fraction eps, produce non-adjacent clusters
covering all but an eps fraction of the alive nodes, each cluster equipped
with a bounded-depth Steiner tree, with bounded per-edge tree congestion.

Two instances are provided:

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
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation
from .graph import Graph, NodeMask, _bfs_layers, connected_components
from .ledger import RoundLedger, charge_leader_election, merge_parallel
from .seeding import rng_from

__all__ = [
    "SteinerTree",
    "WeakCluster",
    "WeakCarving",
    "weak_carve",
    "trivial_black_box",
    "linial_saks_black_box",
]

MAX_REDRAWS = 200


@dataclass
class SteinerTree:
    """Rooted tree inside a component's induced subgraph.

    parent maps child -> parent for every tree node except the root. All
    terminals are tree nodes; the root itself may lie outside the cluster it
    serves (it only anchors the tree).
    """

    root: int
    parent: dict[int, int]
    terminals: np.ndarray


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
    meta: dict = field(default_factory=dict)

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


def weak_carve(
    g: Graph,
    mask: NodeMask,
    eps: float,
    seed: int = 0,
    impl: str = "linial_saks",
) -> tuple[WeakCarving, RoundLedger]:
    """Run a weak-diameter carving instance on the alive subgraph.

    Components are handled independently; the returned ledger is their
    parallel merge. The output always satisfies the full carving contract
    for this invocation's eps (dead fraction included).
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    alive_count = mask.count()
    if alive_count == 0:
        raise ValueError("alive set is empty")
    comps = connected_components(g, mask)
    if impl == "trivial":
        per_comp = [_trivial_component(g, mask, comp) for comp in comps]
    elif impl == "linial_saks":
        r_cap = max(1, math.ceil(2.0 * math.log(alive_count) / eps))
        per_comp = [
            _linial_saks_component(g, mask, comp, eps, seed, r_cap) for comp in comps
        ]
    else:
        raise ValueError(f"unknown impl {impl!r}")

    clusters: list[WeakCluster] = []
    dead_parts = []
    ledgers = []
    for comp_clusters, comp_dead, led in per_comp:
        clusters.extend(comp_clusters)
        dead_parts.append(comp_dead)
        ledgers.append(led)
    dead = (
        np.sort(np.concatenate(dead_parts))
        if dead_parts and sum(len(d) for d in dead_parts)
        else np.zeros(0, dtype=np.int64)
    )
    declared_depth = max((c.depth for c in clusters), default=0)
    edge_use: dict[tuple[int, int], int] = {}
    for c in clusters:
        for a, b in c.tree.parent.items():
            e = (a, b) if a < b else (b, a)
            edge_use[e] = edge_use.get(e, 0) + 1
    declared_congestion = max(edge_use.values(), default=1)
    carving = WeakCarving(
        clusters=clusters,
        dead=dead,
        declared_depth=declared_depth,
        declared_congestion=declared_congestion,
        meta={"impl": impl, "eps": eps, "alive": alive_count},
    )
    return carving, merge_parallel(ledgers)


def trivial_black_box(g, mask, eps, seed):
    return weak_carve(g, mask, eps, seed, impl="trivial")


def linial_saks_black_box(g, mask, eps, seed):
    return weak_carve(g, mask, eps, seed, impl="linial_saks")


# ----------------------------------------------------------------------------
# trivial instance
# ----------------------------------------------------------------------------


def _trivial_component(g, mask, comp):
    alive = mask.as_bytes()
    scratch = g.scratch
    root = int(comp[0])
    cum, touched = _bfs_layers(g.adj, alive, [root], scratch)
    ecc = len(cum) - 1
    parent = {v: scratch.parent[v] for v in touched if v != root}
    tree = SteinerTree(root=root, parent=parent, terminals=comp)
    cluster = WeakCluster(nodes=comp, tree=tree, depth=ecc)
    led = RoundLedger()
    charge_leader_election(led, ecc)
    return [cluster], np.zeros(0, dtype=np.int64), led


# ----------------------------------------------------------------------------
# Linial-Saks-style instance
# ----------------------------------------------------------------------------


def _draw_radii(rng: np.random.Generator, k: int, p: float, r_cap: int) -> np.ndarray:
    """Truncated geometric: P[r >= t] = (1-p)^t, clipped at r_cap."""
    u = 1.0 - rng.random(k)  # in (0, 1]
    r = np.floor(np.log(u) / math.log1p(-p)).astype(np.int64)
    return np.minimum(r, r_cap)


def _linial_saks_component(g, mask, comp, eps, seed, r_cap):
    alive = mask.as_bytes()
    adj = g.adj
    comp_list = [int(v) for v in comp]
    k = len(comp_list)
    p = eps / 2.0
    budget = eps * k

    for attempt in range(MAX_REDRAWS):
        rng = rng_from(seed, comp_list[0], attempt)
        radii_arr = _draw_radii(rng, k, p, r_cap)
        radii = dict(zip(comp_list, radii_arr.tolist()))
        winner, slack, rounds = _claim(adj, alive, comp_list, radii, g.scratch)
        dead = [v for v in comp_list if slack[v] == 0]
        led = RoundLedger()
        led.add("ls-broadcast", rounds + 1)
        if len(dead) <= budget:
            clusters = _build_clusters(g, alive, winner, slack, radii)
            depth = max((c.depth for c in clusters), default=0)
            led.add("ls-tree", depth)
            return clusters, np.asarray(sorted(dead), dtype=np.int64), led
        # redraw this component with a fresh derived stream
    raise InvariantViolation(
        f"linial_saks: no compliant radius draw after {MAX_REDRAWS} attempts "
        f"(component min id {comp_list[0]}, eps={eps})"
    )


def _claim(adj, alive, comp_list, radii, scratch):
    """Assign each node the highest-id broadcaster reaching it, plus slack.

    Processes broadcasters in descending id order. best_budget[v] records the
    largest remaining broadcast range seen at v so far; a later (lower-id)
    broadcast may only pass through v with a strictly larger remaining range,
    since anything it could reach beyond v is already covered by the earlier
    broadcast. This prunes dominated floods without changing any winner, and
    recorded slacks equal radius minus true graph distance.

    best_budget is the workspace's `budget` list, reset to -1 on the component:
    a flood only reaches alive neighbours, which lie in the same component.
    """
    scratch.begin()
    best_budget = scratch.budget
    for v in comp_list:
        best_budget[v] = -1
    winner: dict[int, int] = {}
    slack: dict[int, int] = {}
    unclaimed = len(comp_list)
    max_rounds = 0
    for u in sorted(comp_list, reverse=True):
        if unclaimed == 0:
            break
        ru = radii[u]
        if best_budget[u] >= ru:
            continue
        best_budget[u] = ru
        if u not in winner:
            winner[u] = u
            slack[u] = ru
            unclaimed -= 1
        frontier = [u]
        b = ru
        layers = 0
        while frontier and b > 0:
            b -= 1
            layers += 1
            nxt = []
            for x in frontier:
                for w in adj[x]:
                    if alive[w] and best_budget[w] < b:
                        best_budget[w] = b
                        if w not in winner:
                            winner[w] = u
                            slack[w] = b
                            unclaimed -= 1
                        nxt.append(w)
            frontier = nxt
        max_rounds = max(max_rounds, layers)
    return winner, slack, max_rounds


def _build_clusters(g, alive, winner, slack, radii):
    members: dict[int, list[int]] = {}
    for v, u in winner.items():
        if slack[v] >= 1:
            members.setdefault(u, []).append(v)
    scratch = g.scratch
    clusters = []
    for root in sorted(members):
        nodes = sorted(members[root])
        depth = max(radii[root] - slack[m] for m in nodes)
        _bfs_layers(g.adj, alive, [root], scratch, r_max=depth)
        parent = scratch.parent
        tree_parent: dict[int, int] = {}
        for m in nodes:
            v = m
            while v != root and v not in tree_parent:
                tree_parent[v] = parent[v]
                v = parent[v]
        tree = SteinerTree(
            root=root,
            parent=tree_parent,
            terminals=np.asarray(nodes, dtype=np.int64),
        )
        clusters.append(
            WeakCluster(nodes=np.asarray(nodes, dtype=np.int64), tree=tree, depth=depth)
        )
    return clusters
