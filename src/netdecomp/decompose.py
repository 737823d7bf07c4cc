"""Network decomposition by repeated ball carving.

Carve with boundary fraction 1/2, color the surviving clusters with the
iteration index, and repeat on the removed nodes. Every iteration clusters
at least half of what remains, so the color count stays within
ceil(log2 n) + 1 and every node ends up in exactly one colored cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation
from .graph import Graph, NodeMask
# Never called here; kept because perfbench/spans.py wraps this name by path.
from .verify import induced_diameter  # noqa: F401
from .ledger import RoundLedger
from .refine import refine
from .seeding import derive_seed
from .strong import carve_strong

__all__ = [
    "DecompCluster",
    "NetworkDecomposition",
    "color_bound",
    "decompose",
    "make_strong_carver",
    "make_refined_carver",
]


@dataclass
class DecompCluster:
    id: int
    color: int
    nodes: np.ndarray
    center: int


@dataclass
class NetworkDecomposition:
    """Total partition of V into colored clusters.

    diameter_bound is the largest cluster diameter bound the carver declared
    over all colors, the guarantee this decomposition is checked against.
    """

    n: int
    colors: int
    clusters: list[DecompCluster]
    diameter_bound: int | None = None
    stats: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "colors": self.colors,
            "clusters": [
                {"id": c.id, "color": c.color, "nodes": [int(v) for v in c.nodes]}
                for c in self.clusters
            ],
            "stats": {
                "rounds": self.stats.get("rounds", 0),
                "diameter_bound": self.diameter_bound,
                "n": self.n,
            },
        }


def make_strong_carver(black_box):
    """Strong-carving pipeline stage over a weak-carving black box."""

    def carver(g, mask, eps, seed):
        return carve_strong(g, mask, eps, seed, black_box)

    return carver


def make_refined_carver(black_box):
    """Refined pipeline: strong carving followed by diameter refinement."""

    base = make_strong_carver(black_box)

    def carver(g, mask, eps, seed):
        return refine(g, mask, eps, seed, base)

    return carver


def color_bound(n: int) -> int:
    """The most colors `decompose` may use on n nodes: ceil(log2 n) + 1, at
    least 2 when n > 1 and 1 when n <= 1."""
    return (max(1, math.ceil(math.log2(n))) if n > 1 else 0) + 1


def decompose(g: Graph, seed: int, carver) -> tuple[NetworkDecomposition, RoundLedger]:
    """Iterate carver(eps=1/2); batch i becomes color i.

    carver(g, mask, eps, seed) -> StrongCarving, declaring its cluster
    diameter bound in meta["diameter_bound"]. Raises InvariantViolation if an
    iteration clusters less than half of the remaining nodes (a carving
    budget breach) since termination would no longer be guaranteed.
    """
    n = g.n
    remaining = NodeMask.full(n)
    max_colors = color_bound(n)
    clusters: list[DecompCluster] = []
    ledger = RoundLedger()
    diameter_bound = 0
    color = 0
    while remaining.count() > 0:
        color += 1
        if color > max_colors:
            raise InvariantViolation(
                f"decomposition needed more than {max_colors} colors"
            )
        rem_count = remaining.count()
        sc = carver(g, remaining, 0.5, derive_seed(seed, color))
        dead = sc.dead
        if len(dead) > rem_count / 2:
            raise InvariantViolation(
                f"carver killed {len(dead)} of {rem_count} nodes at color {color}"
            )
        diameter_bound = max(diameter_bound, sc.meta["diameter_bound"])
        for c in sc.clusters:
            clusters.append(
                DecompCluster(
                    id=len(clusters), color=color, nodes=c.nodes, center=c.center
                )
            )
        ledger.extend(sc.ledger)
        remaining = NodeMask.from_nodes(n, dead)
    decomp = NetworkDecomposition(
        n=n,
        colors=color,
        clusters=clusters,
        diameter_bound=diameter_bound,
        stats={"rounds": ledger.total_rounds},
    )
    return decomp, ledger
