"""Weak-to-strong ball carving transformation.

Driven purely through the weak-carving black-box contract. Each entry
component runs a halving loop: per iteration, carve weakly with a reduced
boundary fraction; if some weak cluster holds more than half of the
component, grow a ball around its Steiner root until a thin BFS layer is
found, output the ball as one strong-diameter cluster and kill the layer;
otherwise kill only the weakly-unclustered nodes. Either way every surviving
component halves, so the loop ends within the iteration cap, and the killed
nodes split into two separately-budgeted pools (black-box vs boundary),
each at most eps/2 of the component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation
from .graph import Graph, NodeMask, _bfs_layers, connected_components
from .ledger import RoundLedger, charge_bfs, charge_steiner_aggregate, merge_parallel
from .seeding import derive_seed
from .weak import WeakCarving, WeakCluster

__all__ = [
    "CarvingParams",
    "StrongCluster",
    "StrongCarving",
    "grow_ball",
    "detect_giant",
    "carve_strong",
]


@dataclass(frozen=True)
class CarvingParams:
    """All internal constants of one transformation run, materialized.

    eps_prime is the per-iteration weak-carving budget; i_max the iteration
    cap; growth_cap the number of radius growth steps that always suffices
    (that many consecutive layers each growing the ball by more than
    1/(1 - eps/2) would push the ball past the component size).
    """

    n: int
    eps: float
    eps_prime: float
    i_max: int
    growth_cap: int

    @classmethod
    def for_entry(cls, n: int, eps: float) -> "CarvingParams":
        if not (0.0 < eps < 1.0):
            raise ValueError("eps must be in (0, 1)")
        if n < 1:
            raise ValueError("n must be >= 1")
        i_max = max(1, math.ceil(math.log2(n))) if n > 1 else 1
        eps_prime = eps / (2 * i_max)
        growth_cap = math.ceil(math.log(n) / -math.log1p(-eps / 2)) + 1 if n > 1 else 1
        return cls(
            n=n,
            eps=eps,
            eps_prime=eps_prime,
            i_max=i_max,
            growth_cap=growth_cap,
        )


@dataclass
class StrongCluster:
    nodes: np.ndarray
    center: int


@dataclass
class StrongCarving:
    """Disjoint connected clusters plus cause-tagged dead nodes."""

    clusters: list[StrongCluster]
    dead_black_box: np.ndarray
    dead_boundary: np.ndarray
    ledger: RoundLedger
    meta: dict = field(default_factory=dict)

    @property
    def dead(self) -> np.ndarray:
        return np.sort(np.concatenate([self.dead_black_box, self.dead_boundary]))

    def to_json(self) -> dict:
        dead = [{"node": int(v), "cause": "black-box"} for v in self.dead_black_box]
        dead += [{"node": int(v), "cause": "boundary"} for v in self.dead_boundary]
        dead.sort(key=lambda d: d["node"])
        return {
            "type": "strong-carving",
            "eps": self.meta.get("eps"),
            "seed": self.meta.get("seed"),
            "clusters": [
                {"id": k, "center": int(c.center), "nodes": [int(v) for v in c.nodes]}
                for k, c in enumerate(self.clusters)
            ],
            "dead": dead,
            "ledger": self.ledger.to_json(),
            "stats": {
                "clusters": len(self.clusters),
                "dead": len(dead),
                "diameter_bound": self.meta.get("diameter_bound"),
            },
        }


def grow_ball(
    g: Graph,
    mask: NodeMask,
    center: int,
    r_start: int,
    k_growth: int,
    eps: float,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Find the smallest radius r* in [r_start, r_start + k_growth] whose
    next BFS layer is thin: |B_r| >= (1 - eps/2) * |B_{r+1}|.

    Returns (r*, ball, boundary) with ball = B_{r*}(center) and boundary =
    B_{r*+1} \\ B_{r*} inside the alive subgraph. If the BFS saturates the
    component by radius r_start, then r* = r_start and the boundary is
    empty: the ball simply covers the whole component.
    """
    if r_start < 0:
        raise ValueError("r_start must be >= 0")
    if k_growth < 1:
        raise ValueError("k_growth must be >= 1")
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    if not 0 <= center < g.n:
        raise ValueError(f"center {center} out of range for n={g.n}")
    if not mask.alive[center]:
        raise ValueError(f"center {center} is dead")
    thin = 1.0 - eps / 2
    r_max = r_start + k_growth + 1
    cum, touched = _bfs_layers(g.adj, mask.as_bytes(), [center], g.scratch, r_max=r_max)
    cum += [cum[-1]] * (r_max + 1 - len(cum))
    r_star = -1
    for r in range(r_start, r_start + k_growth + 1):
        if cum[r] >= thin * cum[r + 1]:
            r_star = r
            break
    if r_star < 0:
        raise InvariantViolation(
            "no thin layer within the growth window; "
            f"ball sizes {cum[r_start:]} with eps={eps}"
        )
    # touched is in BFS order: the first cum[r] nodes are the r-ball
    ball = np.sort(np.asarray(touched[: cum[r_star]], dtype=np.int64))
    boundary = np.sort(np.asarray(touched[cum[r_star] : cum[r_star + 1]], dtype=np.int64))
    return r_star, ball, boundary


def detect_giant(carving: WeakCarving, size_threshold: float) -> WeakCluster | None:
    """The unique weak cluster larger than size_threshold, if one exists.

    More than one candidate is impossible when the component has at most
    twice the threshold; seeing two means the caller's invariants broke.
    """
    if size_threshold <= 0:
        raise ValueError("size_threshold must be positive")
    big = [c for c in carving.clusters if len(c.nodes) > size_threshold]
    if len(big) > 1:
        raise InvariantViolation(
            f"{len(big)} clusters exceed size threshold {size_threshold}"
        )
    return big[0] if big else None


def carve_strong(
    g: Graph,
    mask: NodeMask,
    eps: float,
    seed: int,
    black_box,
) -> StrongCarving:
    """Transform the weak-carving black box into a strong-diameter carving.

    black_box(g, mask, eps, seed) -> (WeakCarving, RoundLedger) must satisfy
    the weak-carving contract. Every output cluster then has strong diameter
    at most 2*R_bb + 2*K (R_bb = deepest declared Steiner tree over all
    black-box calls, K = the growth cap), recorded in meta["diameter_bound"].
    Components run independently; their ledgers merge by maximum.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    comps = connected_components(g, mask)
    clusters: list[StrongCluster] = []
    dead_bb: list[int] = []
    dead_bd: list[int] = []
    ledgers = []
    traces = []
    r_bb = 0
    k_max = 0
    budget_ok = True
    for comp in comps:
        out = _carve_component(g, comp, eps, seed, black_box)
        clusters.extend(out["clusters"])
        dead_bb.extend(out["dead_black_box"])
        dead_bd.extend(out["dead_boundary"])
        ledgers.append(out["ledger"])
        traces.append(out["trace"])
        r_bb = max(r_bb, out["max_black_box_depth"])
        k_max = max(k_max, out["growth_cap"])
        n0 = len(comp)
        if len(out["dead_black_box"]) > (eps / 2) * n0:
            budget_ok = False
        if len(out["dead_boundary"]) > (eps / 2) * n0:
            budget_ok = False
    ledger = merge_parallel(ledgers) if ledgers else RoundLedger()
    return StrongCarving(
        clusters=clusters,
        dead_black_box=np.asarray(sorted(dead_bb), dtype=np.int64),
        dead_boundary=np.asarray(sorted(dead_bd), dtype=np.int64),
        ledger=ledger,
        meta={
            "eps": eps,
            "seed": seed,
            "max_black_box_depth": r_bb,
            "growth_cap": k_max,
            "diameter_bound": 2 * r_bb + 2 * k_max,
            "trace": traces,
            "budget_split_ok": budget_ok,
        },
    )


def _carve_component(g, comp, eps, seed, black_box):
    n0 = len(comp)
    params = CarvingParams.for_entry(n0, eps)
    clusters: list[StrongCluster] = []
    dead_bb: list[int] = []
    dead_bd: list[int] = []
    total = RoundLedger()
    trace = {"entry_n": n0, "iterations": [], "r_stars": [], "black_box_bounds": []}
    max_bb_depth = 0

    current: list[np.ndarray] = [comp]
    for i in range(1, params.i_max + 1):
        if not current:
            break
        sizes = [len(s) for s in current]
        trace["iterations"].append(sizes)
        for s in sizes:
            # component shrinkage guarantee: size <= n0 / 2^(i-1), exactly
            if s * (1 << (i - 1)) > n0:
                raise InvariantViolation(
                    f"component of size {s} at iteration {i} exceeds {n0}/2^{i - 1}"
                )
        iter_ledgers = []
        nxt: list[np.ndarray] = []
        for s_nodes in current:
            if len(s_nodes) == 1:
                clusters.append(StrongCluster(nodes=s_nodes, center=int(s_nodes[0])))
                continue
            led = RoundLedger()
            s_mask = NodeMask.from_nodes(g.n, s_nodes)
            wc, bb_led = black_box(
                g, s_mask, params.eps_prime, derive_seed(seed, i, int(s_nodes[0]))
            )
            led.extend(bb_led)
            charge_steiner_aggregate(led, wc.declared_depth, wc.declared_congestion)
            trace["black_box_bounds"].append((wc.declared_depth, wc.declared_congestion))
            max_bb_depth = max(max_bb_depth, wc.declared_depth)

            if not wc.clusters:
                # pathological black box killed everything: fail soft,
                # count the whole piece against the black-box pool
                dead_bb.extend(int(v) for v in s_nodes)
                iter_ledgers.append(led)
                continue

            giant = detect_giant(wc, n0 / (1 << i))
            if giant is None:
                # thin case: unclustered nodes die, survivors split
                dead_bb.extend(int(v) for v in wc.dead)
                survivors = np.setdiff1d(s_nodes, wc.dead, assume_unique=True)
                if survivors.size:
                    nxt.extend(connected_components(g, NodeMask.from_nodes(g.n, survivors)))
            else:
                # giant case: swallow the giant cluster into one BFS ball
                r_star, ball, boundary = grow_ball(
                    g, s_mask, int(giant.tree.root), giant.depth, params.growth_cap, eps
                )
                charge_bfs(led, r_star + 1)
                trace["r_stars"].append(r_star)
                clusters.append(StrongCluster(nodes=ball, center=int(giant.tree.root)))
                dead_bd.extend(int(v) for v in boundary)
                remaining = np.setdiff1d(
                    s_nodes, np.concatenate([ball, boundary]), assume_unique=True
                )
                if remaining.size:
                    nxt.extend(connected_components(g, NodeMask.from_nodes(g.n, remaining)))
            iter_ledgers.append(led)
        if iter_ledgers:
            total.extend(merge_parallel(iter_ledgers))
        current = nxt

    for s_nodes in current:
        # anything outliving the iteration cap must be trivial
        if len(s_nodes) != 1:
            raise InvariantViolation(
                f"non-trivial component of size {len(s_nodes)} survived {params.i_max} iterations"
            )
        clusters.append(StrongCluster(nodes=s_nodes, center=int(s_nodes[0])))

    return {
        "clusters": clusters,
        "dead_black_box": dead_bb,
        "dead_boundary": dead_bd,
        "ledger": total,
        "trace": trace,
        "max_black_box_depth": max_bb_depth,
        "growth_cap": params.growth_cap,
    }
