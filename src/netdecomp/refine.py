"""Diameter refinement: cut-or-cluster dichotomy and the recursive transform.

`cut_or_cluster` runs on a connected alive subgraph and always returns one of
two certified outcomes:

  * a balanced sparse cut: two non-adjacent sides, each holding at least a
    third of the nodes, separated by one thin BFS layer;
  * a large small-diameter component: a ball around a single vertex holding
    at least a third of the nodes, whose outside neighborhood (halo) is one
    thin BFS layer.

It works by shrinking a seed set S: whenever the radius at which S covers
n/3 nodes and the radius at which it covers 2n/3 nodes are far apart, some
intermediate layer must be thin and we cut there; otherwise S is split along
a canonical traversal order into two halves, and the half whose n/3-radius
is smaller (it never exceeds the old 2n/3-radius) survives. After at most
ceil(log2 n) halvings S is a single vertex with a controlled n/3-radius, and
a thin layer close beyond that radius closes off the ball.

`refine` applies this recursively to the clusters of any strong carving,
re-carving at each level because cut sides have unbounded diameter. Each
recursive part keeps at most 2/3 of its parent's nodes, so the recursion
depth is bounded and the per-level removal budgets telescope below eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation
from .graph import Graph, NodeMask, _bfs_layers, _preorder
# Never called here; kept because perfbench/spans.py wraps this name by path.
from .graph import connected_components  # noqa: F401
from .ledger import RoundLedger, merge_parallel
from .seeding import derive_seed
from .strong import StrongCarving, StrongCluster

__all__ = [
    "CutOrClusterOutcome",
    "min_ratio_layer",
    "cut_or_cluster",
    "refine",
    "refined_diameter_bound",
    "LAYER_BUDGET_CONSTANT",
]

# c_L: scales the thin-layer target 1 + eps/(c_L * ln n). With recursion depth
# LMAX = ceil(ln n / ln 1.5) levels and one thin layer removed per level, the
# total layer removal stays below (ln 1.5)^-1 / c_L ~ 0.31 of eps*n, under the
# eps/2 half-budget reserved for post-processing.
LAYER_BUDGET_CONSTANT = 8


@dataclass
class CutOrClusterOutcome:
    variant: str  # "cut" | "component"
    v1: np.ndarray | None = None
    v2: np.ndarray | None = None
    separator: np.ndarray | None = None
    component: np.ndarray | None = None
    halo: np.ndarray | None = None
    center: int | None = None
    r_star: int = 0
    a_final: int = 0
    params: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)

    def to_json(self) -> dict:
        out = {"variant": self.variant, "params": self.params, "r_star": self.r_star}
        if self.variant == "cut":
            out["v1"] = [int(v) for v in self.v1]
            out["v2"] = [int(v) for v in self.v2]
            out["separator"] = [int(v) for v in self.separator]
        else:
            out["component"] = [int(v) for v in self.component]
            out["halo"] = [int(v) for v in self.halo]
            out["center"] = self.center
        return out


def min_ratio_layer(sizes, lo: int = 0) -> int:
    """Radius r in [lo, lo+len(sizes)-2] minimizing sizes[r+1]/sizes[r].

    sizes are positive non-decreasing cumulative ball sizes for radii
    lo, lo+1, ...; comparison is by exact integer cross-multiplication, ties
    go to the smallest radius.
    """
    k = len(sizes)
    if k < 2:
        raise ValueError("need at least two sizes")
    best = 0
    for r in range(1, k - 1):
        # sizes[r+1]/sizes[r] < sizes[best+1]/sizes[best] ?
        if sizes[r + 1] * sizes[best] < sizes[best + 1] * sizes[r]:
            best = r
    return lo + best


def _coverage_radius(cum: list[int], target_times_3: int) -> int | None:
    """First index r with 3*cum[r] >= target_times_3, or None."""
    for r, c in enumerate(cum):
        if 3 * c >= target_times_3:
            return r
    return None


def _census(adj, alive, nodes, scratch, target_times_3: int):
    """Multi-source BFS until 3*|B_r| >= target_times_3; returns (cum, touched)."""
    stop = (target_times_3 + 2) // 3
    return _bfs_layers(adj, alive, nodes, scratch, stop_size=stop)


def _halve(adj, alive, seeds: list[int], pos: dict, scratch, n: int, b: int):
    """One halving step of the seed set; returns (chosen half, a1, a2).

    `pos` maps every alive node to its index in the preorder of the BFS tree
    rooted at the smallest alive id. The first ceil(|S|/2) seeds in that
    order form S1, the rest S2; a1 and a2 are their n/3-coverage radii. The
    half with the strictly smaller radius wins, ties go to S2. The winning
    radius never exceeds b, the 2n/3-coverage radius of S: the b-ball of S is
    the union of the b-balls of the halves, so one half covers >= n/3 within
    radius b.
    """
    if len(seeds) < 2:
        raise ValueError("cannot halve a seed set of fewer than 2 nodes")
    s_sorted = sorted(seeds, key=pos.__getitem__)
    half = (len(s_sorted) + 1) // 2
    s1, s2 = s_sorted[:half], s_sorted[half:]
    a1 = _coverage_radius(_census(adj, alive, s1, scratch, n)[0], n)
    a2 = _coverage_radius(_census(adj, alive, s2, scratch, n)[0], n)
    if a1 is None or a2 is None or min(a1, a2) > b:
        raise InvariantViolation(f"halving failed: a1={a1} a2={a2} b={b}")
    return (s1 if a1 < a2 else s2), a1, a2


def cut_or_cluster(
    g: Graph,
    mask: NodeMask,
    eps: float,
) -> tuple[CutOrClusterOutcome, RoundLedger]:
    """Balanced sparse cut, or large small-diameter component.

    The alive subgraph must be connected. Separator/halo sizes are at most
    (rho - 1) * n with rho = 1 + eps/(c_L * ln n); a returned component
    has >= n/3 nodes and diameter at most 2*(a_final + k_l). The ledger
    charges 3*ecc(v*) per halving iteration (tree build, converge-cast,
    broadcast on the canonical BFS tree) plus the final growth BFS, which
    keeps the total within (3D)(H+1) + D for the true diameter D.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    n = mask.count()
    if n == 0:
        raise ValueError("empty alive set")
    alive_ids = mask.node_ids()
    ledger = RoundLedger()
    if n == 1:
        v = int(alive_ids[0])
        outcome = CutOrClusterOutcome(
            variant="component",
            component=np.asarray([v], dtype=np.int64),
            halo=np.zeros(0, dtype=np.int64),
            center=v,
            r_star=0,
            a_final=0,
            params={"n": 1, "eps": eps},
        )
        return outcome, ledger
    alive = mask.as_bytes()
    adj = g.adj
    scratch = g.scratch
    vstar = int(alive_ids[0])
    order, ecc = _preorder(adj, alive, vstar, scratch)
    if len(order) != n:
        raise ValueError("cut_or_cluster requires a connected alive subgraph")
    pos = {v: i for i, v in enumerate(order)}

    ln_n = math.log(n)
    rho = 1.0 + eps / (LAYER_BUDGET_CONSTANT * ln_n)
    cut_threshold = math.ceil(math.log(2) * LAYER_BUDGET_CONSTANT * ln_n / eps) + 2
    k_l = math.ceil(math.log(3) / math.log(rho)) + 1
    params = {
        "n": n,
        "eps": eps,
        "c_layer": LAYER_BUDGET_CONSTANT,
        "rho": rho,
        "cut_threshold": cut_threshold,
        "k_l": k_l,
    }

    seeds = [int(v) for v in alive_ids]
    iteration = 1
    trace: list[dict] = []
    prev_a = 0
    while True:
        cum, touched = _census(adj, alive, seeds, scratch, 2 * n)
        a = _coverage_radius(cum, n)
        b = _coverage_radius(cum, 2 * n)
        if a is None or b is None:
            raise InvariantViolation("census failed to reach 2n/3 coverage")
        ledger.add("halving-iteration", 3 * ecc)
        # ceil-halving: |S| <= ceil(n / 2^(i-1)), i.e. (|S|-1)*2^(i-1) < n
        if (len(seeds) - 1) * (1 << (iteration - 1)) >= n and len(seeds) > 1:
            raise InvariantViolation("seed set did not halve")
        if a > prev_a + cut_threshold:
            raise InvariantViolation("coverage radius jumped past the cut threshold")
        prev_a = a
        trace.append(
            {
                "iteration": iteration,
                "seed": np.asarray(seeds, dtype=np.int64),
                "size": len(seeds),
                "a": a,
                "b": b,
            }
        )
        if b - a >= cut_threshold:
            # thin layer exists among radii [a, b-2]
            r_star = min_ratio_layer(cum[a:b], lo=a)
            sep_size = cum[r_star + 1] - cum[r_star]
            if sep_size > (rho - 1) * n:
                raise InvariantViolation(
                    f"separator layer of {sep_size} nodes exceeds (rho-1)n"
                )
            # touched is in BFS order: the first cum[r] nodes are the r-ball
            v1 = sorted(touched[: cum[r_star]])
            sep = sorted(touched[cum[r_star] : cum[r_star + 1]])
            inside = set(v1) | set(sep)
            v2 = sorted(int(v) for v in alive_ids if int(v) not in inside)
            if 3 * len(v1) < n or 3 * len(v2) < n:
                raise InvariantViolation("cut sides are unbalanced")
            outcome = CutOrClusterOutcome(
                variant="cut",
                v1=np.asarray(v1, dtype=np.int64),
                v2=np.asarray(v2, dtype=np.int64),
                separator=np.asarray(sep, dtype=np.int64),
                r_star=r_star,
                a_final=a,
                params=params,
                trace=trace,
            )
            return outcome, ledger
        if len(seeds) == 1:
            break
        seeds, a1, a2 = _halve(adj, alive, seeds, pos, scratch, n, b)
        trace[-1].update({"a1": a1, "a2": a2, "chosen": 1 if a1 < a2 else 2})
        iteration += 1

    # single-vertex seed: close off a ball within the growth window
    v = seeds[0]
    a_f = a
    cum, touched = _bfs_layers(adj, alive, [v], scratch, r_max=a_f + k_l + 1)
    walked = len(cum) - 1
    ledger.add("bfs", walked)
    while len(cum) < a_f + k_l + 2:
        cum.append(cum[-1])
    r_star = min_ratio_layer(cum[a_f : a_f + k_l + 2], lo=a_f)
    halo_size = cum[r_star + 1] - cum[r_star]
    if halo_size > (rho - 1) * n:
        raise InvariantViolation(f"halo layer of {halo_size} nodes exceeds (rho-1)n")
    comp = sorted(touched[: cum[r_star]])
    halo = sorted(touched[cum[r_star] : cum[r_star + 1]])
    if 3 * len(comp) < n:
        raise InvariantViolation("component smaller than n/3")
    outcome = CutOrClusterOutcome(
        variant="component",
        component=np.asarray(comp, dtype=np.int64),
        halo=np.asarray(halo, dtype=np.int64),
        center=v,
        r_star=r_star,
        a_final=a_f,
        params=params,
        trace=trace,
    )
    return outcome, ledger


# ----------------------------------------------------------------------------
# Recursive refinement
# ----------------------------------------------------------------------------


def _levels_bound(n: int) -> int:
    if n < 2:
        return 1
    return max(1, math.ceil(math.log(n) / math.log(1.5)))


def refined_diameter_bound(n: int, eps: float) -> int:
    """Worst-case cluster diameter of `refine` on an n-node input.

    Every output cluster is a ball found by cut_or_cluster at some level,
    with radius at most H*cut_threshold + k_l. Per-level parameters cancel to
    level-independent values; the +1 slacks absorb float rounding in that
    cancellation so the formula dominates every actual invocation.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    lmax = _levels_bound(n)
    delta = eps / (4 * lmax)  # rho - 1 at every level
    ct = math.ceil(math.log(2) * 4 * lmax / eps) + 3
    k_l = math.ceil(math.log(3) / math.log1p(delta)) + 2
    h_bound = (max(1, math.ceil(math.log2(n))) if n > 1 else 1) + 1
    return 2 * (h_bound * ct + k_l)


def refine(
    g: Graph,
    mask: NodeMask,
    eps: float,
    seed: int,
    strong_carver,
) -> StrongCarving:
    """Refine any strong carving algorithm down to balls of bounded radius.

    strong_carver(g, mask, eps, seed) -> StrongCarving must satisfy the
    strong-carving contract. Levels alternate carving (with budget
    eps/(4*LMAX)) and per-cluster cut_or_cluster post-processing (whose thin
    layer is also at most eps/(4*LMAX) of the cluster); cut sides and ball
    remainders recurse. Output clusters satisfy refined_diameter_bound.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    n0 = mask.count()
    if n0 == 0:
        return StrongCarving(
            clusters=[],
            dead_black_box=np.zeros(0, dtype=np.int64),
            dead_boundary=np.zeros(0, dtype=np.int64),
            ledger=RoundLedger(),
            meta={"eps": eps, "levels": 0},
        )
    lmax = _levels_bound(n0)
    eps_carve = eps / (4 * lmax)
    clusters: list[StrongCluster] = []
    dead_bb: list[int] = []
    dead_bd: list[int] = []
    stats = {"cuts": 0, "components": 0, "max_depth": 0}

    def process(part: np.ndarray, depth: int) -> RoundLedger:
        if depth > lmax:
            raise InvariantViolation(f"refinement recursion exceeded {lmax} levels")
        stats["max_depth"] = max(stats["max_depth"], depth)
        part_mask = NodeMask.from_nodes(g.n, part)
        sc = strong_carver(g, part_mask, eps_carve, derive_seed(seed, depth, int(part[0])))
        if len(sc.dead_black_box) + len(sc.dead_boundary) > eps_carve * len(part):
            raise InvariantViolation("carver exceeded its per-level dead budget")
        dead_bb.extend(int(v) for v in sc.dead_black_box)
        dead_bd.extend(int(v) for v in sc.dead_boundary)
        level_ledger = RoundLedger()
        level_ledger.extend(sc.ledger)
        branch_ledgers = []
        for cl in sc.clusters:
            c_nodes = cl.nodes
            eps_cc = eps * LAYER_BUDGET_CONSTANT * math.log(max(len(c_nodes), 2)) / (4 * lmax)
            outcome, cc_led = cut_or_cluster(g, NodeMask.from_nodes(g.n, c_nodes), eps_cc)
            branch = RoundLedger()
            branch.extend(cc_led)
            children: list[np.ndarray] = []
            if outcome.variant == "cut":
                stats["cuts"] += 1
                dead_bd.extend(int(v) for v in outcome.separator)
                children = [outcome.v1, outcome.v2]
            else:
                stats["components"] += 1
                clusters.append(
                    StrongCluster(nodes=outcome.component, center=int(outcome.center))
                )
                dead_bd.extend(int(v) for v in outcome.halo)
                rem = np.setdiff1d(
                    c_nodes,
                    np.concatenate([outcome.component, outcome.halo]),
                    assume_unique=True,
                )
                if rem.size:
                    children = [rem]
            if children:
                branch.extend(merge_parallel([process(ch, depth + 1) for ch in children]))
            branch_ledgers.append(branch)
        if branch_ledgers:
            level_ledger.extend(merge_parallel(branch_ledgers))
        return level_ledger

    ledger = process(mask.node_ids(), 1)
    # `process` calls itself through its closure; emptying that cell breaks
    # the cycle, which would keep `g` alive until a full garbage collection
    del process
    if len(dead_bb) + len(dead_bd) > eps * n0:
        raise InvariantViolation("refinement exceeded the total dead budget")
    return StrongCarving(
        clusters=clusters,
        dead_black_box=np.asarray(sorted(dead_bb), dtype=np.int64),
        dead_boundary=np.asarray(sorted(dead_bd), dtype=np.int64),
        ledger=ledger,
        meta={
            "eps": eps,
            "seed": seed,
            "levels": lmax,
            "eps_carve": eps_carve,
            "diameter_bound": refined_diameter_bound(n0, eps),
            **stats,
        },
    )
