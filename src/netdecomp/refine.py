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
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .graph import Graph, NodeMask, _bfs_layers, _pad_saturated, _preorder, _setdiff, _window
from .graph import _WIDE_LAYER, _expand, _last_two, _split_at
# Never called here; kept because perfbench/spans.py wraps this name by path.
from .graph import connected_components  # noqa: F401
from .ledger import RoundLedger, charge_bfs, merge_parallel
from .seeding import derive_seed
from .strong import StrongCarving, StrongCluster, _pool

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
    """The alive set split as inner | thin layer | outer: three disjoint
    sorted int64 id arrays covering it, with no edge from inner to outer.

    A cut has the two balanced sides as inner and outer, the separator as
    layer, and no center. A component has the ball around `center` as inner,
    its halo as layer, and the rest of the alive set (possibly empty) as
    outer.
    """

    variant: str  # "cut" | "component"
    inner: np.ndarray
    layer: np.ndarray
    outer: np.ndarray
    center: int | None


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
    """Multi-source BFS from `nodes` until 3*|B_r| >= target_times_3;
    returns (cum, touched) in `_bfs_layers`' shape.

    It stops right after the frontier node whose adjacency scan brings the
    count to stop = ceil(target_times_3 / 3), so the last entry of cum may
    count a partial layer: the prefix of that layer's FIFO discovery order
    that ends with the stopping node's discoveries. If the component runs
    out first, cum has no entry reaching stop. The callers cannot tell
    this from a census that finishes the layer:

      * every caller reads a coverage radius, the first r with
        3*cum[r] >= target; the partial layer reaches stop, and no layer
        before it does, so r is the same;
      * the cut branch also reads cum[a:b], one layer size and
        `_split_at(touched, cum, r_star)` with r_star <= b - 2, where b is
        the last radius of its census; all of these use complete layers
        only, because a layer before the stop layer never reached stop;
      * `_halve` reads only the coverage radii a1 and a2.

    It has its own loop, not `_bfs_layers`, so that the trees, balls and
    preorders do not pay the per-node stop check. It stamps the nodes it
    reaches but writes no `parent`. A layer of at least _WIDE_LAYER nodes,
    the seed layer included, is expanded in numpy (`_expand`, which applies
    the same stop rule); the nodes found there are stamped only in the
    `seen` twin until the census returns to node-by-node layers, which
    first stamps the part of the last two layers that numpy found.
    """
    stop = (target_times_3 + 2) // 3
    gen = scratch.begin()
    stamp = scratch.stamp
    frontier = []
    for s in nodes:
        if stamp[s] != gen:
            stamp[s] = gen
            frontier.append(s)
    touched = list(frontier)
    cum = [len(touched)]
    while True:
        while 0 < len(frontier) < _WIDE_LAYER and cum[-1] < stop:
            need = stop - cum[-1]
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if alive[w] and stamp[w] != gen:
                        stamp[w] = gen
                        nxt.append(w)
                if len(nxt) >= need:
                    break
            touched += nxt
            cum.append(len(touched))
            frontier = nxt
        if not frontier or cum[-1] >= stop:
            break
        found = cum[-1]  # touched[found:] is found in numpy, and stamped only in `seen`
        mask, layer = scratch.widen(alive, _last_two(touched, cum), len(frontier))
        while len(frontier) >= _WIDE_LAYER and cum[-1] < stop:
            layer = _expand(scratch, mask, layer, stop - cum[-1])[0]
            frontier = layer.tolist()
            touched += frontier
            cum.append(len(touched))
        if not frontier or cum[-1] >= stop:
            break
        # back to node-by-node layers: stamp what numpy found of the last two
        for v in touched[max(found, cum[-3] if len(cum) > 2 else 0) :]:
            stamp[v] = gen
    if not frontier and len(cum) > 1:  # the last layer explored is empty
        cum.pop()
    return cum, touched


def _halve(adj, alive, seeds: list[int], scratch, n: int, b: int):
    """One halving step of the seed set; returns (chosen half, a1, a2).

    `seeds` is a run of the preorder of the BFS tree rooted at the smallest
    alive id, so each half is again such a run. The first ceil(|S|/2) seeds
    form S1, the rest S2; a1 and a2 are their n/3-coverage radii. The
    half with the strictly smaller radius wins, ties go to S2. The winning
    radius never exceeds b, the 2n/3-coverage radius of S: the b-ball of S is
    the union of the b-balls of the halves, so one half covers >= n/3 within
    radius b.
    """
    if len(seeds) < 2:
        raise ValueError("cannot halve a seed set of fewer than 2 nodes")
    half = (len(seeds) + 1) // 2
    s1, s2 = seeds[:half], seeds[half:]
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
    has >= n/3 nodes within radius a + k_l of its center, a being the
    center's n/3-coverage radius, so its diameter is at most 2*(a + k_l).
    The ledger charges 3*ecc(v*) per halving iteration (tree build,
    converge-cast, broadcast on the canonical BFS tree) plus the final
    growth BFS, which keeps the total within (3D)(H+1) + D for the true
    diameter D.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    n = mask.count()
    if n == 0:
        raise ValueError("empty alive set")
    ids = mask.node_ids()
    vstar = int(ids[0])
    ledger = RoundLedger()
    if n == 1:  # the general path would charge a zero-round BFS
        return CutOrClusterOutcome("component", ids, ids[:0], ids[:0], vstar), ledger
    alive = mask.as_bytes()
    adj = g.adj
    scratch = g.scratch
    order, ecc = _preorder(adj, alive, vstar, scratch)
    if len(order) != n:
        raise ValueError("cut_or_cluster requires a connected alive subgraph")

    ln_n = math.log(n)
    rho = 1.0 + eps / (LAYER_BUDGET_CONSTANT * ln_n)
    cut_threshold = _window(math.log(2) * LAYER_BUDGET_CONSTANT * ln_n, eps, eps) + 2
    k_l = _window(math.log(3), math.log(rho), eps) + 1

    seeds = order  # every alive node, in preorder
    iteration = 1
    prev_a = 0
    center = None
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
        if b - a >= cut_threshold:
            # thin layer exists among radii [a, b-2]
            r_star = min_ratio_layer(cum[a:b], lo=a)
            break
        if len(seeds) == 1:
            # single-vertex seed: close off a ball within the growth window
            center = seeds[0]
            cum, touched = _bfs_layers(adj, alive, center, scratch, r_max=a + k_l + 1)
            charge_bfs(ledger, len(cum) - 1)
            _pad_saturated(cum, a, a + k_l + 1)
            r_star = min_ratio_layer(cum[a:], lo=a)
            break
        seeds = _halve(adj, alive, seeds, scratch, n, b)[0]
        iteration += 1

    layer_size = cum[r_star + 1] - cum[r_star]
    if layer_size > (rho - 1) * n:
        raise InvariantViolation(f"thin layer of {layer_size} nodes exceeds (rho-1)n")
    inner, layer = _split_at(touched, cum, r_star)
    outer = _setdiff(ids, np.concatenate((inner, layer)))
    if 3 * len(inner) < n or (center is None and 3 * len(outer) < n):
        raise InvariantViolation("the inner side, or a cut's outer side, holds under n/3 nodes")
    variant = "component" if center is not None else "cut"
    return CutOrClusterOutcome(variant, inner, layer, outer, center), ledger


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
    ct = _window(math.log(2) * 4 * lmax, eps, eps) + 3
    k_l = _window(math.log(3), math.log1p(delta), eps) + 2
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
            meta={"eps": eps, "seed": seed, "diameter_bound": 0},
        )
    lmax = _levels_bound(n0)
    eps_carve = eps / (4 * lmax)
    clusters: list[StrongCluster] = []
    dead_bb: list[np.ndarray] = []
    dead_bd: list[np.ndarray] = []

    def process(part: np.ndarray, depth: int) -> RoundLedger:
        if depth > lmax:
            raise InvariantViolation(f"refinement recursion exceeded {lmax} levels")
        part_mask = NodeMask.from_nodes(g.n, part)
        try:
            sc = strong_carver(g, part_mask, eps_carve, derive_seed(seed, depth, int(part[0])))
        except ValueError as e:  # part_mask is a valid part: only the budget can be at fault
            raise ValueError(f"eps={eps}: the carver rejects eps/(4*LMAX)={eps_carve}: {e}") from e
        if len(sc.dead_black_box) + len(sc.dead_boundary) > eps_carve * len(part):
            raise InvariantViolation("carver exceeded its per-level dead budget")
        dead_bb.append(sc.dead_black_box)
        dead_bd.append(sc.dead_boundary)
        level_ledger = RoundLedger()
        level_ledger.extend(sc.ledger)
        branch_ledgers = []
        for cl in sc.clusters:
            c_nodes = cl.nodes
            eps_cc = eps * LAYER_BUDGET_CONSTANT * math.log(max(len(c_nodes), 2)) / (4 * lmax)
            try:
                outcome, cc_led = cut_or_cluster(g, NodeMask.from_nodes(g.n, c_nodes), eps_cc)
            except ValueError as e:  # a carver's cluster is a valid input but for the budget
                raise ValueError(f"eps={eps}: cut_or_cluster rejects eps={eps_cc}: {e}") from e
            branch = RoundLedger()
            branch.extend(cc_led)
            dead_bd.append(outcome.layer)
            if outcome.variant == "cut":
                children = [outcome.inner, outcome.outer]
            else:
                clusters.append(StrongCluster(nodes=outcome.inner, center=outcome.center))
                children = [outcome.outer] if outcome.outer.size else []
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
    dead_black_box, dead_boundary = _pool(dead_bb), _pool(dead_bd)
    if dead_black_box.size + dead_boundary.size > eps * n0:
        raise InvariantViolation("refinement exceeded the total dead budget")
    return StrongCarving(
        clusters=clusters,
        dead_black_box=dead_black_box,
        dead_boundary=dead_boundary,
        ledger=ledger,
        meta={"eps": eps, "seed": seed, "diameter_bound": refined_diameter_bound(n0, eps)},
    )
