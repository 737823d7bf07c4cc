"""Independent output checks for one benchmark operation.

Everything here works from the raw CSR arrays and `scipy.sparse.csgraph`;
no traversal code of `netdecomp` is used, so a fault shared by the
algorithms and the library's own verifier cannot hide itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra


@dataclass
class CheckResult:
    failures: list[str] = field(default_factory=list)
    max_radius: int = 0


def color_bound(n: int) -> int:
    """ceil(log2 n) + 1 colors, the bound the `decompose` CLI checks."""
    return (max(1, math.ceil(math.log2(n))) if n > 1 else 0) + 1


def _edges(indptr: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Directed edge list (both directions) of a CSR adjacency."""
    n = indptr.size - 1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return src, np.asarray(indices, dtype=np.int64)


def check_text_roundtrip(generated, parsed) -> list[str]:
    """`from_text(to_text(g))` must give back the generated CSR arrays."""
    if generated.n != parsed.n:
        return [f"round-trip changed n: {generated.n} -> {parsed.n}"]
    if not (
        np.array_equal(generated.indptr, parsed.indptr)
        and np.array_equal(generated.indices, parsed.indices)
    ):
        return ["round-trip changed the CSR arrays"]
    return []


def check_ledger(ledger, ledger_cls) -> list[str]:
    out = []
    if ledger.total_rounds != sum(r for _, r in ledger.breakdown):
        out.append("ledger total differs from the sum of its breakdown")
    try:
        back = ledger_cls.from_json(ledger.to_json())
    except ValueError as e:
        return out + [f"ledger does not round-trip through JSON: {e}"]
    if back.total_rounds != ledger.total_rounds or back.breakdown != ledger.breakdown:
        out.append("ledger does not round-trip through JSON")
    return out


def check_decomposition(indptr, indices, clusters, bounds: dict[int, float]) -> CheckResult:
    """Partition, coloring, connectivity and center radius of a decomposition.

    `clusters` are objects with .color, .nodes and .center; `bounds` maps a
    color to the diameter bound its carver declared. 2 * ecc(center) inside
    the cluster bounds the cluster's diameter, so it must stay within that
    color's bound; the largest such eccentricity is reported as max_radius.
    """
    res = CheckResult()
    n = indptr.size - 1
    k = len(clusters)
    sizes = np.array([len(c.nodes) for c in clusters], dtype=np.int64)
    members = (
        np.concatenate([np.asarray(c.nodes, dtype=np.int64) for c in clusters])
        if k
        else np.zeros(0, dtype=np.int64)
    )
    if members.size and (members.min() < 0 or members.max() >= n):
        res.failures.append("cluster holds a node outside 0..n-1")
        return res
    cover = np.bincount(members, minlength=n)
    if (cover != 1).any():
        bad = np.flatnonzero(cover != 1)
        res.failures.append(
            f"{bad.size} node(s) not in exactly one cluster, first {int(bad[0])}"
        )
        return res

    cid = np.repeat(np.arange(k, dtype=np.int64), sizes)
    order = np.argsort(members, kind="stable")
    cid = cid[order]
    color_of = np.array([int(c.color) for c in clusters], dtype=np.int64)
    col = color_of[cid]

    used = np.unique(color_of)
    if used.size > color_bound(n):
        res.failures.append(f"{used.size} colors exceed the bound {color_bound(n)}")

    src, dst = _edges(indptr, indices)
    same_color = (col[src] == col[dst]) & (cid[src] != cid[dst])
    if same_color.any():
        e = int(np.flatnonzero(same_color)[0])
        res.failures.append(
            f"edge ({int(src[e])},{int(dst[e])}) joins two clusters of color {int(col[src[e]])}"
        )

    inner = cid[src] == cid[dst]
    adj = csr_matrix(
        (np.ones(int(inner.sum()), dtype=np.int8), (src[inner], dst[inner])), shape=(n, n)
    )
    ncomp, _ = connected_components(adj, directed=False)
    if ncomp != k:
        res.failures.append(f"{ncomp} connected pieces for {k} clusters")
        return res

    # One BFS from a super-source wired to every center; clusters share no
    # edge in `adj`, so each node's distance is to its own cluster's center.
    centers = np.array([int(c.center) for c in clusters], dtype=np.int64)
    if (centers < 0).any() or (centers >= n).any() or (cid[centers] != np.arange(k)).any():
        res.failures.append("a center lies outside its cluster")
        return res
    super_src = np.full(k, n, dtype=np.int64)
    wired = csr_matrix(
        (
            np.ones(adj.nnz + k, dtype=np.int8),
            (np.concatenate([src[inner], super_src]), np.concatenate([dst[inner], centers])),
        ),
        shape=(n + 1, n + 1),
    )
    dist = dijkstra(wired, directed=True, indices=n, unweighted=True)[:n] - 1
    ecc = np.zeros(k, dtype=np.int64)
    np.maximum.at(ecc, cid, dist.astype(np.int64))
    for i in range(k):
        bound = bounds.get(int(color_of[i]))
        if bound is None:
            res.failures.append(f"no carver bound recorded for color {int(color_of[i])}")
            break
        if 2 * ecc[i] > bound:
            res.failures.append(
                f"cluster {i}: 2*ecc(center)={2 * int(ecc[i])} exceeds bound {bound}"
            )
            break
    res.max_radius = int(ecc.max()) if k else 0
    return res
