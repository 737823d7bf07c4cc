"""Spans around the calls between `netdecomp` layers, recorded from outside.

`Tracer.install` replaces the names each module imported from another layer
(and the black box handed to the carver) with wrappers that open a span,
count the call and restore everything on exit. A span records its name, its
parent and its start and end; a layer's self time is its spans' time minus
the time of their child spans, so within a phase the self times add up to
the phase's own span.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter, defaultdict

# The package re-exports functions named `decompose` and `refine`, which
# shadow those submodules as attributes, so fetch the modules themselves.
decompose_mod, refine_mod, strong_mod, verify_mod, weak_mod = (
    importlib.import_module(f"netdecomp.{m}")
    for m in ("decompose", "refine", "strong", "verify", "weak")
)

# (module, name it imported from another layer, layer the call belongs to)
PATCHES = [
    (strong_mod, "connected_components", "graph.components"),
    (weak_mod, "connected_components", "graph.components"),
    (refine_mod, "connected_components", "graph.components"),
    (decompose_mod, "induced_diameter", "decompose.diameter"),
    (verify_mod, "induced_diameter", "verify.diameter"),
    (decompose_mod, "carve_strong", "strong"),
    (decompose_mod, "refine", "refine"),
    (refine_mod, "cut_or_cluster", "refine.cut_or_cluster"),
]


class Tracer:
    """In-memory span list plus per-layer counters for one operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start ns, end ns]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, parent, time.perf_counter_ns(), 0]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[3] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn):
        count = self._count

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            count(name, args, result)
            return result

        return traced

    def _count(self, name: str, args, result) -> None:
        c = self.counts
        if name == "graph.components":
            c["graph.components_calls"] += 1
            c["graph.components_alive_nodes"] += args[1].count()
        elif name.endswith(".diameter"):
            c["graph.diameter_calls"] += 1
            c["graph.diameter_inexact"] += int(not result.exact)
        elif name == "weak":
            c["weak.calls"] += 1
            c["weak.alive_nodes"] += args[1].count()
            c["weak.dead_nodes"] += len(result[0].dead)
        elif name == "strong":
            c["strong.calls"] += 1
        elif name == "refine.cut_or_cluster":
            c["refine.cut_or_cluster_calls"] += 1
            c["refine.cuts" if result[0].variant == "cut" else "refine.balls"] += 1

    @contextlib.contextmanager
    def install(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCHES]
        try:
            for (mod, attr, layer), (_, _, fn) in zip(PATCHES, saved):
                setattr(mod, attr, self.wrap(layer, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child = [0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for (name, _, t0, t1), c in zip(self.spans, child):
            out[name] += (t1 - t0 - c) / 1e9
        return dict(out)
