#!/usr/bin/env python3
"""Run the mutant table: each row breaks one guarantee in a copy of the
package and names the tests that must catch it.

Usage (from the repository root):

    python scripts/mutants.py

A row is a module of `src/netdecomp`, a snippet that must occur in it
exactly once, the snippet's replacement and the pytest node ids that must
fail on the mutant. The runner copies `src/`, `tests/` and `pyproject.toml`
into a temporary directory and first runs every named test there on the
unmutated copy, where all must pass. Then, for each row, it applies the row
to a fresh copy and runs the row's tests in a subprocess against it. Every
run uses the `mutants` hypothesis profile of `tests/conftest.py`, which
reports a fuzz test's first failing example without shrinking it. A
mutant is killed when every test its row names fails (for a parametrized
test, at least one of its cases). The runner exits 1 if a snippet no longer
matches, a named test fails on the unmutated copy or is not found, or a
mutant survives: a refactor that moves a snippet must update its row.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name under src/netdecomp
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "local CSR keeps targets outside the set",
        "verify.py",
        "keep = dst >= 0",
        "keep = dst >= -1",
        (
            "tests/test_verify.py::test_induced_diameter_matches_floyd_warshall",
            "tests/test_verify.py::test_local_graph_matches_dict_induced_subgraph",
        ),
    ),
    Mutant(
        "bitset eccentricities off by one",
        "verify.py",
        "ecc[bits[: src.size] == 1] = step",
        "ecc[bits[: src.size] == 1] = step + 1",
        ("tests/test_verify.py::test_induced_diameter_matches_floyd_warshall",),
    ),
    Mutant(
        "array route's farthest node is the last of the tied",
        "verify.py",
        "return int(dist.argmax())",
        "return int(dist.size - 1 - dist[::-1].argmax())",
        ("tests/test_verify.py::test_array_route_equals_the_list_route[gnp-1]",),
    ),
    Mutant(
        "numpy BFS layer re-reaches the source",
        "verify.py",
        "nb = nb[dist[nb] < 0]",
        "nb = nb[dist[nb] <= 0]",
        ("tests/test_verify.py::test_induced_diameter_numpy_layers_match_floyd_warshall",),
    ),
    Mutant(
        "certified upper bound labelled exact",
        "verify.py",
        "return DiameterResult(ub, True, False)",
        "return DiameterResult(ub, True, True)",
        ("tests/test_verify.py::test_induced_diameter_bound_when_budget_runs_out",),
    ),
    Mutant(
        "halving ties go to S1",
        "refine.py",
        "return (s1 if a1 < a2 else s2), a1, a2",
        "return (s1 if a1 <= a2 else s2), a1, a2",
        ("tests/test_refine.py::test_fuzz_outcomes_verified_with_trace_oracle",),
    ),
    Mutant(
        "grown ball's BFS charged r* rounds, not r* + 1",
        "strong.py",
        "charge_bfs(led, r_star + 1)",
        "charge_bfs(led, r_star)",
        ("tests/test_strong.py::test_bfs_charges_equal_logged_r_star_plus_one",),
    ),
    Mutant(
        "outer side keeps the killed layer",
        "refine.py",
        "outer = _setdiff(ids, np.concatenate((inner, layer)))",
        "outer = _setdiff(ids, inner)",
        ("tests/test_refine.py::test_long_path_yields_single_layer_cut",),
    ),
    Mutant(
        "adjacency check counts a cluster's own edges",
        "verify.py",
        "keep = (cu >= 0) & (cv >= 0) & (cu != cv)",
        "keep = (cu >= 0) & (cv >= 0)",
        ("tests/test_verify.py::test_valid_two_coloring_of_p4",),
    ),
    Mutant(
        "claim congestion drops the reversed orientation",
        "weak.py",
        "c += uses[p] if up[p] == v else extra.get((p, v), 0)",
        "c += 0",
        ("tests/test_weak.py::test_linial_saks_declares_exact_congestion",),
    ),
    Mutant(
        "numpy BFS layer takes each node's last discoverer",
        "graph.py",
        "np.minimum.at(first, new, hit)",
        "np.maximum.at(first, new, hit)",
        ("tests/test_graph.py::test_bfs_kernel_numpy_layers_match_the_node_loop[1]",),
    ),
    Mutant(
        "numpy census layer stops one discovery late",
        "graph.py",
        "if 0 < need <= len(new):",
        "if 0 < need < len(new):",
        ("tests/test_graph.py::test_census_numpy_layers_match_the_reference[1]",),
    ),
    Mutant(
        "preorder prefix runs on across sibling runs",
        "graph.py",
        "before - before[parents.searchsorted(parents)]",
        "before",
        ("tests/test_graph.py::test_preorder_read_off_wide_layers_equals_the_walk[1]",),
    ),
    Mutant(
        "a part mask answers the split on any graph",
        "graph.py",
        "if mask._component_of is g:",
        "if mask._component_of is not None:",
        ("tests/test_strong.py::test_part_masks_carry_their_component",),
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)


def _pytest(copy: Path, tests) -> tuple[int, set[str], str]:
    """Run `tests` in `copy` against its own src/: the exit code, the node
    ids that failed or errored, and the output."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--hypothesis-profile", "mutants", *tests],
        cwd=copy,
        env=env,
        capture_output=True,
        text=True,
    )
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+?)(?: - .*)?$", proc.stdout, re.M))
    return proc.returncode, failed, proc.stdout + proc.stderr


def _caught(test: str, failed: set[str]) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failed)


def main() -> int:
    start = time.perf_counter()
    problems = []
    with tempfile.TemporaryDirectory(prefix="netdecomp-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        for m in MUTANTS:
            count = (base / "src" / "netdecomp" / m.module).read_text().count(m.snippet)
            if count != 1:
                problems.append(f"{m.name}: snippet occurs {count} times in {m.module}")
        named = sorted({t for m in MUTANTS for t in m.tests})
        code, _, out = _pytest(base, named)
        if code != 0:
            problems.append(f"the named tests do not all pass unmutated:\n{out}")
        if problems:
            print("\n".join(problems))
            return 1
        print(f"unmutated: {len(named)} tests pass ({time.perf_counter() - start:.1f} s)")
        for i, m in enumerate(MUTANTS):
            t0 = time.perf_counter()
            copy = Path(tmp) / f"m{i}"
            _copy(copy)
            path = copy / "src" / "netdecomp" / m.module
            path.write_text(path.read_text().replace(m.snippet, m.replacement))
            _, failed, out = _pytest(copy, m.tests)
            missed = [t for t in m.tests if not _caught(t, failed)]
            verdict = "SURVIVED" if missed else "killed"
            print(f"{verdict:8}  {m.module:10} {m.name} ({time.perf_counter() - t0:.1f} s)")
            if missed:
                problems.append(f"{m.name}: not caught by {', '.join(missed)}\n{out}")
    print(f"{len(MUTANTS)} mutants, {time.perf_counter() - start:.1f} s")
    if problems:
        print("\n".join(problems))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
