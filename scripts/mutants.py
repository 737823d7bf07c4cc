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
to a fresh copy and runs the row's tests against it. The runner imports
pytest, numpy and hypothesis once and runs each pytest session in a forked
child that works in its copy, so the copy's `src/` (the `pythonpath` of its
`pyproject.toml`) is where the child first imports the package from; the
runner itself never imports the package. Every run uses the `mutants`
hypothesis profile of `tests/conftest.py`, which reports a fuzz test's
first failing example without shrinking it. A mutant is killed when every
test its row names fails (for a parametrized test, at least one of its
cases). The runner exits 1 if a snippet no longer matches, a named test
fails on the unmutated copy or is not found, or a mutant survives: a
refactor that moves a snippet must update its row.
"""

from __future__ import annotations

import os
import re
import shutil
import sys
import tempfile
import time
import traceback
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
            "tests/test_verify.py::test_induced_diameter_numpy_layers_match_floyd_warshall[1]",
            "tests/test_verify.py::test_local_graph_matches_dict_induced_subgraph",
        ),
    ),
    Mutant(
        "small set's rows keep targets outside the set",
        "verify.py",
        "[[index[w] for w in row if w in index] for row in rows]",
        "[[index.get(w, -1) for w in row] for row in rows]",
        (
            "tests/test_verify.py::test_induced_diameter_matches_floyd_warshall",
            "tests/test_verify.py::test_local_graph_matches_dict_induced_subgraph",
        ),
    ),
    Mutant(
        "position buffer reset skips the set's highest node",
        "verify.py",
        "pos[nodes] = -1",
        "pos[nodes[:-1]] = -1",
        ("tests/test_verify.py::test_clusters_measured_in_sequence_share_a_clean_position_buffer",),
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
        "claim's first flood counts its last layer as members",
        "weak.py",
        "split = cum[max_rounds - 1] if max_rounds else 0",
        "split = cum[min(max_rounds, len(cum) - 1)]",
        ("tests/test_weak.py::test_claim_equals_its_definition_at_every_layer_width",),
    ),
    Mutant(
        "components' numpy finish leaves its nodes' list stamps unwritten",
        "graph.py",
        "for w in found:\n                        stamp[w] = gen",
        "for w in found:\n                        pass",
        ("tests/test_graph.py::test_components_wide_enough_to_finish_in_numpy",),
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
    """Run `tests` in a forked child that works in `copy`, against its own
    src/: the exit code, the node ids that failed or errored, and the
    output."""
    log = copy / "pytest.log"
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            import pytest  # imported by `main` before the fork

            fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
            os.dup2(fd, 1)
            os.dup2(fd, 2)
            os.chdir(copy)
            sys.dont_write_bytecode = True
            code = pytest.main(
                ["-q", "-rfE", "-p", "no:cacheprovider", "--hypothesis-profile", "mutants", *tests]
            )
        except BaseException:
            traceback.print_exc()  # into the log, once it is open
            raise
        finally:  # the child never returns into the runner's own code
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    out = log.read_text()
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+?)(?: - .*)?$", out, re.M))
    return code, failed, out


def _caught(test: str, failed: set[str]) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failed)


def main() -> int:
    # the runner forks its pytest sessions, so it keeps to one thread:
    # OpenBLAS would otherwise start a pool of its own when numpy is imported
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import hypothesis  # noqa: F401  imported once, before the children fork
    import numpy  # noqa: F401
    import pytest  # noqa: F401

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
