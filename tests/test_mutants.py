"""The mutant table of `scripts/mutants.py` still points at real code.

The script runs every mutant against the tests its row names, in about
17 s, and fails on a snippet or test that has moved. This check catches
such a move within tier-1, without running a mutant: each row's snippet
occurs exactly once in its module, and each test it names is defined in
its file.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def mutant_table() -> tuple:
    """The rows of `scripts/mutants.py`'s `MUTANTS`."""
    spec = importlib.util.spec_from_file_location("_mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's string annotations through sys.modules
    sys.modules[spec.name] = mutants
    try:
        spec.loader.exec_module(mutants)
    finally:
        del sys.modules[spec.name]
    return mutants.MUTANTS


def test_every_mutant_row_matches_the_code_and_names_real_tests():
    problems = []
    for m in mutant_table():
        count = (ROOT / "src" / "netdecomp" / m.module).read_text(encoding="utf-8").count(m.snippet)
        if count != 1:
            problems.append(f"{m.name}: snippet occurs {count} times in {m.module}")
        for test in m.tests:
            file, _, name = test.partition("::")
            path = ROOT / file
            if not path.is_file():
                problems.append(f"{m.name}: no file {file}")
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            defined = {d.name for d in tree.body if isinstance(d, ast.FunctionDef)}
            if name.partition("[")[0] not in defined:
                problems.append(f"{m.name}: {file} defines no {name}")
    assert not problems, "\n".join(problems)
