"""Every name a library module imports is used in that module.

A leftover import hides which module really depends on which. The only
unused imports allowed are the names `perfbench/spans.py` patches (its
`PATCHES`): a module keeps such a name so that the tracer can wrap the calls
made through it. `__init__.py` is not checked, since what it imports is the
package's public surface.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "netdecomp").glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the import statements of `source` that no other
    expression in it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def patched_names() -> set[tuple[str, str]]:
    """(module file stem, name) of every import the benchmark tracer patches."""
    spec = importlib.util.spec_from_file_location("_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {(mod.__name__.rpartition(".")[2], name) for mod, name, _ in spans.PATCHES}


def test_unused_imports_finds_a_leftover():
    source = "from .graph import NodeMask, _bfs_tree\nimport numpy as np\nnp.ones(NodeMask)\n"
    assert unused_imports(source) == ["_bfs_tree"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    allowed = {name for stem, name in patched_names() if stem == path.stem}
    unused = set(unused_imports(path.read_text(encoding="utf-8")))
    assert unused <= allowed, f"{path.name} imports {sorted(unused - allowed)} without using them"
