"""Every name a library module imports is used in that module, and the
test oracles import nothing from the library but its data types.

A leftover import hides which module really depends on which. The only
unused imports allowed are the names `perfbench/spans.py` patches (its
`PATCHES`): a module keeps such a name so that the tracer can wrap the calls
made through it. `__init__.py` is not checked, since what it imports is the
package's public surface.

`tests/oracles.py` may take `Graph`, `NodeMask` and `Violation` from
`netdecomp`, and nothing else: an oracle that called the library's
traversals or diameter code would share the faults it is there to catch.
For the same reason the verifiers share no traversal code with the
algorithms. `verify.py`, which holds the diameter measurement too, takes
only `Graph`, `NodeMask`, the edge reader `_edge_array` and the id check
`_check_sorted_ids` from the package, and names no traversal workspace,
the one piece of the algorithms' machinery that a data type hands out.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "netdecomp").glob("*.py") if p.name != "__init__.py")
ORACLE_IMPORTS = {"Graph", "NodeMask", "Violation"}
VERIFY = ROOT / "src" / "netdecomp" / "verify.py"
VERIFY_IMPORTS = {"Graph", "NodeMask", "_edge_array", "_check_sorted_ids"}
# the algorithms' traversal workspace, `Graph.scratch`
WORKSPACE = {"scratch", "Scratch"}


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


def library_imports(source: str) -> set[str]:
    """What `source` imports from `netdecomp`: each name of a `from
    netdecomp... import` or of a relative `from . import` (inside the
    package), and each `netdecomp...` module a plain `import` binds."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names if a.name.split(".")[0] == "netdecomp")
        elif isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "netdecomp"
        ):
            names.update(a.name for a in node.names)
    return names


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


def test_library_imports_finds_every_name():
    source = (
        "import numpy\nimport netdecomp.graph\nfrom netdecomp.graph import _bfs_layers\n"
        "from netdecomp import Graph, induced_diameter as diam\n"
    )
    expect = {"netdecomp.graph", "_bfs_layers", "Graph", "induced_diameter"}
    assert library_imports(source) == expect


def test_oracles_import_only_the_data_types():
    names = library_imports((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    assert names <= ORACLE_IMPORTS, f"oracles.py imports {sorted(names - ORACLE_IMPORTS)}"


def test_verify_imports_only_the_data_types():
    names = library_imports(VERIFY.read_text(encoding="utf-8"))
    assert names <= VERIFY_IMPORTS, f"verify.py imports {sorted(names - VERIFY_IMPORTS)}"


def test_verify_names_no_workspace():
    tree = ast.parse(VERIFY.read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & WORKSPACE, f"verify.py names {sorted(names & WORKSPACE)}"
