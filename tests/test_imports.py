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
algorithms: `verify.py` takes only `Graph`, `NodeMask`, the edge reader
`_edge_array` and `induced_diameter` from the package, and
`induced_diameter`, with every definition of `graph.py` it reaches by name,
names none of the algorithms' traversal machinery.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "netdecomp").glob("*.py") if p.name != "__init__.py")
ORACLE_IMPORTS = {"Graph", "NodeMask", "Violation"}
VERIFY_IMPORTS = {"Graph", "NodeMask", "_edge_array", "induced_diameter"}
# the BFS kernel, workspace, components scan, census, claim and preorder
# that the algorithms traverse with
ALGORITHM_TRAVERSALS = {
    "_bfs_layers",
    "Scratch",
    "scratch",
    "connected_components",
    "_census",
    "_claim",
    "_preorder",
}


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


def reached_names(source: str, entry: str) -> set[str]:
    """Every name (variable or attribute) mentioned by the top-level
    definition `entry` of `source` and by each top-level definition it
    reaches by name, transitively. Type annotations are not followed."""
    tree = ast.parse(source)
    defs = {d.name: d for d in tree.body if isinstance(d, (ast.FunctionDef, ast.ClassDef))}
    annotations = set()
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if ann is not None:
                annotations.update(map(id, ast.walk(ann)))
    names, todo, done = set(), [entry], set()
    while todo:
        name = todo.pop()
        if name in done:
            continue
        done.add(name)
        for node in ast.walk(defs[name]):
            if id(node) in annotations:
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        todo.extend(names & defs.keys())
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


def test_reached_names_follows_calls_but_not_annotations():
    source = (
        "def entry(g: Scratch):\n    return helper(g)\n"
        "def helper(g):\n    return g.scratch\n"
        "def unused():\n    return _bfs_layers\n"
        "class Scratch:\n    x = _census\n"
    )
    names = reached_names(source, "entry")
    assert {"helper", "scratch"} <= names
    assert not {"Scratch", "_bfs_layers", "_census"} & names


def test_verify_imports_only_the_data_types_edge_reader_and_diameter():
    names = library_imports((ROOT / "src" / "netdecomp" / "verify.py").read_text(encoding="utf-8"))
    assert names <= VERIFY_IMPORTS, f"verify.py imports {sorted(names - VERIFY_IMPORTS)}"


def test_induced_diameter_shares_no_traversal_with_the_algorithms():
    source = (ROOT / "src" / "netdecomp" / "graph.py").read_text(encoding="utf-8")
    shared = reached_names(source, "induced_diameter") & ALGORITHM_TRAVERSALS
    assert not shared, f"induced_diameter reaches {sorted(shared)}"
