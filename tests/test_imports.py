"""No module imports a name it never uses.

An AST scan of the library, the tests and the scripts.  A name counts as
used when it is read anywhere in its module, listed in `__all__`, or
named inside a string annotation.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/psalib", "tests", "scripts")

# (module path, name) -> why the import stays although nothing reads it
KEEP = {
    ("src/psalib/exactclass.py", "rank"):
        "perfbench's test_tracer_wraps_every_binding_and_restores_them "
        "reads exactclass.rank",
}


def imported_names(tree):
    """{bound name: line} of every import except `from __future__`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree):
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(e.value for e in node.value.elts)
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(n.id for n in ast.walk(ast.parse(node.value))
                            if isinstance(n, ast.Name))
    return used


def unused_imports(path: Path):
    """{(module path, name): line} of the names imported but unused."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    rel = path.relative_to(ROOT).as_posix()
    return {(rel, name): line
            for name, line in imported_names(tree).items() if name not in used}


def test_no_unused_imports():
    found = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).glob("*.py")):
            found.update(unused_imports(path))
    assert sorted(f"{rel}:{line}: {name}" for (rel, name), line
                  in found.items() if (rel, name) not in KEEP) == []
    # a kept import that is used again, or gone, leaves the keep-list
    assert set(KEEP) <= set(found)


def test_the_scan_sees_an_unused_import_and_the_uses_it_counts():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from typing import List as L\n"
              "from json import dumps, loads\n"
              "__all__ = ['dumps']\n"
              "def f(x: 'L[int]') -> None:\n"
              "    return sys.argv\n")
    tree = ast.parse(source)
    used = used_names(tree)
    assert sorted(set(imported_names(tree)) - used) == ["loads", "os"]
