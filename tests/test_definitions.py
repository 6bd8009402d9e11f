"""Every function, method and class of the library is named somewhere.

An AST scan of the library, the tests, the scripts and the benchmark.  A
definition counts as used when its name appears outside the definition
itself as a name, an attribute, an imported name or a string constant
(the benchmark's tracer wraps methods by their name as a string).
Dunders are exempt.  A method that shares its name with a used one
cannot be told apart from it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/psalib", "tests", "scripts", "perfbench")
CHECKED = "src/psalib/"


def definitions(tree):
    """(name, first line, last line) of every function, method and class
    that is not a dunder."""
    return [(node.name, node.lineno, node.end_lineno)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def named(tree):
    """(name, line) of every name, attribute, imported name and string
    constant."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            out.append((node.name.split(".")[-1], node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.value, node.lineno))
    return out


def unused_definitions(trees):
    """'path:line: name' of each definition in a checked module whose name
    appears nowhere outside its own lines; trees maps path to module."""
    uses = {}
    for rel, tree in trees.items():
        for name, line in named(tree):
            uses.setdefault(name, []).append((rel, line))
    out = []
    for rel, tree in trees.items():
        if not rel.startswith(CHECKED):
            continue
        for name, first, last in definitions(tree):
            if all(where == rel and first <= line <= last
                   for where, line in uses.get(name, ())):
                out.append(f"{rel}:{first}: {name}")
    return sorted(out)


def test_every_definition_is_named_outside_itself():
    trees = {path.relative_to(ROOT).as_posix():
             ast.parse(path.read_text(encoding="utf-8"))
             for top in SCANNED for path in sorted((ROOT / top).glob("*.py"))}
    assert unused_definitions(trees) == []


def test_the_scan_sees_an_unused_definition_and_the_uses_it_counts():
    lib = ast.parse("class C:\n"
                    "    def __init__(self):\n"
                    "        self.m()\n"
                    "    def m(self):\n"
                    "        return C()\n"
                    "    def wrapped(self):\n"
                    "        pass\n"
                    "def alone(n):\n"
                    "    return alone(n - 1)\n"
                    "def imported():\n"
                    "    pass\n")
    user = ast.parse("from lib import imported\n"
                     "TRACED = ('wrapped',)\n")
    assert unused_definitions({CHECKED + "lib.py": lib, "tests/t.py": user}) \
        == [CHECKED + "lib.py:1: C", CHECKED + "lib.py:8: alone"]
