"""Every function, method and class of the library is named somewhere,
and outside the tests unless TEST_ONLY says what keeps it.

An AST scan of the library, the tests, the scripts and the benchmark.  A
definition counts as used when its name appears outside the definition
itself as a name, an attribute, an imported name or a string constant
(the benchmark's tracer wraps methods by their name as a string); the
strings of a module's `__all__` do not count.  Dunders are exempt.  A
method that shares its name with a used one cannot be told apart from it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/psalib", "tests", "scripts", "perfbench")
CHECKED = "src/psalib/"
TESTS = "tests/"

# Library definitions that only the tests name, each with the ROADMAP item
# or the construction of the paper that keeps it.
TEST_ONLY = {
    "extract_phi": "the paper's obstruction tensor phi of an exact "
                   "algebroid with a splitting, the converse of "
                   "twisted_product",
    "splitting_equivalence": "ROADMAP item 1: psa classify checks its "
                             "theta with it",
    "cochain_from_vector": "ROADMAP item 13: moves into the tests",
    "vector_from_cochain": "ROADMAP item 13: moves into the tests",
    "solve": "ROADMAP item 1: the linear solve of psa classify",
    "evaluate": "ROADMAP item 4(a): the random-point oracle",
    "metric_from": "the paper's pseudo-Riemannian metric (x, P y) of a "
                   "para-complex structure",
    "tensor_T": "the paper's tensor T of a pre-symplectic algebroid",
    "associator": "the paper's associator: a pre-symplectic algebroid "
                  "is not left-symmetric",
}


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
    constant outside `__all__`."""
    exports = {id(node) for stmt in tree.body
               if isinstance(stmt, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "__all__"
                       for t in stmt.targets)
               for node in ast.walk(stmt.value)}
    out = []
    for node in ast.walk(tree):
        if id(node) in exports:
            continue
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


def reached_only_by_tests(trees):
    """The names of the checked definitions that only the tests name."""
    return sorted(entry.rsplit(": ", 1)[1] for entry in unused_definitions(
        {rel: tree for rel, tree in trees.items()
         if not rel.startswith(TESTS)}))


def scanned_trees():
    return {path.relative_to(ROOT).as_posix():
            ast.parse(path.read_text(encoding="utf-8"))
            for top in SCANNED for path in sorted((ROOT / top).glob("*.py"))}


def test_every_definition_is_named_outside_itself():
    assert unused_definitions(scanned_trees()) == []


def test_definitions_only_tests_reach_are_listed():
    """Read without the tests, the library, the scripts and the benchmark
    name every definition but those TEST_ONLY lists.  A name shared
    between classes is invisible to this scan: a FormField.value that
    only tests call hides behind the MetricField.value the library
    calls."""
    assert reached_only_by_tests(scanned_trees()) == sorted(TEST_ONLY)


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


def test_the_scan_sees_a_definition_only_tests_name():
    lib = ast.parse("__all__ = ['kept', 'exported']\n"
                    "def kept():\n"
                    "    pass\n"
                    "def exported():\n"
                    "    return kept()\n")
    user = ast.parse("from lib import exported\n")
    assert reached_only_by_tests({CHECKED + "lib.py": lib,
                                  TESTS + "t.py": user}) == ["exported"]
