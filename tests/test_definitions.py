"""Every function, method and class of the library is named somewhere,
and outside the tests unless TEST_ONLY says what keeps it.

An AST scan of the library, the tests, the scripts and the benchmark.  A
definition counts as used when its name appears outside the definition
itself as a name, an attribute, an imported name or a string constant
(the benchmark's tracer wraps methods by their name as a string); the
strings of a module's `__all__` do not count.  Dunders are exempt.  A
method that shares its name with a used one cannot be told apart from it.

A second scan holds the parameters: every parameter with a default is
set by some call in the library, the scripts or the benchmark, unless
DEFAULT_KEPT says what keeps it.
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
    "associator": "the paper's associator: a pre-symplectic algebroid "
                  "is not left-symmetric",
}


# Defaulted parameters that no call outside the tests sets, each with the
# ROADMAP item or the test that keeps it.
DEFAULT_KEPT = {
    "evaluate(func_polys)": "ROADMAP item 4(a): the random-point oracle "
                            "instantiates the formal functions",
    "realize(description)": "the psafile round trip carries a bundle's "
                            "description through emit and realize",
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


def defaulted_parameters(tree):
    """(callee name, parameter, position or None, line) of every parameter
    with a default.  The position counts the arguments a call passes, so a
    method's self is not counted; a keyword-only parameter has none.  An
    __init__ is called by its class's name."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                bound = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list)
                callee = cls if child.name == "__init__" else child.name
                first = len(positional) - len(a.defaults)
                for i in range(first, len(positional)):
                    out.append((callee, positional[i].arg, i - bound,
                                child.lineno))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        out.append((callee, arg.arg, None, child.lineno))
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return out


def calls(tree):
    """(callee name, positional count, keywords) of every call; a *args
    splat counts as every position, a **kwargs splat as every keyword
    (None)."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            callee = node.func.id
        elif isinstance(node.func, ast.Attribute):
            callee = node.func.attr
        else:
            continue
        npos = float("inf") if any(isinstance(x, ast.Starred)
                                   for x in node.args) else len(node.args)
        keys = {k.arg for k in node.keywords}
        out.append((callee, npos, None if None in keys else keys))
    return out


def unset_defaults(trees):
    """'path:line: callee(parameter)' of each defaulted parameter of a
    checked module that no call outside the tests sets, by position or by
    keyword; trees maps path to module.  Callees match by bare name, as
    in unused_definitions, so a call to any function or method of the
    same name counts, and so does a call that passes a parameter on
    unchanged (artifact=artifact).  A function called through a reference
    (a callback, a monkeypatch, getattr) has no call the scan sees."""
    seen = {}
    for rel, tree in trees.items():
        if rel.startswith(TESTS):
            continue
        for callee, npos, keys in calls(tree):
            seen.setdefault(callee, []).append((npos, keys))
    out = []
    for rel, tree in trees.items():
        if not rel.startswith(CHECKED):
            continue
        for callee, param, pos, line in defaulted_parameters(tree):
            if not any((pos is not None and npos > pos)
                       or keys is None or param in keys
                       for npos, keys in seen.get(callee, ())):
                out.append(f"{rel}:{line}: {callee}({param})")
    return sorted(out)


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


def test_every_defaulted_parameter_is_set_outside_the_tests():
    """A default that no library, script or benchmark call overrides is a
    knob only the tests turn, or none at all."""
    assert sorted(entry.rsplit(": ", 1)[1] for entry in
                  unset_defaults(scanned_trees())) == sorted(DEFAULT_KEPT)


def test_the_default_scan_sees_a_parameter_no_call_sets():
    lib = ast.parse("class C:\n"
                    "    def __init__(self, a, b=1):\n"
                    "        pass\n"
                    "    def m(self, x=0, *, y=None):\n"
                    "        return helper(x, z=2)\n"
                    "    @staticmethod\n"
                    "    def s(p=0):\n"
                    "        pass\n"
                    "def helper(w, z=0, tag=''):\n"
                    "    def inner(q=1):\n"
                    "        pass\n"
                    "    return inner()\n"
                    "def passed_on(k=None):\n"
                    "    return passed_on(k=k)\n"
                    "def splat(u=0, v=0):\n"
                    "    pass\n")
    script = ast.parse("import lib\n"
                       "lib.C(0).m(1)\n"
                       "lib.C.s(2)\n"
                       "lib.splat(**{})\n")
    test = ast.parse("from lib import C\n"
                     "C(0, b=2).m(y=1)\n"
                     "helper(0, tag='t')\n")
    assert unset_defaults({CHECKED + "lib.py": lib, "scripts/s.py": script,
                           TESTS + "t.py": test}) == [
        CHECKED + "lib.py:10: inner(q)",
        CHECKED + "lib.py:2: C(b)",
        CHECKED + "lib.py:4: m(y)",
        CHECKED + "lib.py:9: helper(tag)",
    ]
