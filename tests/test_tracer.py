"""The benchmark's tracer binds library names by string and by object, so
a rename in the library breaks it without failing any other test.  This
loads `perfbench/tracer.py` as it is (it only reads `perfbench/`) and
traces one check."""

import importlib.util
import sys
from pathlib import Path

from psalib import fixtures
from psalib.presym import check_presymplectic

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_check_counts_every_section_product(monkeypatch):
    tracer = _load_tracer(monkeypatch).Tracer()
    want = check_presymplectic(fixtures.r2n_structure(2)).text_lines()
    E = fixtures.r2n_structure(2)
    tracer.install()
    try:
        got = check_presymplectic(E).text_lines()
    finally:
        tracer.uninstall()
    assert got == want
    # the scalar-rule scans alone ask for 2 r^2 products; def-i, def-ii
    # and T ask for more through the same name
    assert tracer.summary(0.0)["presym.star.calls"] > 2 * E.rank ** 2
