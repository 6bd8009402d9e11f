"""CheckReport.scan, the residual scan every check suite records through."""

from fractions import Fraction

from psalib import fixtures
from psalib.cli import applicable_suites, run_suites
from psalib.exprcore import ChartContext
from psalib.report import CheckReport, components


def test_scan_stops_at_first_nonzero_and_writes_each_witness_shape():
    ctx = ChartContext(coords=("x",))
    x, z = ctx.expr("x"), ctx.zero()
    rec = CheckReport()
    consumed = []

    def cases():
        for label, res in (("zero ", z), ("first = ", x), ("never ", x)):
            consumed.append(label)
            yield label, res

    assert not rec.scan("presym.def-i", cases())
    assert consumed == ["zero ", "first = "]
    assert rec.scan("presym.def-ii", [("a", z), ("b", Fraction(0))])
    assert not rec.scan("lsa.left-symmetric", [
        ("(e1): residual = ", (Fraction(0), Fraction(0))),
        ("(e2): residual = ", (Fraction(-1), Fraction(1, 2)))], ("e1", "e2"))
    assert not rec.scan("algebroid.jacobi", [
        ("(e1): residual = ", (z, x))], ("e1", "e2"))
    assert not rec.scan("exact.sequence", [("ok", False), ("broken", True)])
    assert not rec.scan("para.torsion-free", components(
        "(e1, e2) ", (z, -x), ("e1", "e2")))
    got = [(c.check_id, c.status, c.witness) for c in rec.checks]
    assert got == [
        ("presym.def-i", "fail", "first = x"),
        ("presym.def-ii", "pass", None),
        ("lsa.left-symmetric", "fail", "(e2): residual = -1*e1 + 1/2*e2"),
        ("algebroid.jacobi", "fail", "(e1): residual = (x)*e2"),
        ("exact.sequence", "fail", "broken"),
        ("para.torsion-free", "fail", "(e1, e2) component e2: -x"),
    ]


def test_bool_cases_record_verdicts_that_are_not_residual_scans():
    """A check with no residual (a rank count, a singular matrix, a failed
    solve) hands scan at most one (witness, True) case: none records pass
    with no witness, one records fail with its label as the witness."""
    rec = CheckReport()

    def rank_case(got, need):
        if got != need:
            yield f"spanning sections have rank {got}, need {need}", True

    assert rec.scan("dirac.half-rank", rank_case(2, 2))
    assert not rec.scan("dirac.half-rank", rank_case(1, 2))
    assert [(c.check_id, c.status, c.witness) for c in rec.checks] \
        == [("dirac.half-rank", "pass", None),
            ("dirac.half-rank", "fail",
             "spanning sections have rank 1, need 2")]


def test_skip_records_every_id_with_one_reason():
    rec = CheckReport()
    rec.skip("not evaluated: r", "presym.def-i", "presym.def-ii")
    assert [(c.check_id, c.status, c.witness) for c in rec.checks] \
        == [("presym.def-i", "skipped", "not evaluated: r"),
            ("presym.def-ii", "skipped", "not evaluated: r")]


def test_components_yields_only_nonzero_components():
    ctx = ChartContext(coords=("x",))
    x, z = ctx.expr("x"), ctx.zero()
    names = ("e1", "e2", "e3", "e4")
    assert list(components("(e1) ", (z, x, z, -x), names)) == [
        ("(e1) component e2: ", x), ("(e1) component e4: ", -x)]
    assert list(components("(e1) ", (z, z), names)) == []

    consumed = []

    def vec():
        for name, value in zip(names, (z, z, x, x)):
            consumed.append(name)
            yield value

    cases = components("(e1) ", vec(), names)
    assert next(cases) == ("(e1) component e3: ", x)
    assert consumed == ["e1", "e2", "e3"]

    rec = CheckReport()
    assert rec.scan("presym.def-i", [("(e1,e2,e1): ", (z, z))])
    assert not rec.scan("presym.def-ii", components(
        "(e1,e2,e1): ", (z, z, Fraction(-1, 2) * x, x), names))
    assert [(c.check_id, c.status, c.witness) for c in rec.checks] \
        == [("presym.def-i", "pass", None),
            ("presym.def-ii", "fail", "(e1,e2,e1): component e3: -1/2*x")]


def test_fixture_scans_receive_only_nonzero_residuals(monkeypatch):
    """Every suite yields only the residuals that can be a witness, so on
    the passing registry fixtures scan sees no case at all, and no label
    is formatted for an instance that passes."""
    seen = []
    scan = CheckReport.scan

    def recording(self, check_id, cases, names=()):
        cases = list(cases)
        seen.extend((check_id, label) for label, _ in cases)
        return scan(self, check_id, cases, names)

    monkeypatch.setattr(CheckReport, "scan", recording)
    for name in fixtures.REGISTRY_NAMES:
        bundle = fixtures.build(name)
        assert run_suites(bundle, applicable_suites(bundle)).passed()
    assert seen == []
