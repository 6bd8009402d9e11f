"""Product structures, induced metrics, Levi-Civita connections, and the
restriction of the metric connection to the eigenbundles."""

import time

import pytest

from psalib import parakahler
from psalib.algebroid import ChartAlgebroid, FormField, check_2cocycle
from psalib.exactlinalg import ExprMatrix
from psalib.exprcore import ChartContext
from psalib.parakahler import (MetricField, ParaComplexOp,
                               _levi_civita_linear, check_levi_civita,
                               check_metric, check_paracomplex,
                               check_star_equals_nabla, levi_civita,
                               metric_from)
from psalib.presym import pseudo_semidirect


def point_lsa2_semidirect():
    """Doubled structure of the two-dim algebra with e1*e2 = e2 over a
    coordinate-free chart."""
    ctx = ChartContext(coords=())
    z, one = ctx.zero(), ctx.one()
    table = [[[z, z], [z, one]], [[z, z], [z, z]]]
    A = ChartAlgebroid(ctx, ("e1", "e2"), [[], []], table, kind="lsa")
    return pseudo_semidirect(A)


def abelian_point_semidirect():
    ctx = ChartContext(coords=())
    z = ctx.zero()
    table = [[[z, z], [z, z]], [[z, z], [z, z]]]
    A = ChartAlgebroid(ctx, ("e1", "e2"), [[], []], table, kind="lsa")
    return pseudo_semidirect(A)


def r1_semidirect_with_weight():
    """Tangent structure of a one-dim chart with d1*d1 = u d1, doubled."""
    ctx = ChartContext(coords=("u",))
    u, one = ctx.expr("u"), ctx.one()
    A = ChartAlgebroid(ctx, ("d1",), [[one]], [[[u]]], kind="lsa")
    return pseudo_semidirect(A)


def block_reflection(E):
    """P fixing the first half of the frame and negating the second."""
    ctx = E.ctx
    one, z = ctx.one(), ctx.zero()
    half = E.rank // 2
    rows = [[one if a == b else z for b in range(E.rank)]
            for a in range(half)]
    rows += [[-one if a == b else z for b in range(E.rank)]
             for a in range(half, E.rank)]
    return ParaComplexOp(ctx, rows)


def test_lsa2_paracomplex_pass_and_eigenbundles():
    E = point_lsa2_semidirect()
    P = block_reflection(E)
    report, plus, minus = check_paracomplex(E, P)
    assert report.passed()
    one, z = E.ctx.one(), E.ctx.zero()
    assert [list(s) for s in plus.sections] == [[one, z, z, z],
                                                [z, one, z, z]]
    assert [list(s) for s in minus.sections] == [[z, z, one, z],
                                                 [z, z, z, one]]


def test_identity_operator_fails_anti_invariance():
    E = point_lsa2_semidirect()
    P = ParaComplexOp(E.ctx, ExprMatrix.identity(E.ctx, 4))
    report, plus, minus = check_paracomplex(E, P)
    by_id = {c.check_id: c for c in report.checks}
    assert by_id["para.squares-to-identity"].status == "pass"
    assert by_id["para.pairing-anti-invariance"].status == "fail"


def test_nonsquaring_operator_gates_the_report():
    E = point_lsa2_semidirect()
    z, one = E.ctx.zero(), E.ctx.one()
    two = E.ctx.number(2)
    rows = [[two if a == b else z for b in range(4)] for a in range(4)]
    report, plus, minus = check_paracomplex(E, ParaComplexOp(E.ctx, rows))
    assert plus is None and minus is None
    by_id = {c.check_id: c for c in report.checks}
    assert by_id["para.squares-to-identity"].status == "fail"
    assert by_id["para.integrable"].status == "skipped"


def test_shear_perturbation_fails_integrability():
    # lower-left block shear by a non-constant symmetric tensor passes the
    # two algebraic checks but is not integrable for the flat chart product
    ctx = ChartContext(coords=("x", "y"))
    one, z, y = ctx.one(), ctx.zero(), ctx.expr("y")
    A = ChartAlgebroid(ctx, ("t1", "t2"),
                       [[one, z], [z, one]],
                       [[[z, z], [z, z]], [[z, z], [z, z]]], kind="lsa")
    E = pseudo_semidirect(A, dual_names=("c1", "c2"))
    rows = [[one, z, z, z],
            [z, one, z, z],
            [y, z, -one, z],
            [z, z, z, -one]]
    report, plus, minus = check_paracomplex(E, ParaComplexOp(ctx, rows))
    by_id = {c.check_id: c for c in report.checks}
    assert by_id["para.squares-to-identity"].status == "pass"
    assert by_id["para.pairing-anti-invariance"].status == "pass"
    assert by_id["para.integrable"].status == "fail"
    assert by_id["para.integrable"].witness


def test_eigen_split_times_its_kernel_solves(monkeypatch):
    # the eigenbundles are solved inside the check, so its wall time
    # covers the solves
    def slow_kernel(m):
        time.sleep(0.02)
        return kernel(m)

    kernel = parakahler.expr_kernel_basis
    monkeypatch.setattr(parakahler, "expr_kernel_basis", slow_kernel)
    E = point_lsa2_semidirect()
    report, plus, minus = check_paracomplex(E, block_reflection(E))
    assert report.passed()
    assert report.find("para.eigen-split").wall_ms >= 20


def test_lsa2_metric_is_the_block_swap():
    E = point_lsa2_semidirect()
    P = block_reflection(E)
    g = metric_from(E, P)
    one, z = E.ctx.one(), E.ctx.zero()
    want = [[z, z, one, z], [z, z, z, one],
            [one, z, z, z], [z, one, z, z]]
    for a in range(4):
        for b in range(4):
            assert (g.matrix.rows[a][b] - want[a][b]).is_zero()
    report, g2 = check_metric(E, P)
    assert report.passed()
    assert g2 is not None


def test_metric_from_rejects_non_symmetric_and_degenerate_metrics():
    E = point_lsa2_semidirect()
    eye = ExprMatrix.identity(E.ctx, 4)
    # P = id gives g = the skew pairing itself
    with pytest.raises(ValueError, match="symmetric"):
        metric_from(E, ParaComplexOp(E.ctx, eye))
    # P = 0 gives g = 0: symmetric, but degenerate
    with pytest.raises(ValueError, match="degenerate"):
        metric_from(E, ParaComplexOp(E.ctx, eye.sub(eye)))


def test_pairing_anti_invariance_matches_mixed_slot_identity():
    # with P squaring to the identity, (Px,Py) = -(x,y) is the same
    # condition as (Px,y) + (x,Py) = 0; exhibit agreement on a passing
    # and a failing operator
    E = point_lsa2_semidirect()
    omega = E.pairing

    def anti(P):
        m = P.matrix.transpose().matmul(omega).matmul(P.matrix).add(omega)
        return m.is_zero()

    def mixed(P):
        m = P.matrix.transpose().matmul(omega).add(
            omega.matmul(P.matrix))
        return m.is_zero()

    good = block_reflection(E)
    assert anti(good) and mixed(good)
    one, z = E.ctx.one(), E.ctx.zero()
    bad = ParaComplexOp(E.ctx, [[one, z, z, z], [z, one, z, z],
                                [z, z, one, z], [z, z, z, -one]])
    sq = bad.matrix.matmul(bad.matrix)
    assert sq == ExprMatrix.identity(E.ctx, 4)
    assert not anti(bad) and not mixed(bad)


def test_levi_civita_flat_constant_metric_vanishes():
    ctx = ChartContext(coords=("x", "y"))
    one, z = ctx.one(), ctx.zero()
    L = ChartAlgebroid(ctx, ("d1", "d2"),
                       [[one, z], [z, one]],
                       [[[z, z], [z, z]], [[z, z], [z, z]]], kind="lie")
    g = MetricField(ctx, [[one, z], [z, ctx.number(2)]])
    for solve in (levi_civita, _levi_civita_linear):
        nabla = solve(L, g)
        assert all(nabla.table[a][b][c].is_zero()
                   for a in range(2) for b in range(2) for c in range(2))


def test_levi_civita_routes_agree_and_residuals_vanish():
    E = point_lsa2_semidirect()
    P = block_reflection(E)
    g = metric_from(E, P)
    L = E.commutator_algebroid()
    report, nabla = check_levi_civita(L, g)
    assert report.passed()
    assert nabla is not None
    # perturbing any single coefficient breaks a defining residual
    gamma = [[[x for x in cell] for cell in row] for row in nabla.table]
    gamma[0][1][1] = gamma[0][1][1] + E.ctx.one()
    bad = ChartAlgebroid(L.ctx, L.names, L.anchor, gamma, kind="lsa")
    frames = [L.frame_section(a) for a in range(4)]
    torsion_broken = metric_broken = False
    for a in range(4):
        for b in range(4):
            lhs = L.bracket(frames[a], frames[b])
            fwd = bad.product(frames[a], frames[b])
            bwd = bad.product(frames[b], frames[a])
            if any(not (lhs[k] - fwd[k] + bwd[k]).is_zero()
                   for k in range(4)):
                torsion_broken = True
            for c in range(4):
                res = L.anchor_apply(frames[a], g.matrix.rows[b][c]) \
                    - g.value(bad.product(frames[a], frames[b]), frames[c]) \
                    - g.value(frames[b], bad.product(frames[a], frames[c]))
                if not res.is_zero():
                    metric_broken = True
    assert torsion_broken or metric_broken


def test_levi_civita_rejects_degenerate_metric():
    ctx = ChartContext(coords=())
    z, one = ctx.zero(), ctx.one()
    L = ChartAlgebroid(ctx, ("e1", "e2"), [[], []],
                       [[[z, z], [z, z]], [[z, z], [z, z]]], kind="lie")
    g = MetricField(ctx, [[one, z], [z, z]])
    report, nabla = check_levi_civita(L, g)
    assert nabla is None
    assert not report.passed()


def test_lsa2_full_parakahler_suite():
    E = point_lsa2_semidirect()
    P = block_reflection(E)
    report = check_star_equals_nabla(E, P)
    assert report.passed()
    ids = {c.check_id for c in report.checks}
    assert "para.star-equals-nabla-plus" in ids
    assert "para.star-equals-nabla-minus" in ids
    assert "para.eigen-g-isotropic" in ids
    assert "para.nabla-P-commute" in ids


def test_abelian_point_star_and_nabla_both_vanish():
    E = abelian_point_semidirect()
    P = block_reflection(E)
    report = check_star_equals_nabla(E, P)
    assert report.passed()
    g = metric_from(E, P)
    nabla = levi_civita(E.commutator_algebroid(), g)
    assert all(nabla.table[a][b][c].is_zero()
               for a in range(4) for b in range(4) for c in range(4))


def test_r1_weighted_nabla_restricts_to_the_chart_connection():
    E = r1_semidirect_with_weight()
    P = block_reflection(E)
    report = check_star_equals_nabla(E, P)
    assert report.passed()
    g = metric_from(E, P)
    nabla = levi_civita(E.commutator_algebroid(), g)
    # on the +1 eigenbundle (the tangent block) the connection is the
    # chart weight: nabla_{d1} d1 = u d1
    u = E.ctx.expr("u")
    assert (nabla.table[0][0][0] - u).is_zero()
    assert nabla.table[0][0][1].is_zero()


def test_induced_form_is_closed_when_suite_passes():
    # g with the commutation and anti-invariance properties recovers a
    # closed 2-form: w(x,y) = g(x, P y) is a cocycle of the commutator
    E = point_lsa2_semidirect()
    P = block_reflection(E)
    g = metric_from(E, P)
    back = g.matrix.matmul(P.matrix)
    assert back == E.pairing
    L = E.commutator_algebroid()
    comps = {(a, b): back.rows[a][b]
             for a in range(4) for b in range(a + 1, 4)
             if not back.rows[a][b].is_zero()}
    form = FormField(E.ctx, 4, 2, comps)
    assert check_2cocycle(L, form).passed()


def test_operator_rank_mismatch_raises():
    E = point_lsa2_semidirect()
    one = E.ctx.one()
    with pytest.raises(ValueError, match="rank"):
        check_paracomplex(E, ParaComplexOp(E.ctx, [[one]]))
