"""Chart-level bracket and product structures, forms, derivatives."""

import pytest

from psalib.algebroid import (
    ChartAlgebroid,
    FormField,
    check_2cocycle,
    check_left_symmetric_algebroid,
    check_lie_algebroid,
    de_rham_d,
)
from psalib.exprcore import ChartContext


def tangent_r2() -> ChartAlgebroid:
    ctx = ChartContext(coords=("x", "y"))
    zero = [ctx.zero()] * 2
    table = [[tuple(zero)] * 2 for _ in range(2)]
    return ChartAlgebroid(ctx, ("d1", "d2"),
                          [[1, 0], [0, 1]], table, kind="lie")


def sphere_leaf() -> ChartAlgebroid:
    """Rank-2 bracket structure on the chart y != 0 of the rotation
    foliation of R^3."""
    ctx = ChartContext(coords=("x", "y", "z"))
    e = ctx.expr
    z2 = (ctx.zero(), ctx.zero())
    c12 = (e("-z/y"), e("-x/y"))
    c21 = (e("z/y"), e("x/y"))
    table = [[z2, c12], [c21, z2]]
    anchor = [[e("y"), e("-x"), e("0")], [e("0"), e("z"), e("-y")]]
    return ChartAlgebroid(ctx, ("e1", "e2"), anchor, table, kind="lie")


def so3_action() -> ChartAlgebroid:
    """Rank-3 action structure: rotation fields on R^3."""
    ctx = ChartContext(coords=("x", "y", "z"))
    e = ctx.expr
    anchor = [
        [e("0"), e("-z"), e("y")],
        [e("z"), e("0"), e("-x")],
        [e("-y"), e("x"), e("0")],
    ]
    z3 = (ctx.zero(),) * 3

    def minus(k):
        return tuple(-ctx.one() if i == k else ctx.zero() for i in range(3))

    def plus(k):
        return tuple(ctx.one() if i == k else ctx.zero() for i in range(3))

    table = [
        [z3, minus(2), plus(1)],
        [plus(2), z3, minus(0)],
        [minus(1), plus(0), z3],
    ]
    return ChartAlgebroid(ctx, ("e1", "e2", "e3"), anchor, table, kind="lie")


def test_tangent_r2_is_lie_algebroid():
    assert check_lie_algebroid(tangent_r2()).passed()


def test_sphere_leaf_is_lie_algebroid():
    assert check_lie_algebroid(sphere_leaf()).passed()


def test_so3_action_is_lie_algebroid():
    assert check_lie_algebroid(so3_action()).passed()


def test_sphere_leaf_anchor_commutator_value():
    """The anchor image of [e1,e2] is the chart field (-z, 0, x)."""
    alg = sphere_leaf()
    got = alg.anchor_of(alg.table[0][1])
    ctx = alg.ctx
    want = (ctx.expr("-z"), ctx.zero(), ctx.expr("x"))
    assert all((a - b).is_zero() for a, b in zip(got, want))


def test_broken_anchor_is_detected():
    alg = sphere_leaf()
    ctx = alg.ctx
    bad_anchor = [list(alg.anchor[0]), [ctx.zero(), ctx.expr("z + 1"),
                                        ctx.expr("-y")]]
    bad = ChartAlgebroid(ctx, alg.names, bad_anchor, alg.table, kind="lie")
    rep = check_lie_algebroid(bad)
    assert not rep.passed()


def test_broken_bracket_skew_detected():
    ctx = ChartContext(coords=("x",))
    table = [[(ctx.one(),)]]
    bad = ChartAlgebroid(ctx, ("e1",), [[ctx.one()]], table, kind="lie")
    rep = check_lie_algebroid(bad)
    assert rep.find("algebroid.bracket-skew").status == "fail"


def test_section_bracket_leibniz_concrete():
    alg = tangent_r2()
    ctx = alg.ctx
    u = (ctx.expr("x"), ctx.zero())
    v = (ctx.zero(), ctx.expr("y"))
    got = alg.bracket(u, v)
    # [x d1, y d2] = x d1(y) d2 - y d2(x) d1 = 0 since dx/dy cross-terms die
    assert got[0].is_zero() and got[1].is_zero()
    w = (ctx.expr("y"), ctx.zero())
    got = alg.bracket(w, v)
    # [y d1, y d2] = y d1(y) d2 - y d2(y) d1 = -y d1
    assert got[0] == ctx.expr("-y")
    assert got[1].is_zero()


def test_flat_tangent_product_is_left_symmetric():
    ctx = ChartContext(coords=("x", "y"))
    z2 = (ctx.zero(), ctx.zero())
    table = [[z2, z2], [z2, z2]]
    alg = ChartAlgebroid(ctx, ("d1", "d2"), [[1, 0], [0, 1]], table,
                         kind="lsa")
    assert check_left_symmetric_algebroid(alg).passed()


def test_non_left_symmetric_product_detected():
    ctx = ChartContext(coords=("x", "y"))
    z2 = (ctx.zero(), ctx.zero())
    table = [[z2, (ctx.one(), ctx.zero())], [z2, z2]]
    alg = ChartAlgebroid(ctx, ("d1", "d2"), [[1, 0], [0, 1]], table,
                         kind="lsa")
    rep = check_left_symmetric_algebroid(alg)
    assert rep.find("algebroid.lsa.left-symmetric").status == "fail"


def test_1d_connection_product():
    """Gamma = x on a 1-dim chart: flat, torsion-free, left-symmetric."""
    ctx = ChartContext(coords=("x",))
    table = [[(ctx.expr("x"),)]]
    alg = ChartAlgebroid(ctx, ("d1",), [[1]], table, kind="lsa")
    assert check_left_symmetric_algebroid(alg).passed()


# ---------------------------------------------------------------------------
# forms


def test_form_antisymmetry_access():
    ctx = ChartContext(coords=("x", "y"))
    w = FormField(ctx, 2, 2, {(0, 1): ctx.expr("x")})
    assert w.value_frame((0, 1)) == ctx.expr("x")
    assert w.value_frame((1, 0)) == ctx.expr("-x")
    assert w.value_frame((0, 0)).is_zero()
    with pytest.raises(ValueError):
        FormField(ctx, 2, 2, {(1, 0): ctx.one()})


def test_de_rham_on_tangent_chart_matches_classical():
    alg = tangent_r2()
    ctx = alg.ctx
    xi = FormField(ctx, 2, 1, {(1,): ctx.expr("x")})  # x dy
    d = de_rham_d(alg, xi)
    assert d.value_frame((0, 1)) == ctx.one()
    two = de_rham_d(alg, d)
    assert not two.components  # top degree on a rank-2 frame


def test_de_rham_squares_to_zero_rank3():
    alg = so3_action()
    ctx = alg.ctx
    xi = FormField(ctx, 3, 1, {(0,): ctx.expr("x*y"), (1,): ctx.expr("z"),
                               (2,): ctx.expr("y^2 - x")})
    dd = de_rham_d(alg, de_rham_d(alg, xi))
    assert not dd.components


def test_2cocycle_check_positive_and_negative():
    alg = so3_action()
    ctx = alg.ctx
    const = FormField(ctx, 3, 2, {(0, 1): ctx.one()})
    assert check_2cocycle(alg, const).passed()
    wiggly = FormField(ctx, 3, 2, {(0, 1): ctx.expr("x")})
    rep = check_2cocycle(alg, wiggly)
    assert rep.find("form.closed").status == "fail"
    assert rep.find("form.closed").witness
