"""Exactness checks, obstruction-tensor extraction, twists, splitting
equivalence, and the truncated restricted complex."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psalib import exactclass
from psalib.algebroid import ChartAlgebroid
from psalib.exactclass import (ChartCochain, FlatConnection, PhiTensor,
                               Splitting, TruncatedComplex,
                               canonical_splitting, chart_coboundary,
                               check_exact, extract_phi, rho_star_matrix,
                               splitting_equivalence, twist_residual,
                               twisted_product)
from psalib.exprcore import ChartContext
from psalib.lsa import FiniteAlgebra, RestrictedComplex, restricted_dims
from psalib.presym import PreSymStructure, check_presymplectic, \
    pseudo_semidirect


def twist_r2():
    """Flat chart (x,y) with one formal function f; the obstruction
    tensor is the reshuffle of the coboundary of f dx(x)dx."""
    ctx = ChartContext(coords=("x", "y"), funcs=("f",))
    z = ctx.zero()
    fy = ctx.expr("d(f,y)")
    conn = FlatConnection(ctx)
    comps = [[[z, z], [z, z]], [[z, z], [z, z]]]
    comps[0][0] = [z, -fy]
    comps[1][0] = [fy, z]
    phi = PhiTensor(ctx, comps)
    E = twisted_product(conn, phi)
    return ctx, conn, phi, E


def nonclosed_r3():
    """Tensor passing the constructor symmetries whose reshuffle is not
    coboundary-closed."""
    ctx = ChartContext(coords=("x1", "x2", "x3"))
    z = ctx.zero()
    x1 = ctx.expr("x1")
    comps = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    comps[1][1][2] = x1
    comps[2][1][1] = -x1
    return ctx, FlatConnection(ctx), PhiTensor(ctx, comps)


def flat_tangent_presym(ncoords):
    """Tangent structure with the standard symplectic pairing; rank equals
    the chart dimension, so it is not exact in the sequence sense."""
    names = [f"x{i+1}" for i in range(ncoords)]
    ctx = ChartContext(coords=tuple(names))
    z, one = ctx.zero(), ctx.one()
    half = ncoords // 2
    anchor = [[one if i == j else z for j in range(ncoords)]
              for i in range(ncoords)]
    table = [[[z] * ncoords for _ in range(ncoords)] for _ in range(ncoords)]
    pairing = [[z] * ncoords for _ in range(ncoords)]
    for i in range(half):
        pairing[i][half + i] = one
        pairing[half + i][i] = -one
    return PreSymStructure(ctx, [f"d{i+1}" for i in range(ncoords)],
                           anchor, table, pairing)


def test_connection_validation():
    ctx = ChartContext(coords=("x", "y"))
    z, x, y = ctx.zero(), ctx.expr("x"), ctx.expr("y")
    zero_cell = [z, z]
    torsion = [[[zero_cell[:], [x, z]], [zero_cell[:], zero_cell[:]]],
               [[zero_cell[:], zero_cell[:]], [zero_cell[:], zero_cell[:]]]]
    # gamma[0][1] = (x, 0) but gamma[1][0] = 0
    conn = FlatConnection(ctx, [[[z, z], [x, z]], [[z, z], [z, z]]])
    assert any(not t.is_zero() for t in conn.torsion_residual(0, 1))
    # gamma[0][0] = (y, 0) is torsion-free but curved
    curved = FlatConnection(ctx, [[[y, z], [z, z]], [[z, z], [z, z]]])
    assert all(t.is_zero() for t in curved.torsion_residual(0, 1))
    assert any(not c.is_zero()
               for c in curved.curvature_residual(0, 1, 0))
    flat = FlatConnection(ctx)
    assert flat.is_zero()
    assert all(c.is_zero() for c in flat.curvature_residual(0, 1, 1))


def test_curvature_residual_components_on_curved_connection():
    # gamma[0][0] = (y, 0): R(d1,d2)d1 = -d_y(y) d1 = -d1, and R is
    # antisymmetric in its first two slots; every other component is 0
    ctx = ChartContext(coords=("x", "y"))
    z, y = ctx.zero(), ctx.expr("y")
    curved = FlatConnection(ctx, [[[y, z], [z, z]], [[z, z], [z, z]]])
    want = {(0, 1, 0): (-1, 0), (1, 0, 0): (1, 0)}
    for i in range(2):
        for j in range(2):
            for k in range(2):
                got = curved.curvature_residual(i, j, k)
                assert [c.constant_value() for c in got] == \
                    list(want.get((i, j, k), (0, 0)))


def test_phi_tensor_constructor_enforces_symmetries():
    ctx = ChartContext(coords=("x1", "x2", "x3"))
    z, one = ctx.zero(), ctx.one()
    bad13 = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    bad13[0][0][1] = one  # needs phi(2,1,1) = -1 to balance
    with pytest.raises(ValueError, match="antisymmetry"):
        PhiTensor(ctx, bad13)
    badpair = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    badpair[0][1][2] = one
    badpair[2][1][0] = -one  # outer antisymmetry holds, pair identity not
    with pytest.raises(ValueError, match="pair identity"):
        PhiTensor(ctx, badpair)


def test_rank_one_chart_forces_zero_tensor():
    ctx = ChartContext(coords=("u",))
    one = ctx.one()
    with pytest.raises(ValueError, match="antisymmetry"):
        PhiTensor(ctx, [[[one]]])
    E = twisted_product(FlatConnection(ctx), PhiTensor(ctx, [[[ctx.zero()]]]))
    assert check_presymplectic(E).passed()


def test_twist_r2_table_and_suite():
    ctx, conn, phi, E = twist_r2()
    fy = ctx.expr("d(f,y)")
    assert E.names == ("d1", "d2", "c1", "c2")
    nonzero = {(a, b, k): E.table[a][b][k]
               for a in range(4) for b in range(4) for k in range(4)
               if not E.table[a][b][k].is_zero()}
    assert set(nonzero) == {(0, 0, 3), (1, 0, 2)}
    assert (nonzero[(0, 0, 3)] + fy).is_zero()
    assert (nonzero[(1, 0, 2)] - fy).is_zero()
    # conormal frame is the pairing-dual of the coordinate differentials
    rs = rho_star_matrix(E)
    for j in range(2):
        for a in range(4):
            want = ctx.one() if a == 2 + j else ctx.zero()
            assert (rs.rows[a][j] - want).is_zero()
    assert check_presymplectic(E).passed()


def test_twist_r2_check_exact_full_pass():
    ctx, conn, phi, E = twist_r2()
    rep = check_exact(E, conn, sigma=canonical_splitting(E))
    assert rep.passed()
    ids = {c.check_id for c in rep.checks}
    assert "exact.sequence" in ids and "exact.phi-closed" in ids


def test_phi_in_image_times_its_solves(monkeypatch):
    # the obstruction tensor is solved inside the check, so its wall time
    # covers the solves
    ctx, conn, phi, E = twist_r2()

    def slow_solve(*args):
        time.sleep(0.02)
        return solve(*args)

    solve = exactclass.expr_solve
    monkeypatch.setattr(exactclass, "expr_solve", slow_solve)
    rep = check_exact(E, conn, sigma=canonical_splitting(E))
    assert rep.passed()
    assert rep.find("exact.phi-in-image").wall_ms >= 20


def test_twisted_product_zero_phi_is_pseudo_semidirect():
    ctx = ChartContext(coords=("x", "y"))
    z = ctx.zero()
    conn = FlatConnection(ctx)
    zero_phi = PhiTensor(ctx, [[[z, z]] * 2, [[z, z]] * 2])
    E = twisted_product(conn, zero_phi)
    base = pseudo_semidirect(conn,
                             dual_names=("c1", "c2"))
    for a in range(4):
        for b in range(4):
            for k in range(4):
                assert (E.table[a][b][k] - base.table[a][b][k]).is_zero()
    assert E.pairing == base.pairing


def test_twist_validity_iff_reshuffle_closed():
    # closed direction: the r2 fixture passes and has empty residual
    ctx, conn, phi, E = twist_r2()
    assert twist_residual(conn, phi).is_zero()
    assert check_presymplectic(E).passed()
    # non-closed direction: residual pinpointed, structure fails
    ctx3, conn3, phi_bad = nonclosed_r3()
    res = twist_residual(conn3, phi_bad)
    assert set(res.components) == {((0, 1, 2), 1)}
    assert (res.components[((0, 1, 2), 1)] - ctx3.one()).is_zero()
    Ebad = twisted_product(conn3, phi_bad)
    rep = check_presymplectic(Ebad)
    assert not rep.passed()
    rep2 = check_exact(Ebad, conn3, sigma=canonical_splitting(Ebad))
    failed = [c.check_id for c in rep2.checks if c.status == "fail"]
    assert failed == ["exact.phi-closed"]


def test_extract_phi_round_trip():
    ctx, conn, phi, E = twist_r2()
    back = extract_phi(E, conn, canonical_splitting(E))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert (back.comps[i][j][k] - phi.comps[i][j][k]).is_zero()


def test_extract_phi_validates_splitting():
    ctx, conn, phi, E = twist_r2()
    z, one = ctx.zero(), ctx.one()
    two = ctx.number(2)
    with pytest.raises(ValueError, match="right inverse"):
        extract_phi(E, conn, Splitting([[two, z, z, z], [z, one, z, z]]))
    # asymmetric conormal shift breaks isotropy
    skew = Splitting([[one, z, z, one], [z, one, z, z]])
    with pytest.raises(ValueError, match="isotropic"):
        extract_phi(E, conn, skew)


def test_splitting_shift_adds_coboundary_of_theta():
    ctx, conn, phi, E = twist_r2()
    z, one, f = ctx.zero(), ctx.one(), ctx.expr("f")
    shifted = Splitting([[one, z, f, z], [z, one, z, z]])
    phi2 = extract_phi(E, conn, shifted)
    theta = ChartCochain(ctx, 2, 2, {((0,), 0): f})
    dtheta = chart_coboundary(conn, theta)
    got, base, d = (c.components for c in (phi2.tilde(), phi.tilde(), dtheta))
    assert all(got.get(k, z) == base.get(k, z) + d.get(k, z)
               for k in got.keys() | base.keys() | d.keys())


def test_splitting_equivalence_of_shifted_twists():
    ctx, conn, phi, E = twist_r2()
    z, one, f = ctx.zero(), ctx.one(), ctx.expr("f")
    phi2 = extract_phi(E, conn, Splitting([[one, z, f, z],
                                           [z, one, z, z]]))
    E2 = twisted_product(conn, phi2)
    theta = [[f, z], [z, z]]
    # the shear by theta carries the shifted twist onto the original
    rep = splitting_equivalence(E2, E, theta)
    assert rep.passed()
    assert {c.check_id for c in rep.checks} == {
        "equiv.star", "equiv.anchor", "equiv.pairing"}
    # theta = 0 compares the structures directly, which differ
    zero_theta = [[z, z], [z, z]]
    rep_bad = splitting_equivalence(E2, E, zero_theta)
    star = {c.check_id: c for c in rep_bad.checks}["equiv.star"]
    assert star.status == "fail" and "c" in star.witness
    # identity case
    assert splitting_equivalence(E, E, zero_theta).passed()


def test_splitting_equivalence_rejects_asymmetric_theta():
    ctx, conn, phi, E = twist_r2()
    z, one = ctx.zero(), ctx.one()
    with pytest.raises(ValueError, match="symmetric"):
        splitting_equivalence(E, E, [[z, one], [z, z]])


def test_flat_tangent_fails_sequence_check():
    for ncoords in (2, 4):
        E = flat_tangent_presym(ncoords)
        rep = check_exact(E, FlatConnection(E.ctx))
        by_id = {c.check_id: c for c in rep.checks}
        assert by_id["exact.anchor-surjective"].status == "pass"
        seq = by_id["exact.sequence"]
        assert seq.status == "fail"
        assert "kernel" in seq.witness


def test_pseudo_semidirect_of_flat_chart_is_exact():
    ctx = ChartContext(coords=("x", "y"))
    conn = FlatConnection(ctx)
    E = pseudo_semidirect(conn)
    rep = check_exact(E, conn, sigma=canonical_splitting(E))
    assert rep.passed()
    phi = extract_phi(E, conn, canonical_splitting(E))
    assert phi.is_zero()


def test_chart_coboundary_squares_to_zero():
    ctx = ChartContext(coords=("x", "y"))
    alg = FlatConnection(ctx)
    phi1 = ChartCochain(ctx, 2, 1, {((), 0): ctx.expr("x*y"),
                                    ((), 1): ctx.expr("x^2 - 3*y")})
    assert chart_coboundary(alg, chart_coboundary(alg, phi1)).is_zero()
    phi2 = ChartCochain(ctx, 2, 2, {((0,), 1): ctx.expr("y^2"),
                                    ((1,), 0): ctx.expr("x")})
    assert chart_coboundary(alg, chart_coboundary(alg, phi2)).is_zero()


def test_chart_coboundary_with_nonflat_coordinates_squares_to_zero():
    # nonzero torsion-free flat coefficients: gamma[0][0] = (x-component 1)
    ctx = ChartContext(coords=("x",))
    one, z = ctx.one(), ctx.zero()
    conn = FlatConnection(ctx, [[[ctx.expr("x")]]])
    alg = conn
    phi = ChartCochain(ctx, 1, 1, {((), 0): ctx.expr("x^2")})
    d1 = chart_coboundary(alg, phi)
    # delta phi(d1,d1) = a(d1)(x^2) - phi(x d1) = 2x - x^3
    want = ctx.expr("2*x - x^3")
    assert (d1.components[((0,), 0)] - want).is_zero()
    assert chart_coboundary(alg, d1).is_zero()


def _assert_components(ctx, cochain, want):
    """cochain's components are exactly want's, given as expression text."""
    assert set(cochain.components) == set(want)
    for key, text in want.items():
        assert (cochain.components[key] - ctx.expr(text)).is_zero(), key


def test_chart_coboundary_pinned_on_pulled_back_flat_connection():
    # Gamma^y_xx = 6x is the zero connection pulled back by
    # (x, y, z) -> (x, y + x^3, z): torsion-free and flat, so delta^2 = 0
    ctx = ChartContext(coords=("x", "y", "z"))
    e = ctx.expr
    gamma = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    gamma[0][0][1] = e("6*x")
    conn = FlatConnection(ctx, gamma)
    cases = [
        ({((), 0): "x^2*y", ((), 1): "y*z - x", ((), 2): "x*z"},
         {((0,), 0): "-6*x*y*z + 6*x^2 + 2*x*y", ((0,), 1): "-1",
          ((0,), 2): "z", ((1,), 0): "x^2", ((1,), 1): "z", ((2,), 1): "y",
          ((2,), 2): "x"}),
        ({((0,), 1): "x*y", ((1,), 0): "z^2", ((2,), 1): "x + y",
          ((0,), 2): "y"},
         {((0, 1), 1): "-x", ((0, 1), 2): "-1", ((0, 2), 0): "-6*x^2 - 6*x*y",
          ((0, 2), 1): "1", ((1, 2), 0): "-2*z", ((1, 2), 1): "1"}),
        ({((0, 1), 1): "x*z", ((0, 2), 0): "y^2", ((1, 2), 2): "x^3",
          ((1, 2), 1): "y"},
         {((0, 1, 2), 0): "-6*x*y - 2*y", ((0, 1, 2), 1): "x",
          ((0, 1, 2), 2): "3*x^2"}),
    ]
    for degree, (comps, want) in enumerate(cases, start=1):
        phi = ChartCochain(ctx, 3, degree,
                           {k: e(v) for k, v in comps.items()})
        d = chart_coboundary(conn, phi)
        _assert_components(ctx, d, want)
        assert chart_coboundary(conn, d).is_zero()


def test_chart_coboundary_pinned_with_product_and_bracket_terms():
    # a product table with non-constant entries and a nonzero commutator
    # (no axiom holds), so the anchor, product and bracket terms are live
    ctx = ChartContext(coords=("x", "y"))
    e = ctx.expr
    alg = ChartAlgebroid(ctx, ("e1", "e2"), [[1, e("y")], [0, e("x")]],
                         [[[e("x"), 0], [e("y^2"), 1]],
                          [[0, e("x*y")], [2, 0]]], kind="lsa")
    cases = [
        ({((), 0): "x^2*y", ((), 1): "y^2 - x"},
         {((0,), 0): "-x^3*y + x^2*y + 2*x*y",
          ((0,), 1): "-x^2*y^3 + y^2 + x - 1",
          ((1,), 0): "-x*y^3 + x^3 + x^2*y",
          ((1,), 1): "-2*x^2*y + 2*x*y"}),
        ({((0,), 0): "x*y", ((0,), 1): "y^3", ((1,), 0): "x^2",
          ((1,), 1): "x + y"},
         {((0, 1), 0): "x*y^4 + x^3*y - x*y^3 - x^3 - 2*x^2 + 2*x",
          ((0, 1), 1): "-y^5 - x^2*y^2 + x^2*y - 2*x*y^2 + 2*x*y - 2*x - y "
                       "+ 1"}),
    ]
    for degree, (comps, want) in enumerate(cases, start=1):
        phi = ChartCochain(ctx, 2, degree,
                           {k: e(v) for k, v in comps.items()})
        _assert_components(ctx, chart_coboundary(alg, phi), want)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3),
                min_size=12, max_size=12),
       st.sampled_from([1, 2]))
def test_random_truncated_cochains_delta_squared_and_membership(vec, degree):
    ctx = ChartContext(coords=("x", "y"))
    cx = TruncatedComplex(FlatConnection(ctx), max_poly_degree=1)
    dim = cx.space_dim(degree)
    coords = {i: Fraction(vec[i % len(vec)]) for i in range(dim)
              if vec[i % len(vec)]}
    phi = cx.cochain_from_vector(degree, coords)
    d1 = chart_coboundary(cx.conn, phi)
    assert chart_coboundary(cx.conn, d1).is_zero()
    # restricted cochains stay restricted under the coboundary
    basis = cx.restricted_basis(degree)
    mem_next = cx.membership_matrix(degree + 1)
    for bvec in basis:
        image = cx.vector_from_cochain(
            chart_coboundary(cx.conn, cx.cochain_from_vector(degree, bvec)))
        assert all(sum(x * image.get(j, 0) for j, x in row.items()) == 0
                   for row in mem_next)


def test_truncated_degree_zero_matches_point_complex():
    for coords in (("u",), ("x", "y")):
        cx = TruncatedComplex(FlatConnection(ChartContext(coords=coords)),
                              max_poly_degree=0)
        point = RestrictedComplex.point(FiniteAlgebra(len(coords), {}))
        for degree in (1, 2, 3):
            assert restricted_dims(cx, degree) == \
                restricted_dims(point, degree)


def test_truncated_dims_elimination_routes_agree():
    cx = TruncatedComplex(FlatConnection(ChartContext(coords=("x", "y"))), 2)
    for degree in (1, 2, 3):
        dims = restricted_dims(cx, degree)
        ker, im, h = dims["bareiss"]
        assert dims == {"bareiss": (ker, im, h), "gauss": (ker, im, h)}
        assert ker - im == h


@pytest.mark.parametrize("truncate, degree, dims", [
    (2, 1, (3, 0, 3)), (2, 2, (31, 16, 15)), (2, 3, (68, 29, 39)),
    (3, 1, (3, 0, 3)), (3, 2, (52, 31, 21)), (3, 3, (130, 68, 62)),
])
def test_truncated_flat_r3_dims_both_eliminations(truncate, degree, dims):
    conn = FlatConnection(ChartContext(coords=("x1", "x2", "x3")))
    assert restricted_dims(TruncatedComplex(conn, truncate), degree) == \
        {"bareiss": dims, "gauss": dims}


@pytest.mark.parametrize("truncate, degree, dims", [
    (2, 2, (65, 30, 35)), (2, 3, (229, 85, 144)), (3, 3, (495, 229, 266)),
])
def test_truncated_flat_r4_dims_both_eliminations(truncate, degree, dims):
    conn = FlatConnection(ChartContext(coords=("x1", "x2", "x3", "x4")))
    assert restricted_dims(TruncatedComplex(conn, truncate), degree) == \
        {"bareiss": dims, "gauss": dims}


def test_truncated_rejects_negative_bound():
    conn = FlatConnection(ChartContext(coords=("x",)))
    with pytest.raises(ValueError,
                       match="^polynomial degree bound must be >= 0$"):
        TruncatedComplex(conn, -1)


def test_truncated_rejects_nonflat_coordinates():
    ctx = ChartContext(coords=("x",))
    conn = FlatConnection(ctx, [[[ctx.expr("x")]]])
    with pytest.raises(ValueError, match="flat coordinates"):
        TruncatedComplex(conn)


def test_cochain_value_frame_signs():
    ctx = ChartContext(coords=("x", "y", "z"))
    phi = ChartCochain(ctx, 3, 3, {((0, 1), 2): ctx.one()})
    assert phi.value_frame((0, 1, 2)).is_one()
    assert (phi.value_frame((1, 0, 2)) + ctx.one()).is_zero()
    assert phi.value_frame((0, 0, 2)).is_zero()
    assert phi.value_frame((1, 2, 0)).is_zero()
    with pytest.raises(ValueError, match="canonical"):
        ChartCochain(ctx, 3, 3, {((1, 0), 2): ctx.one()})
