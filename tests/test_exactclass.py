"""Exactness checks, obstruction-tensor extraction, twists, splitting
equivalence, and the truncated restricted complex."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    E = twisted_product(conn, phi, names=("t1", "t2"),
                        dual_names=("c1", "c2"))
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
    assert E.names == ("t1", "t2", "c1", "c2")
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
    want = phi.tilde().add(dtheta)
    assert phi2.tilde().sub(want).is_zero()


def test_splitting_equivalence_of_shifted_twists():
    ctx, conn, phi, E = twist_r2()
    z, one, f = ctx.zero(), ctx.one(), ctx.expr("f")
    phi2 = extract_phi(E, conn, Splitting([[one, z, f, z],
                                           [z, one, z, z]]))
    E2 = twisted_product(conn, phi2, names=("t1", "t2"),
                         dual_names=("c1", "c2"))
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
