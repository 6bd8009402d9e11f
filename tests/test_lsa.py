"""Point-case algebra checks, the correspondence on point charts, and the
restricted scalar cochain complex.

Frozen expected dimensions below were derived by hand from the complex's
definition and are cross-checked here against both elimination routines.
"""

import random
from fractions import Fraction
from operator import sub

import pytest
from hypothesis import given, settings, strategies as st

from psalib import exactlinalg, lsa
from psalib.algebroid import ChartAlgebroid, FormField, check_left_symmetric
from psalib.exactclass import (ChartCochain, FlatConnection, TruncatedComplex,
                               chart_coboundary)
from psalib.exprcore import ChartContext
from psalib.presym import (PreSymStructure, check_presymplectic,
                           presym_from_symplectic)
from psalib.lsa import (
    FiniteAlgebra,
    RestrictedComplex,
    cochain_keys,
    restricted_dims,
)


def lsa2() -> FiniteAlgebra:
    """dim 2, e1*e2 = e2, all other basis products zero."""
    return FiniteAlgebra(2, {(0, 1, 1): 1})


def abelian(dim: int) -> FiniteAlgebra:
    return FiniteAlgebra(dim, {})


def test_lsa2_is_left_symmetric():
    rep = check_left_symmetric(lsa2())
    assert rep.passed()


def test_left_symmetry_failure_is_witnessed():
    bad = FiniteAlgebra(2, {(0, 1, 1): 1, (1, 1, 0): 1})
    rep = check_left_symmetric(bad)
    assert not rep.passed()
    fails = rep.failures()
    assert fails and fails[0].witness


def test_associator_bilinearity_random_extension():
    """Left symmetry on the basis extends bilinearly: random rational
    sections of the point chart must satisfy the same identity."""
    point = ChartAlgebroid.point(lsa2())
    prod = point.product
    rng = random.Random(7)

    def assoc(u, v, w):
        return tuple(map(sub, prod(u, prod(v, w)), prod(prod(u, v), w)))

    for _ in range(25):
        u, v, w = (tuple(point.ctx.number(Fraction(rng.randint(-5, 5),
                                                    rng.randint(1, 3)))
                         for _ in range(2)) for _ in range(3))
        assert assoc(u, v, w) == assoc(v, u, w)


# ---------------------------------------------------------------------------
# the correspondence at a point, on point charts

STD_PAIRING = [[0, 1], [-1, 0]]
# the product the standard form determines on aff1: e1*e1 = -e1, e2*e1 = -e2
AFF1_LSA = {(0, 0, 0): -1, (1, 0, 1): -1}


def aff1_lsa() -> FiniteAlgebra:
    return FiniteAlgebra(2, AFF1_LSA)


def chart_constants(table) -> dict:
    """{(a, b, k): value} of the nonzero cells of a constant frame table."""
    r = range(len(table))
    return {(a, b, k): table[a][b][k].constant_value()
            for a in r for b in r for k in r if not table[a][b][k].is_zero()}


@pytest.mark.parametrize("alg, want", [
    (lsa2(), {(0, 1, 1): 1, (1, 0, 1): -1}),
    (abelian(2), {}),
    (aff1_lsa(), {(0, 1, 1): 1, (1, 0, 1): -1}),
], ids=["lsa2", "abelian-2", "aff1-lsa"])
def test_commutator_at_a_point(alg, want):
    got = ChartAlgebroid.point(alg).commutator_algebroid()
    assert got.kind == "lie"
    assert chart_constants(got.table) == want


@pytest.mark.parametrize("alg, want", [
    (aff1_lsa(), AFF1_LSA),
    (abelian(2), {}),
], ids=["aff1", "abelian-2"])
def test_symplectic_product_at_a_point(alg, want):
    """The Lie algebra at the point is the commutator of `alg`: aff1's
    bracket [e1, e2] = e2 for aff1-lsa, zero for abelian(2)
    (test_commutator_at_a_point)."""
    chart = ChartAlgebroid.point(alg).commutator_algebroid()
    form = FormField(chart.ctx, 2, 2, {(0, 1): 1})
    E = presym_from_symplectic(chart, form)
    assert chart_constants(E.table) == want
    assert check_presymplectic(E).passed()
    assert check_left_symmetric(FiniteAlgebra(2, want)).passed()


def test_symplectic_product_needs_a_nondegenerate_form():
    chart = ChartAlgebroid.point(aff1_lsa()).commutator_algebroid()
    with pytest.raises(ValueError, match="degenerate"):
        presym_from_symplectic(chart, FormField(chart.ctx, 2, 2, {}))


@pytest.mark.parametrize("alg, verdict", [
    (lsa2(), "fail"),
    (abelian(2), "pass"),
    (aff1_lsa(), "pass"),
], ids=["lsa2", "abelian-2", "aff1-lsa"])
def test_invariance_at_a_point(alg, verdict):
    """def-ii at a point, where the anchor is zero, is the invariance
    (x*y, z) + (y, [x,z]) = 0 of the pairing."""
    chart = ChartAlgebroid.point(alg)
    E = PreSymStructure(chart.ctx, chart.names, chart.anchor, chart.table,
                        STD_PAIRING)
    assert check_presymplectic(E).find("presym.def-ii").status == verdict


# ---------------------------------------------------------------------------
# cochains and the restricted complex


def point_cochain(alg, degree, components):
    """A constant cochain on the point chart of `alg`, with that chart."""
    conn = ChartAlgebroid.point(alg)
    return conn, ChartCochain(conn.ctx, alg.dim, degree, components)


def test_degree1_coboundary_on_lsa2():
    conn, phi = point_cochain(lsa2(), 1, {((), 1): 1})
    d = chart_coboundary(conn, phi)
    # d phi(x,y) = -phi(x*y)
    assert d.value_frame((0, 1)).constant_value() == -1
    assert d.value_frame((1, 0)).is_zero()
    assert d.value_frame((0, 0)).is_zero()


def test_degree2_coboundary_on_lsa2_hand_values():
    a, b, c = Fraction(5), Fraction(7), Fraction(11)
    conn, phi = point_cochain(lsa2(), 2, {((0,), 0): a, ((0,), 1): b,
                                          ((1,), 0): b, ((1,), 1): c})
    d = chart_coboundary(conn, phi)
    assert d.value_frame((0, 1, 0)).constant_value() == -b
    assert d.value_frame((0, 1, 1)).constant_value() == -2 * c


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.data())
def test_coboundary_squares_to_zero(degree, data):
    for alg in (lsa2(), abelian(2), aff1_lsa()):
        keys = cochain_keys(alg.dim, degree)
        vals = data.draw(st.lists(st.integers(-4, 4), min_size=len(keys),
                                  max_size=len(keys)))
        conn, phi = point_cochain(alg, degree, dict(zip(keys, vals)))
        assert chart_coboundary(conn, chart_coboundary(conn, phi)).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2]), st.data())
def test_coboundary_preserves_restricted_subspaces(degree, data):
    """A restricted cochain's coboundary satisfies the next restriction."""
    for alg in (lsa2(), aff1_lsa()):
        cx = RestrictedComplex.point(alg)
        basis = cx.restricted_basis(degree)
        if not basis:
            continue
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis),
                                    max_size=len(basis)))
        vec = [sum(Fraction(c) * v.get(i, 0) for c, v in zip(coeffs, basis))
               for i in range(cx.space_dim(degree))]
        conn, phi = point_cochain(
            alg, degree, dict(zip(cochain_keys(alg.dim, degree), vec)))
        d, zero = chart_coboundary(conn, phi), conn.ctx.zero()
        img = [d.components.get(key, zero).constant_value()
               for key in cochain_keys(alg.dim, degree + 1)]
        member = cx.membership_matrix(degree + 1)
        assert all(sum(x * img[j] for j, x in row.items()) == 0
                   for row in member)


def test_restricted_subspace_dims():
    for alg, want in ((lsa2(), (1, 3, 2)), (abelian(2), (2, 3, 2))):
        cx = RestrictedComplex.point(alg)
        assert tuple(len(cx.restricted_basis(n)) for n in (1, 2, 3)) == want


def test_cochain_space_dims():
    assert RestrictedComplex(2).space_dim(1) == 2
    assert RestrictedComplex(2).space_dim(2) == 4
    assert RestrictedComplex(2).space_dim(3) == 2
    assert RestrictedComplex(3).space_dim(3) == 9


def both(dims):
    """The result of `restricted_dims` when the two routes agree."""
    return {"bareiss": dims, "gauss": dims}


def point_dims(alg, degree):
    return restricted_dims(RestrictedComplex.point(alg), degree)


def test_abelian_dim2_restricted_cohomology():
    """All coboundaries vanish, so the dims are the subspace dims."""
    ab = abelian(2)
    assert point_dims(ab, 1) == both((2, 0, 2))
    assert point_dims(ab, 2) == both((3, 0, 3))
    assert point_dims(ab, 3) == both((2, 0, 2))


def test_lsa2_restricted_cohomology_hand_derived():
    alg = lsa2()
    assert point_dims(alg, 1) == both((1, 0, 1))
    assert point_dims(alg, 2) == both((1, 0, 1))
    assert point_dims(alg, 3) == both((2, 2, 0))


def test_two_elimination_routes_agree():
    for alg in (lsa2(), abelian(2), abelian(3), aff1_lsa()):
        for n in (1, 2, 3):
            dims = point_dims(alg, n)
            assert dims == both(dims["bareiss"])


def test_dim3_across_degrees_consistency():
    """On a dim-3 algebra the machinery still squares to zero and the
    restricted dims are internally consistent (ker >= im >= 0)."""
    alg = FiniteAlgebra(3, {(0, 1, 1): 1, (0, 2, 2): 1})
    assert check_left_symmetric(alg).passed()
    for n in (1, 2, 3):
        dims = point_dims(alg, n)
        ker, im, h = dims["bareiss"]
        assert dims == both((ker, im, h))
        assert ker >= 0 and im >= 0 and h == ker - im
        assert im <= ker


def test_restricted_dims_builds_each_matrix_once_and_ranks_it_both_ways(
        monkeypatch):
    """The rank routines are looked up in `lsa` when `restricted_dims`
    runs, so a wrapper bound there (as perfbench's tracer binds one)
    sees every call.  Both routes rank the same blocks, and the blocks
    hold every nonzero entry of the built sparse columns once, in place:
    a block's rows are positions and its columns vectors."""
    logs = {}
    for name in ("rank", "rank_second_opinion"):
        fn, log = getattr(lsa, name), []
        monkeypatch.setattr(lsa, name,
                            lambda m, fn=fn, log=log: log.append(m) or fn(m))
        logs[name] = log
    flat = FlatConnection(ChartContext(coords=("x", "y")))
    entering = 0
    for cx in (RestrictedComplex.point(lsa2()),
               RestrictedComplex.point(abelian(3)), TruncatedComplex(flat, 2)):
        build = cx.coboundary_matrix
        for degree in (1, 2, 3, 4):
            built = []
            monkeypatch.setattr(
                cx, "coboundary_matrix",
                lambda d, vecs: built.append((d, build(d, vecs)))
                or built[-1][1])
            for log in logs.values():
                log.clear()
            restricted_dims(cx, degree)
            degrees = [d for d, _ in built]
            assert len(set(degrees)) == len(degrees)
            assert set(degrees) <= {degree - 1, degree}
            entering += degree - 1 in degrees
            received = logs["rank"]
            assert [id(b) for b in logs["rank_second_opinion"]] == \
                [id(b) for b in received]
            for d, m in built:
                nonzero = {(i, j): x for j, col in enumerate(m)
                           for i, x in col.items() if x}
                placed = []
                for cols, rows in exactlinalg.blocks(m, cx.space_dim(d + 1)):
                    if not cols:
                        continue
                    block = received.pop(0)
                    assert (block.nrows, block.ncols) == (len(rows), len(cols))
                    placed += [((rows[a], cols[c]), x)
                               for a, row in enumerate(block.rows)
                               for c, x in enumerate(row) if x]
                assert len(placed) == len(nonzero)
                assert dict(placed) == nonzero
            assert received == []
    assert entering
    with pytest.raises(ValueError, match="degree must be >= 1"):
        restricted_dims(cx, 0)
