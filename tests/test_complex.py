"""The direct restricted-complex build against the symbolic reference.

`lsa.RestrictedComplex` writes the coboundary and the membership rows
from structure constants and the frame action on a coefficient basis.
Here every coboundary column is compared with `exactclass.chart_coboundary`
of the same basis cochain, and the membership rows are compared, as a row
space, with the restriction conditions evaluated symbolically.  One family
covers both settings: a point algebra, whose cochains are `ChartCochain`s
with constant values over `ChartAlgebroid.point`, and a flat chart
truncated at a polynomial degree (`exactclass.TruncatedComplex`).
"""

import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest

from psalib.algebroid import ChartAlgebroid
from psalib.exactclass import (ChartCochain, FlatConnection, TruncatedComplex,
                               _poly_to_coords, chart_coboundary)
from psalib.exactlinalg import QMatrix, kernel_basis, rank
from psalib.exprcore import ChartContext
from psalib.lsa import (FiniteAlgebra, RestrictedComplex, cochain_keys,
                        restricted_dims, sorted_sign)


def units(n):
    return [{j: Fraction(1)} for j in range(n)]


def sparse(vec):
    return {j: x for j, x in enumerate(vec) if x}


def point_algebras():
    return {"lsa2": FiniteAlgebra(2, {(0, 1, 1): 1}),
            "abelian-2": FiniteAlgebra(2, {}),
            # the product the standard form determines on aff1
            "aff1-lsa": FiniteAlgebra(2, {(0, 0, 0): -1, (1, 0, 1): -1})}


def same_row_space(a: QMatrix, b: QMatrix) -> bool:
    both = QMatrix(list(a.rows) + list(b.rows))
    return rank(a) == rank(b) == rank(both)


def point_case(name):
    alg = point_algebras()[name]
    conn = ChartAlgebroid.point(alg)
    zero = conn.ctx.zero()

    def from_vector(degree, vec):
        keys = cochain_keys(alg.dim, degree)
        return ChartCochain(conn.ctx, alg.dim, degree,
                            {keys[j]: x for j, x in vec.items()})

    def to_vector(phi):
        return sparse(phi.components.get(key, zero).constant_value()
                      for key in cochain_keys(phi.dim, phi.degree))

    return SimpleNamespace(cx=RestrictedComplex.point(alg), alg=conn,
                           from_vector=from_vector, to_vector=to_vector,
                           coords=lambda e: [e.constant_value()])


def flat_case(n, t):
    cx = TruncatedComplex(FlatConnection(
        ChartContext(coords=tuple(f"x{i + 1}" for i in range(n)))), t)

    def coords(e):
        got = _poly_to_coords(e, cx.mono_index)
        return [got.get(i, Fraction(0)) for i in range(len(cx.monomials))]

    return SimpleNamespace(cx=cx, alg=cx.conn,
                           from_vector=cx.cochain_from_vector,
                           to_vector=cx.vector_from_cochain, coords=coords)


def cases(cells):
    """The three point algebras, then the flat (n, t) cells."""
    return ([pytest.param(point_case, (name,), id=name)
             for name in sorted(point_algebras())]
            + [pytest.param(flat_case, (n, t), id=f"flat-n{n}-t{t}")
               for n, t in cells])


# -- coboundary ---------------------------------------------------------------


@pytest.mark.parametrize("make,args", cases(
    [(n, t) for n in (1, 2, 3) for t in (0, 1, 2, 3)]))
def test_coboundary_columns_match_chart_coboundary(make, args):
    c = make(*args)
    for degree in (1, 2, 3, 4):
        dim = c.cx.space_dim(degree)
        if not dim:
            continue
        ref = [c.to_vector(chart_coboundary(c.alg, c.from_vector(degree, u)))
               for u in units(dim)]
        assert c.cx.coboundary_matrix(degree, units(dim)) == ref, degree
        # a restricted basis vector's column is the same combination of
        # the reference columns
        basis = c.cx.restricted_basis(degree)
        want = []
        for vec in basis:
            col = {}
            for j, x in vec.items():
                for row, y in ref[j].items():
                    col[row] = col.get(row, 0) + x * y
            want.append({row: y for row, y in col.items() if y})
        assert c.cx.coboundary_matrix(degree, basis) == want, degree


# -- membership rows ----------------------------------------------------------


def _conditions(degree, alg, phi):
    """The restriction conditions of one chart cochain over a product
    structure: degree 1 rho(a) phi(b) - rho(b) phi(a) - phi([a,b]),
    degree 2 symmetry, degree 3 every cyclic sum."""
    r, at = alg.rank, phi.value_frame
    if degree == 1:
        bracket = alg.commutator_algebroid().table
        out = []
        for a, b in itertools.combinations(range(r), 2):
            acc = alg.anchor_apply(alg.frame_section(a), at((b,))) \
                - alg.anchor_apply(alg.frame_section(b), at((a,)))
            for k, v in enumerate(bracket[a][b]):
                acc = acc - at((k,)) * v
            out.append(acc)
        return out
    if degree == 2:
        return [at((a, b)) - at((b, a))
                for a, b in itertools.combinations(range(r), 2)]
    return [at((a, b, c)) + at((b, c, a)) + at((c, a, b))
            for a, b, c in itertools.product(range(r), repeat=3)]


@pytest.mark.parametrize("make,args", cases(
    [(1, 3), (2, 2), (2, 3), (3, 1), (3, 2)]))
def test_membership_rows_span_the_conditions(make, args):
    c = make(*args)
    for degree in (1, 2, 3):
        columns = []
        for u in units(c.cx.space_dim(degree)):
            phi = c.from_vector(degree, u)
            columns.append([x for e in _conditions(degree, c.alg, phi)
                            for x in c.coords(e)])
        ref = QMatrix(list(zip(*columns)) or [[0] * len(columns)])
        member = QMatrix([[row.get(j, 0) for j in range(len(columns))]
                          for row in c.cx.membership_matrix(degree)]
                         or [[0] * len(columns)])
        assert same_row_space(member, ref), degree
        # and the kernel is what every restricted basis vector satisfies
        for vec in c.cx.restricted_basis(degree):
            assert not any(sum(row[j] * x for j, x in vec.items())
                           for row in ref.rows)


def test_degree1_membership_rows_carry_the_bracket_sign():
    """Every degree-1 membership row against rho(a) phi(b) - rho(b) phi(a)
    - phi([a,b]), written out here coordinate by coordinate.  The
    row-space test above cannot see the sign of the bracket term: at a
    point the action is zero, and flat charts have no bracket.  This
    complex has both."""
    r, m = 3, 2
    constants = {(0, 1, 2): 1, (1, 0, 0): 2, (0, 2, 1): -1, (2, 1, 2): 3,
                 (2, 2, 0): 5}
    action = [[(0, 1, 1)], [(1, 0, 2), (0, 0, -1)], [(1, 1, 1)]]
    cx = RestrictedComplex(r, constants, m, action)
    want = []
    for a, b in itertools.combinations(range(r), 2):
        for row in range(m):
            vec = [Fraction(0)] * (r * m)
            for col, to, value in action[a]:
                if to == row:
                    vec[b * m + col] += value
            for col, to, value in action[b]:
                if to == row:
                    vec[a * m + col] -= value
            for k in range(r):
                vec[k * m + row] -= (constants.get((a, b, k), 0)
                                     - constants.get((b, a, k), 0))
            if any(vec):
                want.append(sparse(vec))
    assert cx.membership_matrix(1) == want


# -- entry types ----------------------------------------------------------------


def _int_cases():
    flat = [pytest.param(n, t, id=f"flat-n{n}-t{t}")
            for n in (1, 2, 3) for t in (0, 1, 2, 3)]
    points = [pytest.param(alg, None, id=name) for name, alg in (
        ("abelian-2", FiniteAlgebra(2, {})),
        ("abelian-3", FiniteAlgebra(3, {})),
        ("lsa2", point_algebras()["lsa2"]))]
    return flat + points


def _complex(n_or_alg, t):
    if t is None:
        return RestrictedComplex.point(n_or_alg)
    return flat_case(n_or_alg, t).cx


@pytest.mark.parametrize("n_or_alg,t", _int_cases())
def test_integral_entries_are_ints(n_or_alg, t):
    """Membership rows, restricted basis vectors and coboundary columns
    hold an int wherever the entry is integral, and the restricted basis
    is the kernel of the same rows taken over Fractions, vector for
    vector."""
    cx = _complex(n_or_alg, t)
    for degree in (1, 2, 3):
        rows = cx.membership_matrix(degree)
        basis = cx.restricted_basis(degree)
        cols = cx.coboundary_matrix(degree, basis)
        for vec in rows + basis + cols:
            for x in vec.values():
                assert type(x) is int or (type(x) is Fraction
                                          and x.denominator != 1), (degree, x)
        as_fractions = [{j: Fraction(x) for j, x in row.items()}
                        for row in rows]
        assert basis == kernel_basis(as_fractions, cx.space_dim(degree))


def test_non_integral_constants_stay_exact():
    """lsa2 with its structure constants halved is isomorphic to lsa2 by
    x -> 2x, so both eliminations give lsa2's triples; its membership
    rows carry the non-integral constant as a Fraction."""
    half = FiniteAlgebra(2, {key: v / 2 for key, v in
                             point_algebras()["lsa2"].constants.items()})
    cx = RestrictedComplex.point(half)
    assert Fraction(-1, 2) in cx.membership_matrix(1)[0].values()
    for degree in (1, 2, 3):
        want = restricted_dims(RestrictedComplex.point(
            point_algebras()["lsa2"]), degree)["bareiss"]
        assert restricted_dims(cx, degree) == {"bareiss": want,
                                               "gauss": want}, degree


@pytest.mark.parametrize("text, message", [
    ("x1/x2", "non-polynomial coefficient: x1/x2"),
    ("x1 + 1/(x1 + x2)", "non-polynomial coefficient: "),
    ("f*x1", "non-coordinate symbol in x1*f"),
])
def test_poly_to_coords_names_what_is_not_a_coefficient(text, message):
    cx = flat_case(2, 2).cx
    e = cx.ctx.extended(("f",)).expr(text)
    with pytest.raises(ValueError) as err:
        _poly_to_coords(e, cx.mono_index)
    assert str(err.value).startswith(message)
    assert _poly_to_coords(cx.ctx.expr("x1*x2/2 + 3"), cx.mono_index) == {
        cx.mono_index[(1, 1)]: Fraction(1, 2), cx.mono_index[(0, 0)]: 3}


# -- the permutation sign ------------------------------------------------------


def test_sorted_sign_matches_inversion_count():
    for size in range(5):
        for perm in itertools.permutations(range(size)):
            inversions = sum(1 for i, j in itertools.combinations(perm, 2)
                             if i > j)
            assert sorted_sign(perm) == (tuple(range(size)),
                                         -1 if inversions % 2 else 1)
    assert sorted_sign((2, 0, 2)) == (None, 0)
    assert sorted_sign((1, 1)) == (None, 0)


def test_cochain_keys_and_chart_values_share_the_sign():
    ctx = ChartContext(coords=("x", "y", "z"))
    keys = cochain_keys(3, 3)
    assert keys[0] == ((0, 1), 0) and len(keys) == 9
    phi = ChartCochain(ctx, 3, 3, {((0, 2), 1): ctx.expr("x")})
    assert phi.value_frame((2, 0, 1)) == -ctx.expr("x")
    assert phi.value_frame((2, 2, 1)).is_zero()
