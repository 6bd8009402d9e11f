"""The direct restricted-complex build against the symbolic references.

`lsa.RestrictedComplex` writes the coboundary and the membership rows
from structure constants and the frame action on a coefficient basis.
Here every coboundary column is compared with the symbolic coboundary
(`exactclass.chart_coboundary` on a flat chart, `lsa.coboundary` at a
point) of the same basis cochain, and the membership rows are compared,
as a row space, with the restriction conditions evaluated symbolically.
"""

import itertools
from fractions import Fraction

import pytest

from psalib.exactclass import (ChartCochain, FlatConnection, TruncatedComplex,
                               _poly_to_coords, chart_coboundary)
from psalib.exactlinalg import QMatrix, rank
from psalib.exprcore import ChartContext
from psalib.lsa import (Cochain, FiniteAlgebra, RestrictedComplex, SkewForm,
                        coboundary, cochain_keys, lsa_from_symplectic_lie,
                        sorted_sign)


def units(n):
    return [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]


def point_algebras():
    aff1 = FiniteAlgebra(2, {(0, 1, 1): 1, (1, 0, 1): -1})
    form = SkewForm(QMatrix([[0, 1], [-1, 0]]))
    return {"lsa2": FiniteAlgebra(2, {(0, 1, 1): 1}),
            "abelian-2": FiniteAlgebra(2, {}),
            "aff1-lsa": lsa_from_symplectic_lie(aff1, form)}


def same_row_space(a: QMatrix, b: QMatrix) -> bool:
    both = QMatrix(list(a.rows) + list(b.rows))
    return rank(a) == rank(b) == rank(both)


def flat_complex(n, t):
    return TruncatedComplex(FlatConnection(
        ChartContext(coords=tuple(f"x{i + 1}" for i in range(n)))), t)


# -- coboundary ---------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("t", [0, 1, 2, 3])
def test_flat_chart_coboundary_columns_match_chart_coboundary(n, t):
    cx = flat_complex(n, t)
    for degree in (1, 2, 3, 4):
        dim = cx.space_dim(degree)
        if not dim:
            continue
        ref = [cx.vector_from_cochain(chart_coboundary(
                   cx.conn, cx.cochain_from_vector(degree, u)))
               for u in units(dim)]
        got = cx.coboundary_matrix(degree, units(dim))
        assert got.rows == tuple(zip(*ref)), (n, t, degree)
        # a restricted basis vector's column is the same combination of
        # the reference columns
        basis = cx.restricted_basis(degree)
        if basis:
            want = []
            for vec in basis:
                terms = [(c, col) for c, col in zip(vec, ref) if c]
                want.append([sum((c * col[row] for c, col in terms),
                                 Fraction(0)) for row in range(len(ref[0]))])
            got = cx.coboundary_matrix(degree, basis)
            assert got.rows == tuple(zip(*want)), (n, t, degree)


@pytest.mark.parametrize("name", sorted(point_algebras()))
def test_point_coboundary_matrix_matches_cochain_coboundary(name):
    alg = point_algebras()[name]
    cx = RestrictedComplex.point(alg)
    for degree in (1, 2, 3, 4):
        dim = cx.space_dim(degree)
        if not dim:
            continue
        ref = [coboundary(alg, Cochain(alg.dim, degree, {key: 1})).to_vector()
               for key in cochain_keys(alg.dim, degree)]
        assert cx.coboundary_matrix(degree, units(dim)).rows == \
            tuple(zip(*ref))


# -- membership rows ----------------------------------------------------------


def _conditions(degree, dim, value, bracket):
    """The restriction conditions of one cochain, from its values:
    degree 1 rho(a) phi(b) - rho(b) phi(a) - phi([a,b]) (the anchor part
    comes with `value`), degree 2 symmetry, degree 3 every cyclic sum."""
    if degree == 1:
        out = []
        for a, b in itertools.combinations(range(dim), 2):
            acc = value("rho", a, b) - value("rho", b, a)
            for k, v in enumerate(bracket(a, b)):
                if v:
                    acc = acc - value("at", k) * v
            out.append(acc)
        return out
    if degree == 2:
        return [value("at", a, b) - value("at", b, a)
                for a, b in itertools.combinations(range(dim), 2)]
    return [value("at", a, b, c) + value("at", b, c, a)
            + value("at", c, a, b)
            for a, b, c in itertools.product(range(dim), repeat=3)]


@pytest.mark.parametrize("n,t", [(1, 3), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_flat_chart_membership_rows_span_the_conditions(n, t):
    cx = flat_complex(n, t)
    alg = cx.conn
    for degree in (1, 2, 3):
        columns = []
        for u in units(cx.space_dim(degree)):
            phi = cx.cochain_from_vector(degree, u)

            def value(kind, *args):
                if kind == "rho":
                    return alg.anchor_apply(alg.frame_section(args[0]),
                                            phi.value_frame(args[1:]))
                return phi.value_frame(args)

            conds = _conditions(degree, n, value,
                                lambda a, b: [0] * n)  # flat: no brackets
            col = []
            for e in conds:
                coords = _poly_to_coords(e, cx.ctx, cx.mono_index)
                col.extend(coords.get(i, Fraction(0))
                           for i in range(len(cx.monomials)))
            columns.append(col)
        ref = QMatrix(list(zip(*columns)) or [[0] * len(columns)])
        assert same_row_space(cx.membership_matrix(degree), ref), degree


@pytest.mark.parametrize("name", sorted(point_algebras()))
def test_point_membership_rows_span_the_conditions(name):
    alg = point_algebras()[name]
    d = alg.dim

    def bracket(a, b):
        return alg.commutator(alg.basis_vector(a), alg.basis_vector(b))

    for degree in (1, 2, 3):
        columns = []
        for key in cochain_keys(d, degree):
            phi = Cochain(d, degree, {key: 1})

            def value(kind, *args):
                return Fraction(0) if kind == "rho" else phi.value(args)

            columns.append(_conditions(degree, d, value, bracket))
        ref = QMatrix(list(zip(*columns)) or [[0] * len(columns)])
        cx = RestrictedComplex.point(alg)
        assert same_row_space(cx.membership_matrix(degree), ref), degree
        # and the kernel is what every restricted basis vector satisfies
        for vec in cx.restricted_basis(degree):
            assert not any(ref.mulvec(vec))


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
    point = Cochain(3, 3, {((0, 2), 1): 5})
    assert point.value((2, 0, 1)) == -5 and point.value((0, 0, 1)) == 0
