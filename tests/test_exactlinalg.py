"""Rational and symbolic matrix kernels, ranks, and inverses."""

import gc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from psalib import fixtures
from psalib.exactclass import FlatConnection, TruncatedComplex
from psalib.exactlinalg import (
    ExprMatrix,
    QMatrix,
    SingularMatrixError,
    _invert_adjugate,
    _invert_skew,
    blocks,
    determinant,
    expr_kernel_basis,
    expr_rank,
    expr_solve,
    invert,
    kernel_basis,
    rank,
    rank_second_opinion,
    solve,
)
from psalib.exprcore import ChartContext
from psalib.lsa import FiniteAlgebra, RestrictedComplex
from psalib.presym import PreSymStructure, check_presymplectic
from psalib.psafile import load_path


def sparse_rows(m):
    """The rows of a dense matrix as {column: nonzero entry} dicts."""
    return [{j: x for j, x in enumerate(row) if x} for row in m.rows]


def dense(vectors, n):
    """Sparse vectors written out over n coordinates."""
    return [tuple(v.get(j, Fraction(0)) for j in range(n)) for v in vectors]


def dense_kernel(m):
    """`kernel_basis` of a dense matrix, written out dense."""
    return dense(kernel_basis(sparse_rows(m), m.ncols), m.ncols)


def identity(n):
    """The n x n identity, as lists of ints."""
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(m):
    """The transpose of a QMatrix."""
    return QMatrix([list(col) for col in zip(*m.rows)])


def mulvec(m, v):
    """The product of a QMatrix and a vector, as a tuple."""
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m.rows)


def matmul(a, b):
    """The product of two QMatrix, as lists."""
    cols = list(zip(*b.rows))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in a.rows]


def reference_rref(m):
    """(rows, pivot columns) of the reduced row echelon form of a QMatrix,
    by dense Gauss-Jordan over Fraction with first-nonzero pivots.  It is
    written apart from `exactlinalg._gauss_jordan`, and divides and
    updates every entry, so the kernels and solutions are checked against
    an elimination that shares none of their code.  It reads every entry
    as a Fraction, so int entries divide exactly too."""
    a = [[Fraction(x) for x in row] for row in m.rows]
    pivots = []
    for col in range(m.ncols):
        r = len(pivots)
        piv = next((i for i in range(r, m.nrows) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][col]
        a[r] = [x / p for x in a[r]]
        for i in range(m.nrows):
            if i != r:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots


def reference_inverse(m):
    """The inverse of a square QMatrix read off the reference form of
    [m | I], or None when m is singular."""
    n = m.nrows
    red, pivots = reference_rref(QMatrix(
        [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(m.rows)]))
    if pivots[:n] != list(range(n)):
        return None
    return QMatrix([row[n:] for row in red])


def test_rank_known():
    m = QMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(m) == 2
    assert rank_second_opinion(m) == 2
    assert rank(QMatrix(identity(4))) == 4
    assert rank(QMatrix([[0] * 5] * 3)) == 0


def test_kernel_known():
    m = QMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    basis = dense_kernel(m)
    assert len(basis) == 1
    assert basis[0] == (Fraction(-1), Fraction(-1), Fraction(1))


def test_solve_and_inconsistent():
    m = QMatrix([[1, 1], [1, -1]])
    assert solve(m, (Fraction(3), Fraction(1))) == (Fraction(2), Fraction(1))
    bad = QMatrix([[1, 1], [2, 2]])
    assert solve(bad, (Fraction(1), Fraction(3))) is None


def test_reference_inverse():
    m = QMatrix([[2, 1], [1, 1]])
    inv = reference_inverse(m)
    assert matmul(m, inv) == identity(2)
    assert reference_inverse(QMatrix([[1, 2], [2, 4]])) is None


# mostly zeros, with denominators that make row lcms non-trivial
rationals = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9),
              st.sampled_from([1, 2, 3, 5, 7, 12])))


def rational_rows(n, m):
    return st.lists(st.lists(rationals, min_size=m, max_size=m),
                    min_size=n, max_size=n)


@st.composite
def qmatrices(draw):
    """Up to 8 x 8, square, tall or wide, with some whole rows and
    columns zeroed."""
    n, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rows = draw(rational_rows(n, w))
    zero_rows = draw(st.sets(st.integers(0, n - 1)))
    zero_cols = draw(st.sets(st.integers(0, w - 1)))
    return QMatrix([[0 if i in zero_rows or j in zero_cols else x
                     for j, x in enumerate(row)]
                    for i, row in enumerate(rows)])


def assert_ranks_agree(m):
    """Bareiss, Gauss and the transpose all give one rank; returns it."""
    r = rank(m)
    assert rank_second_opinion(m) == r
    assert rank(transpose(m)) == r
    assert rank_second_opinion(transpose(m)) == r
    return r


@settings(max_examples=150, deadline=None)
@given(qmatrices())
def test_rank_properties(m):
    r1 = assert_ranks_agree(m)
    basis = dense_kernel(m)
    assert r1 + len(basis) == m.ncols
    for v in basis:
        assert all(x == 0 for x in mulvec(m, v))
    # kernel vectors are independent by the unit-in-free-column construction
    if basis:
        km = QMatrix(basis)
        assert rank(km) == len(basis)


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(1, 8), st.integers(1, 7), st.integers(1, 8))
       .flatmap(lambda s: st.tuples(rational_rows(s[0], s[1]),
                                    rational_rows(s[1], s[2]))))
def test_rank_routes_agree_on_products(ab):
    # the inner dimension bounds the rank, often below both outer ones
    a, b = QMatrix(ab[0]), QMatrix(ab[1])
    r = assert_ranks_agree(QMatrix(matmul(a, b)))
    assert r <= min(assert_ranks_agree(a), assert_ranks_agree(b))


@pytest.mark.parametrize("n, w", [(8, 2), (2, 8), (8, 8), (8, 1), (1, 8)])
def test_rank_tall_wide_and_full(n, w):
    # Hilbert-like entries 1/(i+j+1): every square minor is nonzero
    m = QMatrix([[Fraction(1, i + j + 1) for j in range(w)]
                 for i in range(n)])
    assert assert_ranks_agree(m) == min(n, w)
    # a zero row and a zero column, and a repeated row
    rows = [list(r) for r in m.rows]
    rows[0] = [Fraction(0)] * w
    for row in rows:
        row[-1] = Fraction(0)
    rows.append(rows[-1])
    assert assert_ranks_agree(QMatrix(rows)) == min(n - 1, w - 1)


def test_rank_updates_rows_with_zero_pivot_entry():
    # determinant 1; the middle row is 0 in the first pivot column, and
    # leaving it un-updated makes the last division inexact: the floor
    # of 1/2 would report rank 2
    m = QMatrix([[2, -2, -1], [0, -1, -2], [1, 0, 1]])
    assert assert_ranks_agree(m) == 3


@settings(max_examples=80, deadline=None)
@given(qmatrices())
def test_solve_property(m):
    x = tuple(Fraction(k + 1) for k in range(m.ncols))
    rhs = mulvec(m, x)
    got = solve(m, rhs)
    assert got is not None
    assert mulvec(m, got) == rhs
    # the particular solution: free columns 0, pivot columns read off the
    # reference form of [m | rhs]
    red, pivots = reference_rref(QMatrix(
        [list(row) + [b] for row, b in zip(m.rows, rhs)]))
    want = [Fraction(0)] * m.ncols
    for r, pc in enumerate(pivots):
        want[pc] = red[r][m.ncols]
    assert got == tuple(want)


@st.composite
def permuted_block_diagonals(draw):
    """Block-diagonal rational matrices up to random row and column
    permutations, with all-zero rows and columns among them."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                           min_size=1, max_size=4))
    n = sum(h for h, _ in shapes) + draw(st.integers(0, 2))
    w = sum(c for _, c in shapes) + draw(st.integers(0, 2))
    rows = [[Fraction(0)] * w for _ in range(n)]
    top = left = 0
    for h, c in shapes:
        for i, row in enumerate(draw(rational_rows(h, c))):
            rows[top + i][left:left + c] = row
        top, left = top + h, left + c
    row_order = draw(st.permutations(range(n)))
    col_order = draw(st.permutations(range(w)))
    return QMatrix([[rows[i][j] for j in col_order] for i in row_order])


def submatrix(m, rows, cols):
    return QMatrix([[m.rows[i][j] for j in cols] for i in rows])


def rref_kernel(m):
    """The kernel read off the whole-matrix reference echelon form."""
    red, pivots = reference_rref(m)
    basis = []
    for free in range(m.ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * m.ncols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(tuple(v))
    return basis


def assert_block_ranks(m):
    """The block ranks sum to the whole-matrix rank under both routes."""
    parts = [submatrix(m, rows, cols)
             for rows, cols in blocks(sparse_rows(m), m.ncols) if rows]
    assert sum(map(rank, parts)) == rank(m)
    assert sum(map(rank_second_opinion, parts)) == rank_second_opinion(m)


@settings(max_examples=150, deadline=None)
@given(permuted_block_diagonals())
def test_blocks_are_the_components_and_keep_rank_and_kernel(m):
    split = blocks(sparse_rows(m), m.ncols)
    nonzero = [(i, j) for i, row in enumerate(m.rows)
               for j, x in enumerate(row) if x]
    row_of = {i: k for k, (rows, _) in enumerate(split) for i in rows}
    col_of = {j: k for k, (_, cols) in enumerate(split) for j in cols}
    assert sum(len(cols) for _, cols in split) == m.ncols == len(col_of)
    assert sum(len(rows) for rows, _ in split) == len(row_of)
    assert set(row_of) == {i for i, _ in nonzero}
    assert all(row_of[i] == col_of[j] for i, j in nonzero)
    for k, (rows, cols) in enumerate(split):
        assert rows == sorted(rows) and cols == sorted(cols)
        # connected: a walk over nonzeros from the first column reaches
        # every column of the block
        seen, todo = {cols[0]}, [cols[0]]
        while todo:
            j = todo.pop()
            for i in rows:
                if m.rows[i][j]:
                    for jj in cols:
                        if m.rows[i][jj] and jj not in seen:
                            seen.add(jj)
                            todo.append(jj)
        assert seen == set(cols)
    assert_block_ranks(m)
    assert dense_kernel(m) == rref_kernel(m)


def test_blocks_of_an_empty_and_a_zero_matrix():
    assert blocks([], 0) == []
    assert blocks([{}], 0) == []
    assert blocks([{}, {}], 3) == [([], [0]), ([], [1]), ([], [2])]
    zero = QMatrix([[0, 0], [0, 0]])
    assert dense_kernel(zero) == rref_kernel(zero)


def test_blocks_skip_empty_rows():
    rows = [{}, {2: 1, 0: 3}, {}, {1: -2}, {}, {4: 1, 2: 5}]
    assert blocks(rows, 5) == [([1, 5], [0, 2, 4]), ([3], [1]), ([], [3])]


# sparse-matrix entries: mostly zero, often a unit, sometimes a non-unit
sparse_ints = st.sampled_from([0, 0, 0, 1, -1, 1, 2, -3, 4])
sparse_mixed = st.one_of(sparse_ints, st.builds(
    Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3])))


@st.composite
def int_and_mixed_matrices(draw):
    """Up to 8 x 8 dense rows, either all ints or ints mixed with
    Fractions (some of them integral), with some whole rows zeroed."""
    n, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entries = draw(st.sampled_from([sparse_ints, sparse_mixed]))
    rows = draw(st.lists(st.lists(entries, min_size=w, max_size=w),
                         min_size=n, max_size=n))
    for i in draw(st.sets(st.integers(0, n - 1))):
        rows[i] = [0] * w
    return QMatrix(rows), [{j: x for j, x in enumerate(row) if x}
                           for row in rows]


@settings(max_examples=200, deadline=None)
@given(int_and_mixed_matrices())
def test_kernel_basis_matches_reference_and_keeps_ints(case):
    m, rows = case
    basis = kernel_basis(rows, m.ncols)
    assert dense(basis, m.ncols) == rref_kernel(m)
    for v in basis:
        for x in v.values():
            assert type(x) is (int if x.denominator == 1 else Fraction)


def restricted_complexes():
    """Every flat cell with n <= 3, t <= 3, then four point algebras:
    lsa2, abelian(2), abelian(3) and aff1."""
    for n in (1, 2, 3):
        conn = FlatConnection(ChartContext(
            coords=tuple(f"x{i + 1}" for i in range(n))))
        for t in (0, 1, 2, 3):
            yield TruncatedComplex(conn, t)
    for dim, constants in ((2, {(0, 1, 1): 1}), (2, {}), (3, {}),
                           (2, {(0, 0, 0): -1, (1, 0, 1): -1})):
        yield RestrictedComplex.point(FiniteAlgebra(dim, constants))


def test_flat_cells_block_ranks_and_kernels_match_whole_matrix():
    """At degrees 1..4 of every complex above: each restricted basis,
    written out dense, is the kernel of the whole dense membership matrix,
    vector for vector in the same order, and the coboundary matrices
    `lsa.restricted_dims` ranks keep their rank when split."""
    for cx in restricted_complexes():
        for degree in (1, 2, 3, 4):
            ncols = cx.space_dim(degree)
            member = QMatrix(dense(cx.membership_matrix(degree), ncols)
                             or [[0] * ncols])
            basis = cx.restricted_basis(degree)
            assert dense(basis, ncols) == rref_kernel(member)
            if basis:
                cols = dense(cx.coboundary_matrix(degree, basis),
                             cx.space_dim(degree + 1))
                assert_block_ranks(QMatrix(list(zip(*cols))))


# ---------------------------------------------------------------------------
# symbolic matrices


def sctx():
    return ChartContext(coords=("x", "y"))


def test_determinant_symbolic():
    c = sctx()
    m = ExprMatrix(c, [[c.expr("x"), c.expr("1")],
                       [c.expr("1"), c.expr("y")]])
    assert determinant(m) == c.expr("x*y - 1")


def test_invert_symbolic_and_involution():
    c = sctx()
    m = ExprMatrix(c, [[c.expr("1 + x^2"), c.expr("0")],
                       [c.expr("x"), c.expr("1")]])
    inv = invert(m)
    assert m.matmul(inv) == ExprMatrix.identity(c, 2)
    assert invert(inv) == m


def test_invert_and_transpose_small_sizes():
    # the adjugate of a 1x1 matrix is the determinant of a 0x0 minor, 1
    c = sctx()
    x = c.expr("x")
    assert invert(ExprMatrix(c, [[x]])) == ExprMatrix(c, [[c.one() / x]])
    empty = ExprMatrix(c, [])
    assert invert(empty) == empty
    assert empty.transpose() == empty


def test_invert_reports_vanishing_determinant():
    c = sctx()
    m = ExprMatrix(c, [[c.expr("x"), c.expr("x*y")],
                       [c.expr("1"), c.expr("y")]])
    with pytest.raises(SingularMatrixError) as e:
        invert(m)
    assert e.value.determinant.is_zero()


@pytest.mark.parametrize("build", [lambda: fixtures.r2n_structure(4),
                                   fixtures.sphere_structure],
                         ids=["r2n-4", "sphere"])
def test_invert_leaves_no_cyclic_garbage(build):
    # determinant's memoising closure is released on return, so its memo
    # and minors are freed by reference counting
    pairing = build().pairing
    gc.collect()
    gc.disable()
    try:
        invert(pairing)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_skew_inverse_relation():
    # the inverse of a skew matrix is skew
    c = sctx()
    w = ExprMatrix(c, [[c.zero(), c.expr("y")],
                       [c.expr("-y"), c.zero()]])
    inv = invert(w)
    assert inv.add(inv.transpose()).is_zero()
    assert w.matmul(inv) == ExprMatrix.identity(c, 2)


def test_expr_rank_kernel_solve():
    c = sctx()
    m = ExprMatrix(c, [[c.expr("x"), c.expr("x*y")],
                       [c.expr("1"), c.expr("y")]])
    assert expr_rank(m) == 1
    basis = expr_kernel_basis(m)
    assert len(basis) == 1
    assert all(e.is_zero() for e in m.mulvec(basis[0]))
    rhs = (c.expr("x"), c.expr("1"))
    got = expr_solve(m, rhs)
    assert got is not None
    assert all((a - b).is_zero()
               for a, b in zip(m.mulvec(got), rhs))
    assert expr_solve(m, (c.expr("1"), c.expr("1"))) is None


def test_expr_elimination_with_zero_and_unit_pivots():
    # column 0 needs a row swap past a zero, its pivot is the unit 1, the
    # pivot of column 2 is y, and the last row reduces to zero
    c = sctx()
    x, y = c.expr("x"), c.expr("y")
    zero, one = c.zero(), c.one()
    m = ExprMatrix(c, [[zero, zero, y, one],
                       [one, x, zero, y],
                       [x, x * x, zero, x * y]])
    assert expr_rank(m) == 2
    assert expr_kernel_basis(m) == [(-x, one, zero, zero),
                                    (-y, zero, -one / y, one)]
    assert expr_solve(m, (one, one, x)) == (one, zero, one / y, zero)
    assert expr_solve(m, (one, one, one)) is None


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_cofactor_inverse_matches_rational_inverse(rows):
    """Dual-route check: adjugate inversion over the expression field against
    the independent rational Gauss-Jordan inverse."""
    qm = QMatrix(rows)
    c = sctx()
    em = ExprMatrix(c, rows)
    qi = reference_inverse(qm)
    if qi is None:
        assert determinant(em).is_zero()
        return
    ei = invert(em)
    for i in range(3):
        for j in range(3):
            assert ei.rows[i][j].constant_value() == qi.rows[i][j]


# -- the Pfaffian inverse of a skew matrix ------------------------------------


_SKEW_POOL = ("0",) * 4 + ("1", "-2", "x", "y", "x*y", "x - y", "y^2 + 1",
                           "1/(x + 1)")


@st.composite
def skew_matrices(draw):
    """Skew matrices of size 1..6 over (x, y), entries from a small pool
    with a rational one among them."""
    c = sctx()
    n = draw(st.integers(1, 6))
    rows = [[c.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = c.expr(draw(st.sampled_from(_SKEW_POOL)))
            rows[i][j], rows[j][i] = w, -w
    return ExprMatrix(c, rows)


@settings(max_examples=60, deadline=None)
@given(skew_matrices())
def test_pfaffian_inverse_matches_adjugate(m):
    """Pf minors over Pf(W) against the adjugate over det W, entry by
    entry; a singular skew matrix is singular by both routes."""
    try:
        want = _invert_adjugate(m)
    except SingularMatrixError as exc:
        assert exc.determinant.is_zero()
        with pytest.raises(SingularMatrixError) as got:
            _invert_skew(m)
        assert got.value.determinant.is_zero()
        return
    assert _invert_skew(m) == want


INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def _skew_pairings():
    """The skew pairing of every perfbench input that has one."""
    out = []
    for path in sorted(INPUTS.glob("*.psa")):
        E = load_path(str(path)).structure
        if E is not None and E._skew:
            out.append(pytest.param(E.pairing, id=path.stem))
    return out


@pytest.mark.parametrize("pairing", _skew_pairings())
def test_pfaffian_inverse_matches_adjugate_on_inputs(pairing):
    assert _invert_skew(pairing) == _invert_adjugate(pairing)


def test_singular_skew_pairing_keeps_its_witness():
    """Pf(W) = 0 for this rank-4 pairing, so det W = 0, and the check
    reports the determinant as the adjugate route did."""
    c = sctx()
    z, one, x = c.zero(), c.one(), c.expr("x")
    cell = (z,) * 4
    w = [[z, one, x, z], [-one, z, z, z], [-x, z, z, z], [z, z, z, z]]
    E = PreSymStructure(c, ("e1", "e2", "e3", "e4"), [[z, z]] * 4,
                        [[cell] * 4 for _ in range(4)], w)
    assert E._skew
    with pytest.raises(SingularMatrixError) as exc:
        _invert_skew(E.pairing)
    assert exc.value.determinant.is_zero()
    got = check_presymplectic(E).find("presym.pairing-nondegenerate")
    assert got.witness == "pairing determinant vanishes: 0"

