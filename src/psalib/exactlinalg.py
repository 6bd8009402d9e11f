"""Exact linear algebra over Q and over the symbolic scalar field.

QMatrix holds int and Fraction entries as given.  rank clears each
row's denominators and runs integer-preserving Bareiss elimination on
Python ints with deterministic first-nonzero pivoting.  Every other elimination, over both
fields, is one first-nonzero-pivot Gauss-Jordan over the field itself
(`_gauss_jordan`): kernels, solutions, the symbolic rank `expr_rank`,
and `rank_second_opinion`, the rank that cross-checks Bareiss `rank`
without sharing its code.  ExprMatrix holds DiffExpr entries; inversion
is cofactor-based with subset-memoized Laplace determinants, sized for
the small matrices that occur here.  `invert` takes a skew matrix W
through its Pfaffian minors over Pf(W) (`_invert_skew`), so the only new
denominator is Pf(W), of half the degree of det W = Pf(W)^2.

`blocks` splits a sparse matrix ({column: entry} rows) into the connected
blocks of its nonzero pattern: up to a permutation it is block-diagonal
over them, so its rank is the sum of the block ranks and its kernel the
direct sum of the block kernels.  `kernel_basis` takes sparse rows and
returns sparse vectors, and `lsa.restricted_dims` ranks its sparse
matrices block by block: only a block is ever written out dense.  The
sparse rows and vectors hold ints where an entry is integral.
`kernel_basis` and `rank_second_opinion` reduce each dense block on its
int and Fraction entries as given, so a Fraction appears only where a
pivot does not divide an entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .exprcore import ChartContext, DiffExpr

__all__ = [
    "QMatrix",
    "ExprMatrix",
    "SingularMatrixError",
    "rank",
    "rank_second_opinion",
    "blocks",
    "kernel_basis",
    "narrow",
    "solve",
    "invert",
    "expr_rank",
    "expr_kernel_basis",
    "expr_solve",
]


class SingularMatrixError(Exception):
    def __init__(self, determinant):
        super().__init__(f"singular matrix (determinant = {determinant})")
        self.determinant = determinant


class QMatrix:
    """Immutable rational matrix.  An int or Fraction entry is kept as
    given; any other is converted with Fraction."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = tuple(tuple(x if type(x) in (int, Fraction) else Fraction(x)
                           for x in r) for r in rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged rows")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0


def rank(m: QMatrix) -> int:
    """Rank by integer-preserving Bareiss elimination, first-nonzero pivots.

    Each row is first scaled by the lcm of its denominators, which keeps
    the rank, so the elimination runs on Python ints.  Every row below
    the pivot gets the update (a * p - f * pivot_row) // prev, also when
    its pivot-column entry f is 0: that keeps every entry an integer
    minor of the cleared matrix (Bareiss 1968), so each division is exact.
    """
    a = []
    for row in m.rows:
        scale = lcm(*(x.denominator for x in row))
        a.append([x.numerator * (scale // x.denominator) for x in row])
    n, w = m.nrows, m.ncols
    prev = 1
    r = 0
    for col in range(w):
        piv = None
        for i in range(r, n):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        prow = a[r][col:]
        p = prow[0]
        for i in range(r + 1, n):
            row = a[i]
            f = row[col]
            if f:
                row[col:] = [(x * p - f * y) // prev
                             for x, y in zip(row[col:], prow)]
            else:
                row[col:] = [x * p // prev for x in row[col:]]
        prev = p
        r += 1
        if r == n:
            break
    return r


def rank_second_opinion(m: QMatrix) -> int:
    """Independent rank oracle: Gauss-Jordan over the rationals (ints
    divided exactly by `_quotient`), coded apart from the Bareiss
    `rank`."""
    return len(_gauss_jordan(m.rows, m.ncols)[1])


def _gauss_jordan(rows, ncols: int):
    """Reduced row echelon form by Gauss-Jordan with first-nonzero pivots,
    over any field whose only falsy element is zero: Fraction, DiffExpr,
    or ints and Fractions mixed, which `_quotient` divides exactly.  A
    unit pivot row is not divided, and only its nonzero entries update
    the other rows.  Returns (rows, pivot column list)."""
    a = [list(r) for r in rows]
    n = len(a)
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, n):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        p = prow[col]
        if p != 1:
            prow[:] = [_quotient(x, p) if x else x for x in prow]
        for i in range(n):
            f = a[i][col]
            if f and i != r:
                a[i] = [x - f * y if y else x for x, y in zip(a[i], prow)]
        pivots.append(col)
        r += 1
        if r == n:
            break
    return a, pivots


def _quotient(x, p):
    """x / p, exactly: of two ints, an int when p divides x and a Fraction
    when it does not (int / int would be a float); otherwise x / p."""
    if type(x) is int and type(p) is int:
        q, rem = divmod(x, p)
        return Fraction(x, p) if rem else q
    return x / p


def blocks(rows, ncols: int):
    """(row indices, column indices) of each connected component of the
    row/column graph of the nonzero entries of sparse `rows` ({column:
    entry} each) over columns 0..ncols-1, by union-find over the columns,
    in order of first column; indices ascend in each.  An all-zero column
    is a block with no rows; empty rows are in none."""
    parent = list(range(ncols))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for row in rows:
        if row:
            cols = iter(row)
            root = find(next(cols))
            for j in cols:
                parent[find(j)] = root
    out = {}
    for j in range(ncols):
        root = find(j)
        block = out.get(root)
        if block is None:
            block = out[root] = ([], [])
        block[1].append(j)
    for i, row in enumerate(rows):
        if row:
            out[find(next(iter(row)))][0].append(i)
    return list(out.values())


def _kernel(rows, ncols: int, zero, one):
    """Right kernel basis of sparse `rows` (as `blocks` takes them), one
    sparse vector per free column, unit in it, in free-column order.  The
    reduced echelon form is taken block by block, each block dense with
    its entries as given; it is unique, so each vector is the one the
    whole-matrix form gives."""
    basis = []
    for rs, cols in blocks(rows, ncols):
        red, pivots = _gauss_jordan(
            [[row.get(j, zero) for j in cols]
             for row in map(rows.__getitem__, rs)], len(cols))
        pivset = set(pivots)
        for free in range(len(cols)):
            if free in pivset:
                continue
            v = {cols[free]: one}
            for r, pc in enumerate(pivots):
                if red[r][free]:
                    v[cols[pc]] = -red[r][free]
            basis.append((cols[free], v))
    basis.sort(key=lambda fv: fv[0])
    return [v for _, v in basis]


def _solve_augmented(aug, ncols: int, zero):
    """One solution from the augmented matrix [m | rhs], or None."""
    red, pivots = _gauss_jordan(aug.rows, aug.ncols)
    if ncols in pivots:
        return None
    x = [zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return tuple(x)


def narrow(x):
    """An int or Fraction `x` as an int when it is integral."""
    return x.numerator if x.denominator == 1 else x


def kernel_basis(rows, ncols: int):
    """Basis of the right kernel of sparse rational `rows` (int or
    Fraction entries) over `ncols` columns, as sparse vectors, one per
    free column, unit in it.  Each block is reduced on its entries as
    given: a Fraction appears only where a pivot does not divide, and an
    integral kernel entry comes back as an int."""
    return [{j: narrow(x) for j, x in v.items()}
            for v in _kernel(rows, ncols, 0, 1)]


def solve(m: QMatrix, rhs):
    """One solution of m x = rhs, or None if inconsistent."""
    aug = QMatrix([list(r) + [rhs[i]] for i, r in enumerate(m.rows)])
    return _solve_augmented(aug, m.ncols, Fraction(0))


# ---------------------------------------------------------------------------
# symbolic matrices


class ExprMatrix:
    """Immutable matrix of symbolic scalars over one chart context."""

    __slots__ = ("ctx", "rows", "nrows", "ncols")

    def __init__(self, ctx: ChartContext, rows):
        rows = tuple(tuple(map(ctx.number, r)) for r in rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged rows")
        self.ctx = ctx
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0

    @staticmethod
    def identity(ctx, n):
        one, zero = ctx.one(), ctx.zero()
        return ExprMatrix(ctx, [[one if i == j else zero for j in range(n)]
                                for i in range(n)])

    def transpose(self):
        return ExprMatrix(self.ctx, list(zip(*self.rows)))

    def matmul(self, other: "ExprMatrix") -> "ExprMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        ot = other.transpose().rows
        z = self.ctx.zero()
        return ExprMatrix(self.ctx, [
            [sum((r[k] * c[k] for k in range(self.ncols)), z) for c in ot]
            for r in self.rows])

    def mulvec(self, v):
        z = self.ctx.zero()
        return tuple(sum((r[j] * v[j] for j in range(self.ncols)), z)
                     for r in self.rows)

    def add(self, other: "ExprMatrix") -> "ExprMatrix":
        return ExprMatrix(self.ctx, [
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.rows, other.rows)])

    def sub(self, other: "ExprMatrix") -> "ExprMatrix":
        return ExprMatrix(self.ctx, [
            [a - b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.rows, other.rows)])

    def is_zero(self) -> bool:
        return all(x.is_zero() for r in self.rows for x in r)

    def __eq__(self, other):
        return (isinstance(other, ExprMatrix)
                and self.nrows == other.nrows and self.ncols == other.ncols
                and all(a == b for r1, r2 in zip(self.rows, other.rows)
                        for a, b in zip(r1, r2)))


def determinant(m: ExprMatrix) -> DiffExpr:
    """Laplace expansion with memoization over (depth, column subset)."""
    if m.nrows != m.ncols:
        raise ValueError("not square")
    n = m.nrows
    if n == 0:
        return m.ctx.one()
    rows = m.rows
    memo: dict = {}

    def sub_det(depth: int, cols: tuple) -> DiffExpr:
        if len(cols) == 1:
            return rows[depth][cols[0]]
        got = memo.get((depth, cols))
        if got is not None:
            return got
        total = m.ctx.zero()
        for k, c in enumerate(cols):
            a = rows[depth][c]
            if a.is_zero():
                continue
            rest = cols[:k] + cols[k + 1:]
            term = a * sub_det(depth + 1, rest)
            total = total + term if k % 2 == 0 else total - term
        memo[(depth, cols)] = total
        return total

    try:
        return sub_det(0, tuple(range(n)))
    finally:
        # sub_det closes over its own name: release that cycle, and with
        # it the memo, without waiting for the collector
        del sub_det


def invert(m: ExprMatrix) -> ExprMatrix:
    """Inverse of a square matrix: a skew one by its Pfaffian minors
    (`_invert_skew`), any other by its adjugate (`_invert_adjugate`).
    Raises SingularMatrixError with the vanishing determinant if the
    matrix is not invertible over the scalar field."""
    if m.nrows == m.ncols and _is_skew(m):
        return _invert_skew(m)
    return _invert_adjugate(m)


def _is_skew(m: ExprMatrix) -> bool:
    rows = m.rows
    return not any((rows[i][j] + rows[j][i]).num
                   for i in range(m.nrows) for j in range(i, m.nrows))


def _invert_adjugate(m: ExprMatrix) -> ExprMatrix:
    """Adjugate inverse; raises SingularMatrixError with the vanishing
    determinant if the matrix is not invertible over the scalar field."""
    if m.nrows != m.ncols:
        raise ValueError("not square")
    det = determinant(m)
    if det.is_zero():
        raise SingularMatrixError(det)
    n = m.nrows
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            # adj[i][j] = (-1)^(i+j) * minor deleting row j, column i
            minor = ExprMatrix(m.ctx, [
                [m.rows[r][c] for c in range(n) if c != i]
                for r in range(n) if r != j])
            cof = determinant(minor)
            if (i + j) % 2:
                cof = -cof
            row.append(cof / det)
        out.append(row)
    return ExprMatrix(m.ctx, out)


def _invert_skew(m: ExprMatrix) -> ExprMatrix:
    """Inverse of a skew matrix W: entry (i, j) is
    (-1)^(i+j+1+[j>i]) Pf(W without rows and columns i, j) / Pf(W).
    Expanding Pf(W) along row i gives W C^T = Pf(W) I for C of entries
    (-1)^(i+j+1+[i>j]) Pf(W without i, j).  Pfaffians expand along their
    first row, memoised over index subsets.  Raises SingularMatrixError
    with determinant 0 if Pf(W) is 0 (always, at odd size)."""
    n = m.nrows
    rows, ctx = m.rows, m.ctx
    zero = ctx.zero()
    memo: dict = {(): ctx.one()}

    def pf(idx: tuple) -> DiffExpr:
        got = memo.get(idx)
        if got is None:
            got = zero
            if len(idx) % 2 == 0:
                row = rows[idx[0]]
                for k in range(1, len(idx)):
                    a = row[idx[k]]
                    if a.num:
                        t = a * pf(idx[1:k] + idx[k + 1:])
                        got = got + t if k % 2 else got - t
            memo[idx] = got
        return got

    try:
        full = pf(tuple(range(n)))
        if full.is_zero():
            raise SingularMatrixError(full)
        inv = ctx.one() / full
        out = [[zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                minor = pf(tuple(k for k in range(n) if k != i and k != j))
                if minor.num:
                    x = minor * inv
                    # the sign (-1)^(i+j+1+[j>i]) is (-1)^(i+j) for
                    # j > i, and entry (j, i) is the negative of (i, j)
                    out[i][j], out[j][i] = (x, -x) if (i + j) % 2 == 0 \
                        else (-x, x)
    finally:
        del pf
    return ExprMatrix(ctx, out)


def expr_rank(m: ExprMatrix) -> int:
    """Generic rank over the symbolic scalar field (valid off the vanishing
    loci of the pivots' denominators)."""
    return len(_gauss_jordan(m.rows, m.ncols)[1])


def expr_kernel_basis(m: ExprMatrix):
    """`kernel_basis` over the symbolic field, dense in and out."""
    zero = m.ctx.zero()
    rows = [{j: x for j, x in enumerate(r) if x} for r in m.rows]
    return [tuple(v.get(j, zero) for j in range(m.ncols))
            for v in _kernel(rows, m.ncols, zero, m.ctx.one())]


def expr_solve(m: ExprMatrix, rhs):
    """One solution of m x = rhs over the symbolic field, or None."""
    aug = ExprMatrix(m.ctx, [list(r) + [rhs[i]]
                             for i, r in enumerate(m.rows)])
    return _solve_augmented(aug, m.ncols, m.ctx.zero())
