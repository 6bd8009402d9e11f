"""Finite-dimensional algebras at a point: products and cochains.

Products are stored as structure constants over a fixed basis
(`FiniteAlgebra`).  The restricted cochain complex (`RestrictedComplex`)
lives here; its membership rows, coboundary columns and restricted basis
vectors are sparse {position: entry} dicts.  An entry is an int when its
value is integral; a Fraction comes only from a non-integral structure
constant or from a kernel pivot (`exactlinalg.kernel_basis` divides).
`restricted_dims` is the one way from a restricted complex to its
dimensions: it splits each matrix into the connected blocks of its
nonzero pattern, writes out only a block as a dense `QMatrix` (its int
and Fraction entries as built), and ranks every block by both
eliminations.
Everything is exact rational arithmetic.  The rest of the point case runs
on the point chart `algebroid.ChartAlgebroid.point(alg)`:
`algebroid.check_left_symmetric` checks left-symmetry there, its
`commutator_algebroid` is the commutator algebra, def-ii of
`presym.check_presymplectic` is the invariance of a pairing, and
`presym.presym_from_symplectic` on a Lie point chart such as that
commutator is the product of a symplectic Lie algebra.  A symbolic
cochain at a point is an `exactclass.ChartCochain` over
`ChartAlgebroid.point(alg)`, and `exactclass.chart_coboundary` is its
coboundary.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .exactlinalg import (QMatrix, blocks, kernel_basis, narrow, rank,
                          rank_second_opinion)

__all__ = [
    "FiniteAlgebra",
    "RestrictedComplex",
    "sorted_sign",
    "cochain_keys",
    "cochain_dim",
    "restricted_dims",
]


class FiniteAlgebra:
    """A bilinear product on a finite-dimensional space, as structure
    constants: e_a * e_b = sum_k c[a][b][k] e_k.  Its products and its
    checks run on its point chart, `algebroid.ChartAlgebroid.point`."""

    def __init__(self, dim: int, constants, names=None):
        self.dim = dim
        c = {}
        for (a, b, k), v in constants.items():
            v = Fraction(v)
            if v:
                c[(a, b, k)] = v
        self.constants = c
        self.names = tuple(names) if names else tuple(
            f"e{i+1}" for i in range(dim))
        if len(self.names) != dim:
            raise ValueError("wrong number of basis names")


# ---------------------------------------------------------------------------
# scalar cochains


def sorted_sign(seq):
    """(sorted tuple, permutation sign) of a sequence of distinct entries;
    (None, 0) when an entry repeats."""
    seq = list(seq)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(seq)):
        if seq[i - 1] == seq[i]:
            return None, 0
    return tuple(seq), sign


def cochain_keys(dim: int, degree: int):
    """Canonical component keys: strictly increasing first block plus a
    free last index."""
    return [(subset, k)
            for subset in itertools.combinations(range(dim), degree - 1)
            for k in range(dim)]


def cochain_dim(rank: int, degree: int, ncoeffs: int = 1) -> int:
    """The dimension of the degree-`degree` cochain space: one coordinate
    per canonical key (`cochain_keys`) and coefficient basis element,
    counted without enumerating them."""
    return math.comb(rank, degree - 1) * rank * ncoeffs


class RestrictedComplex:
    """The restricted scalar cochain complex of a left-symmetric product
    with constant structure constants, with coefficients in a finite
    space that the frame acts on.

    A full-space coordinate is a canonical key and a coefficient basis
    element, at position key index * ncoeffs + element index.  At a point
    the coefficients are the constants (ncoeffs 1) and the frame acts by
    0.  On a chart, `action[a]` lists (column, row, value): the anchor of
    e_a sends basis element `column` to the sum of value * element `row`.
    On a q-cochain the coboundary is

      d phi(x_0..x_{q-1}, y) = sum_t (-1)^t (rho(x_t) phi(..^x_t.., y)
                                             - phi(..^x_t.., x_t * y))
                             + sum_{t<u} (-1)^(t+u) phi([x_t,x_u], .., y)

    (the last sum's middle slots are the x's other than x_t and x_u),
    and the restricted subspaces are cut out by: degree 1,
    rho(a) phi(b) - rho(b) phi(a) - phi([a,b]) = 0; degree 2, symmetry;
    degree 3, zero cyclic sum; degree >= 4, nothing.

    Both operators are first written on keys, as terms (row key, column
    key, scalar, direction) where the direction is None for a scalar
    multiple and a frame index for a scalar times that frame's action,
    and then spread over the coefficient basis, into sparse rows
    (membership) and sparse columns (coboundary).  Integral structure
    constants are kept as ints, so on integral input every entry of
    both operators is an int.
    """

    def __init__(self, rank: int, constants=None, ncoeffs: int = 1,
                 action=None):
        self.rank = rank
        self.ncoeffs = ncoeffs
        self._action = {None: [(i, i, 1) for i in range(ncoeffs)]}
        for a in range(rank):
            self._action[a] = list(action[a]) if action else []
        # (a, b) -> nonzero (k, value) of e_a * e_b and of [e_a, e_b]
        self._product = {}
        bracket = {}
        for (a, b, k), v in (constants or {}).items():
            v = narrow(v)
            self._product.setdefault((a, b), []).append((k, v))
            bracket[(a, b, k)] = bracket.get((a, b, k), 0) + v
            bracket[(b, a, k)] = bracket.get((b, a, k), 0) - v
        self._bracket = {}
        for (a, b, k), v in bracket.items():
            if v:
                self._bracket.setdefault((a, b), []).append((k, v))

    @classmethod
    def point(cls, alg: FiniteAlgebra) -> "RestrictedComplex":
        return cls(alg.dim, alg.constants)

    def space_dim(self, degree: int) -> int:
        return cochain_dim(self.rank, degree, self.ncoeffs)

    def _key_positions(self, degree: int):
        return {key: i for i, key in
                enumerate(cochain_keys(self.rank, degree))}

    def _spread(self, terms):
        """{(row position, column position): value} of key-level terms."""
        m = self.ncoeffs
        out = {}
        for row_key, col_key, value, direction in terms:
            for col, row, scale in self._action[direction]:
                pos = (row_key * m + row, col_key * m + col)
                out[pos] = out.get(pos, 0) + value * scale
        return out

    def _membership_terms(self, degree: int):
        r, kpos = self.rank, self._key_positions(degree)
        terms = []
        if degree == 1:
            for row, (a, b) in enumerate(itertools.combinations(range(r), 2)):
                terms.append((row, kpos[((), b)], 1, a))
                terms.append((row, kpos[((), a)], -1, b))
                for k, v in self._bracket.get((a, b), ()):
                    terms.append((row, kpos[((), k)], -v, None))
        elif degree == 2:
            for row, (a, b) in enumerate(itertools.combinations(range(r), 2)):
                terms.append((row, kpos[((a,), b)], 1, None))
                terms.append((row, kpos[((b,), a)], -1, None))
        elif degree == 3:
            for row, (a, b, c) in enumerate(
                    itertools.combinations(range(r), 3)):
                terms.append((row, kpos[((a, b), c)], 1, None))
                terms.append((row, kpos[((b, c), a)], 1, None))
                terms.append((row, kpos[((a, c), b)], -1, None))
        return terms

    def _coboundary_terms(self, degree: int):
        kpos = self._key_positions(degree)
        terms = []
        for row, (subset, last) in enumerate(
                cochain_keys(self.rank, degree + 1)):
            for t, i in enumerate(subset):
                rest = subset[:t] + subset[t + 1:]
                sign = 1 if t % 2 == 0 else -1
                terms.append((row, kpos[(rest, last)], sign, i))
                for k, v in self._product.get((i, last), ()):
                    terms.append((row, kpos[(rest, k)], -sign * v, None))
            for t, u in itertools.combinations(range(len(subset)), 2):
                i, j = subset[t], subset[u]
                rest = subset[:t] + subset[t + 1:u] + subset[u + 1:]
                for k, v in self._bracket.get((i, j), ()):
                    key, sign = sorted_sign((k,) + rest)
                    if (t + u) % 2:
                        sign = -sign
                    if sign:
                        terms.append((row, kpos[(key, last)], sign * v, None))
        return terms

    def membership_matrix(self, degree: int):
        """Constraint rows whose kernel is the restricted subspace: the
        nonzero ones, each a sparse {full-space position: entry}, an int
        where the entry is integral."""
        rows = {}
        for (row, col), v in self._spread(
                self._membership_terms(degree)).items():
            if v:
                rows.setdefault(row, {})[col] = v
        return [rows[i] for i in sorted(rows)]

    def restricted_basis(self, degree: int):
        """Basis vectors of the restricted subspace, each a sparse
        {full-space position: entry}: ints where integral, a Fraction
        where a kernel pivot divides (`exactlinalg.kernel_basis`)."""
        return kernel_basis(self.membership_matrix(degree),
                            self.space_dim(degree))

    def coboundary_matrix(self, degree: int, vectors):
        """Columns: the coboundary of each given sparse full-space vector
        ({position: entry}), as a sparse {row position: entry}, an int
        where the entry is integral."""
        delta = {}
        for (row, col), v in self._spread(
                self._coboundary_terms(degree)).items():
            if v:
                delta.setdefault(col, []).append((row, v))
        cols = []
        for vec in vectors:
            col = {}
            for j, c in vec.items():
                for row, v in delta.get(j, ()):
                    col[row] = col.get(row, 0) + c * v
            cols.append({row: narrow(x) for row, x in col.items() if x})
        return cols


def restricted_dims(cx, degree: int) -> dict:
    """(dim ker, dim im, dim quotient) of the restricted complex `cx` at
    one degree, under both eliminations: {"bareiss": ..., "gauss": ...}.

    `cx` is a `RestrictedComplex` or an `exactclass.TruncatedComplex`.
    The kernel is that of the coboundary leaving the restricted subspace,
    the image that of the coboundary entering it from the restricted
    subspace one degree lower.  Each matrix is built once, as sparse
    columns, and split into the connected blocks of its nonzero pattern
    (`exactlinalg.blocks`); only a block is written out as a dense
    `QMatrix`.  A rank is the sum of the block ranks, and every block is
    ranked by `rank` (Bareiss) and by the independently coded
    `rank_second_opinion` (Gauss).
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")

    def split(d, vectors):
        if not vectors:
            return []
        cols = cx.coboundary_matrix(d, vectors)
        return [QMatrix([[cols[j].get(i, 0) for j in vecs] for i in rows])
                for vecs, rows in blocks(cols, cx.space_dim(d + 1)) if vecs]

    basis = cx.restricted_basis(degree)
    below = cx.restricted_basis(degree - 1) if basis and degree > 1 else []
    leaving, entering = split(degree, basis), split(degree - 1, below)
    dims = {}
    for route, ranker in (("bareiss", rank), ("gauss", rank_second_opinion)):
        ker = len(basis) - sum(map(ranker, leaving))
        im = sum(map(ranker, entering))
        dims[route] = (ker, im, ker - im)
    return dims
