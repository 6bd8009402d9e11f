"""Skew-paired product structures on a chart frame.

The carrier stores a frame product table (in general neither symmetric
nor skew), an anchor, and a nondegenerate skew pairing.  Products of
function-coefficient sections are generated from the frame table by the
two scalar extension identities together with the pairing-gradient
operator D; check_presymplectic verifies the defining identities, the
extension identities, the cyclic trace identity, and the D-compatibility
rule, each with a formal function slot where the identity is not
C-infinity-linear.

Both correspondence directions live here as well: commutator plus
pairing yields a bracket structure with a closed 2-form, and a bracket
structure with a closed nondegenerate 2-form determines the product
table uniquely through the pairing's inverse.

A section is a tuple of DiffExpr, one per frame element: a frame_section,
a basis section of add_basis, or a result of an operation.  Each section
operation has one name, and callers outside and inside the module call
the same one (star, bracket, pairing_value, associator, tensor_T,
anchor_of, anchor_apply); none of them converts its arguments.  A frame
index or a number is not a section: frame_section(a) is e_a, and
ctx.number turns a number into a scalar.

Products of basis sections are memoised.  Every structure's frame
sections are built once and form the start of its basis;
check_presymplectic appends the formal-function slots f e_a of its
extended structure.  star keeps e * e' for basis sections e, e' keyed by
their basis positions, so the memo holds at most (2r)^2 entries for a
frame of rank r, and each product the def-i, def-ii and cyclic-T loops
share is computed once; bracket keeps [e, e'] the same way.  A memoised
product or bracket that vanishes is stored as the structure's one
shared zero section, an immutable tuple of the context's zero, and star,
e_a * v and the pairing return at once when an argument is that tuple:
on a flat chart, whose frame table is empty, most frame products are
zero.  A general section times a basis section reads each e_a * v from
the memo.  The pairing walks the support of its arguments: with a frame
on either side it is one row or column of the pairing matrix, and the
table of 1/2 W_ab that the D corrections of star multiply by is built
once per structure.

T and def-i are written over the commutator section c = u*v - v*u.  The
pairing is bilinear, so T(u,v,w) = (c, w) + (u, v*w) - (v, u*w), three
pairings where the definition takes four; the section product is
additive in its left slot, so (u,v,w) - (v,u,w) = u*(v*w) - v*(u*w)
- c*w, three fresh products where the two associators take four.  On a
skew pairing c = [u, v] on every section, the memoised bracket: the
-1/2 (W_ab + W_ba) D terms that the two scalar extension identities add
cancel exactly when W_ab + W_ba = 0.  Off a skew pairing
(check_presymplectic reports it, and still runs the other checks) c is
the difference of the two products.

On a skew pairing the formal-function slots f e_a of def-i, def-ii and
cyclic-T follow from frame-level quantities (check_presymplectic states
the three lemmas).  The derivations use only the rules the products are
built from, for a scalar g: (g u)*v = g u*v - 1/2 (u,v) Dg,
u*(g v) = g u*v + rho(u)(g) v + 1/2 (u,v) Dg, [g u, v] = g [u,v]
- rho(v)(g) u, [u, g v] = g [u,v] + rho(u)(g) v, D(gh) = g Dh + h Dg,
rho(g u) = g rho(u), the pairing's C-infinity-bilinearity, and
(Dg, w) = rho(w)(g), which holds on a skew pairing.
  def-ii, R(u,v,w) = rho(u)(v,w) - (u*v - 1/2 D(u,v), w) - (v, [u,w]).
In slot 1, (f u)*v - 1/2 D(f (u,v)) = f (u*v - 1/2 D(u,v)) - (u,v) Df
and (v, [f u, w]) = f (v, [u,w]) - rho(w)(f) (v,u), so
R(f u,v,w) = f R + rho(w)(f) ((u,v) + (v,u)).  In slot 2, rho(u) of
f (v,w) adds rho(u)(f) (v,w), and u*(f v) - 1/2 D(f (u,v)) adds
rho(u)(f) v, whose pairing with w takes it away; in slot 3, rho(u) of
(v, f w) adds rho(u)(f) (v,w), and so does (v, [u, f w]).
  T, on a skew pairing ([u,v],w) + (u,v*w) - (v,u*w).  In slot 1,
([f u, v], w) contributes -rho(v)(f) (u,w) and -(v, (f u)*w) contributes
1/2 (u,w) (v,Df) = -1/2 (u,w) rho(v)(f), so T(f u,v,w) = f T
- 3/2 (u,w) rho(v)(f).  Slots 2 and 3 go the same way, and the
anomalies of the three rotations of (f u, v, w) cancel pairwise.
  def-i, P(u,v,w) = u*(v*w) - v*(u*w) - [u,v]*w - 1/6 D T(u,v,w).  In
slot 0 the four terms give f P plus
-1/2 (u,v*w) Df;
-rho(v)(f) u*w - 1/2 (v,u*w) Df + 1/2 (u,w) v*Df
+ 1/2 rho(v)(u,w) Df - 1/4 rho(v)(f) D(u,w);
1/2 ([u,v],w) Df + rho(v)(f) u*w - 1/2 (u,w) D(rho(v)f); and
-1/6 T Df + 1/4 rho(v)(f) D(u,w) + 1/4 (u,w) D(rho(v)f).
The u*w and D(u,w) terms cancel, and with T = ([u,v],w) + (u,v*w)
- (v,u*w) the rest is c0 Df + 1/2 (u,w) SD(v).  In slot 2,
u*(v*(f w)) - v*(u*(f w)) leaves, besides f times its frame value,
1/2 ((u,v*w) - (v,u*w) + rho(u)(v,w) - rho(v)(u,w)) Df,
[rho(u), rho(v)](f) w, 1/2 (v,w) u*Df - 1/2 (u,w) v*Df,
1/2 (u,w) D(rho(v)f) - 1/2 (v,w) D(rho(u)f) and
1/4 (rho(v)(f) D(u,w) - rho(u)(f) D(v,w)).  -[u,v]*(f w) adds
-rho([u,v])(f) w, which completes M(u,v) f, and -1/2 ([u,v],w) Df;
-1/6 D T(u,v,f w) adds -1/6 T Df, halves the D(rho f) terms into the
SD terms and cancels the last pair.  f P carries the bare symbol f and
each anomaly only partials of f, so neither can cancel the other.

The identity loops compute each loop-invariant piece once.  def-ii's
section u*v - 1/2 D(u,v) depends on (u, v) only, so each group of its
scan (the frame triples, and off a skew pairing f e_a in slot 1, 2
and 3) builds it once per (u, v) and pairs it with the r values of w.
Every other intermediate section, such as u*(v*w), is recomputed where
it is used, and D's cache (by its scalar) is the only memo keyed by a
value; each other memo is keyed by basis positions and lives as long as
its structure.  Rejected: caching the 1/6 D(T) entries by T, which raises
the tracemalloc peak of the check; memoising e_a * X by (a, X), which
raises the peak resident memory and saves no def-i time (BENCH_23.json).

D's cache entry for f holds D f together with the r frame derivatives
rho(e_a)(f) it is built from, which take each partial of f once
(ChartAlgebroid.frame_derivatives), and the scalar is differentiated
about once per check.  e_a * v needs D(v_b) where 1/2 W_ab is nonzero
and then reads rho(e_a)(v_b) from v_b's entry; elsewhere it, and the anchor
action of a frame, read the entry if v_b already has one and otherwise
differentiate v_b along e_a alone and cache nothing.  D's minus sign is
folded into the cached rows of -W^-1, whose unit entries are the
context's one, so D f holds those derivatives themselves rather than
copies; D f is stored dense.  Rejected: memoising the anchor action by
(frame, scalar), which, even with the sign fold, peaks higher than
keeping the derivatives in D's entry (BENCH_24.json).

Basis sections name their structure by a private token, not by the
structure itself, so no section refers back to it: a structure, the
extended structure of its check, and their memos are freed by reference
counting once the last reference to them goes.

The products walk nonzero entries only: every frame-table cell (shared
with ChartAlgebroid) and every pairing row and column carries the list
of its nonzero (k, value) entries, built once, and the loops over a
dense D image skip its zero entries.  A frame e_a on the left of star
goes straight to e_a * v.  extended() builds its structure over the same
context and the formal symbol f is an expression of that context
(ChartContext.formal_function), so no product mixes expressions of two
contexts and the shared zero and one keep their shortcuts.  Zero tests
in these loops read DiffExpr.num, the numerator, directly.

Every scan of check_presymplectic and check_dirac, as of every other
suite, hands CheckReport.scan only its nonzero residuals (def-i through
components, and only for a residual with a nonzero component), so a
label is formatted only for an instance that fails: on a passing input
the scans build no label at all.  The enumeration order, and so every
witness, is that of the full scan.
"""

import itertools
from fractions import Fraction
from operator import sub

from .algebroid import (ChartAlgebroid, FormField, de_rham_d, nonzero_entries,
                        product_associator, scalar_rule)
from .exactlinalg import (ExprMatrix, SingularMatrixError, expr_rank,
                          expr_solve, invert)
from .exprcore import ChartContext, DiffExpr
from .report import CheckReport, components, section_str

__all__ = [
    "PreSymStructure", "Subbundle", "tensor_T",
    "check_presymplectic", "symplectic_from_presym", "presym_from_symplectic",
    "pseudo_semidirect", "check_dirac",
]


class _BasisSection(tuple):
    """A section tuple that knows its structure and its position in that
    structure's basis."""

    owner = None
    pos = -1


class PreSymStructure:
    """Frame product table + anchor + skew nondegenerate pairing."""

    def __init__(self, ctx: ChartContext, names, anchor, table, pairing):
        # reuse the algebroid carrier for shape validation and anchor work
        self._prod = ChartAlgebroid(ctx, names, anchor, table, kind="lsa")
        self.ctx = ctx
        self.names = self._prod.names
        self.rank = self._prod.rank
        self.anchor = self._prod.anchor
        self.table = self._prod.table
        self._table_nz = self._prod._table_nz
        if not isinstance(pairing, ExprMatrix):
            pairing = ExprMatrix(ctx, pairing)
        if pairing.nrows != self.rank or pairing.ncols != self.rank:
            raise ValueError("pairing must be rank x rank")
        self.pairing = pairing
        # (b, w) for each nonzero pairing entry w = (e_a, e_b), by row a
        self._pairing_nz = tuple(nonzero_entries(row) for row in pairing.rows)
        # (a, w) for each nonzero pairing entry w = (e_a, e_b), by column b
        self._pairing_cols = tuple(nonzero_entries(col)
                                   for col in zip(*pairing.rows))
        # the commutator u*v - v*u is the bracket, and the formal-slot
        # lemmas of check_presymplectic hold (see the module docstring)
        self._skew = all(
            (pairing.rows[a][b] + pairing.rows[b][a]).is_zero()
            for a in range(self.rank) for b in range(a, self.rank))
        self._half = ctx.number(Fraction(1, 2))
        self._sixth = ctx.number(Fraction(1, 6))
        # 1/2 W_ab by row a, and its nonzero (b, value) entries
        self._half_pairing = tuple(tuple(self._half * w for w in row)
                                   for row in pairing.rows)
        self._half_nz = tuple(nonzero_entries(row)
                              for row in self._half_pairing)
        # every vanishing memoised product or bracket is this one tuple
        self._zero = (ctx.zero(),) * self.rank
        self._inv_pairing = None
        self._neg_inv_nz = None
        self._comm = None
        # f -> (D f, (rho(e_1)(f), ..., rho(e_r)(f)))
        self._d_cache: dict[DiffExpr, tuple] = {}
        # the owner of this structure's basis sections; a token rather
        # than the structure, so that no section refers back to it
        self._token = object()
        self._basis: tuple = ()
        self._basis_products: dict[tuple[int, int], tuple] = {}
        self._basis_brackets: dict[tuple[int, int], tuple] = {}
        self._frames = self.add_basis(
            self._prod.frame_section(a) for a in range(self.rank))

    # -- derived pieces -----------------------------------------------------

    @property
    def inverse_pairing(self) -> ExprMatrix:
        if self._inv_pairing is None:
            self._inv_pairing = invert(self.pairing)
        return self._inv_pairing

    def commutator_algebroid(self) -> ChartAlgebroid:
        """The bracket structure u*v - v*u with the same anchor."""
        if self._comm is None:
            self._comm = self._prod.commutator_algebroid()
        return self._comm

    def frame_section(self, a: int):
        if 0 <= a < self.rank:
            return self._frames[a]
        return self._prod.frame_section(a)

    def add_basis(self, sections) -> tuple:
        """Append sections to the basis whose pairwise products star
        memoises, and return them as the basis sections to pass in.

        Only the returned objects hit the memo; an equal section built
        elsewhere is multiplied afresh.
        """
        start = len(self._basis)
        added = []
        for pos, x in enumerate(sections, start):
            sec = _BasisSection(self._section(x))
            sec.owner, sec.pos = self._token, pos
            added.append(sec)
        self._basis = self._basis + tuple(added)
        return tuple(added)

    def _basis_pos(self, x):
        if type(x) is _BasisSection and x.owner is self._token:
            return x.pos
        return None

    def _section(self, x):
        """x as a tuple of DiffExpr: a tuple (a basis section among them)
        as it is, any other sequence of DiffExpr copied into one."""
        return x if isinstance(x, tuple) else tuple(x)

    def anchor_of(self, u):
        return self._prod.anchor_of(u)

    def anchor_apply(self, u, f: DiffExpr) -> DiffExpr:
        """rho(u)(f); f is differentiated only along the chart directions
        that the anchor of u reaches (see ChartAlgebroid.anchor_apply)."""
        return self._prod.anchor_apply(u, f)

    def _act(self, u, f: DiffExpr) -> DiffExpr:
        """anchor_apply, except that a frame of this structure goes
        through _frame_apply, which reads D's cache."""
        a = self._basis_pos(u)
        if a is not None and a < self.rank:
            return self._frame_apply(a, f)
        return self._prod.anchor_apply(u, f)

    def _frame_apply(self, a: int, f: DiffExpr) -> DiffExpr:
        """rho(e_a)(f), read from D's cache when f has an entry there and
        computed alone (and not cached) otherwise."""
        if f.is_constant():
            return self.ctx.zero()
        cached = self._d_cache.get(f)
        if cached is not None:
            return cached[1][a]
        return self._prod.frame_apply(a, f)

    def pairing_value(self, u, v) -> DiffExpr:
        """(u, v).  A frame e_b of this structure on the right leaves the
        dot product of u with column b of the pairing, a frame e_a on the
        left that of row a with v; otherwise the rows of u's support meet
        the support of v."""
        acc = self.ctx.zero()
        if u is self._zero or v is self._zero:
            return acc
        b = self._basis_pos(v)
        if b is not None and b < self.rank:
            for a, w in self._pairing_cols[b]:
                ua = u[a]
                if ua.num:
                    acc = acc + ua * w
            return acc
        a = self._basis_pos(u)
        if a is not None and a < self.rank:
            for b, w in self._pairing_nz[a]:
                vb = v[b]
                if vb.num:
                    acc = acc + vb * w
            return acc
        for a, row in enumerate(self._pairing_nz):
            ua = u[a]
            if not ua.num:
                continue
            for b, w in row:
                if v[b].num:
                    acc = acc + ua * v[b] * w
        return acc

    def D(self, f: DiffExpr):
        """The section dual to rho(.)(f) under the pairing."""
        return self._d(f)[0]

    def _d(self, f: DiffExpr):
        """(D f, the frame derivatives rho(e_a)(f) it is built from),
        computed once per f.  The rows of -W^-1 carry D's sign, and an
        entry equal to 1 is the context's one, so a unit entry leaves the
        derivative itself in D f."""
        cached = self._d_cache.get(f)
        if cached is None:
            rows = self._neg_inv_nz
            if rows is None:
                one = self.ctx.one()
                neg = ([-x for x in row] for row in self.inverse_pairing.rows)
                rows = self._neg_inv_nz = tuple(
                    nonzero_entries(one if x.is_one() else x for x in row)
                    for row in neg)
            ders = self._prod.frame_derivatives(f)
            zero = self.ctx.zero()
            out = tuple(sum((x * ders[j] for j, x in row), zero)
                        for row in rows)
            cached = self._d_cache[f] = (out, ders)
        return cached

    # -- products on sections ------------------------------------------------

    def _basis_memo(self, memo: dict, fn, u, v):
        """fn(u, v), memoised under basis positions when both arguments
        are basis sections of this structure (see add_basis); the basis is
        fixed and small, so the memo is bounded by its square.  Any other
        pair is computed afresh."""
        if (type(u) is not _BasisSection or type(v) is not _BasisSection
                or u.owner is not self._token
                or v.owner is not self._token):
            return fn(u, v)
        key = (u.pos, v.pos)
        out = memo.get(key)
        if out is None:
            out = fn(u, v)
            if not any(out):
                out = self._zero
            memo[key] = out
        return out

    def star(self, u, v):
        """The section product u * v (memoised on basis sections)."""
        return self._basis_memo(self._basis_products, self._star, u, v)

    def _star(self, u, v):
        zero = self._zero
        if u is zero or v is zero:
            return zero
        a = self._basis_pos(u)
        if a is not None and a < self.rank:
            return self._frame_star(a, v)
        out = [self.ctx.zero()] * self.rank
        for a, ua in enumerate(u):
            if not ua.num:
                continue
            # e_a * v, memoised when v is a basis section
            ea_v = self.star(self._frames[a], v)
            if ea_v is not zero:
                for k, x in enumerate(ea_v):
                    if x.num:
                        out[k] = out[k] + ua * x
            if not ua.is_constant():
                # (f e_a) * v picks up -1/2 (e_a, v) D f
                hp = self.ctx.zero()
                for b, hw in self._half_nz[a]:
                    if v[b].num:
                        hp = hp + v[b] * hw
                if hp.num:
                    for k, x in enumerate(self._d(ua)[0]):
                        if x.num:
                            out[k] = out[k] - hp * x
        return tuple(out)

    def _frame_star(self, a: int, v):
        """e_a * v with the transport and D corrections."""
        if v is self._zero:
            return v
        out = [self.ctx.zero()] * self.rank
        cells = self._table_nz[a]
        hw_a = self._half_pairing[a]
        for b, vb in enumerate(v):
            if not vb.num:
                continue
            for k, x in cells[b]:
                out[k] = out[k] + vb * x
            if vb.is_constant():
                continue
            hw = hw_a[b]
            if hw.num:
                # D(v_b) and rho(e_a)(v_b) come from one cache entry
                dv, ders = self._d(vb)
                der = ders[a]
            else:
                dv, der = None, self._frame_apply(a, vb)
            if der.num:
                out[b] = out[b] + der
            if dv is not None:
                for k, x in enumerate(dv):
                    if x.num:
                        out[k] = out[k] + hw * x
        return tuple(out)

    def bracket(self, u, v):
        """The commutator bracket [u, v] (memoised on basis sections)."""
        return self._basis_memo(self._basis_brackets,
                                self.commutator_algebroid().bracket, u, v)

    def associator(self, u, v, w):
        return product_associator(self.star, u, v, w)

    def extended(self):
        """A fresh structure over the same context, sharing this one's
        pairing inverse, and the context's formal function symbol: the
        formal basis sections, memos and D entries of a check live on it
        and go with it."""
        ps = PreSymStructure(self.ctx, self.names, self.anchor, self.table,
                             self.pairing)
        ps._inv_pairing = self._inv_pairing
        return ps, self.ctx.formal_function()


def _commutator(E: PreSymStructure, u, v):
    """u*v - v*u: on a skew pairing the memoised bracket [u, v] (see the
    module docstring), otherwise the difference of the two products."""
    if E._skew:
        return E.bracket(u, v)
    return tuple(map(sub, E.star(u, v), E.star(v, u)))


def tensor_T(E: PreSymStructure, u, v, w) -> DiffExpr:
    """(u*v, w) + (u, v*w) - (v*u, w) - (v, u*w), as (c, w) + (u, v*w)
    - (v, u*w) with c = u*v - v*u: the pairing is bilinear."""
    return (E.pairing_value(_commutator(E, u, v), w)
            + E.pairing_value(u, E.star(v, w))
            - E.pairing_value(v, E.star(u, w)))


def _def_i_residual(E: PreSymStructure, u, v, w, t: DiffExpr):
    """(u,v,w) - (v,u,w) - 1/6 D T(u,v,w), componentwise, given
    t = T(u,v,w).

    The associator difference is u*(v*w) - v*(u*w) - c*w with
    c = u*v - v*u: the product is additive in its left slot.
    """
    out = list(E._star(u, E.star(v, w)))
    for y in (E._star(v, E.star(u, w)), E._star(_commutator(E, u, v), w)):
        if y is E._zero:
            continue
        for k, x in enumerate(y):
            if x.num:
                out[k] = out[k] - x
    return _less_d(E, out, E._sixth, t)


def _less_d(E: PreSymStructure, s, c: DiffExpr, p: DiffExpr):
    """The section s - c Dp for scalars c and p, as a tuple: s itself
    when s is a tuple and p is zero."""
    if not p.num:
        return tuple(s)
    out = list(s)
    for k, x in enumerate(E._d(p)[0]):
        if x.num:
            out[k] = out[k] - c * x
    return tuple(out)


def _def_ii_left(E: PreSymStructure, u, v):
    """u*v - 1/2 D(u,v), the section that def-ii pairs with w."""
    return _less_d(E, E.star(u, v), E._half, E.pairing_value(u, v))


def _def_ii_residual(E: PreSymStructure, u, v, w, s) -> DiffExpr:
    """rho(u)(v,w) - (u*v - 1/2 D(u,v), w) - (v, [u,w]), given
    s = _def_ii_left(E, u, v), which does not depend on w."""
    lhs = E._act(u, E.pairing_value(v, w))
    rhs = E.pairing_value(s, w) + E.pairing_value(v, E.bracket(u, w))
    return lhs - rhs


def _star_with_d(E: PreSymStructure, a: int, df):
    """e_a * Df - 1/2 D(Df, e_a), given Df: the star-with-D residual at
    e_a, and on a skew pairing, where (Df, e_a) = rho(e_a)(f), the
    section SD(e_a) of def-i's formal-slot anomalies."""
    return _less_d(E, E._frame_star(a, df), E._half,
                   E.pairing_value(df, E._frames[a]))


def _combination(E: PreSymStructure, terms):
    """The section sum of c * s over the (scalar c, section s) terms."""
    out = [E.ctx.zero()] * E.rank
    for c, s in terms:
        if not c.num:
            continue
        for k, x in enumerate(s):
            if x.num:
                out[k] = out[k] + c * x
    return out


def check_presymplectic(E: PreSymStructure) -> CheckReport:
    """The defining identities on frame triples with formal-function slots.

    Both sides of identity (i) are antisymmetric in the first two slots,
    so its pure-frame triples run over a < b and the formal slot-0
    variant (which covers slot 1 by that antisymmetry) over all ordered
    pairs; identity (ii) has no slot symmetry and runs in full.  T is
    evaluated once per triple of basis sections and shared by (i) and
    the cyclic identity.

    On a skew pairing three lemmas decide the formal-slot cases from
    frame-level quantities.  They use only the rules the products are
    built from: (g u)*v = g u*v - 1/2 (u,v) Dg and u*(g v) = g u*v +
    rho(u)(g) v + 1/2 (u,v) Dg; [g u, v] = g [u,v] - rho(v)(g) u and
    [u, g v] = g [u,v] + rho(u)(g) v; D(gh) = g Dh + h Dg;
    rho(g u) = g rho(u); and (Dg, w) = rho(w)(g), which holds when the
    pairing is skew.

    1. def-ii.  With R(u,v,w) its residual,
       R(f u, v, w) = f R + rho(w)(f) ((u,v) + (v,u)), and in slots 2
       and 3 the terms in f's derivatives cancel one by one, so every
       formal case is f R(u,v,w).  The frame triples run first and decide
       the verdict and the witness; the formal groups are not evaluated.
    2. cyclic-T.  T(f u,v,w) = f T - 3/2 (u,w) rho(v)(f),
       T(u,f v,w) = f T + 3/2 (v,w) rho(u)(f) and
       T(u,v,f w) = f T + 3/2 ((u,w) rho(v)(f) - (v,w) rho(u)(f)).  Over
       the three rotations of (f u, v, w) these anomalies sum to
       3/2 (((u,v) + (v,u)) rho(w)(f) - ((u,w) + (w,u)) rho(v)(f)), which
       is zero, so the cyclic sum is f times its frame value.  That value
       is antisymmetric in every pair of slots, so the frame triples
       a < b < c decide it, and the formal group is not evaluated.
    3. def-i.  With P(u,v,w) its residual, SD(v) = v*Df - 1/2 D(rho(v)f)
       and M(u,v) = [rho(u), rho(v)] - rho([u,v]):
       P(f u,v,w) - f P = c0 Df + 1/2 (u,w) SD(v), with
       c0 = 1/3 T - (u, v*w) + 1/2 rho(v)(u,w); and
       P(u,v,f w) - f P = c2 Df + 1/2 (v,w) SD(u) - 1/2 (u,w) SD(v)
       + (M(u,v) f) w, with
       c2 = (u, v*w) - (v, u*w) + 1/2 (rho(u)(v,w) - rho(v)(u,w)) - 2/3 T.
       f P carries the bare symbol f and the anomaly only f's partials,
       so a formal case is nonzero exactly when its frame residual (known
       from the u < v group, as P is antisymmetric in u, v) or its anomaly
       is.  The formal cases run in the same order, and only those that
       fail this screen have their residual evaluated and reported.
    A non-skew pairing evaluates every formal case.
    """
    rec = CheckReport()
    r = E.rank
    rec.scan("presym.pairing-skew", (
        (f"(e{a+1},e{b+1}) + (e{b+1},e{a+1}) = ", res)
        for a in range(r) for b in range(a, r)
        if (res := E.pairing.rows[a][b] + E.pairing.rows[b][a])))

    def nondegenerate():
        try:
            E.inverse_pairing
        except SingularMatrixError as exc:
            yield f"pairing determinant vanishes: {exc.determinant}", True

    if not rec.scan("presym.pairing-nondegenerate", nondegenerate()):
        # D and the section product are undefined without the inverse
        rec.skip("not evaluated: pairing is degenerate", "presym.def-i",
                 "presym.def-ii", "presym.scalar-left", "presym.scalar-right",
                 "presym.bracket-leibniz", "presym.star-with-D",
                 "presym.cyclic-T", "presym.D-reproducing")
        return rec

    # the frames and the formal slots f e_a are the extended structure's
    # basis, so star memoises every product of two of them
    ext, f = E.extended()
    frames = [ext.frame_section(a) for a in range(r)]
    f_slots = ext.add_basis(
        tuple(f if k == a else ext.ctx.zero() for k in range(r))
        for a in range(r))
    # T on basis sections, by basis positions (frames, then formal slots)
    nb = 2 * r
    t_memo = [None] * nb ** 3

    def T(u, v, w):
        i = (u.pos * nb + v.pos) * nb + w.pos
        t = t_memo[i]
        if t is None:
            t = t_memo[i] = tensor_T(ext, u, v, w)
        return t

    skew = ext._skew
    zero, half = ext.ctx.zero(), ext._half
    third, two_thirds = (ext.ctx.number(Fraction(k, 3)) for k in (1, 2))
    W, half_W = ext.pairing.rows, ext._half_pairing
    # star-with-D's residual at e_a, SD(e_a) on a skew pairing
    sd_memo = [None] * r

    def sd(a):
        if sd_memo[a] is None:
            sd_memo[a] = _star_with_d(ext, a, ext.D(f))
        return sd_memo[a]

    def frame_t(u, v, w):
        # T(e_u, e_v, e_w) from the u < v triples; T is antisymmetric in
        # its first two slots
        if u == v:
            return zero
        if u < v:
            return T(frames[u], frames[v], frames[w])
        return -T(frames[v], frames[u], frames[w])

    def pair_times(u, v, w):
        # (e_u, e_v * e_w)
        return ext.pairing_value(frames[u], ext.star(frames[v], frames[w]))

    def slot_0_anomaly(u, v, w):
        # P(f e_u, e_v, e_w) - f P(e_u, e_v, e_w), lemma 3
        c0 = (third * frame_t(u, v, w) - pair_times(u, v, w)
              + half * ext._frame_apply(v, W[u][w]))
        return _combination(ext, ((c0, ext.D(f)), (half_W[u][w], sd(v))))

    m_memo = {}

    def slot_2_anomaly(u, v, w):
        # P(e_u, e_v, f e_w) - f P(e_u, e_v, e_w) for u < v, lemma 3
        c2 = (pair_times(u, v, w) - pair_times(v, u, w)
              + half * (ext._frame_apply(u, W[v][w])
                        - ext._frame_apply(v, W[u][w]))
              - two_thirds * frame_t(u, v, w))
        out = _combination(ext, ((c2, ext.D(f)), (half_W[v][w], sd(u)),
                                 (-half_W[u][w], sd(v))))
        m = m_memo.get((u, v))
        if m is None:
            # M(e_u, e_v) f = rho(e_u)(rho(e_v) f) - rho(e_v)(rho(e_u) f)
            # - rho([e_u, e_v]) f
            ders = ext._d(f)[1]
            m = ext._frame_apply(u, ders[v]) - ext._frame_apply(v, ders[u])
            for k, c in enumerate(ext.bracket(frames[u], frames[v])):
                if c.num:
                    m = m - c * ders[k]
            m_memo[(u, v)] = m
        out[w] = out[w] + m
        return out

    def d_reproducing():
        df = ext.D(f)
        for b in range(r):
            res = (ext.pairing_value(df, frames[b])
                   - ext.anchor_apply(frames[b], f))
            if res:
                yield f"(Df,e{b+1}) - rho(e{b+1})(f) = ", res

    def def_ii():
        # the frame triples, then (off a skew pairing, lemma 1) f e_a in
        # slot 1, 2 and 3; the section u*v - 1/2 D(u,v) is built once per
        # (u, v), before its r values of w
        groups = (("", frames, frames, frames),
                  (", formal f in slot 1", f_slots, frames, frames),
                  (", formal f in slot 2", frames, f_slots, frames),
                  (", formal f in slot 3", frames, frames, f_slots))
        for tag, us, vs, ws in groups[:1] if skew else groups:
            for u, v in itertools.product(range(r), repeat=2):
                x, y = us[u], vs[v]
                s = _def_ii_left(ext, x, y)
                for w in range(r):
                    res = _def_ii_residual(ext, x, y, ws[w], s)
                    if res.num:
                        yield (f"(e{u+1},e{v+1},e{w+1}){tag}: residual ",
                               res)

    def def_i():
        # (e_u, e_v, e_w) for u < v, then (f e_u, e_v, e_w) for every
        # (u, v), then (e_u, e_v, f e_w) for u < v; on a skew pairing a
        # formal case is evaluated only when lemma 3 says it is nonzero
        failing = set()
        for u, v in itertools.combinations(range(r), 2):
            for w in range(r):
                x, y, z = frames[u], frames[v], frames[w]
                res = _def_i_residual(ext, x, y, z, T(x, y, z))
                if any(res):
                    failing.add((u, v, w))
                    yield from components(f"(e{u+1},e{v+1},e{w+1}): ", res,
                                          E.names)
        for tag_u, tag_w, us, ws, pairs, anomaly in (
                ("f ", "", f_slots, frames,
                 itertools.product(range(r), repeat=2), slot_0_anomaly),
                ("", "f ", frames, f_slots,
                 itertools.combinations(range(r), 2), slot_2_anomaly)):
            for u, v in pairs:
                for w in range(r):
                    if (skew and (min(u, v), max(u, v), w) not in failing
                            and not any(x.num for x in anomaly(u, v, w))):
                        continue
                    x, y, z = us[u], frames[v], ws[w]
                    res = _def_i_residual(ext, x, y, z, T(x, y, z))
                    if any(res):
                        yield from components(
                            f"({tag_u}e{u+1},e{v+1},{tag_w}e{w+1}): ", res,
                            E.names)

    def d_term(sign):
        # +-1/2 (e_a, e_b) Df: the D term of e_a * (f e_b), and with the
        # minus sign that of (f e_a) * e_b
        def correction(a, b):
            c = half_W[a][b]
            return [sign * c * x for x in ext.D(f)] if c.num else None
        return correction

    def scalar_cases(label, op, act, table, correction):
        for a, b, res in scalar_rule(op, act, table, f, frames, f_slots,
                                     correction):
            yield from components(label.format(a + 1, b + 1), res, E.names)

    def star_with_d():
        for a in range(r):
            yield from components(f"e{a+1} * Df - 1/2 D(Df,e{a+1}), ",
                                  sd(a), E.names)

    def cyclic_t():
        # the frame triples a < b < c, then (off a skew pairing, lemma 2)
        # f e_a in slot 1
        groups = (("", frames, itertools.combinations(range(r), 3)),
                  ("f ", f_slots, itertools.product(range(r), repeat=3)))
        for tag, us, triples in groups[:1] if skew else groups:
            for u, v, w in triples:
                x, y, z = us[u], frames[v], frames[w]
                res = T(x, y, z) + T(y, z, x) + T(z, x, y)
                if res.num:
                    yield f"({tag}e{u+1},e{v+1},e{w+1}): ", res

    rec.scan("presym.D-reproducing", d_reproducing())
    rec.scan("presym.def-ii", def_ii())
    rec.scan("presym.def-i", def_i())
    rec.scan("presym.scalar-left", scalar_cases(
        "e{} * (f e{}), ", ext.star, ext.anchor_apply, ext.table, d_term(1)))
    rec.scan("presym.scalar-right", scalar_cases(
        "(f e{}) * e{}, ", ext.star, None, ext.table, d_term(-1)))
    rec.scan("presym.bracket-leibniz", scalar_cases(
        "[e{}, f e{}], ", ext.bracket, ext.anchor_apply,
        ext.commutator_algebroid().table, None))
    rec.scan("presym.star-with-D", star_with_d())
    rec.scan("presym.cyclic-T", cyclic_t())
    return rec


# ---------------------------------------------------------------------------
# the two correspondence directions


def symplectic_from_presym(E: PreSymStructure):
    """Commutator bracket structure plus the pairing as a 2-form."""
    lie = E.commutator_algebroid()
    comps = {}
    for a in range(E.rank):
        for b in range(a + 1, E.rank):
            w = E.pairing.rows[a][b]
            if not w.is_zero():
                comps[(a, b)] = w
    form = FormField(E.ctx, E.rank, 2, comps)
    return lie, form


def presym_from_symplectic(lie: ChartAlgebroid, form: FormField
                           ) -> PreSymStructure:
    """Solve w(e_a * e_b, .) = rho(e_a)w(e_b, .) + 1/2 rho(.)w(e_a, e_b)
    - w(e_b, [e_a, .]) for the product table; unique by nondegeneracy.
    The structure keeps the inverse of w that the solve used."""
    if lie.kind != "lie":
        raise ValueError("input must be a bracket (kind 'lie') structure")
    if form.degree != 2 or form.rank != lie.rank:
        raise ValueError("need a 2-form on the same frame")
    r, ctx = lie.rank, lie.ctx
    half = ctx.number(Fraction(1, 2))
    omega = ExprMatrix(ctx, [[form.value_frame((a, b)) for b in range(r)]
                             for a in range(r)])
    try:
        inv = invert(omega)
    except SingularMatrixError as exc:
        raise ValueError(
            f"2-form is degenerate (determinant {exc.determinant})") from exc
    residual = de_rham_d(lie, form)
    if residual.components:
        key = next(iter(sorted(residual.components)))
        raise ValueError(
            f"2-form is not closed: d-component {key} = "
            f"{residual.components[key]}")
    frames = [lie.frame_section(a) for a in range(r)]
    table = []
    for a in range(r):
        row = []
        for b in range(r):
            rhs = []
            for c in range(r):
                t = lie.anchor_apply(frames[a], omega.rows[b][c]) \
                    + half * lie.anchor_apply(frames[c], omega.rows[a][b])
                cell = lie.table[a][c]
                for d in range(r):
                    if not cell[d].is_zero() and \
                            not omega.rows[b][d].is_zero():
                        t = t - cell[d] * omega.rows[b][d]
                rhs.append(t)
            col = inv.mulvec(rhs)
            row.append(tuple(-x for x in col))
        table.append(row)
    E = PreSymStructure(ctx, lie.names, lie.anchor, table, omega)
    E._inv_pairing = inv
    return E


def pseudo_semidirect(A: ChartAlgebroid, dual_names=None) -> PreSymStructure:
    """Rank-2r structure on the frame of A plus its dual frame.

    Frame products: e_a * e_b is the product of A; e_a * f^b transports
    the dual frame along the commutator; f^a * e_b pairs against right
    multiplication; duals multiply to zero.  The pairing is the canonical
    skew block form with (e_a, f^b) = -delta.
    """
    if A.kind != "lsa":
        raise ValueError("expects a product (kind 'lsa') structure")
    r, ctx = A.rank, A.ctx
    if dual_names is None:
        dual_names = tuple(f"f{i + 1}" for i in range(r))
        taken = set(A.names) | set(ctx.coords) | set(ctx.funcs)
        if any(n in taken for n in dual_names):
            dual_names = tuple(f"{n}_dual" for n in A.names)
    dual_names = tuple(dual_names)
    if len(dual_names) != r:
        raise ValueError("need one dual name per frame element")
    names = A.names + dual_names
    comm = A.commutator_algebroid()
    z = ctx.zero()
    n2 = 2 * r

    def zero_cell():
        return [z] * n2

    table = [[zero_cell() for _ in range(n2)] for _ in range(n2)]
    for a in range(r):
        for b in range(r):
            for k in range(r):
                table[a][b][k] = A.table[a][b][k]
                # e_a * f^b = - sum_c [e_a, e_c]^b f^c
                table[a][r + b][r + k] = -comm.table[a][k][b]
                # f^a * e_b = sum_c (e_c * e_b)^a f^c
                table[r + a][b][r + k] = A.table[k][b][a]
    table = [[tuple(cell) for cell in row] for row in table]
    zero_row = [z] * len(ctx.coords)
    anchor = [list(row) for row in A.anchor] + [list(zero_row)
                                                for _ in range(r)]
    one = ctx.one()
    pairing = [[z] * n2 for _ in range(n2)]
    for a in range(r):
        pairing[a][r + a] = -one
        pairing[r + a][a] = one
    return PreSymStructure(ctx, names, anchor, table, pairing)


# ---------------------------------------------------------------------------
# closed isotropic subbundles


class Subbundle:
    """Constant-rank span of sections given by coefficient rows."""

    def __init__(self, sections, names=None):
        self.sections = tuple(tuple(s) for s in sections)
        if not self.sections:
            raise ValueError("need at least one spanning section")
        width = len(self.sections[0])
        if any(len(s) != width for s in self.sections):
            raise ValueError("ragged spanning sections")
        if names is None:
            names = tuple(f"s{i + 1}" for i in range(len(self.sections)))
        self.names = tuple(names)
        if len(self.names) != len(self.sections):
            raise ValueError("need one name per section")


def check_dirac(E: PreSymStructure, F: Subbundle):
    """Isotropy, half rank, closure under the product; on closure, the
    induced structure with its verification report."""
    k, r = len(F.sections), E.rank
    if 2 * k != r:
        raise ValueError(f"subbundle rank {k} is not half of {r}")
    rec = CheckReport()
    ctx = E.ctx
    secs = [tuple(map(ctx.number, s)) for s in F.sections]
    mat = ExprMatrix(ctx, secs)

    def half_rank():
        got = expr_rank(mat)
        if got != k:
            yield f"spanning sections have rank {got}, need {k}", True

    ok = rec.scan("dirac.half-rank", half_rank())
    ok = rec.scan("dirac.isotropic", (
        (f"({F.names[i]},{F.names[j]}) = ", res)
        for i in range(k) for j in range(i, k)
        if (res := E.pairing_value(secs[i], secs[j])))) and ok

    span_t = mat.transpose()
    induced_table = [[None] * k for _ in range(k)]

    def closed():
        for i in range(k):
            for j in range(k):
                prod = E.star(secs[i], secs[j])
                coeffs = expr_solve(span_t, list(prod))
                if coeffs is None:
                    yield (f"{F.names[i]} * {F.names[j]} = "
                           f"{section_str(prod, E.names)} leaves the span",
                           True)
                else:
                    induced_table[i][j] = tuple(coeffs)

    if not (rec.scan("dirac.closed", closed()) and ok):
        rec.skip("not evaluated: no induced product",
                 "dirac.induced-left-symmetric")
        return rec, None

    induced = ChartAlgebroid(ctx, F.names, [E.anchor_of(s) for s in secs],
                             induced_table, kind="lsa")

    def induced_ok():
        from .algebroid import check_left_symmetric_algebroid
        sub = check_left_symmetric_algebroid(induced)
        for c in sub.failures():
            yield f"{c.check_id}: {c.witness}", True

    rec.scan("dirac.induced-left-symmetric", induced_ok())
    return rec, induced
