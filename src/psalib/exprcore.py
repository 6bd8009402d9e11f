"""Exact symbolic scalars for chart-level differential algebra.

A value is a quotient of multivariate polynomials over Q.  The indeterminates
are chart coordinates, formal function symbols, and formal partial derivatives
of those symbols up to second order.  Everything is kept canonical, so
equality and `is_zero` are exact decisions, never heuristics.  Values of
two ChartContexts mix only when both declare the same coordinates.

The representation is packed into plain ints.  Each indeterminate has an id
from one process-wide intern table, a monomial is a tuple of (id, exponent)
pairs sorted by id, and a value is an integer Laurent polynomial (the
numerator, whose exponents may be negative) over a denominator no variable
divides.  So n/(c*y^k) is stored as n*y^-k over the integer c: a monomial
denominator costs the arithmetic nothing beyond the constant-denominator
paths, and a polynomial has a constant denominator and no negative
exponent.  A denominator of two or more terms is c * prod b_i^k_i over a
base of interned, pairwise coprime primitive polynomials, none of which
divides the numerator.  Over Z[x] that form is unique, so equality
compares exponents.  Products add exponents; sums raise both sides to the
larger exponents; then each numerator is divided by a base element only
where that element could divide it, for as long as the division is exact.
A gcd runs only where a new denominator is refined against the base, and
in printing where a base element is not known irreducible; a modular
certificate of coprimality comes first, and the primitive PRS gcd only
where that fails.  A value's hash is its value at a fixed point modulo a
prime, which no later refinement of the base changes.  The canonical
graded-lex order over the variables' keys is consulted only where it
chooses an output or a representative.  A value prints and evaluates in
lowest terms with its negative exponents multiplied back out, with a
monic denominator and rational coefficients, and `Fraction` appears only
where numbers enter or leave: parsing, `number()`, `constant_value()` and
`evaluate()`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

__all__ = [
    "ChartContext",
    "DiffExpr",
    "ExprError",
    "ExprSyntaxError",
    "DerivativeOrderError",
    "parse_expr",
    "differentiate",
    "evaluate",
]


class ExprError(Exception):
    """Base error for expression construction and manipulation."""


QUOTE_LIMIT = 60


def quote_prefix(text: str) -> str:
    """repr of text, cut to its first QUOTE_LIMIT characters plus '...'."""
    if len(text) <= QUOTE_LIMIT:
        return repr(text)
    return repr(text[:QUOTE_LIMIT]) + "..."


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} at position {pos}: {quote_prefix(text)}")
        self.text = text
        self.pos = pos


class DerivativeOrderError(ExprError):
    """Raised when differentiation would exceed the formal-derivative cap."""


# Variable kinds, in canonical order.
_KIND_COORD = 0
_KIND_FUNC = 1
_KIND_D1 = 2
_KIND_D2 = 3

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

# The process-wide intern table of indeterminates.  A variable's key is
# (kind, coordinate position) for a coordinate, (kind, name) for a function
# symbol, and (kind, name, i) or (kind, name, i, j) with i <= j for its
# formal partials; its id is its position in _VAR_KEYS.  Every context
# shares the ids, so a context can build a symbol it does not declare
# (formal_function), and a coordinate id means the same in every context
# that declares the same coordinate tuple.
# Ids follow interning order; the canonical order is that of the keys.
_VAR_KEYS: list = []
_VAR_IDS: dict = {}

# Modular images.  _MOD is a prime; each variable id has a nonzero value
# _AT[id] mod _MOD (the fixed point a base-form value hashes at) and a
# line t -> _AT[id] + _DIR[id]*t through that point (the univariate image
# the coprimality certificates compare).
_MOD = (1 << 61) - 1
_AT: list = []
_DIR: list = []


def _var_id(key: tuple) -> int:
    vid = _VAR_IDS.get(key)
    if vid is None:
        vid = _VAR_IDS[key] = len(_VAR_KEYS)
        _VAR_KEYS.append(key)
        _AT.append(pow(7, vid + 11, _MOD))
        _DIR.append(pow(5, vid + 3, _MOD))
    return vid


class ChartContext:
    """Declares the coordinates and formal function symbols of one chart.

    Coordinates are ordered as declared; that order fixes the canonical
    monomial order and the meaning of positional anchor components.  The
    context may have no coordinates at all (point case): differentiation
    then has no valid direction and every anchor action is zero.

    Formal partial derivatives stop at order 2; differentiating past
    that raises DerivativeOrderError rather than silently inventing
    higher-order symbols.

    The declared function symbols govern parsing only: formal_function
    is a symbol of this context that it does not declare, and the
    identity checks differentiate and print it like a declared one.

    Expressions of two contexts mix when the contexts are one object or
    declare the same coordinate tuple, whatever function symbols each
    declares.  The result takes the left operand's context, unless an
    operand is returned as it is (e + 0, 0 + e, e * 1, 1 * e).  Mixing
    any other two raises ExprError, and such expressions are never equal.
    """

    def __init__(self, coords=(), funcs=()):
        coords = tuple(coords)
        funcs = tuple(funcs)
        seen = set()
        for name in coords + funcs:
            if not _IDENT_RE.fullmatch(name):
                raise ExprError(f"bad identifier: {name!r}")
            if name in ("d", "d2"):
                raise ExprError(f"{name!r} is reserved for derivative atoms")
            if name in seen:
                raise ExprError(f"duplicate symbol: {name!r}")
            seen.add(name)
        self.coords = coords
        self.funcs = funcs
        self._coord_pos = {name: i for i, name in enumerate(coords)}
        # zero() and one() hand out these two objects; nothing may mutate
        # them, and their hashes are computed once here
        self._zero = DiffExpr(self, {}, _P_ONE)
        self._one = DiffExpr(self, _P_ONE, _P_ONE)
        hash(self._zero)
        hash(self._one)

    # -- symbol table -----------------------------------------------------

    def coord_pos(self, name: str) -> int:
        try:
            return self._coord_pos[name]
        except KeyError:
            raise ExprError(f"unknown coordinate: {name!r}") from None

    def _atom(self, key: tuple) -> "DiffExpr":
        return DiffExpr(self, {((_var_id(key), 1),): 1}, _P_ONE)

    def _check_func(self, name: str) -> None:
        if name not in self.funcs:
            raise ExprError(f"unknown function symbol: {name!r}")

    def partial(self, fname: str, *cnames: str) -> "DiffExpr":
        """The formal partial of a function symbol by one or two
        coordinates (symmetric in the two)."""
        self._check_func(fname)
        pos = sorted(self.coord_pos(c) for c in cnames)
        return self._atom((_KIND_D1 if len(pos) == 1 else _KIND_D2, fname)
                          + tuple(pos))

    def _var_text(self, vid: int) -> str:
        """How this chart prints an interned variable."""
        key = _VAR_KEYS[vid]
        kind, name = key[0], key[1]
        if kind == _KIND_COORD:
            return self.coords[name]
        if kind == _KIND_FUNC:
            return name
        return f"d{'' if kind == _KIND_D1 else '2'}({name}," + ",".join(
            self.coords[i] for i in key[2:]) + ")"

    def formal_function(self) -> "DiffExpr":
        """The formal function symbol of this chart's identity checks: the
        first of f, f0, f1, ... that names no coordinate and no declared
        function.  It is an expression of this context: a symbol's id is
        interned by name, and funcs governs parsing only."""
        name, k = "f", 0
        while name in self.coords or name in self.funcs:
            name, k = f"f{k}", k + 1
        return self._atom((_KIND_FUNC, name))

    # -- expression constructors ------------------------------------------

    def number(self, value) -> "DiffExpr":
        """A number as an expression of this context; a DiffExpr is
        returned as it is."""
        if type(value) is not int:
            if isinstance(value, DiffExpr):
                return value
            q = Fraction(value)
            if q.denominator != 1:
                return DiffExpr(self, {(): q.numerator},
                                {(): q.denominator})
            value = q.numerator
        if not value:
            return self._zero
        if value == 1:
            return self._one
        return DiffExpr(self, {(): value}, _P_ONE)

    def coordinate(self, name: str) -> "DiffExpr":
        return self._atom((_KIND_COORD, self.coord_pos(name)))

    def function(self, name: str) -> "DiffExpr":
        self._check_func(name)
        return self._atom((_KIND_FUNC, name))

    def zero(self) -> "DiffExpr":
        """The context's shared zero constant."""
        return self._zero

    def one(self) -> "DiffExpr":
        """The context's shared unit constant."""
        return self._one

    def expr(self, text: str) -> "DiffExpr":
        return parse_expr(text, self)

    def __repr__(self):
        return f"ChartContext(coords={self.coords}, funcs={self.funcs})"


# ---------------------------------------------------------------------------
# polynomial layer: dict {monomial: int}, monomial = ((var id, exp), ...)
# sorted by id.  Hot paths compare and hash plain ints; the canonical
# graded-lex order over the variables' keys is consulted only where it
# picks an output or a representative (_plead, _pmainvar, printing).

_P_ONE = {(): 1}


def _is_const(p: dict) -> bool:
    return len(p) == 1 and () in p


def _mmul(m1: tuple, m2: tuple) -> tuple:
    if not m1:
        return m2
    if not m2:
        return m1
    if m1[-1][0] < m2[0][0]:
        return m1 + m2
    if m2[-1][0] < m1[0][0]:
        return m2 + m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            if e1 + e2:
                out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def _graded_lex(p: dict):
    """Sort key of p's monomials in the canonical graded-lex order:
    higher total degree wins, then the earlier variable (by key) with the
    larger exponent."""
    vids = sorted({v for m in p for v, _ in m}, key=_VAR_KEYS.__getitem__)
    rank = {v: r for r, v in enumerate(vids)}

    def key(m):
        exps = [0] * len(vids)
        for v, e in m:
            exps[rank[v]] = e
        return sum(exps), exps

    return key


def _plead(p: dict) -> tuple:
    return max(p, key=_graded_lex(p))


def _padd(p: dict, q: dict) -> dict:
    if not p:
        return q
    if not q:
        return p
    if len(q) > len(p):
        p, q = q, p
    out = dict(p)
    for m, c in q.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s += c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _psub(p: dict, q: dict) -> dict:
    if not q:
        return p
    out = dict(p)
    for m, c in q.items():
        s = out.get(m)
        if s is None:
            out[m] = -c
        else:
            s -= c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _pneg(p: dict) -> dict:
    return {m: -c for m, c in p.items()}


def _pscale(p: dict, k: int) -> dict:
    if k == 1:
        return p
    return {m: c * k for m, c in p.items()}


def _pmul(p: dict, q: dict) -> dict:
    if not p or not q:
        return {}
    if len(q) == 1 and len(p) > 1:
        p, q = q, p
    if len(p) == 1:
        (m1, c1), = p.items()
        if len(q) == 1:
            (m2, c2), = q.items()
            return {_mmul(m1, m2): c1 * c2}
        if not m1:
            return _pscale(q, c1)
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _mmul(m1, m2)
            s = out.get(m)
            if s is None:
                out[m] = c1 * c2
            else:
                s += c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


def _pprimitive(p: dict) -> dict:
    """p divided by the gcd of its integer coefficients."""
    g = gcd(*p.values())
    if g == 1:
        return p
    return {m: c // g for m, c in p.items()}


def _pvars(p: dict) -> set:
    return {v for m in p for v, _ in m}


def _mcontent(p: dict) -> tuple:
    """The monomial content of a nonzero Laurent polynomial p: each
    variable to its least exponent over p's monomials, 0 where one lacks
    it.  p over its content is a polynomial that no variable divides."""
    first, *rest = p
    low = dict(first)
    for m in rest:
        md = dict(m)
        for v in low.keys() | md.keys():
            low[v] = min(low.get(v, 0), md.get(v, 0))
    return tuple(sorted((v, e) for v, e in low.items() if e))


def _negpart(p: dict) -> tuple:
    """The monomial of p's negative exponents: the negative part of its
    content, () for p = 0."""
    return tuple((v, e) for v, e in _mcontent(p) if e < 0) if p else ()


def _mdiv(p: dict, m: tuple) -> dict:
    """p divided by the monomial m."""
    return _pmul(p, {tuple((v, -e) for v, e in m): 1})


def _cleared(num: dict, den: dict) -> tuple[dict, dict]:
    """num/den with num's negative exponents multiplied out of both: the
    quotient of two polynomials, as it prints and evaluates."""
    neg = _negpart(num)
    if not neg:
        return num, den
    return _mdiv(num, neg), _mdiv(den, neg)


def _pmainvar(p: dict, q: dict) -> int:
    return max(_pvars(p) | _pvars(q), key=_VAR_KEYS.__getitem__)


def _puni(p: dict, v: int) -> dict:
    """View p as univariate in v: {degree: coefficient polynomial}."""
    out: dict = {}
    for m, c in p.items():
        deg = 0
        rest = m
        for idx, (var, e) in enumerate(m):
            if var == v:
                deg = e
                rest = m[:idx] + m[idx + 1:]
                break
        coeff = out.get(deg)
        if coeff is None:
            out[deg] = {rest: c}
        else:
            coeff[rest] = c
    return out


def _pfromuni(u: dict, v: int) -> dict:
    out: dict = {}
    for deg, coeff in u.items():
        vm = ((v, deg),) if deg else ()
        for m, c in coeff.items():
            out[_mmul(vm, m)] = c
    return out


def _monomial_gcd(p: dict, q: dict) -> dict:
    """gcd when at least one side is a single monomial; also the common
    monomial-content fast path.  The coefficient is 1."""
    exps: dict = {}
    first = True
    for poly in ((q, p) if len(q) < len(p) else (p, q)):
        for m in poly:
            if first:
                exps = dict(m)
                first = False
            else:
                md = dict(m)
                exps = {v: min(e, md[v]) for v, e in exps.items()
                        if v in md}
            if not exps:
                return _P_ONE
    return {tuple(sorted(exps.items())): 1}


def _pdivexact(p: dict, d: dict) -> dict:
    """Exact division over the integers; raises if d does not divide p."""
    if not p:
        return {}
    if d == _P_ONE:
        return p
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    if len(d) == 1:
        (dm, dc), = d.items()
        q = _mdiv(p, dm)
        if any(c % dc for c in q.values()) or any(
                e < 0 for m in q for _, e in m):
            raise ExprError("inexact polynomial division")
        return {m: c // dc for m, c in q.items()}
    v = max(_pvars(d), key=_VAR_KEYS.__getitem__)
    pu = _puni(p, v)
    du = _puni(d, v)
    dd = max(du)
    dl = du[dd]
    quo: dict = {}
    while pu:
        pd = max(pu)
        if pd < dd:
            raise ExprError("inexact polynomial division")
        qc = _pdivexact(pu[pd], dl)
        quo[pd - dd] = qc
        for de, co in du.items():
            tgt = _psub(pu.get(pd - dd + de, {}), _pmul(qc, co))
            if tgt:
                pu[pd - dd + de] = tgt
            else:
                pu.pop(pd - dd + de, None)
    return _pfromuni(quo, v)


def _pcontent(u: dict) -> dict:
    """Primitive gcd of the coefficients of a univariatized polynomial."""
    g: dict = {}
    for coeff in u.values():
        g = _pgcd(g, coeff)
        if _is_const(g):
            return _P_ONE
    return g


def _pprem(a: dict, b: dict, v: int) -> dict:
    """Pseudo-remainder of a by b, both univariate views in v."""
    au = _puni(a, v)
    bu = _puni(b, v)
    bd = max(bu)
    bl = bu[bd]
    while au:
        ad = max(au)
        if ad < bd:
            break
        al = au[ad]
        # multiply through by the leading coefficient of b, then cancel
        au = {d: _pmul(c, bl) for d, c in au.items()}
        for de, co in bu.items():
            tgt = _psub(au.get(ad - bd + de, {}), _pmul(al, co))
            if tgt:
                au[ad - bd + de] = tgt
            else:
                au.pop(ad - bd + de, None)
    return _pfromuni(au, v)


def _pgcd(p: dict, q: dict) -> dict:
    """gcd over Z[vars], primitive (integer content 1) and determined up
    to sign; primitive PRS with fast paths."""
    if not p:
        return _pprimitive(q)
    if not q:
        return _pprimitive(p)
    if len(p) == 1 or len(q) == 1:
        return _monomial_gcd(p, q)
    if p == q:
        return _pprimitive(p)
    v = _pmainvar(p, q)
    # peel common monomial content cheaply first
    common = _monomial_gcd(p, q)
    if common is not _P_ONE:
        p = _pdivexact(p, common)
        q = _pdivexact(q, common)
    pu = _puni(p, v)
    qu = _puni(q, v)
    if max(pu) == 0 or max(qu) == 0:
        # one side is free of the main variable: gcd divides its content
        return _pmul(common, _pgcd(_pcontent(pu), _pcontent(qu)))
    cp = _pcontent(pu)
    cq = _pcontent(qu)
    a = _pprimitive(_pdivexact(p, cp))
    b = _pprimitive(_pdivexact(q, cq))
    if max(_puni(a, v)) < max(_puni(b, v)):
        a, b = b, a
    while True:
        r = _pprem(a, b, v)
        if not r:
            g = b
            break
        ru = _puni(r, v)
        if max(ru) == 0:
            g = _P_ONE
            break
        r = _pprimitive(_pdivexact(r, _pcontent(ru)))
        a, b = b, r
    if g is not _P_ONE:
        g = _pprimitive(_pdivexact(g, _pcontent(_puni(g, v))))
    return _pmul(common, _pmul(_pgcd(cp, cq), g))


def _pdiff(p: dict, cpos: int) -> dict:
    """Formal partial derivative of a polynomial by one coordinate."""
    out: dict = {}
    for m, c in p.items():
        for idx, (v, e) in enumerate(m):
            dv = _var_derivative(v, cpos)
            if dv is None:
                continue
            if e != 1:
                base = m[:idx] + ((v, e - 1),) + m[idx + 1:]
            else:
                base = m[:idx] + m[idx + 1:]
            mm = base if dv is _ONE_MARK else _mmul(base, ((dv, 1),))
            s = out.get(mm)
            out[mm] = c * e if s is None else s + c * e
    return {m: c for m, c in out.items() if c}


_ONE_MARK = object()  # derivative of a coordinate by itself


def _var_derivative(v: int, cpos: int):
    key = _VAR_KEYS[v]
    kind = key[0]
    if kind == _KIND_COORD:
        return _ONE_MARK if key[1] == cpos else None
    if kind == _KIND_FUNC:
        return _var_id((_KIND_D1, key[1], cpos))
    if kind == _KIND_D1:
        i, j = sorted((key[2], cpos))
        return _var_id((_KIND_D2, key[1], i, j))
    raise DerivativeOrderError  # worded by differentiate


def _cap_error(*polys) -> DerivativeOrderError:
    """The error for differentiating second-order partials.  It names the
    function symbol of the smallest such partial in canonical order, so
    the message does not depend on the order the terms were built in."""
    key = min(_VAR_KEYS[v] for p in polys for m in p for v, _ in m
              if _VAR_KEYS[v][0] == _KIND_D2)
    return DerivativeOrderError(
        f"third derivative of {key[1]} exceeds the cap")


def _const_over(num: dict, d: int, dens=()) -> tuple[dict, dict]:
    """The canonical num/d for a nonzero integer d: no common integer
    factor, positive denominator.  The denominator is shared with one of
    the constant denominators dens when it equals it."""
    g = gcd(d, *num.values())
    if d < 0:
        g = -g
    if g != 1:
        d //= g
        if len(num) == 1:
            (m, c), = num.items()
            num = {m: c // g}
        else:
            num = {m: c // g for m, c in num.items()}
    if d == 1:
        return num, _P_ONE
    for den in dens:
        if den[()] == d:
            return num, den
    return num, {(): d}


def _finish(num: dict, den: dict) -> tuple[dict, dict]:
    """The canonical form of num/den for num and den coprime over Q and
    den a polynomial no variable divides: no common integer factor, and
    den's canonical leading coefficient positive."""
    if not num:
        return {}, _P_ONE
    if _is_const(den):
        return _const_over(num, den[()])
    lc = den[_plead(den)]
    c = gcd(*num.values(), *den.values())
    if lc < 0:
        c = -c
    if c != 1:
        num = {m: x // c for m, x in num.items()}
        den = {m: x // c for m, x in den.items()}
    return num, den


def _cancel(p: dict, q: dict) -> tuple[dict, dict]:
    """A Laurent polynomial p and a polynomial q no variable divides,
    divided by their gcd.  p's monomial content cannot be shared with q,
    so it is split off first and the gcd is one of polynomials."""
    m = _mcontent(p)
    pp = _mdiv(p, m)
    if len(pp) > 1:
        g = _pgcd(pp, q)
        if not _is_const(g):
            return _pmul({m: 1}, _pdivexact(pp, g)), _pdivexact(q, g)
    return p, q


def _reduce(num: dict, den: dict) -> tuple[dict, dict]:
    """The canonical form of num/den for a non-constant den."""
    if not num:
        return {}, _P_ONE
    return _finish(*_cancel(num, den))


# ---------------------------------------------------------------------------
# the denominator base (see the module docstring)
#
# Its elements are primitive, no variable divides them, their leading
# coefficient in the canonical order is positive, they are pairwise
# coprime, and none shares a factor with one of its partials (so each is
# squarefree).  A new denominator is refined against them (factor refinement;
# Bach, Driscoll and Shallit 1993): an element it shares a factor with is
# retired and replaced by coprime factors, and a value over a retired
# element is re-expressed when it is next used (_fresh).  The base only
# grows over a process, like the variable intern table.


class _Elt:
    """One element of the denominator base.  poly is fixed; split is None
    while the element is live and its factors ((index, exp), ...) once it
    is retired."""

    __slots__ = ("poly", "vars", "line", "at", "root", "irreducible",
                 "split", "pows", "diffs")

    def __init__(self, poly: dict):
        self.poly = poly
        self.vars = frozenset(_pvars(poly))
        degs = _degs(poly)
        self.line = _line(poly)
        self.at = _peval(poly)
        self.root = _root(poly, degs)
        self.irreducible = _irreducible(poly, degs)
        self.split = None
        self.pows = {1: poly}
        self.diffs: dict = {}

    def power(self, k: int) -> dict:
        p = self.pows.get(k)
        if p is None:
            p = self.pows[k] = _pmul(self.power(k - 1), self.poly)
        return p


_BASE: list = []
_BASE_IDS: dict = {}   # frozenset(poly.items()) -> index
_SPLITS = 0            # how many refinements retired an element


class _Den:
    """A denominator c * prod b_i^k_i over the base, fac the sorted
    ((index, k), ...).  gen is the split count it was last known current
    at; poly is its expansion, built when asked for."""

    __slots__ = ("c", "fac", "gen", "poly")

    def __init__(self, c: int, fac: tuple):
        self.c = c
        self.fac = fac
        self.gen = _SPLITS
        self.poly = None

    def expanded(self) -> dict:
        if self.poly is None:
            p = {(): self.c}
            for i, k in self.fac:
                p = _pmul(p, _BASE[i].power(k))
            self.poly = p
        return self.poly


# -- modular images ---------------------------------------------------------


def _peval(p: dict, over=None) -> int:
    """A Laurent polynomial at the fixed point mod _MOD; over = (variable
    id, value) replaces one coordinate of the point."""
    at = _AT
    powers: dict = {}
    total = 0
    for m, c in p.items():
        t = c
        for ve in m:
            x = powers.get(ve)
            if x is None:
                v, e = ve
                x = over[1] if over is not None and v == over[0] else at[v]
                x = powers[ve] = x if e == 1 else pow(x, e, _MOD)
            t = t * x % _MOD
        total += t
    return total % _MOD


def _umul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % _MOD
    return out


def _line(p: dict):
    """The image of a Laurent polynomial p on the fixed line, its negative
    exponents cleared: coefficients mod _MOD, lowest degree first.  None
    when its degree falls short of the total degree, so that a factor of
    p might lose degree too."""
    low = dict(_negpart(p))
    at, dr = _AT, _DIR
    top = 0
    out = [0]
    for m, c in p.items():
        t = [c % _MOD]
        md = dict(m)
        for v in low:
            md[v] = md.get(v, 0) - low[v]
        for v, e in md.items():
            for _ in range(e):
                t = _umul(t, [at[v], dr[v]])
        top = max(top, len(t))
        if len(t) > len(out):
            out.extend([0] * (len(t) - len(out)))
        for i, x in enumerate(t):
            out[i] = (out[i] + x) % _MOD
    if len(out) < top or not out[top - 1]:
        return None
    return out


def _ugcd_degree(a: list, b: list) -> int:
    """Degree of the gcd of two nonzero univariate polynomials mod _MOD."""
    a, b = a[:], b[:]
    while b:
        while b and not b[-1]:
            b.pop()
        if not b:
            break
        inv = pow(b[-1], -1, _MOD)
        while len(a) >= len(b):
            q = a[-1] * inv % _MOD
            if q:
                s = len(a) - len(b)
                for i, y in enumerate(b):
                    a[s + i] = (a[s + i] - q * y) % _MOD
            a.pop()
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _coprime(pvars, pline, qvars, qline) -> bool:
    """True when two Laurent polynomials, of variable sets pvars and qvars
    and line images pline and qline, provably share no non-constant
    factor: they have no variable in common, or their images are coprime
    mod _MOD with no loss of degree (a common factor h would give a
    common factor of degree deg h).  False means not known."""
    if pvars.isdisjoint(qvars):
        return True
    if pline is None or qline is None:
        return False
    return _ugcd_degree(pline, qline) == 0


def _root(p: dict, degs: dict):
    """(v, r) for a variable v of degree 1 in p = a*v + c: r is the value
    of v where p vanishes, the other variables at the fixed point.  Every
    multiple of p vanishes there, which rejects most trial divisions by
    one evaluation.  None where p has no such variable."""
    for v in sorted(degs, key=_VAR_KEYS.__getitem__):
        if degs[v] == 1:
            u = _puni(p, v)
            a = _peval(u[1])
            if a:
                r = -_peval(u.get(0, {})) * pow(a, -1, _MOD) % _MOD
                if r:
                    return v, r
    return None


def _irreducible(p: dict, degs: dict) -> bool:
    """Whether p, primitive and with no variable dividing it, is known
    irreducible: of degree 1 in some variable v, p = a*v + c with a and c
    coprime (a factor free of v divides both; one of degree 1 in v leaves
    a cofactor free of v)."""
    for v, d in degs.items():
        if d == 1:
            u = _puni(p, v)
            a, c = u[1], u.get(0, {})
            if len(a) == 1 or len(c) == 1 or _coprime(
                    _pvars(a), _line(a), _pvars(c), _line(c)):
                return True
    return False


# -- exact trial division ---------------------------------------------------


def _trydiv(p: dict, elt: _Elt):
    """p / elt.poly for a Laurent polynomial p when the division is exact,
    else None."""
    if len(p) < 2:
        return None
    if elt.root is not None and _peval(p, elt.root):
        return None
    neg = _negpart(p)
    if neg:
        p = _mdiv(p, neg)
    try:
        q = _pdivexact(p, elt.poly)
    except ExprError:
        return None
    return _pmul(q, {neg: 1}) if neg else q


def _divide_out(p: dict, i: int, k: int):
    """p divided by base element i up to k times while exact, and k less
    the divisions made; k = -1 divides for as long as it is exact."""
    elt = _BASE[i]
    while k:
        q = _trydiv(p, elt)
        if q is None:
            break
        p, k = q, k - 1
    return p, k


# -- refinement ---------------------------------------------------------------


def _normal(p: dict) -> tuple[int, dict]:
    """(c, q) with p = c*q, q primitive with positive leading coefficient."""
    c = gcd(*p.values())
    if p[_plead(p)] < 0:
        c = -c
    return c, (p if c == 1 else {m: x // c for m, x in p.items()})


def _live(i: int) -> tuple:
    """Base element i as ((live index, exp), ...)."""
    split = _BASE[i].split
    if split is None:
        return ((i, 1),)
    out: dict = {}
    for j, e in split:
        for k, f in _live(j):
            out[k] = out.get(k, 0) + e * f
    return tuple(sorted(out.items()))


def _intern(p: dict) -> int:
    key = frozenset(p.items())
    i = _BASE_IDS.get(key)
    if i is None:
        i = _BASE_IDS[key] = len(_BASE)
        _BASE.append(_Elt(p))
    return i


def _exps_over(p: dict, ids) -> dict:
    """p, a product of powers of the base elements ids, as {index: exp}."""
    out = {}
    for i in ids:
        p, k = _divide_out(p, i, -1)
        if k != -1:
            out[i] = -1 - k
    return out


def _degs(p: dict) -> dict:
    """Each variable of p to its largest exponent."""
    degs: dict = {}
    for m in p:
        for v, e in m:
            if e > degs.get(v, 0):
                degs[v] = e
    return degs


def _common_factor(x: dict, c: dict) -> dict:
    """gcd(x, c), up to sign, for x and c primitive: one of them when it
    divides the other, 1 when neither does and one is irreducible, else
    the primitive PRS."""
    for a, b in ((x, c), (c, x)):
        try:
            _pdivexact(b, a)
            return a
        except ExprError:
            pass
    if _irreducible(x, _degs(x)) or _irreducible(c, _degs(c)):
        return _P_ONE
    return _pgcd(x, c)


def _repeated_factor(q: dict):
    """A non-constant factor q shares with its partial by one of its
    variables v, or None when q is irreducible or certified to share none.
    Such a factor is repeated in q or free of v, so an element with none
    is squarefree and each of its factors involves all its variables."""
    degs = _degs(q)
    if _irreducible(q, degs):
        return None
    qvars, qline = set(degs), _line(q)
    for v in sorted(degs):
        d: dict = {}
        for m, c in q.items():
            for k, (w, e) in enumerate(m):
                if w == v:
                    d[m[:k] + ((w, e - 1),) + m[k + 1:] if e > 1
                      else m[:k] + m[k + 1:]] = c * e
                    break
        if not _coprime(qvars, qline, _pvars(d), _line(d)):
            g = _pgcd(q, d)
            if not _is_const(g):
                return _normal(g)[1]
    return None


def _coprime_base(polys) -> list:
    """Pairwise coprime primitive polynomials, none sharing a factor with
    its partials, of which each of polys is a product of powers: a pair
    with a common factor g is replaced by g and the two cofactors, and a
    polynomial with a _repeated_factor g by g and its cofactor, until
    none is left."""
    out: list = []
    todo = list(polys)
    while todo:
        x = todo.pop()
        if _is_const(x):
            continue
        xvars, xline = _pvars(x), _line(x)
        for k, c in enumerate(out):
            if _coprime(xvars, xline, _pvars(c), _line(c)):
                continue
            g = _common_factor(x, c)
            if _is_const(g):
                continue
            g = _normal(g)[1]
            del out[k]
            todo += [g, _normal(_pdivexact(c, g))[1],
                     _normal(_pdivexact(x, g))[1]]
            break
        else:
            g = _repeated_factor(x)
            if g is None:
                out.append(x)
            else:
                todo += [g, _normal(_pdivexact(x, g))[1]]
    return out


def _refine(q: dict) -> tuple:
    """The factors ((index, exp), ...) of q, a non-constant primitive
    polynomial with positive leading coefficient that no variable
    divides, over the base, after adding to the base what q brings."""
    i = _BASE_IDS.get(frozenset(q.items()))
    if i is not None:
        return _live(i)
    global _SPLITS
    exps: dict = {}
    shared = []
    qvars, qline = _pvars(q), _line(q)
    for i, elt in enumerate(_BASE):
        if elt.split is not None or _coprime(qvars, qline, elt.vars,
                                             elt.line):
            continue
        q, k = _divide_out(q, i, -1)
        if k != -1:
            exps[i] = -1 - k
            qvars, qline = _pvars(q), _line(q)
        if _is_const(q):
            break
        if not _coprime(qvars, qline, elt.vars, elt.line):
            shared.append(i)
    if not _is_const(q):
        if not shared and _repeated_factor(q) is None:
            j = _intern(q)
            exps[j] = exps.get(j, 0) + 1
        else:
            ids = [_intern(c) for c in
                   _coprime_base([q] + [_BASE[i].poly for i in shared])]
            # an element comes back unchanged when it only was not
            # certified coprime to q; the others split
            split = [i for i in shared if i not in ids]
            for i in split:
                elt = _BASE[i]
                elt.split = tuple(sorted(_exps_over(elt.poly, ids).items()))
                # only live elements are raised to powers or differentiated
                elt.pows, elt.diffs = {1: elt.poly}, {}
            for j, e in _exps_over(q, ids).items():
                exps[j] = exps.get(j, 0) + e
            if split:
                _SPLITS += 1
    # an element q was divided by may have split since: its factors
    out: dict = {}
    for i, k in exps.items():
        for j, f in _live(i):
            out[j] = out.get(j, 0) + k * f
    return tuple(sorted(out.items()))


# -- arithmetic over the base ---------------------------------------------------


def _bfinish(num: dict, c: int, exps: dict) -> tuple:
    """The canonical num / (c * prod b_i^exps[i]) for c > 0, no b_i with a
    positive exponent dividing num: no common integer factor, and the
    constant-denominator form when no exponent is left."""
    fac = tuple(sorted((i, k) for i, k in exps.items() if k))
    if not fac:
        return _const_over(num, c)
    g = gcd(c, *num.values())
    if g != 1:
        c //= g
        num = {m: x // g for m, x in num.items()}
    return num, _Den(c, fac)


def _fresh(e: "DiffExpr") -> None:
    """Re-express e over the live base in place (the value is unchanged,
    and so is its hash): a retired element becomes its factors, which may
    divide e's numerator."""
    d = e._den
    if type(d) is dict or d.gen == _SPLITS:
        return
    exps: dict = {}
    new = set()
    for i, k in d.fac:
        for j, f in _live(i):
            exps[j] = exps.get(j, 0) + k * f
            if j != i:
                new.add(j)
    if not new:
        d.gen = _SPLITS
        return
    num = e.num
    for j in sorted(new):
        num, exps[j] = _divide_out(num, j, exps[j])
    e.num, e._den = _bfinish(num, d.c, exps)


def _parts(e: "DiffExpr") -> tuple:
    """(numerator, integer c, base factors) of e, current."""
    d = e._den
    if type(d) is dict:
        return e.num, d[()], ()
    if d.gen != _SPLITS:
        _fresh(e)
        d = e._den
        if type(d) is dict:
            return e.num, d[()], ()
    return e.num, d.c, d.fac


def _bsum(a: "DiffExpr", b: "DiffExpr", combine) -> tuple:
    """a +- b, as combine is _padd or _psub, over the largest exponent of
    each element.  An element can divide the sum only where both sides
    carry it to the same power, so only those are tried."""
    n1, c1, f1 = _parts(a)
    n2, c2, f2 = _parts(b)
    c = c1 * c2 // gcd(c1, c2)
    n1, n2 = _pscale(n1, c // c1), _pscale(n2, c // c2)
    if f1 == f2:
        exps = dict(f1)
        tried = exps
    else:
        e2 = dict(f2)
        exps = {}
        tried = []
        for i, k1 in f1:
            k2 = e2.pop(i, 0)
            if k1 < k2:
                n1 = _pmul(n1, _BASE[i].power(k2 - k1))
            elif k2 < k1:
                n2 = _pmul(n2, _BASE[i].power(k1 - k2))
            else:
                tried.append(i)
            exps[i] = max(k1, k2)
        for i, k2 in e2.items():
            n1 = _pmul(n1, _BASE[i].power(k2))
            exps[i] = k2
    num = combine(n1, n2)
    if not num:
        return {}, _P_ONE
    for i in tried:
        num, exps[i] = _divide_out(num, i, exps[i])
    return _bfinish(num, c, exps)


def _bmul(a: "DiffExpr", b: "DiffExpr") -> tuple:
    """a * b: exponents add, after each numerator is divided by the
    elements only the other side carries.  An irreducible element then
    divides neither factor, so not their product; an element not known
    irreducible may, and is tried on the product."""
    n1, c1, f1 = _parts(a)
    n2, c2, f2 = _parts(b)
    e1, e2 = dict(f1), dict(f2)
    exps = dict(e1)
    for i, k in f2:
        if i not in e1:
            n1, k = _divide_out(n1, i, k)
        exps[i] = exps.get(i, 0) + k
    for i, k in f1:
        if i not in e2:
            n2, exps[i] = _divide_out(n2, i, k)
    num = _pmul(n1, n2)
    for i, k in exps.items():
        if k and not _BASE[i].irreducible:
            num, exps[i] = _divide_out(num, i, k)
    return _bfinish(num, c1 * c2, exps)


def _bdiv(a: "DiffExpr", b: "DiffExpr") -> tuple:
    """a / b for a nonzero b: b's numerator, over its monomial content m,
    is s times a primitive polynomial whose factors over the base join
    the denominator, while b's own base factors join the numerator."""
    while True:
        _fresh(b)
        m = _mcontent(b.num)
        s, pp = _normal(_mdiv(b.num, m))
        fac = () if _is_const(pp) else _refine(pp)
        if type(b._den) is dict or b._den.gen == _SPLITS:
            break
    n1, c1, f1 = _parts(a)
    _, c2, f2 = _parts(b)
    e1 = dict(f1)
    exps = dict(e1)
    for i, k in f2:
        exps[i] = exps.get(i, 0) - k
    for i, k in fac:
        if i not in e1:
            n1, k = _divide_out(n1, i, k)
        exps[i] = exps.get(i, 0) + k
    num = _pmul(n1, {tuple((v, -e) for v, e in m): c2 if s > 0 else -c2})
    for i, k in exps.items():
        if k < 0:
            num = _pmul(num, _BASE[i].power(-k))
            exps[i] = 0
    return _bfinish(num, c1 * abs(s), exps)


def _bdiff(e: "DiffExpr", cpos: int) -> tuple:
    """The partial of a base-form e by coordinate cpos: the elements S
    whose partial is not 0 gain one power, and the numerator becomes
    n' * prod_S b - n * sum_S k_b b' prod_{S - b}.  An irreducible b of S
    cannot divide that (it divides neither n nor b'); every other element
    is tried."""
    n, c, fac = _parts(e)
    try:
        num = _pdiff(n, cpos)
        moving = []
        for i, k in fac:
            elt = _BASE[i]
            db = elt.diffs.get(cpos)
            if db is None:
                db = elt.diffs[cpos] = _pdiff(elt.poly, cpos)
            if db:
                moving.append((i, k, db))
    except DerivativeOrderError:
        raise _cap_error(n, *(_BASE[i].poly for i, _ in fac)) from None
    exps = dict(fac)
    tried = [i for i, _ in fac]
    for i, _, _ in moving:
        num = _pmul(num, _BASE[i].poly)
    for i, k, db in moving:
        term = _pscale(_pmul(n, db), k)
        for j, _, _ in moving:
            if j != i:
                term = _pmul(term, _BASE[j].poly)
        num = _psub(num, term)
        exps[i] = k + 1
        if _BASE[i].irreducible:
            tried.remove(i)
    if not num:
        return {}, _P_ONE
    for i in tried:
        num, exps[i] = _divide_out(num, i, exps[i])
    return _bfinish(num, c, exps)


def _value_hash(e: "DiffExpr") -> int:
    """A base-form e's value at the fixed point mod _MOD, which every form
    of the value shares, so a later split leaves it unchanged.  Where the
    denominator vanishes there, the lowest-terms form decides, and a
    value with a pole at the point hashes to -1."""
    n, c, fac = _parts(e)
    at = c
    for i, k in fac:
        at = at * pow(_BASE[i].at, k, _MOD) % _MOD
    if not at:
        n, den = _lowest(e)
        at = _peval(den)
        if not at:
            return -1
    return _peval(n) * pow(at, -1, _MOD) % _MOD


def _lowest(e: "DiffExpr") -> tuple[dict, dict]:
    """e's numerator and expanded denominator in lowest terms.  The base
    form is, unless an element not known irreducible shares a factor with
    the numerator; only then does the PRS gcd run."""
    _fresh(e)
    d = e._den
    num = e.num
    if type(d) is dict:
        return num, d
    nvars = nline = None
    for i, _ in d.fac:
        elt = _BASE[i]
        if elt.irreducible:
            continue
        if nline is None:
            nvars, nline = _pvars(num), _line(num)
        if not _coprime(nvars, nline, elt.vars, elt.line):
            return _reduce(num, d.expanded())
    return num, d.expanded()


# ---------------------------------------------------------------------------
# the public quotient type


class DiffExpr:
    """A canonical quotient of two integer polynomials.  Immutable.

    num is a Laurent polynomial (exponents of either sign), so a monomial
    denominator lives in num's negative exponents.  The rest of the
    denominator is a positive integer, kept as the dict {(): c}, or
    c * prod b_i^k_i over the base (a _Den), no b_i dividing num.  Either
    way num and the denominator share no integer factor.  den reads the
    denominator as an expanded polynomial.  It prints in lowest terms,
    with its negative exponents multiplied out and a monic denominator.
    """

    __slots__ = ("ctx", "num", "_den", "_hash")

    def __init__(self, ctx: ChartContext, num: dict, den):
        self.ctx = ctx
        self.num = num
        self._den = den
        self._hash = None

    @property
    def den(self) -> dict:
        """The denominator polynomial, no variable dividing it."""
        d = self._den
        if type(d) is dict:
            return d
        _fresh(self)
        d = self._den
        return d if type(d) is dict else d.expanded()

    # -- arithmetic --------------------------------------------------------

    def _operand(self, other):
        """other as an expression that mixes with self, or None for an
        operand of another type.  Raises ExprError for an expression of
        another chart (see ChartContext)."""
        if isinstance(other, DiffExpr):
            if other.ctx is self.ctx or other.ctx.coords == self.ctx.coords:
                return other
            raise ExprError("mixing expressions from different charts")
        if isinstance(other, (int, Fraction)):
            return self.ctx.number(other)
        return None

    def _sum(self, o: "DiffExpr", combine) -> "DiffExpr":
        """self + o or self - o, as combine is _padd or _psub."""
        ctx = self.ctx
        d1, d2 = self._den, o._den
        if d1 is _P_ONE and d2 is _P_ONE:
            return DiffExpr(ctx, combine(self.num, o.num), _P_ONE)
        if type(d1) is dict and type(d2) is dict:
            a, b = d1[()], d2[()]
            g = gcd(a, b)
            num = combine(_pscale(self.num, b // g), _pscale(o.num, a // g))
            if not num:
                return ctx._zero
            return DiffExpr(ctx, *_const_over(num, a // g * b, (d1, d2)))
        num, den = _bsum(self, o, combine)
        return DiffExpr(ctx, num, den) if num else ctx._zero

    def __add__(self, other):
        o = other
        if type(o) is not DiffExpr or o.ctx is not self.ctx:
            o = self._operand(other)
            if o is None:
                return NotImplemented
        if not o.num:
            return self
        if not self.num:
            return o
        return self._sum(o, _padd)

    __radd__ = __add__

    def __neg__(self):
        if not self.num:
            return self
        return DiffExpr(self.ctx, _pneg(self.num), self._den)

    def __sub__(self, other):
        o = other
        if type(o) is not DiffExpr or o.ctx is not self.ctx:
            o = self._operand(other)
            if o is None:
                return NotImplemented
        if not o.num:
            return self
        return self._sum(o, _psub)

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = other
        if type(o) is not DiffExpr or o.ctx is not self.ctx:
            o = self._operand(other)
            if o is None:
                return NotImplemented
        ctx = self.ctx
        if not self.num or not o.num:
            return ctx._zero
        if o is o.ctx._one:
            return self
        if self is ctx._one:
            return o
        d1, d2 = self._den, o._den
        if d1 is _P_ONE and d2 is _P_ONE:
            return DiffExpr(ctx, _pmul(self.num, o.num), _P_ONE)
        if type(d1) is dict and type(d2) is dict:
            return DiffExpr(ctx, *_const_over(_pmul(self.num, o.num),
                                              d1[()] * d2[()], (d1, d2)))
        return DiffExpr(ctx, *_bmul(self, o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by the zero expression")
        if not self.num:
            return self.ctx._zero
        d1, d2 = self._den, o._den
        if len(o.num) == 1 and type(d1) is dict and type(d2) is dict:
            # 1/o = (o.den/m) / (o.num/m) for o's one term m
            (m, c), = o.num.items()
            return DiffExpr(self.ctx, *_const_over(
                _pmul(self.num, _mdiv(d2, m)), d1[()] * c))
        return DiffExpr(self.ctx, *_bdiv(self, o))

    def __rtruediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ExprError("exponent must be a natural number")
        out = self.ctx.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- predicates and views -----------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == _P_ONE and self._den == _P_ONE

    def is_constant(self) -> bool:
        num = self.num
        return (type(self._den) is dict
                and (not num or (len(num) == 1 and () in num)))

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ExprError(f"not a constant: {self}")
        return Fraction(self.num.get((), 0), self._den[()])

    def is_polynomial(self) -> bool:
        return type(self._den) is dict and all(
            e > 0 for m in self.num for _, e in m)

    def free_of_funcs(self) -> bool:
        return all(_VAR_KEYS[v][0] == _KIND_COORD for v in
                   _pvars(self.num) | _pvars(self.den))

    def coordinate_terms(self):
        """A polynomial in the coordinates alone as ([(exponent of each
        coordinate, integer coefficient), ...], integer denominator)."""
        den = self._den
        if type(den) is not dict:
            raise ExprError(f"not a coordinate polynomial: {self}")
        n = len(self.ctx.coords)
        terms = []
        for m, c in self.num.items():
            exp = [0] * n
            for v, e in m:
                key = _VAR_KEYS[v]
                if key[0] != _KIND_COORD or e < 0:
                    raise ExprError(f"not a coordinate polynomial: {self}")
                exp[key[1]] = e
            terms.append((tuple(exp), c))
        return terms, den[()]

    def __eq__(self, other):
        try:
            o = self._operand(other)
        except ExprError:
            return False  # expressions of another chart
        if o is None:
            return NotImplemented
        d1, d2 = self._den, o._den
        if type(d1) is dict or type(d2) is dict:
            return d1 == d2 and self.num == o.num
        # a base form is unique over the current base
        _fresh(self)
        _fresh(o)
        d1, d2 = self._den, o._den
        if type(d1) is dict or type(d2) is dict:
            return d1 == d2 and self.num == o.num
        return d1.fac == d2.fac and d1.c == d2.c and self.num == o.num

    def __hash__(self):
        if self._hash is None:
            d = self._den
            if type(d) is dict:
                self._hash = hash((frozenset(self.num.items()),
                                   frozenset(d.items())))
            else:
                self._hash = _value_hash(self)
        return self._hash

    def __bool__(self):
        return bool(self.num)

    # -- printing ------------------------------------------------------------

    def __str__(self):
        return _quotient_text(self.ctx, *_lowest(self))

    __repr__ = __str__


def _quotient_text(ctx: ChartContext, num: dict, den: dict) -> str:
    """num/den, in lowest terms with den a polynomial no variable divides,
    as it prints: num's negative exponents multiplied out, den monic."""
    num, den = _cleared(num, den)
    if len(den) == 1 and () in den:
        return _format_poly(ctx, num, den[()])
    lc = den[_plead(den)]
    head = _format_poly(ctx, num, lc)
    if len(num) > 1:
        head = f"({head})"
    text = _format_poly(ctx, den, lc)
    (m, _), *more = den.items()
    if more or len(m) > 1 or m[0][1] > 1:
        text = f"({text})"
    return f"{head}/{text}"


def _format_poly(ctx: ChartContext, p: dict, scale: int) -> str:
    """p / scale, terms in descending canonical order."""
    if not p:
        return "0"
    out = []
    for m in sorted(p, key=_graded_lex(p), reverse=True):
        c = p[m]
        a = abs(c)
        g = gcd(a, scale)
        a, s = a // g, scale // g
        coeff = str(a) if s == 1 else f"{a}/{s}"
        parts = [] if m and coeff == "1" else [coeff]
        for v, e in sorted(m, key=lambda t: _VAR_KEYS[t[0]]):
            text = ctx._var_text(v)
            parts.append(text if e == 1 else f"{text}^{e}")
        body = "*".join(parts)
        if not out:
            out.append(f"-{body}" if c < 0 else body)
        else:
            out.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(out)


# ---------------------------------------------------------------------------
# parser


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError("unexpected character", text, pos)
        if m.group("int"):
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


# Parentheses and unary minus may nest this deep.  Each level costs the
# recursive descent a few Python frames, so the cap keeps a hostile input
# a syntax error instead of a RecursionError.
MAX_NESTING = 100


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*;
    term := factor (('*'|'/') factor)*; factor := atom ('^' natural)?;
    atom := rational | ident | d(f,x) | d2(f,x,y) | '(' expr ')' | '-' factor.
    """

    def __init__(self, text: str, ctx: ChartContext):
        self.text = text
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", self.text, pos)

    def parse(self) -> DiffExpr:
        e = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError("trailing input", self.text, pos)
        return e

    def expr(self) -> DiffExpr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                t = self.term()
                e = e + t if val == "+" else e - t
            else:
                return e

    def term(self) -> DiffExpr:
        e = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                f = self.factor()
                if val == "*":
                    e = e * f
                else:
                    if f.is_zero():
                        raise ExprSyntaxError("division by zero", self.text,
                                              pos)
                    e = e / f
            else:
                return e

    def factor(self) -> DiffExpr:
        kind, val, pos = self.peek()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING} levels",
                                  self.text, pos)
        if kind == "op" and val == "-":
            self.next()
            e = -self.factor()
        else:
            e = self.atom()
            kind, val, pos = self.peek()
            if kind == "op" and val == "^":
                self.next()
                k, v, p2 = self.next()
                if k != "int":
                    raise ExprSyntaxError("exponent must be a natural number",
                                          self.text, p2)
                e = e ** v
        self.depth -= 1
        return e

    def atom(self) -> DiffExpr:
        kind, val, pos = self.next()
        if kind == "int":
            # rational := integer ('/' positive-integer)?  (greedy)
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                k3, v3, p3 = self.tokens[self.i + 1]
                if k3 == "int":
                    if v3 == 0:
                        raise ExprSyntaxError("zero denominator", self.text,
                                              p3)
                    self.i += 2
                    return self.ctx.number(Fraction(val, v3))
            return self.ctx.number(val)
        if kind == "name":
            if val in ("d", "d2"):
                return self.derivative_atom(val, pos)
            if val in self.ctx._coord_pos:
                return self.ctx.coordinate(val)
            if val in self.ctx.funcs:
                return self.ctx.function(val)
            raise ExprSyntaxError(f"unknown symbol {val!r}", self.text, pos)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError("expected an atom", self.text, pos)

    def derivative_atom(self, head: str, pos: int) -> DiffExpr:
        self.expect_op("(")
        names = [self.ident()]
        self.expect_op(",")
        names.append(self.ident())
        if head == "d2":
            self.expect_op(",")
            names.append(self.ident())
        self.expect_op(")")
        fname = names[0]
        if fname not in self.ctx.funcs:
            raise ExprSyntaxError(f"unknown function symbol {fname!r}",
                                  self.text, pos)
        for cname in names[1:]:
            if cname not in self.ctx._coord_pos:
                raise ExprSyntaxError(f"unknown coordinate {cname!r}",
                                      self.text, pos)
        return self.ctx.partial(fname, *names[1:])

    def ident(self) -> str:
        kind, val, pos = self.next()
        if kind != "name":
            raise ExprSyntaxError("expected an identifier", self.text, pos)
        return val


def parse_expr(text: str, ctx: ChartContext) -> DiffExpr:
    """Parse the fixed expression grammar into a canonical DiffExpr."""
    return _Parser(text, ctx).parse()


def differentiate(e: DiffExpr, coord: str) -> DiffExpr:
    """Partial derivative by a chart coordinate.

    Quotient rule on the canonical fraction; formal derivative symbols are
    produced for function symbols, capped at second order.
    """
    ctx = e.ctx
    cpos = ctx.coord_pos(coord)
    den = e._den
    if type(den) is not dict:
        num, den = _bdiff(e, cpos)
        return DiffExpr(ctx, num, den) if num else ctx._zero
    try:
        dn = _pdiff(e.num, cpos)
    except DerivativeOrderError:
        raise _cap_error(e.num) from None
    if den is _P_ONE:
        return DiffExpr(ctx, dn, _P_ONE)
    return DiffExpr(ctx, *_const_over(dn, den[()], (den,)))


def evaluate(e: DiffExpr, coord_values: dict, func_polys: dict | None = None
             ) -> Fraction:
    """Evaluate at a rational chart point.

    Function symbols are instantiated by the polynomial expressions given in
    func_polys (expressions in the coordinates only); their formal partials
    evaluate to the actual partials of those polynomials.  Raises
    ZeroDivisionError if the denominator vanishes at the point.
    """
    ctx = e.ctx
    func_polys = func_polys or {}
    cache: dict = {}

    def poly_for(fname: str) -> DiffExpr:
        p = func_polys[fname]
        if not p.is_polynomial() or not p.free_of_funcs():
            raise ExprError("function instances must be coordinate "
                            "polynomials")
        return p

    def value_of(v: int) -> Fraction:
        got = cache.get(v)
        if got is not None:
            return got
        key = _VAR_KEYS[v]
        kind = key[0]
        if kind == _KIND_COORD:
            out = Fraction(coord_values[ctx.coords[key[1]]])
        elif kind == _KIND_FUNC:
            out = evaluate(poly_for(key[1]), coord_values)
        else:
            out = poly_for(key[1])
            for i in key[2:]:
                out = differentiate(out, ctx.coords[i])
            out = evaluate(out, coord_values)
        cache[v] = out
        return out

    def eval_poly(p: dict) -> Fraction:
        total = Fraction(0)
        for m, c in p.items():
            term = Fraction(c)
            for v, exp in m:
                term *= value_of(v) ** exp
            total += term
        return total

    num, den = _cleared(e.num, e.den)
    den = eval_poly(den)
    if den == 0:
        raise ZeroDivisionError("denominator vanishes at the point")
    return eval_poly(num) / den
