"""Exact symbolic scalars for chart-level differential algebra.

A value is a quotient of multivariate polynomials over Q.  The indeterminates
are chart coordinates, formal function symbols, and formal partial derivatives
of those symbols up to second order.  Everything is kept canonical, so
equality and `is_zero` are exact decisions, never heuristics.  Values of
two ChartContexts mix only when both declare the same coordinates.

The representation is packed into plain ints.  Each indeterminate has an id
from one process-wide intern table, a monomial is a tuple of (id, exponent)
pairs sorted by id, and a value is an integer Laurent polynomial (the
numerator, whose exponents may be negative) over an integer polynomial
that no variable divides (the denominator): coprime, with no common
integer factor, and the denominator's leading coefficient positive.  So
n/(c*y^k) is stored as n*y^-k over the integer c: a monomial denominator
costs the arithmetic nothing beyond the constant-denominator paths, and a
polynomial has a constant denominator and no negative exponent.  Sums put
two quotients over the lcm of their denominators and cancel against their
gcd only; products cancel each numerator against the other denominator.
A gcd runs only where a denominator has two or more terms (or a divisor's
numerator does, once its monomial content is split off), and it comes
from a primitive PRS over the integers, on polynomials only.  The
canonical graded-lex order over the variables' keys is consulted only
where it chooses an output or a representative.  A value prints and
evaluates with its negative exponents multiplied back out, with a monic
denominator and rational coefficients, and `Fraction` appears only where
numbers enter or leave: parsing, `number()`, `constant_value()` and
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


def _var_id(key: tuple) -> int:
    vid = _VAR_IDS.get(key)
    if vid is None:
        vid = _VAR_IDS[key] = len(_VAR_KEYS)
        _VAR_KEYS.append(key)
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


def _mdiv(p: dict, m: tuple) -> dict:
    """p divided by the monomial m."""
    return _pmul(p, {tuple((v, -e) for v, e in m): 1})


def _cleared(num: dict, den: dict) -> tuple[dict, dict]:
    """num/den with num's negative exponents multiplied out of both: the
    quotient of two polynomials, as it prints and evaluates."""
    neg = tuple((v, e) for v, e in _mcontent(num) if e < 0) if num else ()
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


def _qmul(n1: dict, d1: dict, n2: dict, d2: dict) -> tuple[dict, dict]:
    """(n1/d1) * (n2/d2) for coprime pairs: each numerator is cancelled
    against the other denominator, so the product is coprime."""
    if not _is_const(d2):
        n1, d2 = _cancel(n1, d2)
    if not _is_const(d1):
        n2, d1 = _cancel(n2, d1)
    return _finish(_pmul(n1, n2), _pmul(d1, d2))


def _qsum(n1: dict, d1: dict, n2: dict, d2: dict, combine
          ) -> tuple[dict, dict]:
    """(n1/d1) +- (n2/d2) for coprime pairs, as combine is _padd or
    _psub: over the lcm of the denominators, then cancelled against
    their gcd only (Henrici)."""
    if d1 == d2:
        return _reduce(combine(n1, n2), d1)
    g = _pgcd(d1, d2)
    if _is_const(g):
        return _finish(combine(_pmul(n1, d2), _pmul(n2, d1)),
                       _pmul(d1, d2))
    d1, d2 = _pdivexact(d1, g), _pdivexact(d2, g)
    num, g = _cancel(combine(_pmul(n1, d2), _pmul(n2, d1)), g)
    return _finish(num, _pmul(_pmul(d1, d2), g))


# ---------------------------------------------------------------------------
# the public quotient type


class DiffExpr:
    """A canonical quotient of two integer polynomials.  Immutable.

    num is a Laurent polynomial (exponents of either sign) and den a
    polynomial no variable divides, so a monomial denominator lives in
    num's negative exponents and den is a constant.  num and den are
    coprime, share no integer factor, and den's leading coefficient in
    the canonical order is positive.  It prints with its negative
    exponents multiplied out and a monic denominator.
    """

    __slots__ = ("ctx", "num", "den", "_hash")

    def __init__(self, ctx: ChartContext, num: dict, den: dict):
        self.ctx = ctx
        self.num = num
        self.den = den
        self._hash = None

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
        d1, d2 = self.den, o.den
        if d1 is _P_ONE and d2 is _P_ONE:
            return DiffExpr(ctx, combine(self.num, o.num), _P_ONE)
        if len(d1) == 1 and len(d2) == 1 and () in d1 and () in d2:
            a, b = d1[()], d2[()]
            g = gcd(a, b)
            num = combine(_pscale(self.num, b // g), _pscale(o.num, a // g))
            if not num:
                return ctx._zero
            return DiffExpr(ctx, *_const_over(num, a // g * b, (d1, d2)))
        return DiffExpr(ctx, *_qsum(self.num, d1, o.num, d2, combine))

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
        return DiffExpr(self.ctx, _pneg(self.num), self.den)

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
        d1, d2 = self.den, o.den
        if d1 is _P_ONE and d2 is _P_ONE:
            return DiffExpr(ctx, _pmul(self.num, o.num), _P_ONE)
        if len(d1) == 1 and len(d2) == 1 and () in d1 and () in d2:
            return DiffExpr(ctx, *_const_over(_pmul(self.num, o.num),
                                              d1[()] * d2[()], (d1, d2)))
        return DiffExpr(ctx, *_qmul(self.num, d1, o.num, d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by the zero expression")
        if not self.num:
            return self.ctx._zero
        # 1/o = (o.den/m) / (o.num/m), m the monomial content of o.num
        m = _mcontent(o.num)
        return DiffExpr(self.ctx, *_qmul(self.num, self.den,
                                         _mdiv(o.den, m), _mdiv(o.num, m)))

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
        return self.num == _P_ONE and self.den == _P_ONE

    def is_constant(self) -> bool:
        num, den = self.num, self.den
        return (len(den) == 1 and () in den
                and (not num or (len(num) == 1 and () in num)))

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ExprError(f"not a constant: {self}")
        return Fraction(self.num.get((), 0), self.den[()])

    def is_polynomial(self) -> bool:
        return _is_const(self.den) and all(
            e > 0 for m in self.num for _, e in m)

    def free_of_funcs(self) -> bool:
        return all(_VAR_KEYS[v][0] == _KIND_COORD for v in
                   _pvars(self.num) | _pvars(self.den))

    def coordinate_terms(self):
        """A polynomial in the coordinates alone as ([(exponent of each
        coordinate, integer coefficient), ...], integer denominator)."""
        den = self.den
        if not _is_const(den):
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
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.num.items()),
                               frozenset(self.den.items())))
        return self._hash

    def __bool__(self):
        return bool(self.num)

    # -- printing ------------------------------------------------------------

    def __str__(self):
        num, den = _cleared(self.num, self.den)
        if len(den) == 1 and () in den:
            return _format_poly(self.ctx, num, den[()])
        lc = den[_plead(den)]
        head = _format_poly(self.ctx, num, lc)
        if len(num) > 1:
            head = f"({head})"
        text = _format_poly(self.ctx, den, lc)
        (m, _), *more = den.items()
        if more or len(m) > 1 or m[0][1] > 1:
            text = f"({text})"
        return f"{head}/{text}"

    __repr__ = __str__


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
    den = e.den
    const_den = len(den) == 1 and () in den
    try:
        dn = _pdiff(e.num, cpos)
        dd = None if const_den else _pdiff(den, cpos)
    except DerivativeOrderError:
        raise _cap_error(e.num, den) from None
    if den is _P_ONE:
        return DiffExpr(ctx, dn, _P_ONE)
    if const_den:
        return DiffExpr(ctx, *_const_over(dn, den[()], (den,)))
    num = _psub(_pmul(dn, den), _pmul(e.num, dd))
    return DiffExpr(ctx, *_reduce(num, _pmul(den, den)))


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
