"""Exact symbolic scalars for chart-level differential algebra.

A value is a quotient of multivariate polynomials over Q.  The indeterminates
are chart coordinates, formal function symbols, and formal partial derivatives
of those symbols up to second order.  Everything is kept canonical (coprime
numerator and denominator, monic denominator, fixed graded-lex monomial
order), so equality and `is_zero` are exact decisions, never heuristics.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

__all__ = [
    "ChartContext",
    "DiffExpr",
    "ExprError",
    "ExprSyntaxError",
    "DerivativeOrderError",
    "parse_expr",
    "differentiate",
    "is_zero",
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


class Var:
    """An interned indeterminate.  Ordered and hashed by its key tuple."""

    __slots__ = ("key", "text")

    def __init__(self, key: tuple, text: str):
        self.key = key
        self.text = text

    def __eq__(self, other):
        return isinstance(other, Var) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __lt__(self, other):
        return self.key < other.key

    def __repr__(self):
        return f"Var({self.text})"


class ChartContext:
    """Declares the coordinates and formal function symbols of one chart.

    Coordinates are ordered as declared; that order fixes the canonical
    monomial order and the meaning of positional anchor components.  The
    context may have no coordinates at all (point case): differentiation
    then has no valid direction and every anchor action is zero.

    Formal partial derivatives stop at order 2; differentiating past
    that raises DerivativeOrderError rather than silently inventing
    higher-order symbols.
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
        self._vars: dict[tuple, Var] = {}
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

    def _intern(self, key: tuple, text: str) -> Var:
        var = self._vars.get(key)
        if var is None:
            var = Var(key, text)
            self._vars[key] = var
        return var

    def coord_var(self, name: str) -> Var:
        return self._intern((_KIND_COORD, self.coord_pos(name)), name)

    def func_var(self, name: str) -> Var:
        if name not in self.funcs:
            raise ExprError(f"unknown function symbol: {name!r}")
        return self._intern((_KIND_FUNC, name), name)

    def d1_var(self, fname: str, cname: str) -> Var:
        if fname not in self.funcs:
            raise ExprError(f"unknown function symbol: {fname!r}")
        i = self.coord_pos(cname)
        return self._intern((_KIND_D1, fname, i), f"d({fname},{cname})")

    def d2_var(self, fname: str, cname1: str, cname2: str) -> Var:
        if fname not in self.funcs:
            raise ExprError(f"unknown function symbol: {fname!r}")
        i, j = self.coord_pos(cname1), self.coord_pos(cname2)
        if i > j:
            i, j = j, i
        ci, cj = self.coords[i], self.coords[j]
        return self._intern((_KIND_D2, fname, i, j), f"d2({fname},{ci},{cj})")

    def extended(self, extra_funcs) -> "ChartContext":
        """A context with the same chart plus additional function symbols."""
        return ChartContext(self.coords, self.funcs + tuple(extra_funcs))

    def fresh_func_name(self, stem: str = "f") -> str:
        if stem not in self.coords and stem not in self.funcs:
            return stem
        k = 0
        while True:
            name = f"{stem}{k}"
            if name not in self.coords and name not in self.funcs:
                return name
            k += 1

    # -- expression constructors ------------------------------------------

    def number(self, value) -> "DiffExpr":
        q = Fraction(value)
        if not q:
            return self._zero
        if q == 1:
            return self._one
        return DiffExpr(self, {(): q}, _P_ONE)

    def coordinate(self, name: str) -> "DiffExpr":
        return DiffExpr(self, {((self.coord_var(name), 1),): Fraction(1)},
                        _P_ONE)

    def function(self, name: str) -> "DiffExpr":
        return DiffExpr(self, {((self.func_var(name), 1),): Fraction(1)},
                        _P_ONE)

    def zero(self) -> "DiffExpr":
        """The context's shared zero constant."""
        return self._zero

    def one(self) -> "DiffExpr":
        """The context's shared unit constant."""
        return self._one

    def expr(self, text: str) -> "DiffExpr":
        return parse_expr(text, self)

    def compatible(self, other: "ChartContext") -> bool:
        return self.coords == other.coords

    def __repr__(self):
        return f"ChartContext(coords={self.coords}, funcs={self.funcs})"


# ---------------------------------------------------------------------------
# polynomial layer: dict {monomial: Fraction}, monomial = sorted ((Var, exp)..)

_P_ONE = {(): Fraction(1)}


def _mmul(m1: tuple, m2: tuple) -> tuple:
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1.key == v2.key:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1.key < v2.key:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def _mtotdeg(m: tuple) -> int:
    return sum(e for _, e in m)


def _mcmp(a: tuple, b: tuple) -> int:
    """Graded lex: higher total degree wins, then the earlier variable with
    the larger exponent."""
    da, db = _mtotdeg(a), _mtotdeg(b)
    if da != db:
        return -1 if da < db else 1
    i = j = 0
    while i < len(a) or j < len(b):
        if i < len(a) and (j >= len(b) or a[i][0].key < b[j][0].key):
            return 1  # a has the earlier variable with positive exponent
        if j < len(b) and (i >= len(a) or b[j][0].key < a[i][0].key):
            return -1
        ea, eb = a[i][1], b[j][1]
        if ea != eb:
            return 1 if ea > eb else -1
        i += 1
        j += 1
    return 0


_MKEY = functools.cmp_to_key(_mcmp)


def _padd(p: dict, q: dict) -> dict:
    if not p:
        return q
    if not q:
        return p
    out = dict(p)
    for m, c in q.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _pneg(p: dict) -> dict:
    return {m: -c for m, c in p.items()}


def _pmul(p: dict, q: dict) -> dict:
    if not p or not q:
        return {}
    if p == _P_ONE:
        return q
    if q == _P_ONE:
        return p
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _mmul(m1, m2)
            s = out.get(m)
            if s is None:
                out[m] = c1 * c2
            else:
                s = s + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


def _plead(p: dict) -> tuple:
    return max(p, key=_MKEY)


def _pmonic(p: dict) -> dict:
    """Scale so the leading coefficient is 1 (canonical gcd representative)."""
    if not p:
        return p
    lc = p[_plead(p)]
    if lc == 1:
        return p
    inv = 1 / lc
    return {m: c * inv for m, c in p.items()}


def _pvars(p: dict) -> set:
    out = set()
    for m in p:
        for v, _ in m:
            out.add(v)
    return out


def _pmainvar(p: dict, q: dict):
    vs = _pvars(p) | _pvars(q)
    return max(vs) if vs else None


def _puni(p: dict, v: Var) -> dict:
    """View p as univariate in v: {degree: coefficient polynomial}."""
    out: dict = {}
    for m, c in p.items():
        deg = 0
        rest = []
        for var, e in m:
            if var.key == v.key:
                deg = e
            else:
                rest.append((var, e))
        coeff = out.setdefault(deg, {})
        rm = tuple(rest)
        coeff[rm] = coeff.get(rm, Fraction(0)) + c
    return {d: {m: c for m, c in coeff.items() if c}
            for d, coeff in out.items() if any(coeff.values())}


def _pfromuni(u: dict, v: Var) -> dict:
    out: dict = {}
    for deg, coeff in u.items():
        vm = ((v, deg),) if deg else ()
        for m, c in coeff.items():
            mm = _mmul(vm, m)
            out[mm] = out.get(mm, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _monomial_gcd(p: dict, q: dict) -> dict:
    """gcd when at least one side is a single monomial; also the common
    monomial-content fast path."""
    exps: dict = {}
    first = True
    for poly in (p, q):
        for m in poly:
            md = dict((v, e) for v, e in m)
            if first:
                exps = md
                first = False
            else:
                exps = {v: min(e, md.get(v, 0)) for v, e in exps.items()
                        if md.get(v, 0)}
            if not exps:
                return _P_ONE
    mono = tuple(sorted(exps.items(), key=lambda t: t[0].key))
    return {mono: Fraction(1)}


def _pdivexact(p: dict, d: dict) -> dict:
    """Exact division; raises if d does not divide p."""
    if not p:
        return {}
    if d == _P_ONE:
        return p
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    if len(d) == 1:
        (dm, dc), = d.items()
        dd = dict(dm)
        out = {}
        for m, c in p.items():
            md = dict(m)
            for v, e in dd.items():
                r = md.get(v, 0) - e
                if r < 0:
                    raise ExprError("inexact polynomial division")
                if r:
                    md[v] = r
                else:
                    md.pop(v, None)
            out[tuple(sorted(md.items(), key=lambda t: t[0].key))] = c / dc
        return out
    v = max(_pvars(d))
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
            t = _pneg(_pmul(qc, co))
            tgt = _padd(pu.get(pd - dd + de, {}), t)
            if tgt:
                pu[pd - dd + de] = tgt
            else:
                pu.pop(pd - dd + de, None)
    return _pfromuni(quo, v)


def _pcontent(u: dict) -> dict:
    """gcd of the coefficients of a univariatized polynomial."""
    g: dict = {}
    for coeff in u.values():
        g = _pgcd(g, coeff)
        if g == _P_ONE:
            return g
    return g


def _pprem(a: dict, b: dict, v: Var) -> dict:
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
            t = _pneg(_pmul(al, co))
            tgt = _padd(au.get(ad - bd + de, {}), t)
            if tgt:
                au[ad - bd + de] = tgt
            else:
                au.pop(ad - bd + de, None)
    return _pfromuni(au, v)


def _pgcd(p: dict, q: dict) -> dict:
    """Monic gcd over Q[vars], primitive PRS with fast paths."""
    if not p:
        return _pmonic(q)
    if not q:
        return _pmonic(p)
    if len(p) == 1 or len(q) == 1:
        return _monomial_gcd(p, q)
    if p == q:
        return _pmonic(p)
    v = _pmainvar(p, q)
    if v is None:
        return _P_ONE
    # peel common monomial content cheaply first
    mono = _monomial_gcd(p, p)
    monoq = _monomial_gcd(q, q)
    common = _monomial_gcd(mono, monoq)
    if common != _P_ONE:
        p = _pdivexact(p, common)
        q = _pdivexact(q, common)
    pu = _puni(p, v)
    qu = _puni(q, v)
    if max(pu) == 0 or max(qu) == 0:
        # one side is free of the main variable: gcd divides its content
        g = _pgcd(_pcontent(pu), _pcontent(qu))
        return _pmonic(_pmul(common, g))
    cp = _pcontent(pu)
    cq = _pcontent(qu)
    a = _pdivexact(p, cp)
    b = _pdivexact(q, cq)
    if _puni(a, v) and _puni(b, v):
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
        r = _pdivexact(r, _pcontent(ru))
        a, b = b, r
    if g != _P_ONE:
        gu = _puni(g, v)
        g = _pdivexact(g, _pcontent(gu))
    c = _pgcd(cp, cq)
    return _pmonic(_pmul(common, _pmul(c, g)))


def _pdiff(p: dict, ctx: ChartContext, cname: str) -> dict:
    """Formal partial derivative of a polynomial by one coordinate."""
    cpos = ctx.coord_pos(cname)
    out: dict = {}
    for m, c in p.items():
        for idx, (v, e) in enumerate(m):
            dv = _var_derivative(ctx, v, cpos)
            if dv is None:
                continue
            rest = list(m)
            if e > 1:
                rest[idx] = (v, e - 1)
            else:
                del rest[idx]
            base = tuple(rest)
            if dv is _ONE_MARK:
                mm = base
            else:
                mm = _mmul(base, ((dv, 1),))
            coeff = c * e
            s = out.get(mm)
            out[mm] = coeff if s is None else s + coeff
    return {m: c for m, c in out.items() if c}


_ONE_MARK = object()  # derivative of a coordinate by itself


def _var_derivative(ctx: ChartContext, v: Var, cpos: int):
    kind = v.key[0]
    if kind == _KIND_COORD:
        return _ONE_MARK if v.key[1] == cpos else None
    if kind == _KIND_FUNC:
        fname = v.key[1]
        cname = ctx.coords[cpos]
        return ctx.d1_var(fname, cname)
    if kind == _KIND_D1:
        _, fname, i = v.key
        return ctx.d2_var(fname, ctx.coords[i], ctx.coords[cpos])
    raise DerivativeOrderError(
        f"third derivative of {v.key[1]} exceeds the cap")


# ---------------------------------------------------------------------------
# the public quotient type


class DiffExpr:
    """A canonical quotient of two polynomials.  Immutable."""

    __slots__ = ("ctx", "num", "den", "_hash")

    def __init__(self, ctx: ChartContext, num: dict, den: dict,
                 reduced: bool = True):
        if not reduced:
            num, den = _reduce(num, den)
        self.ctx = ctx
        self.num = num
        self.den = den
        self._hash = None

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, DiffExpr):
            if not self.ctx.compatible(other.ctx):
                raise ExprError("mixing expressions from different charts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.number(other)
        return None

    def _join_ctx(self, o: "DiffExpr") -> "ChartContext":
        # mixing a base-chart expression with one from an extended context
        # is fine; the result lives in whichever knows more symbols
        ca, cb = self.ctx, o.ctx
        if ca is cb or ca.funcs == cb.funcs:
            return ca
        sa, sb = set(ca.funcs), set(cb.funcs)
        if sb <= sa:
            return ca
        if sa <= sb:
            return cb
        raise ExprError("mixing expressions with unrelated function symbols")

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self._join_ctx(o)
        if not o.num and ctx is self.ctx:
            return self
        if not self.num and ctx is o.ctx:
            return o
        if self.den == o.den:
            return DiffExpr(ctx, _padd(self.num, o.num), self.den,
                            reduced=False)
        num = _padd(_pmul(self.num, o.den), _pmul(o.num, self.den))
        return DiffExpr(ctx, num, _pmul(self.den, o.den), reduced=False)

    __radd__ = __add__

    def __neg__(self):
        if not self.num:
            return self
        return DiffExpr(self.ctx, _pneg(self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__add__(-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self._join_ctx(o)
        if not self.num or not o.num:
            return ctx.zero()
        if o is o.ctx._one and ctx is self.ctx:
            return self
        if self is self.ctx._one and ctx is o.ctx:
            return o
        return DiffExpr(ctx, _pmul(self.num, o.num),
                        _pmul(self.den, o.den), reduced=False)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by the zero expression")
        return DiffExpr(self._join_ctx(o), _pmul(self.num, o.den),
                        _pmul(self.den, o.num), reduced=False)

    def __rtruediv__(self, other):
        o = self._coerce(other)
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
        return (not self.num or self.num.keys() == {()}) and self.den == _P_ONE

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ExprError(f"not a constant: {self}")
        return self.num.get((), Fraction(0))

    def is_polynomial(self) -> bool:
        return self.den == _P_ONE

    def free_of_funcs(self) -> bool:
        return all(v.key[0] == _KIND_COORD for v in
                   _pvars(self.num) | _pvars(self.den))

    def total_degree(self) -> int:
        """Total degree of a polynomial expression (zero polynomial: -1)."""
        if not self.is_polynomial():
            raise ExprError("total_degree needs a polynomial")
        if not self.num:
            return -1
        return max(_mtotdeg(m) for m in self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.number(other)
        if not isinstance(other, DiffExpr):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((
                frozenset((m, c) for m, c in self.num.items()),
                frozenset((m, c) for m, c in self.den.items()),
            ))
        return self._hash

    def __bool__(self):
        return not self.is_zero()

    # -- printing ------------------------------------------------------------

    def __str__(self):
        num = _format_poly(self.num)
        if self.den == _P_ONE:
            return num
        den = _format_poly(self.den)
        if len(self.num) > 1:
            num = f"({num})"
        if _needs_parens_as_divisor(self.den):
            den = f"({den})"
        return f"{num}/{den}"

    __repr__ = __str__


def _reduce(num: dict, den: dict) -> tuple[dict, dict]:
    if not num:
        return {}, _P_ONE
    if not den:
        raise ZeroDivisionError("zero denominator")
    if den == _P_ONE:
        return num, den
    if den.keys() == {()}:
        c = den[()]
        return {m: v / c for m, v in num.items()}, _P_ONE
    g = _pgcd(num, den)
    if g != _P_ONE:
        num = _pdivexact(num, g)
        den = _pdivexact(den, g)
    if den == _P_ONE or den.keys() == {()}:
        return _reduce(num, den)
    lc = den[_plead(den)]
    if lc != 1:
        inv = 1 / lc
        num = {m: c * inv for m, c in num.items()}
        den = {m: c * inv for m, c in den.items()}
    return num, den


def _format_monomial(m: tuple, c: Fraction) -> str:
    parts = []
    if not m:
        return str(abs(c))
    a = abs(c)
    if a != 1:
        parts.append(str(a))
    for v, e in m:
        parts.append(v.text if e == 1 else f"{v.text}^{e}")
    return "*".join(parts)


def _format_poly(p: dict) -> str:
    if not p:
        return "0"
    terms = sorted(p.keys(), key=_MKEY, reverse=True)
    out = []
    for i, m in enumerate(terms):
        c = p[m]
        body = _format_monomial(m, c)
        if i == 0:
            out.append(f"-{body}" if c < 0 else body)
        else:
            out.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(out)


def _needs_parens_as_divisor(p: dict) -> bool:
    if len(p) > 1:
        return True
    (m, c), = p.items()
    if c != 1 or len(m) > 1:
        return True
    return m[0][1] > 1


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
        if head == "d":
            var = self.ctx.d1_var(fname, names[1])
        else:
            var = self.ctx.d2_var(fname, names[1], names[2])
        return DiffExpr(self.ctx, {((var, 1),): Fraction(1)}, _P_ONE)

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
    dn = _pdiff(e.num, ctx, coord)
    if e.den == _P_ONE:
        return DiffExpr(ctx, dn, _P_ONE)
    dd = _pdiff(e.den, ctx, coord)
    num = _padd(_pmul(dn, e.den), _pneg(_pmul(e.num, dd)))
    return DiffExpr(ctx, num, _pmul(e.den, e.den), reduced=False)


def is_zero(e: DiffExpr) -> bool:
    """Exact zero decision (the canonical form makes this a lookup)."""
    return e.is_zero()


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

    def value_of(v: Var) -> Fraction:
        got = cache.get(v.key)
        if got is not None:
            return got
        kind = v.key[0]
        if kind == _KIND_COORD:
            out = Fraction(coord_values[ctx.coords[v.key[1]]])
        elif kind == _KIND_FUNC:
            out = evaluate(poly_for(v.key[1]), coord_values)
        elif kind == _KIND_D1:
            _, fname, i = v.key
            out = evaluate(differentiate(poly_for(fname), ctx.coords[i]),
                           coord_values)
        else:
            _, fname, i, j = v.key
            d1 = differentiate(poly_for(fname), ctx.coords[i])
            out = evaluate(differentiate(d1, ctx.coords[j]), coord_values)
        cache[v.key] = out
        return out

    def eval_poly(p: dict) -> Fraction:
        total = Fraction(0)
        for m, c in p.items():
            term = c
            for v, exp in m:
                term *= value_of(v) ** exp
            total += term
        return total

    den = eval_poly(e.den)
    if den == 0:
        raise ZeroDivisionError("denominator vanishes at the point")
    return eval_poly(e.num) / den
