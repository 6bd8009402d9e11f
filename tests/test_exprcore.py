"""Exact scalar arithmetic: canonical forms, parser, derivatives.

The random-point evaluation oracle is the independent soundness check for
`is_zero`: a canonical zero must evaluate to zero at every rational point,
and a canonical nonzero must evaluate to nonzero at some point.
"""

import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from psalib import exprcore
from psalib.exprcore import (
    ChartContext,
    DerivativeOrderError,
    DiffExpr,
    ExprError,
    ExprSyntaxError,
    MAX_NESTING,
    _KIND_COORD,
    _mcontent,
    _mdiv,
    _mmul,
    _pdivexact,
    _pmul,
    _quotient_text,
    _reduce,
    _var_id,
    differentiate,
    evaluate,
    parse_expr,
)


def ctx2():
    return ChartContext(coords=("x", "y"), funcs=("f", "g"))


# ---------------------------------------------------------------------------
# parser basics


def test_parse_rational_atom():
    c = ctx2()
    assert parse_expr("3/4", c).constant_value() == Fraction(3, 4)
    assert parse_expr("-3/4", c).constant_value() == Fraction(-3, 4)
    assert parse_expr("0", c).is_zero()


def test_parse_rational_binds_tighter_than_power():
    # atom-level rational, so 3/4^2 is (3/4)^2
    c = ctx2()
    assert parse_expr("3/4^2", c).constant_value() == Fraction(9, 16)


def test_parse_polynomial_and_cancellation():
    c = ctx2()
    e = parse_expr("(x^2 - y^2)/(x - y)", c)
    assert str(e) == "x + y"
    assert e == parse_expr("x + y", c)


def test_parse_derivative_atoms():
    c = ctx2()
    e = parse_expr("d(f,x) + d2(f,x,y)", c)
    assert str(e) == "d(f,x) + d2(f,x,y)"
    # symmetric second derivatives share one canonical atom
    assert parse_expr("d2(f,y,x)", c) == parse_expr("d2(f,x,y)", c)


def test_parse_errors_are_positioned():
    c = ctx2()
    with pytest.raises(ExprSyntaxError):
        parse_expr("x + ", c)
    with pytest.raises(ExprSyntaxError):
        parse_expr("x + unknown", c)
    with pytest.raises(ExprSyntaxError):
        parse_expr("x ^ y", c)
    with pytest.raises(ExprSyntaxError):
        parse_expr("d(x,f)", c)
    with pytest.raises(ExprSyntaxError):
        parse_expr("1/0", c)


def test_parse_nesting_is_capped():
    ctx = ctx2()
    deep = MAX_NESTING - 1
    assert ctx.expr("(" * deep + "x" + ")" * deep) == ctx.expr("x")
    assert ctx.expr("-" * deep + "x") == ctx.expr("-x")
    for text in ("(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x"):
        with pytest.raises(ExprSyntaxError, match="nesting deeper"):
            ctx.expr(text)


def test_constants_are_interned():
    ctx = ctx2()
    x = ctx.expr("x")
    assert ctx.zero() is ctx.zero() is ctx.number(0)
    assert ctx.one() is ctx.one() is ctx.number(Fraction(3, 3))
    assert ctx.zero() == x - x and hash(ctx.zero()) == hash(x - x)
    assert ctx.one() == x / x and hash(ctx.one()) == hash(x / x)
    assert (x * ctx.one()) == x and (x + ctx.zero()) == x


def test_division_by_zero_expression():
    c = ctx2()
    with pytest.raises(ExprSyntaxError):
        parse_expr("1/(x - x)", c)
    with pytest.raises(ZeroDivisionError):
        parse_expr("x", c) / c.zero()


def test_derivative_order_cap():
    c = ctx2()
    e = parse_expr("d2(f,x,x)", c)
    with pytest.raises(DerivativeOrderError):
        differentiate(e, "x")


def test_derivative_order_cap_names_the_smallest_symbol():
    # the same expression built in two term orders names the same symbol:
    # the smallest second-order partial in canonical order
    c = ctx2()
    a, b = c.expr("d2(g,x,y)"), c.expr("d2(f,x,x)")
    for e in (a + b, b + a, a * b + c.expr("x"), b * a + c.expr("x"),
              c.expr("x") * a - b, (a + b) / (c.expr("y") + a)):
        with pytest.raises(DerivativeOrderError) as info:
            differentiate(e, "y")
        assert str(info.value) == "third derivative of f exceeds the cap"


def test_context_validation():
    with pytest.raises(ExprError):
        ChartContext(coords=("x", "x"))
    with pytest.raises(ExprError):
        ChartContext(coords=("x",), funcs=("x",))
    with pytest.raises(ExprError):
        ChartContext(coords=("d",))
    with pytest.raises(ExprError):
        ChartContext(coords=("not an ident",))


def test_mixing_charts_rejected():
    a = ChartContext(coords=("x",))
    b = ChartContext(coords=("y",))
    with pytest.raises(ExprError):
        a.expr("x") + b.expr("y")


def test_contexts_of_one_chart_mix_whatever_functions_they_declare():
    a = ChartContext(coords=("x", "y"), funcs=("f",))
    b = ChartContext(coords=("x", "y"), funcs=("g",))
    both = ChartContext(coords=("x", "y"), funcs=("f", "g"))
    s = a.expr("x*f + d(f,y)/y") + b.expr("g^2/(x + 1) - d2(g,x,y)")
    t = both.expr("x*f + d(f,y)/y + g^2/(x + 1) - d2(g,x,y)")
    assert s == t and str(s) == str(t)
    assert s.ctx is a
    assert b.expr("g") * a.expr("f") == both.expr("f*g")


def test_same_coordinates_in_another_order_do_not_mix():
    xy = ChartContext(coords=("x", "y"))
    yx = ChartContext(coords=("y", "x"))
    for op in (lambda u, v: u + v, lambda u, v: u - v,
               lambda u, v: u * v, lambda u, v: u / v):
        with pytest.raises(ExprError):
            op(xy.expr("x"), yx.expr("x"))


def test_expressions_of_different_charts_are_never_equal():
    # a coordinate's id is its position, so equal numerators of two
    # charts can name different coordinates
    assert (ChartContext(coords=("x",)).expr("x")
            == ChartContext(coords=("y",)).expr("y")) is False
    xy = ChartContext(coords=("x", "y"))
    yx = ChartContext(coords=("y", "x"))
    assert (xy.expr("x") == yx.expr("y")) is False
    assert (xy.expr("x") == yx.expr("x")) is False
    assert xy.expr("x") != yx.expr("x")
    assert xy.expr("x") == ChartContext(coords=("x", "y"),
                                        funcs=("f",)).expr("x")


def test_formal_function_is_a_fresh_symbol_of_the_context():
    base = ChartContext(coords=("x", "y"))
    f = base.formal_function()
    assert f.ctx is base and str(f) == "f"
    assert str(differentiate(f * base.expr("x"), "x")) == "x*d(f,x) + f"
    assert f == ChartContext(coords=("x", "y"), funcs=("f",)).expr("f")
    assert str(ChartContext(coords=("x",), funcs=("f",))
               .formal_function()) == "f0"
    assert str(ChartContext(coords=("f", "f0"), funcs=("f1",))
               .formal_function()) == "f2"
    with pytest.raises(ExprError):
        base.expr("f")


def test_number_returns_an_expression_as_it_is():
    c = ChartContext(coords=("x",))
    e = c.expr("x/2")
    assert c.number(e) is e
    assert c.number(Fraction(1, 2)) == c.expr("1/2")
    assert c.number(0) is c.zero() and c.number(1) is c.one()


# ---------------------------------------------------------------------------
# exact monomial division

_IDS = [_var_id((_KIND_COORD, i)) for i in range(3)]  # one chart's coordinates


def _monomial(exps):
    return tuple(sorted((v, e) for v, e in zip(_IDS, exps) if e))


_monomials = st.tuples(*[st.integers(0, 3)] * 3).map(_monomial)
_coeffs = st.integers(-6, 6).filter(bool)


@given(st.dictionaries(_monomials, _coeffs, max_size=6), _monomials, _coeffs)
def test_division_by_a_monomial_round_trips(p, m, c):
    d = {m: c}
    assert _pdivexact(_pmul(p, d), d) == p


def test_inexact_division_by_a_monomial_raises():
    x, y = ((_IDS[0], 1),), ((_IDS[1], 1),)
    with pytest.raises(ExprError, match="inexact"):
        _pdivexact({x: 2}, {x: 3})  # a coefficient remainder
    with pytest.raises(ExprError, match="inexact"):
        _pdivexact({x: 1}, {y: 1})  # an exponent goes negative
    assert _pdivexact({_mmul(x, y): 6, x: 3}, {x: 3}) == {y: 2, (): 1}


# ---------------------------------------------------------------------------
# derivatives


def test_differentiate_product_rule():
    c = ctx2()
    e = c.expr("x^2*y")
    assert differentiate(e, "x") == c.expr("2*x*y")
    assert differentiate(e, "y") == c.expr("x^2")


def test_differentiate_quotient_rule():
    c = ctx2()
    e = c.expr("x/y")
    assert differentiate(e, "y") == c.expr("-x/y^2")


def test_differentiate_function_symbols():
    c = ctx2()
    assert differentiate(c.expr("f"), "x") == c.expr("d(f,x)")
    assert differentiate(c.expr("d(f,y)"), "x") == c.expr("d2(f,x,y)")
    assert differentiate(c.expr("f*g"), "x") == c.expr("d(f,x)*g + f*d(g,x)")


def test_mixed_partials_commute():
    c = ctx2()
    e = c.expr("f*g + x*f^2")
    dxy = differentiate(differentiate(e, "x"), "y")
    dyx = differentiate(differentiate(e, "y"), "x")
    assert dxy == dyx


def test_point_chart_has_no_directions():
    c = ChartContext(coords=(), funcs=("f",))
    with pytest.raises(ExprError):
        differentiate(c.expr("f"), "x")


# ---------------------------------------------------------------------------
# canonical-form properties (hypothesis)


def exprs(ctx):
    atoms = st.one_of(
        st.integers(-4, 4).map(ctx.number),
        st.builds(Fraction, st.integers(-6, 6),
                  st.integers(1, 4)).map(ctx.number),
        st.sampled_from([ctx.coordinate("x"), ctx.coordinate("y"),
                         ctx.function("f"), ctx.function("g")]),
    )

    def combine(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: t[0] + t[1]),
            st.tuples(children, children).map(lambda t: t[0] - t[1]),
            st.tuples(children, children).map(lambda t: t[0] * t[1]),
            children.map(lambda e: -e),
            children.map(lambda e: e ** 2),
        )

    return st.recursive(atoms, combine, max_leaves=8)


_CTX = ctx2()


@settings(max_examples=150, deadline=None)
@given(exprs(_CTX), exprs(_CTX), exprs(_CTX))
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - b) + (b - a) == _CTX.zero()


@settings(max_examples=150, deadline=None)
@given(exprs(_CTX), exprs(_CTX))
def test_field_laws(a, b):
    if b.is_zero():
        return
    assert (a / b) * b == a
    q = a / b
    assert q * b - a == _CTX.zero()


@settings(max_examples=150, deadline=None)
@given(exprs(_CTX))
def test_print_parse_round_trip(e):
    assert parse_expr(str(e), _CTX) == e


@settings(max_examples=100, deadline=None)
@given(exprs(_CTX), exprs(_CTX))
def test_derivation_laws(a, b):
    for c in ("x", "y"):
        assert differentiate(a + b, c) == differentiate(a, c) + \
            differentiate(b, c)
        assert differentiate(a * b, c) == differentiate(a, c) * b + \
            a * differentiate(b, c)
    assert differentiate(differentiate(a, "x"), "y") == \
        differentiate(differentiate(a, "y"), "x")


points = st.tuples(
    st.integers(-5, 5), st.integers(-5, 5),
    st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
    st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
)


@settings(max_examples=150, deadline=None)
@given(exprs(_CTX), points)
def test_evaluation_soundness(e, pt):
    """The independent oracle: canonical zero evaluates to zero everywhere."""
    px, py, a0, a1, a2, b0, b1, b2 = pt
    fpoly = _CTX.expr(f"({a0}) + ({a1})*x + ({a2})*x*y")
    gpoly = _CTX.expr(f"({b0}) + ({b1})*y + ({b2})*x^2")
    try:
        val = evaluate(e, {"x": Fraction(px), "y": Fraction(py)},
                       {"f": fpoly, "g": gpoly})
    except ZeroDivisionError:
        return
    if e.is_zero():
        assert val == 0


def test_evaluation_detects_nonzero():
    c = ctx2()
    e = c.expr("x^2 - y")
    assert not e.is_zero()
    assert evaluate(e, {"x": Fraction(2), "y": Fraction(1)}) == 3
    # derivative symbols evaluate to derivatives of the instance
    e2 = c.expr("d(f,x) - 2*x")
    assert evaluate(e2, {"x": Fraction(5), "y": Fraction(0)},
                    {"f": c.expr("x^2")}) == 0


def test_chain_of_canonical_operations_stays_reduced():
    c = ctx2()
    e = c.expr("1/(2*y)")
    assert str(e) == "1/2/y"
    assert parse_expr(str(e), c) == e
    t = c.expr("x") / (c.expr("2*y"))
    assert t == c.expr("x/(2*y)")
    assert (t * c.expr("2*y")) == c.expr("x")


# ---------------------------------------------------------------------------
# denominators of two or more terms: the coprime base (hypothesis)


def _prs_reduced(n: DiffExpr, d: DiffExpr) -> tuple[dict, dict]:
    """n/d for polynomials n and d, reduced by the primitive PRS gcd alone
    (exprcore's reference): d's monomial content goes into n's negative
    exponents, the integer denominators across."""
    m = _mcontent(d.num)
    num = _pmul(n.num, {tuple((v, -k) for v, k in m): d.den[()]})
    return _reduce(num, _pmul(_mdiv(d.num, m), n.den))


_multi = exprs(_CTX).filter(lambda d: len(d.num) > 1)


@settings(max_examples=100, deadline=None)
@given(exprs(_CTX), _multi)
def test_quotient_prints_as_the_prs_reduces_it(n, d):
    e = n / d
    assert str(e) == _quotient_text(_CTX, *_prs_reduced(n, d))
    assert parse_expr(str(e), _CTX) == e


@settings(max_examples=100, deadline=None)
@given(exprs(_CTX), _multi, exprs(_CTX), _multi, exprs(_CTX))
def test_quotient_equality_is_cross_multiplication(n1, d1, n2, d2, k):
    a, b = n1 / d1, n2 / d2
    assert (a == b) == (n1 * d2 == n2 * d1)
    assert (a == b) == (a - b).is_zero()
    if k:
        # the same value over another denominator
        c = (n1 * k) / (d1 * k)
        assert c == a and hash(c) == hash(a)


_FRESH = (f"s{i}" for i in itertools.count())


@settings(max_examples=30, deadline=None)
@given(exprs(_CTX).filter(bool),
       st.sampled_from(["x + y + 1", "x - y", "x*y + 1", "2*x + y - 3"]),
       st.sampled_from(["x + 2*y + 2", "x^2 + y", "x*y - x + y"]))
def test_a_split_of_the_base_keeps_hashes(n, g_text, h_text):
    """A value keyed in a dict over the base element g*h is found by an
    equal value built after a division by g splits that element.  A
    fresh symbol s keeps g and h new to the base, and each involves
    every variable of g*h, so g*h enters it whole."""
    s = next(_FRESH)
    c = ChartContext(coords=("x", "y"), funcs=(s,))
    g, h = c.expr(f"{g_text} + {s}"), c.expr(f"{h_text} + 2*{s}")
    v = n / (g * h)
    table = {v: "v"}
    splits = exprcore._SPLITS
    w = n / g
    assert exprcore._SPLITS > splits
    after = w / h
    assert after == v and v == after
    assert hash(after) == hash(v) and table[after] == "v"
    assert str(after) == str(v)


def test_a_split_while_refining_leaves_no_retired_element():
    """g*h enters the base whole; a division by g^2*h divides by g*h once
    and then splits it.  The quotient is stored over the live g and h,
    as the same value built factor by factor is."""
    s = next(_FRESH)
    c = ChartContext(coords=("x", "y"), funcs=(s,))
    g, h = c.expr(f"x + y + 1 + {s}"), c.expr(f"x + 2*y + 2 + 2*{s}")
    n = c.expr("x*y + 1")
    assert len((n / (g * h))._den.fac) == 1
    v = n / (g * g * h)
    assert all(exprcore._BASE[i].split is None for i, _ in v._den.fac)
    w = n * (1 / g) * (1 / g) * (1 / h)
    assert v == w and w == v
    assert hash(v) == hash(w) and {v: "v"}[w] == "v"


def test_a_pole_at_the_hash_point_hashes_by_lowest_terms(monkeypatch):
    """Where a base element vanishes at the fixed point, a value over it
    hashes through its lowest terms, so equal values still agree."""
    s = next(_FRESH)
    c = ChartContext(coords=("x", "y"), funcs=(s,))
    (i, _), = (1 / c.expr(f"x + y + {s}"))._den.fac
    monkeypatch.setattr(exprcore._BASE[i], "at", 0)
    v = c.expr(f"x/(x + y + {s})")
    w = c.expr(f"(x*y + x)/((x + y + {s})*(y + 1))")
    assert v == w and hash(v) == hash(w)


def test_refinement_without_certificates(monkeypatch):
    """With the coprimality certificate refused between any two
    polynomials in a fresh symbol s, refinement asks the exact route
    instead: elements that share no factor stay live, and one that
    shares a factor splits."""
    s = next(_FRESH)
    c = ChartContext(coords=("x", "y"), funcs=(s,))
    (((sid, _),),) = c.function(s).num
    certify = exprcore._coprime
    monkeypatch.setattr(exprcore, "_coprime", lambda pv, pl, qv, ql: (
        not (sid in pv and sid in qv) and certify(pv, pl, qv, ql)))
    a, b = c.expr(f"1/(x^2 + {s}^2 + 1)"), c.expr(f"1/(x + 3*{s} + 5)")
    splits = exprcore._SPLITS
    assert a * b == c.expr(f"1/((x^2 + {s}^2 + 1)*(x + 3*{s} + 5))")
    assert exprcore._SPLITS == splits
    v = c.expr(f"x/((x + y + {s})*(x - y + 2*{s} + 1))")
    w = c.expr(f"1/(x + y + {s})")
    assert exprcore._SPLITS == splits + 1
    assert v / w == c.expr(f"x/(x - y + 2*{s} + 1)")
    assert str(v) == (f"x/(x^2 + 3*x*{s} - y^2 + y*{s} + 2*{s}^2 + x + y"
                      f" + {s})")


def assert_canonical(e: DiffExpr) -> None:
    """The stored form: den a polynomial that no variable divides, with a
    positive leading coefficient (in the order printing uses) and no
    integer factor shared with num, whose exponents may be negative."""
    num, den = e.num, e.den
    assert all(k > 0 for m in den for _, k in m)
    assert not set.intersection(*({v for v, _ in m} for m in den))
    assert gcd(*num.values(), *den.values()) == 1
    lead = str(DiffExpr(e.ctx, den, {(): 1}))
    assert not lead.startswith("-")


def ctx3():
    return ChartContext(coords=("x", "y", "z"), funcs=("f",))


@pytest.mark.parametrize("ctx, text, printed", [
    (ctx2(), "1/(2*y)", "1/2/y"),
    (ctx2(), "x/(y^2*(x + y))", "x/(x*y^2 + y^3)"),
    (ctx3(), "(-x^2*d(f,x) - x*y*d(f,y) - y^2*d(f,x))/(y^2)",
     "(-x^2*d(f,x) - x*y*d(f,y) - y^2*d(f,x))/(y^2)"),
    (ctx3(), "-x*z*d(f,x)/(y^2)", "-x*z*d(f,x)/(y^2)"),
], ids=["scalar", "mixed", "witness-sum", "witness-term"])
def test_monomial_denominators_live_in_the_numerator(ctx, text, printed):
    e = ctx.expr(text)
    assert str(e) == printed
    assert parse_expr(printed, ctx) == e
    assert_canonical(e)
    # the y^k of the denominator is a negative exponent of the numerator
    yid = next(iter(ctx.coordinate("y").num))[0][0]
    assert min(k for m in e.num for v, k in m if v == yid) < 0


def test_monomial_denominator_is_a_constant():
    c = ctx2()
    e = c.expr("1/(2*y)")
    assert e.den == {(): 2} and len(e.num) == 1
    assert c.expr("x/y").den == {(): 1}
    assert c.expr("x/(y^2*(x + y))").den == c.expr("x + y").num


def test_evaluation_at_a_pole_raises():
    c = ctx2()
    for text in ("x/y", "1/(x*y^2)", "x/(y^2*(x + y))"):
        with pytest.raises(ZeroDivisionError):
            evaluate(c.expr(text), {"x": Fraction(1), "y": Fraction(0)})
    assert evaluate(c.expr("x/y^2"),
                    {"x": Fraction(3), "y": Fraction(2)}) == Fraction(3, 4)


def test_total_degree_and_predicates():
    c = ctx2()
    assert c.expr("x/y").is_polynomial() is False
    assert c.expr("x*y + 1/2").is_polynomial() is True
    assert c.expr("f + x").free_of_funcs() is False
    assert c.expr("x*y^3").free_of_funcs() is True


@pytest.mark.parametrize("text", ["x/y", "x + 1/y^2", "f*x", "1/(x + y)"])
def test_coordinate_terms_rejects_all_but_coordinate_polynomials(text):
    c = ctx2()
    e = c.expr(text)
    with pytest.raises(ExprError) as err:
        e.coordinate_terms()
    assert str(err.value) == f"not a coordinate polynomial: {e}"
    assert c.expr("x*y^3/2 + y").coordinate_terms() == (
        [((1, 3), 1), ((0, 1), 2)], 2)


# ---------------------------------------------------------------------------
# an independent guard: expression trees evaluated with dual numbers


_FCTX = ChartContext(coords=("x", "y"), funcs=("f",))
_FEXT = ChartContext(coords=("x", "y"), funcs=("f", "h"))

small_fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))


def trees():
    """Expression trees over x, y, monomials x^i*y^j, a function symbol f
    and rational constants, with the four operations; a monomial divisor
    goes into the numerator's negative exponents."""
    atoms = st.one_of(small_fractions.map(lambda q: ("num", q)),
                      st.sampled_from([("x",), ("y",), ("f",)]),
                      st.tuples(st.just("mono"), st.integers(0, 2),
                                st.integers(1, 3)))

    def combine(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children),
            children.map(lambda t: ("neg", t)))

    return st.recursive(atoms, combine, max_leaves=6)


def build(tree, ctx):
    """The DiffExpr of a tree, by the operators under test."""
    head = tree[0]
    if head == "num":
        return ctx.number(tree[1])
    if head in ("x", "y"):
        return ctx.coordinate(head)
    if head == "f":
        return ctx.function("f")
    if head == "mono":
        return ctx.coordinate("x") ** tree[1] * ctx.coordinate("y") ** tree[2]
    if head == "neg":
        return -build(tree[1], ctx)
    a, b = build(tree[1], ctx), build(tree[2], ctx)
    if head == "+":
        return a + b
    if head == "-":
        return a - b
    if head == "*":
        return a * b
    return a / b


def jet(tree, x, y, f):
    """(value, d/dx, d/dy) of a tree at a point, f given as its jet."""
    head = tree[0]
    if head == "num":
        return tree[1], Fraction(0), Fraction(0)
    if head == "x":
        return x, Fraction(1), Fraction(0)
    if head == "y":
        return y, Fraction(0), Fraction(1)
    if head == "f":
        return f
    if head == "mono":
        i, j = tree[1], tree[2]
        return (x ** i * y ** j, i * x ** max(i - 1, 0) * y ** j,
                j * x ** i * y ** (j - 1))
    if head == "neg":
        v, dx, dy = jet(tree[1], x, y, f)
        return -v, -dx, -dy
    (u, ux, uy), (v, vx, vy) = jet(tree[1], x, y, f), jet(tree[2], x, y, f)
    if head == "+":
        return u + v, ux + vx, uy + vy
    if head == "-":
        return u - v, ux - vx, uy - vy
    if head == "*":
        return u * v, ux * v + u * vx, uy * v + u * vy
    if not v:
        raise ZeroDivisionError
    return (u / v, (ux * v - u * vx) / (v * v), (uy * v - u * vy) / (v * v))


@settings(max_examples=200, deadline=None)
@given(trees(), small_fractions, small_fractions,
       st.tuples(*[st.integers(-3, 3)] * 4))
def test_operations_and_derivatives_match_dual_number_evaluation(
        tree, x, y, fc):
    # f := c0 + c1 x + c2 x y + c3 y^2, its partials written out by hand
    c0, c1, c2, c3 = fc
    fpoly = _FCTX.expr(f"({c0}) + ({c1})*x + ({c2})*x*y + ({c3})*y^2")
    fjet = (c0 + c1 * x + c2 * x * y + c3 * y * y, c1 + c2 * y,
            c2 * x + 2 * c3 * y)
    try:
        e = build(tree, _FCTX)
    except ZeroDivisionError:
        return  # a divisor was the zero expression
    assert parse_expr(str(e), _FCTX) == e
    ders = [differentiate(e, "x"), differentiate(e, "y")]
    for d in [e] + ders:
        assert_canonical(d)
    e_ext = build(tree, _FEXT)
    assert e_ext == e and hash(e_ext) == hash(e)
    assert (e_ext - e).is_zero() and e_ext + e == 2 * e
    try:
        value, dx, dy = jet(tree, x, y, fjet)
    except ZeroDivisionError:
        return  # the tree divides by zero at this point
    point, inst = {"x": x, "y": y}, {"f": fpoly}
    assert evaluate(e, point, inst) == value
    assert evaluate(ders[0], point, inst) == dx
    assert evaluate(ders[1], point, inst) == dy
