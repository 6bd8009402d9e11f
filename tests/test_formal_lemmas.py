"""The formal-function slots of algebroid.jacobi, para.integrable and
exact.anchor-compatible, decided by their tensoriality lemmas.

Each of those checks skips its formal group when the verdicts its lemma
rests on pass (the module docstrings of algebroid, parakahler and
exactclass state the lemmas).  The reference enumerations here evaluate
every formal case whatever those verdicts are.  A seeded single-entry
bump sweep of four fixtures compares their status and witness with the
suites'; hypothesis checks the three closed forms on random structures,
valid or not; and a guard counts the section operations that a passing
check applies to an f-scaled section.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from psalib import fixtures
from psalib.algebroid import ChartAlgebroid, check_lie_algebroid
from psalib.exactclass import (FlatConnection, check_exact, rho_star_matrix,
                               twisted_product)
from psalib.exactlinalg import ExprMatrix, invert
from psalib.exprcore import ChartContext, differentiate
from psalib.parakahler import ParaComplexOp, check_paracomplex
from psalib.presym import PreSymStructure, pseudo_semidirect
from psalib.report import CheckReport, components


# ---------------------------------------------------------------------------
# the three residuals, and the reference enumerations: every formal case,
# in the order the suites scan


def jacobiator(alg, u, v, w):
    """[[u,v],w] + [[v,w],u] + [[w,u],v] for the section bracket."""
    br = alg.bracket
    return tuple(x + y + z for x, y, z in zip(br(br(u, v), w),
                                              br(br(v, w), u),
                                              br(br(w, u), v)))


def integrability(S, Q, u, v):
    """P(u*v) - Pu*v - u*Pv + P(Pu*Pv) for the section product of S and
    the operator Q."""
    star, P = S.star, Q.apply
    terms = (P(star(u, v)), star(P(u), v), star(u, P(v)),
             P(star(P(u), P(v))))
    return [a - b - c + d for a, b, c, d in zip(*terms)]


def anchor_defect(S, conn, u, v):
    """rho(u*v) - nabla_{rho(u)} rho(v)."""
    got = S.anchor_of(S.star(u, v))
    want = conn.product(S.anchor_of(u), S.anchor_of(v))
    return [x - y for x, y in zip(got, want)]


def _one_check(check_id, cases, names=()):
    rep = CheckReport()
    rep.scan(check_id, cases, names)
    return rep.checks[0]


def jacobi_reference(alg):
    """algebroid.jacobi: the frame triples a < b < c, then
    (e_a, e_b, f e_c) for every (a, b, c)."""
    f = alg.ctx.formal_function()
    r, names = alg.rank, alg.names
    frames = [alg.frame_section(a) for a in range(r)]
    secs = frames + [tuple(f * x for x in e) for e in frames]

    def cases():
        for a, b, c in itertools.combinations(range(r), 3):
            yield (f"({names[a]},{names[b]},{names[c]}): residual = ",
                   jacobiator(alg, secs[a], secs[b], secs[c]))
        for a, b, c in itertools.product(range(r), repeat=3):
            yield (f"({names[a]},{names[b]},f*{names[c]}): residual = ",
                   jacobiator(alg, secs[a], secs[b], secs[r + c]))

    return _one_check("algebroid.jacobi", cases(), names)


def integrable_reference(E, P):
    """para.integrable: for each (a, b), the frame case, then f on slot 1
    and f on slot 2."""
    f = E.ctx.formal_function()
    frames = [E.frame_section(a) for a in range(E.rank)]

    def cases():
        for a, b in itertools.product(range(E.rank), repeat=2):
            fa = tuple(f * x for x in frames[a])
            fb = tuple(f * x for x in frames[b])
            for tag, u, v in (("", frames[a], frames[b]),
                              ("f on slot 1, ", fa, frames[b]),
                              ("f on slot 2, ", frames[a], fb)):
                yield from components(f"({tag}e{a+1}, e{b+1}) ",
                                      integrability(E, P, u, v), E.names)

    return _one_check("para.integrable", cases())


def anchor_compatible_reference(E, conn):
    """exact.anchor-compatible: for each (a, b), the frame case, then
    f e_b in the right slot."""
    f = E.ctx.formal_function()
    frames = [E.frame_section(a) for a in range(E.rank)]
    numbers = range(1, len(E.ctx.coords) + 1)

    def cases():
        for a, b in itertools.product(range(E.rank), repeat=2):
            for tag, v in (("", frames[b]),
                           ("f ", tuple(f * x for x in frames[b]))):
                yield from components(f"rho(e{a+1} * {tag}e{b+1}) ",
                                      anchor_defect(E, conn, frames[a], v),
                                      numbers)

    return _one_check("exact.anchor-compatible", cases())


# ---------------------------------------------------------------------------
# the seeded bump sweep


def _with(nested, idx, delta):
    """nested rows (of cells) as lists along idx, with delta added to the
    entry at idx; every other entry is kept as it is."""
    if not idx:
        return nested + delta
    return [_with(x, idx[1:], delta) if i == idx[0] else x
            for i, x in enumerate(nested)]


def _lie_bump(lie, part, idx, delta):
    anchor, table = lie.anchor, lie.table
    if part == "anchor":
        anchor = _with(anchor, idx, delta)
    else:
        table = _with(table, idx, delta)
        if part == "table-skew":
            a, b, k = idx
            table = _with(table, (b, a, k), -delta)
    return ChartAlgebroid(lie.ctx, lie.names, anchor, table, lie.kind)


def _presym_bump(E, part, idx, delta):
    anchor, table, pairing = E.anchor, E.table, E.pairing.rows
    if part == "anchor":
        anchor = _with(anchor, idx, delta)
    elif part == "table":
        table = _with(table, idx, delta)
    else:
        pairing = _with(pairing, idx, delta)
        if part == "pairing-skew":
            pairing = _with(pairing, idx[::-1], -delta)
    return PreSymStructure(E.ctx, E.names, anchor, table, pairing)


def _jacobi_run(build, part, idx, bump):
    lie = build()
    lie = _lie_bump(lie, part, idx, lie.ctx.expr(bump))
    return check_lie_algebroid(lie), lambda: jacobi_reference(lie)


def _r2n_2_para():
    """r2n_structure(2), frame d1..d4 over x1..x4 with (d1,d3) = (d2,d4)
    = 1, and P = diag(1, 1, -1, -1), which squares to the identity and is
    anti-invariant.  parakahler-lsa2 lives on a point chart, where D
    vanishes and so does every formal-slot anomaly; here it does not."""
    E = fixtures.r2n_structure(2)
    one, z = E.ctx.one(), E.ctx.zero()
    return E, ParaComplexOp(E.ctx, [[(one if a < 2 else -one) if a == b
                                     else z for b in range(4)]
                                    for a in range(4)])


def _para_run(build, part, idx, bump):
    E, P = build()
    delta = E.ctx.expr(bump)
    if part == "P":
        P = ParaComplexOp(E.ctx, _with(P.matrix.rows, idx, delta))
    else:
        E = _presym_bump(E, part, idx, delta)
    return check_paracomplex(E, P)[0], lambda: integrable_reference(E, P)


def _exact_run(part, idx, bump):
    E, conn = _twist_r2()
    delta = E.ctx.expr(bump)
    if part == "gamma":
        conn = FlatConnection(conn.ctx, _with(conn.table, idx, delta))
    else:
        E = _presym_bump(E, part, idx, delta)
    return check_exact(E, conn), lambda: anchor_compatible_reference(E,
                                                                      conn)


def _twist_r2():
    conn, phi = fixtures.twist_r2_data()
    return twisted_product(conn, phi), conn


# fixture -> (the check its sweep compares, a run of its suite on a bump
# returning the report and a thunk for the reference check)
RUNS = {
    "bisection": ("algebroid.jacobi", lambda *a: _jacobi_run(
        lambda: fixtures.bisection_data()[0], *a)),
    "prolongation-so3": ("algebroid.jacobi", lambda *a: _jacobi_run(
        lambda: fixtures.prolongation_so3_data()[0], *a)),
    "parakahler-lsa2": ("para.integrable", lambda *a: _para_run(
        fixtures.parakahler_lsa2_data, *a)),
    "r2n-2 with P": ("para.integrable", lambda *a: _para_run(
        _r2n_2_para, *a)),
    "twist-r2": ("exact.anchor-compatible", _exact_run),
}

# check id -> whether the verdicts its lemma rests on pass in a report
GATES = {
    "algebroid.jacobi": lambda rep: all(
        rep.find(c).status == "pass"
        for c in ("algebroid.bracket-skew", "algebroid.anchor-morphism")),
    "para.integrable": lambda rep: rep.find(
        "para.pairing-anti-invariance").status == "pass",
    "exact.anchor-compatible": lambda rep: rep.find(
        "exact.sequence").status == "pass",
}


def _entries(*shape):
    return list(itertools.product(*map(range, shape)))


def _sweep():
    """(fixture, part, entry, bump) cases; each bump is an expression text
    over the fixture's chart, drawn from a seeded pool per entry."""
    rng = random.Random(1)
    out = []

    def add(fixture, part, idx_list, pool):
        out.extend((fixture, part, idx, rng.choice(pool))
                   for idx in idx_list)

    xy = ("1", "-1", "x", "-x", "y")
    add("bisection", "anchor", _entries(2, 2), xy)
    add("bisection", "table", _entries(2, 2, 2), xy)
    add("bisection", "table-skew", [(0, 1, 0), (0, 1, 1)], xy)
    y123 = ("1", "-1", "y1", "y2", "-y3")
    add("prolongation-so3", "anchor", _entries(6, 3), y123)
    add("prolongation-so3", "table", rng.sample(_entries(6, 6, 6), 12), y123)
    add("prolongation-so3", "table-skew",
        rng.sample([(a, b, k) for a, b in itertools.combinations(range(6), 2)
                    for k in range(6)], 6), y123)
    point = ("1", "-1", "2")
    add("parakahler-lsa2", "table", rng.sample(_entries(4, 4, 4), 16), point)
    add("parakahler-lsa2", "pairing", _entries(4, 4), point)
    add("parakahler-lsa2", "pairing-skew",
        list(itertools.combinations(range(4), 2)), point)
    # P = diag(1, 1, -1, -1): flipping a diagonal sign keeps P^2 = 1 and
    # breaks anti-invariance, and so does a bump of an entry between the
    # two eigenblocks; a bump within one breaks P^2 = 1
    add("parakahler-lsa2", "P", [(a, a) for a in range(4)], ("-2", "2"))
    add("parakahler-lsa2", "P",
        [(a, b) for a, b in _entries(4, 4) if a != b], point)
    x1234 = ("1", "-1", "x1", "x2", "-x4")
    add("r2n-2 with P", "P", [(a, a) for a in range(4)], ("-2", "2"))
    add("r2n-2 with P", "P",
        [(a, b) for a, b in _entries(4, 4) if (a < 2) != (b < 2)], x1234)
    add("r2n-2 with P", "table", rng.sample(_entries(4, 4, 4), 8), x1234)
    add("r2n-2 with P", "pairing-skew",
        rng.sample(list(itertools.combinations(range(4), 2)), 3), x1234)
    add("twist-r2", "anchor", _entries(4, 2), xy)
    add("twist-r2", "table", rng.sample(_entries(4, 4, 4), 16), xy)
    add("twist-r2", "pairing", _entries(4, 4), xy)
    add("twist-r2", "gamma", _entries(2, 2, 2), xy)
    return out


SWEEP = _sweep()
_SKIPS = ("not evaluated: pairing is degenerate",
          "not evaluated: P does not square to the identity")


def _run(case):
    fixture, part, idx, bump = case
    check_id, run = RUNS[fixture]
    rep, reference = run(part, idx, bump)
    return rep, rep.find(check_id), reference


@pytest.mark.parametrize("case", SWEEP, ids=lambda c: " ".join(map(str, c)))
def test_gated_check_matches_full_enumeration(case):
    _, got, reference = _run(case)
    if got.status == "skipped":
        assert got.witness in _SKIPS
        return
    want = reference()
    assert (got.status, got.witness) == (want.status, want.witness)


def test_sweep_reaches_both_paths_of_each_gate():
    """On some bump each check fails with its gate holding (formal group
    skipped), on some with it broken (formal group evaluated), and on
    some in a formal slot only."""
    seen = set()
    for case in SWEEP:
        rep, got, _ = _run(case)
        if got.status == "fail":
            seen.add((got.check_id, GATES[got.check_id](rep)))
            if any(tag in got.witness for tag in ("f*", "f on slot", " f e")):
                seen.add((got.check_id, "formal witness"))
    assert seen == {(c, g) for c in GATES
                    for g in (True, False, "formal witness")}


# ---------------------------------------------------------------------------
# hypothesis: the closed forms on random structures, valid or not


# mostly zero and of low degree, so that one draw stays fast
_POLYS = ("0",) * 6 + ("1", "-2", "x", "y", "x*y", "1/2*y - x")


def _entry(draw, ctx):
    return ctx.expr(draw(st.sampled_from(_POLYS)))


@st.composite
def _lie_structures(draw):
    """A bracket structure of rank 2 or 3 over (x, y) with polynomial
    anchor and table entries; its table is skew in one draw of two."""
    ctx = ChartContext(coords=("x", "y"))
    r = draw(st.sampled_from((2, 3)))
    anchor = [[_entry(draw, ctx) for _ in range(2)] for _ in range(r)]
    table = [[[_entry(draw, ctx) for _ in range(r)] for _ in range(r)]
             for _ in range(r)]
    if draw(st.booleans()):
        for a, b in itertools.combinations_with_replacement(range(r), 2):
            table[b][a] = [-x for x in table[a][b]]
    return ChartAlgebroid(ctx, tuple(f"e{a+1}" for a in range(r)), anchor,
                          table, kind="lie")


@settings(max_examples=20, deadline=None)
@given(alg=_lie_structures())
def test_jacobi_formal_slot_anomaly(alg):
    """J(u,v,f w) = f J(u,v,w) + (rho([u,v]) - [rho(u), rho(v)])(f) w
    - rho(u)(f) ([v,w] + [w,v]) on every frame triple; on a skew table
    the last term is zero."""
    f = alg.ctx.formal_function()
    r = alg.rank
    frames = [alg.frame_section(a) for a in range(r)]
    rho, br = alg.anchor_apply, alg.bracket
    skew = all(alg.table[a][b][k] == -alg.table[b][a][k]
               for a, b, k in _entries(r, r, r))
    for a, b, c in _entries(r, r, r):
        u, v, w = frames[a], frames[b], frames[c]
        fw = tuple(f * x for x in w)
        anomaly = (rho(br(u, v), f) - rho(u, rho(v, f)) + rho(v, rho(u, f)))
        sym = [x + y for x, y in zip(br(v, w), br(w, v))]
        if skew:
            assert not any(sym)
        want = [f * j + anomaly * wk - rho(u, f) * s
                for j, wk, s in zip(jacobiator(alg, u, v, w), w, sym)]
        assert list(jacobiator(alg, u, v, fw)) == want


def _unit_upper(draw, ctx, r):
    """An upper unitriangular matrix of small integers and its inverse."""
    S = ExprMatrix(ctx, [[1 if a == b else (draw(st.integers(-2, 2))
                                            if a < b else 0)
                          for b in range(r)] for a in range(r)])
    return S, invert(S)


@st.composite
def _para_structures(draw):
    """(E, P) over (x, y) of rank 2 or 4, with polynomial anchor and table
    entries and a constant nondegenerate skew pairing.  In one draw of
    two, P = S D S^-1 and W = S^-T W0 S^-1 for D = diag(1, .., -1, ..)
    and a W0 pairing the two eigenblocks, so P squares to the identity
    and is anti-invariant; otherwise P has random integer entries."""
    ctx = ChartContext(coords=("x", "y"))
    r = draw(st.sampled_from((2, 4)))
    h = r // 2
    anchor = [[_entry(draw, ctx) for _ in range(2)] for _ in range(r)]
    table = [[[_entry(draw, ctx) for _ in range(r)] for _ in range(r)]
             for _ in range(r)]
    w0 = [[0] * r for _ in range(r)]
    for a in range(h):
        w0[a][h + a], w0[h + a][a] = 1, -1
    if r == 4:
        p = draw(st.integers(-2, 2))
        w0[0][3], w0[3][0] = p, -p
    W0 = ExprMatrix(ctx, w0)
    if draw(st.booleans()):
        S, S_inv = _unit_upper(draw, ctx, r)
        D = ExprMatrix(ctx, [[(1 if a < h else -1) if a == b else 0
                              for b in range(r)] for a in range(r)])
        P = S.matmul(D).matmul(S_inv)
        W = S_inv.transpose().matmul(W0).matmul(S_inv)
    else:
        P = ExprMatrix(ctx, [[draw(st.integers(-1, 1)) for _ in range(r)]
                             for _ in range(r)])
        W = W0
    E = PreSymStructure(ctx, tuple(f"e{a+1}" for a in range(r)), anchor,
                        table, W)
    return E, ParaComplexOp(ctx, P)


@settings(max_examples=20, deadline=None)
@given(EP=_para_structures())
def test_integrability_formal_slot_anomalies(EP):
    """N(f u,v) - f N(u,v) = -1/2 ((u,v) + (Pu,Pv)) P Df
    + 1/2 ((Pu,v) + (u,Pv)) Df, and N(u,f v) - f N(u,v) is minus that
    plus rho(Pu)(f) (P(Pv) - v); both are zero when P squares to the
    identity and is anti-invariant."""
    E, P = EP
    ext, f = E.extended()
    ctx, r = ext.ctx, ext.rank
    half = ctx.number(Fraction(1, 2))
    pair, df = ext.pairing_value, ext.D(f)
    pdf = P.apply(df)
    frames = [ext.frame_section(a) for a in range(r)]
    M, W = P.matrix, E.pairing
    gated = not any(itertools.chain(
        *M.matmul(M).sub(ExprMatrix.identity(E.ctx, r)).rows,
        *M.transpose().matmul(W).matmul(M).add(W).rows))
    for a, b in _entries(r, r):
        u, v = frames[a], frames[b]
        pu, pv = P.apply(u), P.apply(v)
        n = integrability(ext, P, u, v)
        c = half * (pair(u, v) + pair(pu, pv))
        d = half * (pair(pu, v) + pair(u, pv))
        slot_1 = [-c * x + d * y for x, y in zip(pdf, df)]
        extra = ext.anchor_apply(pu, f)
        slot_2 = [c * x - d * y + extra * (p - q)
                  for x, y, p, q in zip(pdf, df, P.apply(pv), v)]
        fu, fv = (tuple(f * x for x in s) for s in (u, v))
        assert integrability(ext, P, fu, v) == [
            f * x + y for x, y in zip(n, slot_1)]
        assert integrability(ext, P, u, fv) == [
            f * x + y for x, y in zip(n, slot_2)]
        if gated:
            assert not any(slot_1) and not any(slot_2)


@st.composite
def _exact_structures(draw):
    """(E, connection) over (x, y): a connection with polynomial
    coefficients, and either its pseudo-semidirect product (exact) or a
    rank-4 structure with polynomial anchor and table entries and a
    constant nondegenerate skew pairing."""
    ctx = ChartContext(coords=("x", "y"))
    gamma = [[[_entry(draw, ctx) for _ in range(2)] for _ in range(2)]
             for _ in range(2)]
    conn = FlatConnection(ctx, gamma)
    if draw(st.booleans()):
        return pseudo_semidirect(conn), conn
    anchor = [[_entry(draw, ctx) for _ in range(2)] for _ in range(4)]
    table = [[[_entry(draw, ctx) for _ in range(4)] for _ in range(4)]
             for _ in range(4)]
    p = draw(st.integers(-2, 2))
    W = [[0, 1, p, 0], [-1, 0, 0, 0], [-p, 0, 0, 1], [0, 0, -1, 0]]
    return PreSymStructure(ctx, ("e1", "e2", "e3", "e4"), anchor, table,
                           W), conn


@settings(max_examples=20, deadline=None)
@given(Ec=_exact_structures())
def test_anchor_compatible_formal_slot_anomaly(Ec):
    """A(u, f v) = f A(u,v) + 1/2 (u,v) rho(Df), with
    Df = sum_j d_j f rho'(dx_j); rho(Df) is zero when exact.sequence
    passes."""
    E, conn = Ec
    ext, f = E.extended()
    ctx, r = ext.ctx, ext.rank
    half = ctx.number(Fraction(1, 2))
    df = ext.D(f)
    rs = rho_star_matrix(ext)
    partials = [differentiate(f, x) for x in ctx.coords]
    assert list(df) == [sum((p * x for p, x in zip(partials, row)),
                            ctx.zero()) for row in rs.rows]
    rho_df = ext.anchor_of(df)
    frames = [ext.frame_section(a) for a in range(r)]
    for a, b in _entries(r, r):
        u, v = frames[a], frames[b]
        fv = tuple(f * x for x in v)
        w = half * ext.pairing_value(u, v)
        assert anchor_defect(ext, conn, u, fv) == [
            f * x + w * y for x, y in zip(anchor_defect(ext, conn, u, v),
                                          rho_df)]
    if check_exact(E, conn).find("exact.sequence").status == "pass":
        assert not any(rho_df)


# ---------------------------------------------------------------------------
# guard: a passing check applies no section operation to an f-scaled section


def _formal(sec):
    """Whether a section carries a function symbol: the fixtures guarded
    here have none of their own on the sections these checks multiply."""
    return any(not x.free_of_funcs() for x in sec)


def _bumped_run(fixture, part, idx, bump):
    return lambda: RUNS[fixture][1](part, idx, bump)[0]


# name -> (a suite run, the check it guards, whether the check's gate
# holds and the check passes); the last three break the gate, so that
# the counter must see formal cases
GUARDED = {
    "prolongation-so3": (lambda: check_lie_algebroid(
        fixtures.prolongation_so3_data()[0]), "algebroid.jacobi", True),
    "bisection": (lambda: check_lie_algebroid(
        fixtures.bisection_data()[0]), "algebroid.jacobi", True),
    "parakahler-lsa2": (lambda: check_paracomplex(
        *fixtures.parakahler_lsa2_data())[0], "para.integrable", True),
    "twist-r2": (lambda: check_exact(*_twist_r2()),
                 "exact.anchor-compatible", True),
    "bisection anchor rho(e1)^x += 1": (
        _bumped_run("bisection", "anchor", (0, 0), "1"),
        "algebroid.jacobi", False),
    "r2n-2 with P[2][2] = -1": (
        _bumped_run("r2n-2 with P", "P", (1, 1), "-2"), "para.integrable",
        False),
    "twist-r2 anchor rho(e3)^y += 1": (
        _bumped_run("twist-r2", "anchor", (2, 1), "1"),
        "exact.anchor-compatible", False),
}


@pytest.mark.parametrize("name", list(GUARDED))
def test_passing_check_evaluates_no_formal_slot_case(name, monkeypatch):
    """Within the guarded check's scan, no bracket, product or star takes
    a section that carries the formal function."""
    run, check_id, passing = GUARDED[name]
    current, formal = [None], []
    scan = CheckReport.scan

    def scanning(self, cid, cases, names=()):
        current[0] = cid
        try:
            return scan(self, cid, cases, names)
        finally:
            current[0] = None

    def counting(op):
        def wrapped(self, u, v):
            if current[0] == check_id and (_formal(u) or _formal(v)):
                formal.append((u, v))
            return op(self, u, v)
        return wrapped

    monkeypatch.setattr(CheckReport, "scan", scanning)
    for cls, method in ((ChartAlgebroid, "bracket"),
                        (ChartAlgebroid, "product"),
                        (PreSymStructure, "star")):
        monkeypatch.setattr(cls, method, counting(getattr(cls, method)))
    check = run().find(check_id)
    if passing:
        assert (check.status, formal) == ("pass", [])
    else:
        assert formal

