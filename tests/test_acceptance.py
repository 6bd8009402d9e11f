"""End-to-end acceptance suite.

Each test pins one externally fixed target behavior, exactly and inside
an explicit time budget: reproduction of the flat-chart product table,
the sphere-leaf product and its commutator, round trips between the
product and bracket presentations on every fixture, the defining
identities with a formal function, sensitivity to single-entry
perturbations, the double of the two-dimensional algebra with its Dirac
halves, twisted products and the coboundary-closedness condition,
restricted
cohomology dimensions under two elimination routes, the para-Kahler
verification chain, and byte-stable CLI reports.

Two tests assert target values that the exact computation contradicts
and are expected to fail; they are kept as stated rather than adjusted.
test_flat_chart_table_literal_n2 asserts the two-term form of the four
gradient lines, which only holds on a two-dimensional chart; the
completed form that does hold (and a second, independent derivation of
it) is pinned by the test that follows it.  Likewise
test_abelian_dim2_degree2_target_dimensions asserts the dimension
triple (6, 0, 6) where both elimination routes yield (3, 0, 3); the
computed triple is pinned by its neighbour.
"""

import random
import re
import time
from fractions import Fraction

from psalib import fixtures
from psalib.algebroid import (ChartAlgebroid, FormField, check_2cocycle,
                              check_left_symmetric_algebroid,
                              check_lie_algebroid)
from psalib.cli import main
from psalib.exactclass import (ChartCochain, FlatConnection, PhiTensor,
                               Splitting, TruncatedComplex,
                               canonical_splitting, chart_coboundary,
                               check_exact, cochain_keys, extract_phi,
                               splitting_equivalence, twist_residual,
                               twisted_product)
from psalib.exactlinalg import ExprMatrix, invert
from psalib.exprcore import ChartContext, differentiate
from psalib.lsa import FiniteAlgebra, RestrictedComplex, restricted_dims
from psalib.parakahler import ParaComplexOp, check_star_equals_nabla
from psalib.presym import (PreSymStructure, Subbundle, check_dirac,
                           check_presymplectic, presym_from_symplectic,
                           pseudo_semidirect, symplectic_from_presym,
                           tensor_T)
from psalib.psafile import emit


# -- flat-chart table ---------------------------------------------------------


def tangent_symplectic(n):
    """Tangent algebroid of a flat 2n-chart with the block pairing
    sum_i dx_i ^ dx_{n+i} and one formal function in scope."""
    r = 2 * n
    ctx = ChartContext(coords=tuple(f"x{i+1}" for i in range(r)),
                       funcs=("f",))
    z, one = ctx.zero(), ctx.one()
    anchor = [[one if i == j else z for j in range(r)] for i in range(r)]
    table = [[[z] * r for _ in range(r)] for _ in range(r)]
    lie = ChartAlgebroid(ctx, tuple(f"d{i+1}" for i in range(r)), anchor,
                         table, kind="lie")
    form = FormField(ctx, r, 2, {(i, n + i): one for i in range(n)})
    return lie, form, presym_from_symplectic(lie, form)


def dual_gradient(ctx, n):
    """sum_k f_{x_{n+k}} e_k - f_{x_k} e_{n+k}, the pairing-dual of df."""
    fd = [ctx.expr(f"d(f,{c})") for c in ctx.coords]
    out = [ctx.zero()] * (2 * n)
    for k in range(n):
        out[k] = fd[n + k]
        out[n + k] = -fd[k]
    return out


def table_lines(E, n, completed):
    """Every displayed product line as (label, got, want) triples.

    With completed=False the gradient lines use the two-term form, which
    is only correct when n = 1; completed=True adds the +-1/2 multiple
    of the pairing-dual of df that holds for every n.
    """
    ctx = E.ctx
    r = 2 * n
    f = ChartContext(ctx.coords, ("f",)).function("f")
    one = ctx.one()
    half = ctx.number(Fraction(1, 2))
    fd = [differentiate(f, c) for c in ctx.coords]
    zero_sec = tuple(ctx.zero() for _ in range(r))

    def basis(i, coef):
        out = [ctx.zero()] * r
        out[i] = coef
        return tuple(out)

    def mk(pairs):
        out = [ctx.zero()] * r
        for i, v in pairs:
            out[i] = out[i] + v
        return tuple(out)

    lines = []
    for l in range(r):
        for m in range(r):
            lines.append((f"e{l+1}*e{m+1}",
                          E.star(E.frame_section(l), E.frame_section(m)),
                          zero_sec))
    for l in range(r):
        for m in range(r):
            got_lf = E.star(basis(l, one), basis(m, f))
            got_fl = E.star(basis(l, f), basis(m, one))
            if abs(l - m) != n:
                want_lf = mk([(m, fd[l])])
                want_fl = zero_sec
            elif completed:
                sign = one if l < m else ctx.number(-1)
                df = dual_gradient(ctx, n)
                want_lf = [sign * half * x for x in df]
                want_lf[m] = want_lf[m] + fd[l]
                want_lf = tuple(want_lf)
                want_fl = tuple(-(sign * half * x) for x in df)
            else:
                want_lf = mk([(m, half * fd[l]), (l, half * fd[m])])
                want_fl = mk([(m, half * fd[l]), (l, -(half * fd[m]))])
            lines.append((f"e{l+1}*(f e{m+1})", got_lf, want_lf))
            lines.append((f"(f e{l+1})*e{m+1}", got_fl, want_fl))
    return lines


def nonzero_lines(lines):
    return [label for label, got, want in lines
            if any(not (g - w).is_zero() for g, w in zip(got, want))]


def star_by_pairing_relation(ctx, omega, u, v):
    """Second derivation route for the flat-chart product: solve the
    defining pairing relation directly, with commutators taken as
    coordinate vector-field brackets.  Shares nothing with the product
    machinery beyond the expression core and the matrix inverse.
    """
    r = omega.nrows
    half = ctx.number(Fraction(1, 2))

    def apply_vf(w, g):
        acc = ctx.zero()
        for j in range(r):
            if not w[j].is_zero():
                acc = acc + w[j] * differentiate(g, ctx.coords[j])
        return acc

    def pair(a_sec, b_sec):
        acc = ctx.zero()
        for a in range(r):
            if a_sec[a].is_zero():
                continue
            for b in range(r):
                if not b_sec[b].is_zero() and not omega.rows[a][b].is_zero():
                    acc = acc + a_sec[a] * b_sec[b] * omega.rows[a][b]
        return acc

    rhs = []
    for c in range(r):
        e_c = [ctx.zero()] * r
        e_c[c] = ctx.one()
        br = [-differentiate(u[j], ctx.coords[c]) for j in range(r)]
        rhs.append(apply_vf(u, pair(v, e_c))
                   + half * apply_vf(e_c, pair(u, v))
                   - pair(v, br))
    return invert(omega.transpose()).mulvec(rhs)


def test_flat_chart_table_reproduced_n1():
    t0 = time.monotonic()
    lie, form, E = tangent_symplectic(1)
    bad = nonzero_lines(table_lines(E, 1, completed=False))
    elapsed = time.monotonic() - t0
    assert not bad, f"lines with nonzero residual: {bad}"
    # derived data agrees with the shipped fixture entry for entry
    ship = fixtures.r2n_structure(1)
    assert all(x.is_zero() for row in E.table for cell in row for x in cell)
    assert all(x.is_zero() for row in ship.table for cell in row for x in cell)
    for a in range(2):
        for b in range(2):
            assert str(E.pairing.rows[a][b]) == str(ship.pairing.rows[a][b])
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_flat_chart_table_literal_n2():
    # Deliberately failing: the two-term gradient lines are asserted as
    # stated for n = 2, where the exact product carries the extra
    # +-1/2 dual-gradient components (see the completed-form test).
    t0 = time.monotonic()
    lie, form, E = tangent_symplectic(2)
    bad = nonzero_lines(table_lines(E, 2, completed=False))
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    assert not bad, f"literal lines with nonzero residual: {bad}"


def test_flat_chart_table_completed_n2_two_routes():
    t0 = time.monotonic()
    lie, form, E = tangent_symplectic(2)
    ctx = E.ctx
    f, one = ctx.expr("f"), ctx.one()
    # the product operator D agrees with the explicit dual gradient
    df = dual_gradient(ctx, 2)
    for got, want in zip(E.D(f), df):
        assert (got - want).is_zero()
    # route A: every completed line holds exactly
    assert not nonzero_lines(table_lines(E, 2, completed=True))
    # route B: re-derive the gradient lines from the pairing relation
    omega = ExprMatrix(ctx, E.pairing.rows)

    def basis(i, coef):
        out = [ctx.zero()] * 4
        out[i] = coef
        return tuple(out)

    for l in range(4):
        for m in range(4):
            if abs(l - m) != 2:
                continue
            for u, v in ((basis(l, one), basis(m, f)),
                         (basis(l, f), basis(m, one))):
                alt = star_by_pairing_relation(ctx, omega, u, v)
                got = E.star(u, v)
                assert all((a - b).is_zero() for a, b in zip(alt, got))
    # the two-term form really does break at n = 2, on every gradient line
    lit = table_lines(E, 2, completed=False)
    comp = table_lines(E, 2, completed=True)
    differing = [(lab, got, want) for (lab, got, want), (_, _, want_c)
                 in zip(lit, comp)
                 if any(not (a - b).is_zero()
                        for a, b in zip(want, want_c))]
    assert len(differing) == 8
    assert len(nonzero_lines(differing)) == 8
    assert time.monotonic() - t0 < 5.0


# -- sphere leaf --------------------------------------------------------------


def test_sphere_product_and_commutator():
    t0 = time.monotonic()
    ctx = ChartContext(coords=("x", "y", "z"))
    e = ctx.expr
    zero = ctx.zero()
    X = (e("y"), e("-x"), zero)
    Y = (zero, e("z"), e("-y"))

    def vf_bracket(a, b):
        out = []
        for j in range(3):
            acc = ctx.zero()
            for i in range(3):
                acc = acc + a[i] * differentiate(b[j], ctx.coords[i]) \
                    - b[i] * differentiate(a[j], ctx.coords[i])
            out.append(acc)
        return out

    br = vf_bracket(X, Y)
    for got, want in zip(br, (e("-z"), zero, e("x"))):
        assert (got - want).is_zero()
    # [e1,e2] = -(z/y) e1 - (x/y) e2 expresses that field in the frame
    c1, c2 = e("-z/y"), e("-x/y")
    for j in range(3):
        assert (c1 * X[j] + c2 * Y[j] - br[j]).is_zero()
    z2 = (zero, zero)
    lie = ChartAlgebroid(ctx, ("e1", "e2"), [list(X), list(Y)],
                         [[z2, (c1, c2)], [(-c1, -c2), z2]], kind="lie")
    form = FormField(ctx, 2, 2, {(0, 1): e("y")})
    E = presym_from_symplectic(lie, form)
    e1, e2 = E.frame_section(0), E.frame_section(1)
    for got, want in zip(E.star(e1, e2), (e("-z/(2*y)"), e("-x/(2*y)"))):
        assert (got - want).is_zero()
    for got, want in zip(E.star(e2, e1), (e("z/(2*y)"), e("x/(2*y)"))):
        assert (got - want).is_zero()
    # the product's commutator pushes forward to the vector-field bracket
    comm = E.bracket(e1, e2)
    for j in range(3):
        img = comm[0] * X[j] + comm[1] * Y[j]
        assert (img - br[j]).is_zero()
    # derived table coincides with the shipped fixture
    ship = fixtures.sphere_structure()
    for a in range(2):
        for b in range(2):
            for k in range(2):
                assert (E.table[a][b][k] - ship.table[a][b][k]).is_zero()
    assert time.monotonic() - t0 < 5.0


# -- round trips --------------------------------------------------------------


def structure_of(name):
    """A product structure for any fixture, derived when not shipped."""
    b = fixtures.build(name)
    if b.structure is not None:
        return b.structure
    if b.connection is not None and b.phi is not None:
        return twisted_product(b.connection, b.phi)
    if b.algebroid is not None and b.form is not None \
            and b.algebroid.kind == "lie":
        return presym_from_symplectic(b.algebroid, b.form)
    if b.algebra is not None:
        return pseudo_semidirect(fixtures.lsa2_chart_algebroid())
    raise AssertionError(f"no structure route for {name}")


def test_round_trips_exact_all_fixtures():
    t0 = time.monotonic()
    for name in fixtures.REGISTRY_NAMES:
        E = structure_of(name)
        r = E.rank
        lie, form = symplectic_from_presym(E)
        back = presym_from_symplectic(lie, form)
        for a in range(r):
            for b in range(r):
                assert (E.pairing.rows[a][b]
                        - back.pairing.rows[a][b]).is_zero(), name
                for k in range(r):
                    assert (E.table[a][b][k]
                            - back.table[a][b][k]).is_zero(), name
        lie2, form2 = symplectic_from_presym(back)
        for a in range(r):
            for b in range(r):
                assert (form.value_frame((a, b))
                        - form2.value_frame((a, b))).is_zero(), name
                for k in range(r):
                    assert (lie.table[a][b][k]
                            - lie2.table[a][b][k]).is_zero(), name
    assert time.monotonic() - t0 < 30.0


# -- defining identities ------------------------------------------------------


SUITE_IDS = ("presym.def-i", "presym.def-ii", "presym.scalar-left",
             "presym.scalar-right", "presym.bracket-leibniz",
             "presym.cyclic-T", "presym.star-with-D")


def test_defining_identities_with_formal_function_all_fixtures():
    for name in fixtures.REGISTRY_NAMES:
        rep = check_presymplectic(structure_of(name))
        assert rep.passed(), (name, [c.check_id for c in rep.failures()])
        ids = {c.check_id for c in rep.checks}
        for cid in SUITE_IDS:
            assert cid in ids, (name, cid)


# -- single-entry perturbations -----------------------------------------------


def perturbations(E):
    """Every structure obtained from E by bumping one stored entry,
    once by 1 and once by the first coordinate.  The pairing is bumped
    cell by cell, so skewness itself is under test."""
    ctx = E.ctx
    r = E.rank
    ncoords = len(ctx.coords)
    for delta, tag in ((ctx.one(), "+1"),
                       (ctx.expr(ctx.coords[0]), "+" + ctx.coords[0])):
        for a in range(r):
            for b in range(r):
                for k in range(r):
                    table = [[[x for x in cell] for cell in row]
                             for row in E.table]
                    table[a][b][k] = table[a][b][k] + delta
                    yield (f"table[{a}][{b}][{k}]{tag}",
                           PreSymStructure(ctx, E.names, E.anchor, table,
                                           E.pairing.rows))
        for a in range(r):
            for b in range(r):
                rows = [[x for x in row] for row in E.pairing.rows]
                rows[a][b] = rows[a][b] + delta
                yield (f"pairing[{a}][{b}]{tag}",
                       PreSymStructure(ctx, E.names, E.anchor, E.table, rows))
        for a in range(r):
            for j in range(ncoords):
                anchor = [[x for x in row] for row in E.anchor]
                anchor[a][j] = anchor[a][j] + delta
                yield (f"anchor[{a}][{j}]{tag}",
                       PreSymStructure(ctx, E.names, anchor, E.table,
                                       E.pairing.rows))


def test_single_entry_perturbations_all_caught_r2n():
    # A handful of bumps produce structures that still satisfy every
    # identity (constant anchor rescalings and shears, and commuting
    # coordinate-dependent anchors over the zero table are themselves
    # valid).  Those are caught by the reproduction lines instead, so
    # the catch set here is: identity suite, then displayed lines.
    E = fixtures.r2n_structure(1)
    suite_caught, line_caught, survivors = [], [], []
    for label, P in perturbations(E):
        if not check_presymplectic(P).passed():
            suite_caught.append(label)
            continue
        Pf, _ = P.extended()
        if nonzero_lines(table_lines(Pf, 1, completed=False)):
            line_caught.append(label)
        else:
            survivors.append(label)
    assert not survivors, survivors
    assert len(line_caught) == 6, line_caught
    assert len(suite_caught) == 26


def test_single_entry_perturbations_all_caught_sphere():
    E = fixtures.sphere_structure()
    survivors = [label for label, P in perturbations(E)
                 if check_presymplectic(P).passed()]
    assert not survivors, survivors
    assert sum(1 for _ in perturbations(E)) == 36


def test_single_entry_perturbation_representatives_other_fixtures():
    """One verified bump per remaining fixture, with the check that
    catches it pinned by id."""
    def failing_ids(rep):
        return {c.check_id for c in rep.failures()}

    # bracket table entry on the rank-6 prolongation
    lie, form = fixtures.prolongation_so3_data()
    ctx, one = lie.ctx, lie.ctx.one()
    table = [[[x for x in cell] for cell in row] for row in lie.table]
    table[0][1][2] = table[0][1][2] + one
    bumped = ChartAlgebroid(ctx, lie.names, lie.anchor, table, kind="lie")
    assert not check_lie_algebroid(bumped).passed()
    assert "form.closed" in failing_ids(check_2cocycle(bumped, form))

    # form component on the same fixture
    comps = dict(form.components)
    comps[(0, 1)] = comps[(0, 1)] + ctx.expr("y1")
    assert "form.closed" in failing_ids(
        check_2cocycle(lie, FormField(ctx, lie.rank, 2, comps)))

    # anchor entry on the bisection fixture
    blie, bform = fixtures.bisection_data()
    bctx = blie.ctx
    anchor = [[x for x in row] for row in blie.anchor]
    anchor[0][0] = anchor[0][0] + bctx.expr("x")
    bad = ChartAlgebroid(bctx, blie.names, anchor, blie.table, kind="lie")
    got = failing_ids(check_lie_algebroid(bad))
    assert {"algebroid.jacobi", "algebroid.anchor-morphism"} <= got

    # structure constant of the point algebra
    pctx = ChartContext(coords=())
    z, pone = pctx.zero(), pctx.one()
    ptable = [[(z, z), (pone, pone)], [(z, z), (z, z)]]
    palg = ChartAlgebroid(pctx, ("e1", "e2"), [[], []], ptable, kind="lsa")
    assert "algebroid.lsa.left-symmetric" in failing_ids(
        check_left_symmetric_algebroid(palg))

    # product table entry on the rank-4 double
    E = fixtures.lsa2_semidirect()
    table = [[[x for x in cell] for cell in row] for row in E.table]
    table[0][1][1] = table[0][1][1] + E.ctx.one()
    bumpedE = PreSymStructure(E.ctx, E.names, E.anchor, table,
                              E.pairing.rows)
    assert "presym.def-ii" in failing_ids(check_presymplectic(bumpedE))

    # operator entry on the para-Kahler fixture
    PE, P = fixtures.parakahler_lsa2_data()
    rows = [[x for x in row] for row in P.matrix.rows]
    rows[0][0] = rows[0][0] + PE.ctx.one()
    assert "para.squares-to-identity" in failing_ids(
        check_star_equals_nabla(PE, ParaComplexOp(PE.ctx, rows)))

    # connection coefficient on the twist fixture
    conn, phi = fixtures.twist_r2_data()
    tctx = conn.ctx
    tz, tone = tctx.zero(), tctx.one()
    gamma = [[[tz, tz], [tone, tz]], [[tz, tz], [tz, tz]]]
    E = twisted_product(conn, phi)
    got = failing_ids(check_exact(E, FlatConnection(tctx, gamma),
                                  canonical_splitting(E)))
    assert {"exact.connection-torsion-free", "exact.anchor-compatible",
            "exact.phi-in-image"} <= got


# -- double of the dim-2 algebra ----------------------------------------------


def test_double_of_dim2_algebra_definition_brute_force():
    E = fixtures.lsa2_semidirect()
    ctx = E.ctx
    sixth = ctx.number(Fraction(1, 6))
    half = ctx.number(Fraction(1, 2))
    frames = [E.frame_section(a) for a in range(4)]
    for u in frames:
        for v in frames:
            for w in frames:
                a1 = E.associator(u, v, w)
                a2 = E.associator(v, u, w)
                t = tensor_T(E, u, v, w)
                dt = E.D(t) if not t.is_zero() else (ctx.zero(),) * 4
                for x, y, d in zip(a1, a2, dt):
                    assert (x - y - sixth * d).is_zero()
                lhs = E.anchor_apply(u, E.pairing_value(v, w))
                s = list(E.star(u, v))
                p = E.pairing_value(u, v)
                if not p.is_zero():
                    for k, d in enumerate(E.D(p)):
                        s[k] = s[k] - half * d
                rhs = E.pairing_value(s, w) \
                    + E.pairing_value(v, E.bracket(u, w))
                assert (lhs - rhs).is_zero()


def test_double_of_dim2_algebra_dirac_halves_and_induced_product():
    E = fixtures.lsa2_semidirect()
    ctx = E.ctx
    z, one = ctx.zero(), ctx.one()
    half_A = Subbundle([(one, z, z, z), (z, one, z, z)], ("e1", "e2"))
    half_dual = Subbundle([(z, z, one, z), (z, z, z, one)], ("f1", "f2"))
    rep_A, induced = check_dirac(E, half_A)
    assert rep_A.passed(), [c.check_id for c in rep_A.failures()]
    rep_dual, _ = check_dirac(E, half_dual)
    assert rep_dual.passed(), [c.check_id for c in rep_dual.failures()]
    # the induced product on the first half is the original algebra
    want = fixtures.lsa2_algebra().constants
    for a in range(2):
        for b in range(2):
            for k in range(2):
                expect = ctx.number(want.get((a, b, k), 0))
                assert (induced.table[a][b][k] - expect).is_zero()
    # frame products in the double reproduce it too, with no dual part
    for a in range(2):
        for b in range(2):
            got = E.star(E.frame_section(a), E.frame_section(b))
            for k in range(4):
                expect = ctx.number(want.get((a, b, k), 0)) if k < 2 else z
                assert (got[k] - expect).is_zero()


# -- twisted products ---------------------------------------------------------


def test_twisted_product_valid_iff_reshuffle_closed():
    conn, phi = fixtures.twist_r2_data()
    res = twist_residual(conn, phi)
    assert all(x.is_zero() for x in res.components.values())
    E = twisted_product(conn, phi)
    assert check_presymplectic(E).passed()
    assert check_exact(E, conn, canonical_splitting(E)).passed()
    # no failing direction exists on a 2-dim chart: the residual lives
    # in degree 4, which is empty there
    assert cochain_keys(2, 4) == []
    # on a 3-dim chart a non-closed tensor both shows a residual and
    # fails the checks
    ctx3 = ChartContext(coords=("x1", "x2", "x3"))
    z3, x1 = ctx3.zero(), ctx3.expr("x1")
    comps = [[[z3] * 3 for _ in range(3)] for _ in range(3)]
    comps[1][1][2] = x1
    comps[2][1][1] = -x1
    conn3 = FlatConnection(ctx3)
    phi3 = PhiTensor(ctx3, comps)
    res3 = twist_residual(conn3, phi3)
    assert any(not x.is_zero() for x in res3.components.values())
    Ebad = twisted_product(conn3, phi3)
    bad_ids = {c.check_id for c in check_presymplectic(Ebad).failures()}
    assert "presym.def-i" in bad_ids
    exact_ids = {c.check_id for c in
                 check_exact(Ebad, conn3, canonical_splitting(Ebad))
                 .failures()}
    assert "exact.phi-closed" in exact_ids


def test_splitting_shift_adds_exact_term_and_equivalence():
    conn, phi = fixtures.twist_r2_data()
    ctx = conn.ctx
    z, one, f = ctx.zero(), ctx.one(), ctx.expr("f")
    E = twisted_product(conn, phi)
    shifted = Splitting([[one, z, f, z], [z, one, z, z]])
    phi2 = extract_phi(E, conn, shifted)
    theta = ChartCochain(ctx, 2, 2, {((0,), 0): f})
    dtheta = chart_coboundary(conn, theta)
    got, base, d = (c.components for c in (phi2.tilde(), phi.tilde(), dtheta))
    assert all(got.get(k, z) == base.get(k, z) + d.get(k, z)
               for k in got.keys() | base.keys() | d.keys())
    E2 = twisted_product(conn, phi2)
    rep = splitting_equivalence(E2, E, [[f, z], [z, z]])
    assert rep.passed(), [c.check_id for c in rep.failures()]
    # the shear matters: without it the structures differ
    assert not splitting_equivalence(E2, E, [[z, z], [z, z]]).passed()


def test_coboundary_squares_to_zero_and_stays_restricted():
    alg = FlatConnection(ChartContext(coords=("x", "y")))
    tc = TruncatedComplex(alg, 2)
    rng = random.Random(20260825)
    for degree in (1, 2):
        basis = tc.restricted_basis(degree)
        assert basis
        for trial in range(5):
            coeffs = [Fraction(rng.randint(-9, 9)) for _ in basis]
            vec = {}
            for c, b in zip(coeffs, basis):
                for i, x in b.items():
                    vec[i] = vec.get(i, 0) + c * x
            phi = tc.cochain_from_vector(degree, vec)
            d = chart_coboundary(alg, phi)
            image = tc.vector_from_cochain(d)
            assert all(sum(x * image.get(j, 0) for j, x in row.items()) == 0
                       for row in tc.membership_matrix(degree + 1))
            dd = chart_coboundary(alg, d)
            assert all(x.is_zero() for x in dd.components.values())


# -- restricted cohomology dimensions -----------------------------------------


def test_abelian_dim2_degree2_target_dimensions():
    # Deliberately failing: the fixed target triple for the degree-2
    # restricted complex of the 2-dim abelian point algebra is
    # (6, 0, 6), but both elimination routes compute (3, 0, 3) (the
    # symmetry cut leaves 3 of the 8 bilinear coefficients).  Kept as
    # stated; the computed triple is pinned in the next test.
    point = RestrictedComplex.point(FiniteAlgebra(2, {}))
    assert restricted_dims(point, 2) == {"bareiss": (6, 0, 6),
                                         "gauss": (6, 0, 6)}


def both(dims):
    """The result of `restricted_dims` when the two routes agree."""
    return {"bareiss": dims, "gauss": dims}


def test_abelian_dim2_computed_dimensions_both_eliminations():
    point = RestrictedComplex.point(FiniteAlgebra(2, {}))
    want = {1: (2, 0, 2), 2: (3, 0, 3), 3: (2, 0, 2)}
    for degree, dims in want.items():
        assert restricted_dims(point, degree) == both(dims)


def test_dim2_algebra_cohomology_both_eliminations():
    point = RestrictedComplex.point(fixtures.lsa2_algebra())
    want = {1: (1, 0, 1), 2: (1, 0, 1), 3: (2, 2, 0)}
    for degree, dims in want.items():
        got = restricted_dims(point, degree)
        assert got == both(dims), (degree, got)


def test_truncated_chart_complex_dimensions():
    # degree-0 truncation collapses to the point complex
    for n in (1, 2):
        conn = FlatConnection(ChartContext(
            coords=tuple(f"x{i+1}" for i in range(n))))
        cx = TruncatedComplex(conn, max_poly_degree=0)
        point = RestrictedComplex.point(FiniteAlgebra(n, {}))
        for degree in (1, 2, 3):
            assert restricted_dims(cx, degree) == \
                restricted_dims(point, degree)
    # quadratic truncation on the flat plane, both elimination routes
    conn = FlatConnection(ChartContext(coords=("x", "y")))
    assert restricted_dims(TruncatedComplex(conn, 2), 2) == both((12, 7, 5))


# -- para-Kahler chain --------------------------------------------------------


PARA_IDS = (
    "para.squares-to-identity", "para.pairing-anti-invariance",
    "para.integrable", "para.eigen-split", "para.eigen-dirac-plus",
    "para.eigen-dirac-minus", "para.eigen-g-isotropic",
    "para.metric-symmetric", "para.metric-nondegenerate",
    "para.metric-P-anti", "para.metric-compatible", "para.torsion-free",
    "para.levi-civita-agreement", "para.nabla-P-commute",
    "para.form-from-metric", "para.star-equals-nabla-plus",
    "para.star-equals-nabla-minus",
)


def test_para_kahler_verification_chain():
    t0 = time.monotonic()
    E, P = fixtures.parakahler_lsa2_data()
    # the operator is +1 on the algebra half, -1 on the dual half
    one = E.ctx.one()
    for a in range(4):
        for b in range(4):
            want = (one if a < 2 else -one) if a == b else E.ctx.zero()
            assert (P.matrix.rows[a][b] - want).is_zero()
    rep = check_star_equals_nabla(E, P)
    assert rep.passed(), [c.check_id for c in rep.failures()]
    status = {c.check_id: c.status for c in rep.checks}
    for cid in PARA_IDS:
        assert status.get(cid) == "pass", (cid, status.get(cid))
    assert time.monotonic() - t0 < 10.0


# -- CLI determinism ----------------------------------------------------------


WALL = re.compile(r'"wall_ms": [0-9.]+')


def test_cli_check_reports_byte_stable(tmp_path, capsys):
    for name in fixtures.REGISTRY_NAMES:
        src = tmp_path / f"{name}.psa"
        src.write_text(emit(fixtures.build(name)))
        texts = []
        for run in (1, 2):
            out = tmp_path / f"{name}-{run}.json"
            assert main(["check", str(src), "--json", str(out)]) == 0
            capsys.readouterr()
            texts.append(WALL.sub('"wall_ms": _', out.read_text()))
        assert texts[0] == texts[1], name
