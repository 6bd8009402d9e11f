"""Pinned verdicts of failing reports, one suite input per case.

Each input is a registry fixture (or a small structure built the way the
fixtures are) with one entry bumped.  The pins are the exact
(check id, status, witness) of every check that does not pass, in the
order the suite records them, so a change to how a suite enumerates its
instances or formats its witnesses shows up here.  Between them the
inputs fail every check id a bump can fail and reach every skip reason.
"""

from fractions import Fraction
from unittest import mock

import pytest

from psalib import fixtures, parakahler
from psalib.algebroid import (ChartAlgebroid, check_2cocycle,
                              check_left_symmetric,
                              check_left_symmetric_algebroid,
                              check_lie_algebroid)
from psalib.cli import applicable_suites, run_suites
from psalib.exactclass import (FlatConnection, PhiTensor, Splitting,
                               canonical_splitting, check_exact,
                               splitting_equivalence, twisted_product)
from psalib.exprcore import ChartContext
from psalib.identities import ANCHORS
from psalib.lsa import FiniteAlgebra
from psalib.parakahler import (MetricField, ParaComplexOp, check_levi_civita,
                               check_metric, check_star_equals_nabla,
                               metric_from)
from psalib.presym import (PreSymStructure, Subbundle, check_dirac,
                           check_presymplectic)


def bumped(E, part, idx, delta=1):
    """E with delta added to one entry of its anchor, table or pairing."""
    parts = {"anchor": [list(row) for row in E.anchor],
             "table": [[list(cell) for cell in row] for row in E.table],
             "pairing": [list(row) for row in E.pairing.rows]}
    cell = parts[part]
    for i in idx[:-1]:
        cell = cell[i]
    cell[idx[-1]] = cell[idx[-1]] + delta
    return PreSymStructure(E.ctx, E.names, parts["anchor"], parts["table"],
                           parts["pairing"])


def bumped_lie(lie, a, b, k):
    table = [[list(cell) for cell in row] for row in lie.table]
    table[a][b][k] = table[a][b][k] + 1
    return ChartAlgebroid(lie.ctx, lie.names, lie.anchor, table, lie.kind)


def bumped_lie_anchor(lie, a, i):
    anchor = [list(row) for row in lie.anchor]
    anchor[a][i] = anchor[a][i] + 1
    return ChartAlgebroid(lie.ctx, lie.names, anchor, lie.table, lie.kind)


def twist_r2():
    conn, phi = fixtures.twist_r2_data()
    return conn, twisted_product(conn, phi)


def bumped_splitting(E, i, a):
    rows = [list(row) for row in canonical_splitting(E).sigma]
    rows[i][a] = rows[i][a] + 1
    return Splitting(rows)


def nonclosed_r3():
    """A tensor with both constructor symmetries over a flat 3-dim chart
    whose reshuffle is not closed (rank 2 charts have no degree-4
    cochains, so closedness cannot fail there)."""
    ctx = ChartContext(coords=("x1", "x2", "x3"))
    z, x1 = ctx.zero(), ctx.expr("x1")
    comps = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    comps[1][1][2] = x1
    comps[2][1][1] = -x1
    conn = FlatConnection(ctx)
    return conn, twisted_product(conn, PhiTensor(ctx, comps))


def bumped_P(delta, a, b):
    E, P = fixtures.parakahler_lsa2_data()
    rows = [list(row) for row in P.matrix.rows]
    rows[a][b] = rows[a][b] + delta
    return E, ParaComplexOp(E.ctx, rows)


def para_with_P_diagonal(*signs):
    E, _ = fixtures.parakahler_lsa2_data()
    z = E.ctx.zero()
    return E, ParaComplexOp(E.ctx, [[E.ctx.number(s) if a == b else z
                                     for b in range(E.rank)]
                                    for a, s in enumerate(signs)])


def para_with_E(part, idx):
    E, P = fixtures.parakahler_lsa2_data()
    return check_star_equals_nabla(bumped(E, part, idx), P)


def para_degenerate_pairing():
    """(e1,f1) = 0 on both sides: the pairing stays skew but is singular,
    so the section product and D are undefined."""
    E, P = fixtures.parakahler_lsa2_data()
    E = bumped(bumped(E, "pairing", (0, 2)), "pairing", (2, 0), -1)
    return check_star_equals_nabla(E, P)


def lsa2_bumped(a, b, k):
    alg = fixtures.lsa2_algebra()
    constants = dict(alg.constants)
    constants[(a, b, k)] = constants.get((a, b, k), 0) + 1
    return FiniteAlgebra(2, constants, alg.names)


def jacobi_breaking_dim3():
    """The smallest algebra here whose commutator fails Jacobi: the lsa2
    fixture has dimension 2, where Jacobi has no frame triples."""
    return FiniteAlgebra(3, {(0, 1, 2): 1, (1, 0, 2): -1, (1, 2, 0): 1,
                             (2, 1, 0): -1, (2, 0, 2): 1, (0, 2, 2): -1})


def semidirect_half(E, sections):
    one, z = E.ctx.one(), E.ctx.zero()
    return Subbundle([tuple(one if k == a else z for k in range(E.rank))
                      for a in sections])


def dirac_case(part, idx, sections=(0, 1)):
    E = bumped(fixtures.lsa2_semidirect(), part, idx) if part else \
        fixtures.lsa2_semidirect()
    return check_dirac(E, semidirect_half(E, sections))[0]


def no_metric_connection():
    """The Koszul solve cannot fail on a nondegenerate metric, so the
    failure is injected to reach the suite's skip path."""
    def fail(*args, **kwargs):
        raise ValueError("connection conditions are inconsistent")
    E, P = fixtures.parakahler_lsa2_data()
    with mock.patch.object(parakahler, "levi_civita", fail):
        return check_star_equals_nabla(E, P)


def levi_civita_bumped_metric():
    E, P = fixtures.parakahler_lsa2_data()
    rows = [list(row) for row in metric_from(E, P).matrix.rows]
    rows[1][3] = rows[1][3] + 1
    return check_levi_civita(E.commutator_algebroid(),
                             MetricField(E.ctx, rows))[0]


def equivalence_to_bumped(part, idx):
    conn, E = twist_r2()
    z = E.ctx.zero()
    return splitting_equivalence(E, bumped(E, part, idx), [[z, z], [z, z]])


def exact_case(E, conn, sigma="canonical"):
    if sigma == "canonical":
        sigma = canonical_splitting(E)
    return check_exact(E, conn, sigma)


def exact_bumped_E(part, idx, delta=1):
    conn, E = twist_r2()
    Eb = bumped(E, part, idx, delta)
    return exact_case(Eb, conn, None if part == "anchor" else "canonical")


def exact_bumped_connection(i, j, k):
    conn, E = twist_r2()
    gamma = [[list(cell) for cell in row] for row in conn.table]
    gamma[i][j][k] = gamma[i][j][k] + conn.ctx.expr("x")
    return exact_case(E, FlatConnection(conn.ctx, gamma))


def exact_bumped_splitting(i, a):
    conn, E = twist_r2()
    return exact_case(E, conn, bumped_splitting(E, i, a))


INPUTS = {
    # lsa
    "lsa2 product e1*e2 += e1": lambda: check_left_symmetric(
        lsa2_bumped(0, 1, 0)),
    "dim-3 Jacobi failure": lambda: check_left_symmetric(
        jacobi_breaking_dim3()),
    "lsa2 at 1/2 with e2*e2 = 1/3*e1": lambda: check_left_symmetric(
        FiniteAlgebra(2, {(0, 1, 1): Fraction(1, 2),
                          (1, 1, 0): Fraction(1, 3)})),
    # algebroid
    "bisection [e1,e2] += e1": lambda: check_lie_algebroid(
        bumped_lie(fixtures.bisection_data()[0], 0, 1, 0)),
    "bisection [e1,e1] += e2": lambda: check_lie_algebroid(
        bumped_lie(fixtures.bisection_data()[0], 0, 0, 1)),
    # a skew table whose anchor is not a bracket morphism: Jacobi fails
    # in its formal slot only
    "bisection anchor rho(e1)^x += 1": lambda: check_lie_algebroid(
        bumped_lie_anchor(fixtures.bisection_data()[0], 0, 0)),
    "prolongation-so3 anchor rho(t1)^y1 += 1": lambda: check_lie_algebroid(
        bumped_lie_anchor(fixtures.prolongation_so3_data()[0], 0, 0)),
    "prolongation-so3 form with [t1,t2] += t1": lambda: check_2cocycle(
        bumped_lie(fixtures.prolongation_so3_data()[0], 0, 1, 0),
        fixtures.prolongation_so3_data()[1]),
    "lsa2 chart product e1*e2 += e1": lambda: check_left_symmetric_algebroid(
        bumped_lie(fixtures.lsa2_chart_algebroid(), 0, 1, 0)),
    # presym
    "sphere pairing (e1,e2) += 1": lambda: check_presymplectic(
        bumped(fixtures.sphere_structure(), "pairing", (0, 1))),
    "sphere anchor rho(e1)^x += 1": lambda: check_presymplectic(
        bumped(fixtures.sphere_structure(), "anchor", (0, 0))),
    "sphere table (e1*e1)^e1 += 1": lambda: check_presymplectic(
        bumped(fixtures.sphere_structure(), "table", (0, 0, 0))),
    "r2n pairing (d2,d1) += 1": lambda: check_presymplectic(
        bumped(fixtures.r2n_structure(1), "pairing", (1, 0))),
    # dirac, on the e-half of semidirect-lsa2
    "semidirect (e1*e2)^f1 += 1": lambda: dirac_case("table", (0, 1, 2)),
    "semidirect (e2*e1)^e1 += 1": lambda: dirac_case("table", (1, 0, 0)),
    "semidirect (e1,e2) += 1": lambda: dirac_case("pairing", (0, 1)),
    "semidirect span e1, e1": lambda: dirac_case(None, None, (0, 0)),
    # exact, on twist-r2 with its canonical splitting
    "twist-r2 connection gamma(2,1)^1 += x": lambda: exact_bumped_connection(
        1, 0, 0),
    "twist-r2 anchor rho(e1)^x -= 1": lambda: exact_bumped_E(
        "anchor", (0, 0), -1),
    "twist-r2 anchor rho(e3)^y += 1": lambda: exact_bumped_E(
        "anchor", (2, 1)),
    "twist-r2 splitting sigma(d1)^e1 += 1": lambda: exact_bumped_splitting(
        0, 0),
    "twist-r2 splitting sigma(d1)^e4 += 1": lambda: exact_bumped_splitting(
        0, 3),
    "twist-r2 table (e1*e1)^e3 += 1": lambda: exact_bumped_E(
        "table", (0, 0, 2)),
    "nonclosed r3 twist": lambda: exact_case(*reversed(nonclosed_r3())),
    # equiv, twist-r2 against a bumped copy with theta = 0
    "equiv anchor rho(e1)^x += 1": lambda: equivalence_to_bumped(
        "anchor", (0, 0)),
    "equiv pairing (e1,e2) += 1": lambda: equivalence_to_bumped(
        "pairing", (0, 1)),
    "equiv table (e1*e1)^e3 += 1": lambda: equivalence_to_bumped(
        "table", (0, 0, 2)),
    # para, on parakahler-lsa2
    "para P[1][1] += 1": lambda: check_star_equals_nabla(*bumped_P(1, 0, 0)),
    "para P[3][3] += 2": lambda: check_star_equals_nabla(*bumped_P(2, 2, 2)),
    "para P = diag(1, -1, 1, -1)": lambda: check_star_equals_nabla(
        *para_with_P_diagonal(1, -1, 1, -1)),
    "para pairing (e1,e1) += 1": lambda: para_with_E("pairing", (0, 0)),
    "para pairing (e1,e4) += 1": lambda: para_with_E("pairing", (0, 3)),
    "para (e1*e1)^e3 += 1": lambda: para_with_E("table", (0, 0, 2)),
    "para (e3*e3)^e1 += 1": lambda: para_with_E("table", (2, 2, 0)),
    "para (e1*e1)^e1 += 1": lambda: para_with_E("table", (0, 0, 0)),
    "para (e1*e2)^e2 += 1": lambda: para_with_E("table", (0, 1, 1)),
    "para (e1*e3)^e1 += 1": lambda: para_with_E("table", (0, 2, 0)),
    "para metric with P[3][3] += 1": lambda: check_metric(
        *bumped_P(1, 2, 2))[0],
    "para Levi-Civita with g[2][4] += 1": levi_civita_bumped_metric,
    "para no metric connection": no_metric_connection,
    "para pairing (e1,f1) = 0": para_degenerate_pairing,
}

EXPECTED = {
    "lsa2 product e1*e2 += e1": [
        ("lsa.left-symmetric", "fail", "(e1,e2,e2): residual = -1*e1 + -1*e2"),
    ],
    "dim-3 Jacobi failure": [
        ("lsa.left-symmetric", "fail", "(e1,e2,e1): residual = -1*e3"),
        ("lsa.subadjacent-jacobi", "fail", "(e1,e2,e3): residual = -4*e1"),
    ],
    "lsa2 at 1/2 with e2*e2 = 1/3*e1": [
        ("lsa.left-symmetric", "fail", "(e1,e2,e2): residual = -1/3*e1"),
    ],
    "bisection [e1,e2] += e1": [
        ("algebroid.bracket-skew", "fail", "[e1,e2] + [e2,e1] = (1)*e1"),
        ("algebroid.jacobi", "fail",
         "(e1,e1,f*e2): residual = (-x^2*d(f,y) - d(f,y))*e1"),
        ("algebroid.anchor-morphism", "fail",
         "rho[e1,e2] - [rho e1, rho e2] = (x^2 + 1)*y"),
    ],
    "bisection [e1,e1] += e2": [
        ("algebroid.bracket-skew", "fail", "[e1,e1] + [e1,e1] = (2)*e2"),
        ("algebroid.jacobi", "fail",
         "(e1,e1,f*e1): residual = (-x^2*d(f,x) - 6*x*f - d(f,x))*e1 + (-2"
         "*x^2*d(f,y) - 2*d(f,y))*e2"),
        ("algebroid.anchor-morphism", "fail",
         "rho[e1,e1] - [rho e1, rho e1] = (-x^2 - 1)*x"),
    ],
    "bisection anchor rho(e1)^x += 1": [
        ("algebroid.jacobi", "fail",
         "(e1,e2,f*e1): residual = (4*x*d(f,x))*e1"),
        ("algebroid.anchor-morphism", "fail",
         "rho[e1,e2] - [rho e1, rho e2] = (4*x)*x"),
    ],
    "prolongation-so3 anchor rho(t1)^y1 += 1": [
        ("algebroid.jacobi", "fail", "(t2,t3,f*t1): residual = (d(f,y1))*t1"),
        ("algebroid.anchor-morphism", "fail",
         "rho[t2,t3] - [rho t2, rho t3] = (1)*y1"),
    ],
    "prolongation-so3 form with [t1,t2] += t1": [
        ("form.closed", "fail", "(t1,t2,t3): residual = y2"),
    ],
    "lsa2 chart product e1*e2 += e1": [
        ("algebroid.lsa.left-symmetric", "fail",
         "(e1,e2,e2): residual = (-1)*e1 + (-1)*e2"),
    ],
    "sphere pairing (e1,e2) += 1": [
        ("presym.pairing-skew", "fail", "(e1,e2) + (e2,e1) = 1"),
        ("presym.D-reproducing", "fail",
         "(Df,e1) - rho(e1)(f) = (x*d(f,y) - y*d(f,x))/(y + 1)"),
        ("presym.def-ii", "fail", "(e1,e1,e2): residual x/y"),
        ("presym.def-i", "fail", "(e1,e2,e1): component e1: -1/6*x*z/(y^3)"),
        ("presym.star-with-D", "fail",
         "e1 * Df - 1/2 D(Df,e1), component e1: (1/2*x*y^3*d2(f,y,z) - 1/2"
         "*x*y^2*z*d2(f,y,y) - 1/2*y^4*d2(f,x,z) + 1/2*y^3*z*d2(f,x,y) + 1"
         "/2*x*y^2*d2(f,y,z) + 3/2*x*y*z*d(f,y) - 1/2*x*y*z*d2(f,y,y) - 1/"
         "2*y^3*d2(f,x,z) - y^2*z*d(f,x) + 1/2*y^2*z*d2(f,x,y) + x*z*d(f,y"
         ") - 1/2*y*z*d(f,x))/(y^4 + 2*y^3 + y^2)"),
        ("presym.cyclic-T", "fail",
         "(f e1,e1,e2): (x*y*d(f,y) - y^2*d(f,x) + 3/2*x*d(f,y) - 3/2*y*d("
         "f,x))/(y + 1)"),
    ],
    "sphere anchor rho(e1)^x += 1": [
        ("presym.def-i", "fail", "(f e1,e1,e2): component e1: 1/2*z*d(f,x)/y"),
        ("presym.star-with-D", "fail",
         "e1 * Df - 1/2 D(Df,e1), component e1: z*d(f,x)/(y^2)"),
    ],
    "sphere table (e1*e1)^e1 += 1": [
        ("presym.def-ii", "fail", "(e1,e1,e2): residual -y"),
        ("presym.def-i", "fail", "(e1,e2,e1): component e1: 5/6*z/y"),
        ("presym.star-with-D", "fail",
         "e1 * Df - 1/2 D(Df,e1), component e1: (-y*d(f,z) + z*d(f,y))/y"),
    ],
    "r2n pairing (d2,d1) += 1": [
        ("presym.pairing-skew", "fail", "(e1,e2) + (e2,e1) = 1"),
        ("presym.pairing-nondegenerate", "fail",
         "pairing determinant vanishes: 0"),
        ("presym.def-i", "skipped", "not evaluated: pairing is degenerate"),
        ("presym.def-ii", "skipped", "not evaluated: pairing is degenerate"),
        ("presym.scalar-left", "skipped",
         "not evaluated: pairing is degenerate"),
        ("presym.scalar-right", "skipped",
         "not evaluated: pairing is degenerate"),
        ("presym.bracket-leibniz", "skipped",
         "not evaluated: pairing is degenerate"),
        ("presym.star-with-D", "skipped",
         "not evaluated: pairing is degenerate"),
        ("presym.cyclic-T", "skipped", "not evaluated: pairing is degenerate"),
        ("presym.D-reproducing", "skipped",
         "not evaluated: pairing is degenerate"),
    ],
    "semidirect (e1*e2)^f1 += 1": [
        ("dirac.closed", "fail", "s1 * s2 = (1)*e2 + (1)*f1 leaves the span"),
        ("dirac.induced-left-symmetric", "skipped",
         "not evaluated: no induced product"),
    ],
    "semidirect (e2*e1)^e1 += 1": [
        ("dirac.induced-left-symmetric", "fail",
         "algebroid.lsa.left-symmetric: (s1,s2,s1): residual = (-1)*s1"),
    ],
    "semidirect (e1,e2) += 1": [
        ("dirac.isotropic", "fail", "(s1,s2) = 1"),
        ("dirac.induced-left-symmetric", "skipped",
         "not evaluated: no induced product"),
    ],
    "semidirect span e1, e1": [
        ("dirac.half-rank", "fail", "spanning sections have rank 1, need 2"),
        ("dirac.induced-left-symmetric", "skipped",
         "not evaluated: no induced product"),
    ],
    "twist-r2 connection gamma(2,1)^1 += x": [
        ("exact.connection-torsion-free", "fail",
         "gamma(1,2) - gamma(2,1), component 1: -x"),
        ("exact.connection-flat", "fail",
         "curvature(d1,d2)d1, component 1: 1"),
        ("exact.anchor-compatible", "fail", "rho(e2 * e1) component 1: -x"),
        ("exact.phi-in-image", "fail",
         "sigma(d2) * sigma(d1) - sigma(nabla) is outside the dual-anchor "
         "image"),
        ("exact.phi-13-antisymmetry", "skipped",
         "not evaluated: no obstruction tensor"),
        ("exact.phi-pair-symmetry", "skipped",
         "not evaluated: no obstruction tensor"),
        ("exact.phi-closed", "skipped",
         "not evaluated: no obstruction tensor"),
    ],
    "twist-r2 anchor rho(e1)^x -= 1": [
        ("exact.anchor-surjective", "fail", "anchor rank 1, need 2"),
        ("exact.sequence", "fail", "dual-anchor rank 1, need 2"),
    ],
    "twist-r2 anchor rho(e3)^y += 1": [
        ("exact.sequence", "fail",
         "the conormal image misses the anchor kernel: rho(rho'(dx1)) comp"
         "onent 2 is 1"),
        ("exact.anchor-compatible", "fail",
         "rho(e1 * f e3) component 1: 1/2*d(f0,y)"),
    ],
    "twist-r2 splitting sigma(d1)^e1 += 1": [
        ("exact.splitting-section", "fail", "rho(sigma(d1)) component 1: 2"),
        ("exact.phi-in-image", "skipped",
         "not evaluated: splitting is invalid"),
        ("exact.phi-13-antisymmetry", "skipped",
         "not evaluated: splitting is invalid"),
        ("exact.phi-pair-symmetry", "skipped",
         "not evaluated: splitting is invalid"),
        ("exact.phi-closed", "skipped", "not evaluated: splitting is invalid"),
    ],
    "twist-r2 splitting sigma(d1)^e4 += 1": [
        ("exact.splitting-isotropic", "fail", "(sigma(d1), sigma(d2)) = 1"),
        ("exact.phi-in-image", "skipped",
         "not evaluated: splitting is invalid"),
        ("exact.phi-13-antisymmetry", "skipped",
         "not evaluated: splitting is invalid"),
        ("exact.phi-pair-symmetry", "skipped",
         "not evaluated: splitting is invalid"),
        ("exact.phi-closed", "skipped", "not evaluated: splitting is invalid"),
    ],
    "twist-r2 table (e1*e1)^e3 += 1": [
        ("exact.phi-13-antisymmetry", "fail", "phi(1,1,1) + phi(1,1,1) = 2"),
        ("exact.phi-pair-symmetry", "fail",
         "phi(1,1,1) - phi(1,1,1) + phi(1,1,1) = 1"),
    ],
    "nonclosed r3 twist": [
        ("exact.phi-closed", "fail",
         "coboundary of the reshuffle, component ((0, 1, 2), 1): 1"),
    ],
    "equiv anchor rho(e1)^x += 1": [
        ("equiv.anchor", "fail", "anchor of image of e1, component 1: 1"),
    ],
    "equiv pairing (e1,e2) += 1": [
        ("equiv.pairing", "fail", "(image e1, image e2) - (e1,e2) = 1"),
    ],
    "equiv table (e1*e1)^e3 += 1": [
        ("equiv.star", "fail",
         "image(e1 * e1) vs image(e1) * image(e1), component c1: 1"),
    ],
    "para P[1][1] += 1": [
        ("para.squares-to-identity", "fail", "(P o P - id)[1][1] = 3"),
        ("para.pairing-anti-invariance", "skipped",
         "not evaluated: P does not square to the identity"),
        ("para.integrable", "skipped",
         "not evaluated: P does not square to the identity"),
        ("para.eigen-split", "skipped",
         "not evaluated: P does not square to the identity"),
        ("para.eigen-dirac-plus", "skipped",
         "not evaluated: P does not square to the identity"),
        ("para.eigen-dirac-minus", "skipped",
         "not evaluated: P does not square to the identity"),
        ("para.eigen-g-isotropic", "skipped",
         "not evaluated: product structure checks failed"),
        ("para.nabla-P-commute", "skipped",
         "not evaluated: product structure checks failed"),
        ("para.star-equals-nabla-plus", "skipped",
         "not evaluated: product structure checks failed"),
        ("para.star-equals-nabla-minus", "skipped",
         "not evaluated: product structure checks failed"),
    ],
    "para P[3][3] += 2": [
        ("para.pairing-anti-invariance", "fail",
         "(P e1, P e3) + (e1, e3) = -2"),
        ("para.eigen-split", "fail", "eigenbundle ranks 3 and 1, need 2 each"),
        ("para.eigen-dirac-plus", "skipped",
         "not evaluated: eigenbundles do not split the structure"),
        ("para.eigen-dirac-minus", "skipped",
         "not evaluated: eigenbundles do not split the structure"),
        ("para.eigen-g-isotropic", "skipped",
         "not evaluated: product structure checks failed"),
        ("para.nabla-P-commute", "skipped",
         "not evaluated: product structure checks failed"),
        ("para.star-equals-nabla-plus", "skipped",
         "not evaluated: product structure checks failed"),
        ("para.star-equals-nabla-minus", "skipped",
         "not evaluated: product structure checks failed"),
    ],
    "para P = diag(1, -1, 1, -1)": [
        ("para.pairing-anti-invariance", "fail",
         "(P e1, P e3) + (e1, e3) = -2"),
        ("para.integrable", "fail", "(e2, e4) component f1: 4"),
        ("para.eigen-dirac-plus", "fail", "dirac.isotropic: (p1,p2) = -1"),
        ("para.eigen-dirac-minus", "fail", "dirac.isotropic: (m1,m2) = -1"),
        ("para.eigen-g-isotropic", "skipped",
         "not evaluated: product structure checks failed"),
        ("para.nabla-P-commute", "skipped",
         "not evaluated: product structure checks failed"),
        ("para.star-equals-nabla-plus", "skipped",
         "not evaluated: product structure checks failed"),
        ("para.star-equals-nabla-minus", "skipped",
         "not evaluated: product structure checks failed"),
    ],
    "para pairing (e1,e1) += 1": [
        ("para.pairing-anti-invariance", "fail",
         "(P e1, P e1) + (e1, e1) = 2"),
        ("para.eigen-dirac-plus", "fail", "dirac.isotropic: (p1,p1) = 1"),
        ("para.eigen-g-isotropic", "skipped",
         "not evaluated: product structure checks failed"),
        ("para.nabla-P-commute", "skipped",
         "not evaluated: product structure checks failed"),
        ("para.star-equals-nabla-plus", "skipped",
         "not evaluated: product structure checks failed"),
        ("para.star-equals-nabla-minus", "skipped",
         "not evaluated: product structure checks failed"),
    ],
    "para pairing (e1,e4) += 1": [
        ("para.metric-symmetric", "fail", "g[1][4] - g[4][1] = -1"),
        ("para.eigen-g-isotropic", "skipped",
         "not evaluated: no induced metric"),
        ("para.nabla-P-commute", "skipped",
         "not evaluated: no induced metric"),
        ("para.star-equals-nabla-plus", "skipped",
         "not evaluated: no induced metric"),
        ("para.star-equals-nabla-minus", "skipped",
         "not evaluated: no induced metric"),
    ],
    "para (e1*e1)^e3 += 1": [
        ("para.integrable", "fail", "(e1, e1) component f1: -4"),
        ("para.eigen-dirac-plus", "fail",
         "dirac.closed: p1 * p1 = (1)*f1 leaves the span"),
        ("para.eigen-g-isotropic", "skipped",
         "not evaluated: product structure checks failed"),
        ("para.nabla-P-commute", "skipped",
         "not evaluated: product structure checks failed"),
        ("para.star-equals-nabla-plus", "skipped",
         "not evaluated: product structure checks failed"),
        ("para.star-equals-nabla-minus", "skipped",
         "not evaluated: product structure checks failed"),
    ],
    "para (e3*e3)^e1 += 1": [
        ("para.integrable", "fail", "(e3, e3) component e1: 4"),
        ("para.eigen-dirac-minus", "fail",
         "dirac.closed: m1 * m1 = (1)*e1 leaves the span"),
        ("para.eigen-g-isotropic", "skipped",
         "not evaluated: product structure checks failed"),
        ("para.nabla-P-commute", "skipped",
         "not evaluated: product structure checks failed"),
        ("para.star-equals-nabla-plus", "skipped",
         "not evaluated: product structure checks failed"),
        ("para.star-equals-nabla-minus", "skipped",
         "not evaluated: product structure checks failed"),
    ],
    "para (e1*e1)^e1 += 1": [
        ("para.star-equals-nabla-plus", "fail",
         "sections 1,1: component e1: 1"),
    ],
    "para (e1*e2)^e2 += 1": [
        ("para.nabla-P-commute", "fail", "(e4, e1) component f2: -1"),
        ("para.star-equals-nabla-plus", "fail",
         "sections 1,2: component e2: 1/2"),
    ],
    "para (e1*e3)^e1 += 1": [
        ("para.star-equals-nabla-minus", "fail",
         "sections 1,1: component f1: -1"),
    ],
    "para metric with P[3][3] += 1": [
        ("para.metric-symmetric", "fail", "g[1][3] - g[3][1] = -1"),
        ("para.metric-nondegenerate", "fail", "determinant 0"),
        ("para.metric-P-anti", "fail", "g(P e3, P e1) + g(e3, e1) = 1"),
        ("para.form-from-metric", "fail", "g(e1, P e3) - (e1, e3) = 1"),
    ],
    "para Levi-Civita with g[2][4] += 1": [
        ("para.levi-civita-agreement", "fail",
         "coefficient (1,2,2) differs between solves: 1/2"),
        ("para.torsion-free", "fail",
         "([e1,e2] - nabla asym) component e2: -1"),
        ("para.metric-compatible", "fail", "rho(e1) g(e2,e4) defect: -3/2"),
    ],
    "para no metric connection": [
        ("para.levi-civita-agreement", "fail",
         "connection conditions are inconsistent"),
        ("para.eigen-g-isotropic", "skipped",
         "not evaluated: no metric connection"),
        ("para.nabla-P-commute", "skipped",
         "not evaluated: no metric connection"),
        ("para.star-equals-nabla-plus", "skipped",
         "not evaluated: no metric connection"),
        ("para.star-equals-nabla-minus", "skipped",
         "not evaluated: no metric connection"),
    ],
    "para pairing (e1,f1) = 0": [
        ("para.integrable", "skipped", "not evaluated: pairing is degenerate"),
        ("para.eigen-dirac-plus", "skipped",
         "not evaluated: pairing is degenerate"),
        ("para.eigen-dirac-minus", "skipped",
         "not evaluated: pairing is degenerate"),
        ("para.metric-nondegenerate", "fail", "determinant 0"),
        ("para.eigen-g-isotropic", "skipped",
         "not evaluated: no induced metric"),
        ("para.nabla-P-commute", "skipped",
         "not evaluated: no induced metric"),
        ("para.star-equals-nabla-plus", "skipped",
         "not evaluated: no induced metric"),
        ("para.star-equals-nabla-minus", "skipped",
         "not evaluated: no induced metric"),
    ],
}


@pytest.fixture(scope="module")
def reports():
    return {name: build() for name, build in INPUTS.items()}


@pytest.mark.parametrize("name", list(INPUTS))
def test_failing_report_witnesses(reports, name):
    got = [(c.check_id, c.status, c.witness) for c in reports[name].checks
           if c.status != "pass"]
    assert got == EXPECTED[name]


def test_recorded_ids_are_exactly_the_anchors(reports):
    """Every registered anchor is recorded by some suite on the registry
    fixtures or on the inputs above, and nothing else is recorded."""
    seen = {c.check_id for rep in reports.values() for c in rep.checks}
    for name in fixtures.REGISTRY_NAMES:
        bundle = fixtures.build(name)
        seen |= {c.check_id for c in run_suites(
            bundle, applicable_suites(bundle)).checks}
    assert seen == set(ANCHORS)


# (check id, status, witness) of the three frame-triple scans of
# check_presymplectic on r2n_structure(1) with one entry raised by 1, for
# every entry of its anchor, table and pairing: witnesses at a component
# after the first, in a formal slot, and the degenerate-pairing skip
R2N_BUMPS = {
    ("anchor", (0, 0)): [("presym.def-ii", "pass", None),
                         ("presym.def-i", "pass", None),
                         ("presym.cyclic-T", "pass", None)],
    ("anchor", (0, 1)): [("presym.def-ii", "pass", None),
                         ("presym.def-i", "pass", None),
                         ("presym.cyclic-T", "pass", None)],
    ("anchor", (1, 0)): [("presym.def-ii", "pass", None),
                         ("presym.def-i", "pass", None),
                         ("presym.cyclic-T", "pass", None)],
    ("anchor", (1, 1)): [("presym.def-ii", "pass", None),
                         ("presym.def-i", "pass", None),
                         ("presym.cyclic-T", "pass", None)],
    ("table", (0, 0, 0)): [
        ("presym.def-ii", "fail", "(e1,e1,e2): residual -1"),
        ("presym.def-i", "fail", "(f e1,e1,e2): component d1: 1/2*d(f,x2)"),
        ("presym.cyclic-T", "pass", None)],
    ("table", (0, 0, 1)): [
        ("presym.def-ii", "fail", "(e1,e1,e1): residual 1"),
        ("presym.def-i", "fail", "(f e1,e1,e1): component d1: -d(f,x2)"),
        ("presym.cyclic-T", "pass", None)],
    ("table", (0, 1, 0)): [
        ("presym.def-ii", "fail", "(e2,e2,e1): residual -1"),
        ("presym.def-i", "fail", "(e1,e2,e2): component d1: -1"),
        ("presym.cyclic-T", "pass", None)],
    ("table", (0, 1, 1)): [
        ("presym.def-ii", "fail", "(e1,e1,e2): residual -1"),
        ("presym.def-i", "fail", "(f e1,e1,e2): component d1: -d(f,x2)"),
        ("presym.cyclic-T", "pass", None)],
    ("table", (1, 0, 0)): [
        ("presym.def-ii", "fail", "(e1,e2,e2): residual -1"),
        ("presym.def-i", "fail", "(f e1,e2,e2): component d1: 1/6*d(f,x2)"),
        ("presym.cyclic-T", "pass", None)],
    ("table", (1, 0, 1)): [
        ("presym.def-ii", "fail", "(e1,e1,e2): residual 1"),
        ("presym.def-i", "fail", "(e1,e2,e1): component d2: 1"),
        ("presym.cyclic-T", "pass", None)],
    ("table", (1, 1, 0)): [
        ("presym.def-ii", "fail", "(e2,e2,e2): residual -1"),
        ("presym.def-i", "fail",
         "(f e1,e2,e2): component d1: -1/2*d(f,x1)"),
        ("presym.cyclic-T", "pass", None)],
    ("table", (1, 1, 1)): [
        ("presym.def-ii", "fail", "(e2,e2,e1): residual 1"),
        ("presym.def-i", "fail",
         "(f e1,e2,e2): component d1: -2/3*d(f,x2)"),
        ("presym.cyclic-T", "pass", None)],
    ("pairing", (0, 0)): [
        ("presym.def-ii", "fail", "(e1,e1,e1), formal f in slot 1: residual "
         "2*d(f,x1) + 2*d(f,x2)"),
        ("presym.def-i", "fail", "(f e1,e1,e1): component d1: "
         "-1/3*d2(f,x1,x2) - 2/3*d2(f,x2,x2)"),
        ("presym.cyclic-T", "fail", "(f e1,e1,e2): 2*d(f,x2)")],
    ("pairing", (0, 1)): [
        ("presym.def-ii", "fail",
         "(e1,e2,e2), formal f in slot 1: residual 3*d(f,x2)"),
        ("presym.def-i", "fail",
         "(f e1,e2,e1): component d1: -1/12*d2(f,x1,x2)"),
        ("presym.cyclic-T", "fail", "(f e1,e1,e2): -5/4*d(f,x1)")],
    ("pairing", (1, 0)): [
        ("presym.def-i", "skipped", "not evaluated: pairing is degenerate"),
        ("presym.def-ii", "skipped", "not evaluated: pairing is degenerate"),
        ("presym.cyclic-T", "skipped",
         "not evaluated: pairing is degenerate")],
    ("pairing", (1, 1)): [
        ("presym.def-ii", "fail",
         "(e1,e2,e2), formal f in slot 1: residual -2*d(f,x1)"),
        ("presym.def-i", "fail", "(f e2,e2,e1): component d1: "
         "1/3*d2(f,x1,x1) - 1/3*d2(f,x1,x2)"),
        ("presym.cyclic-T", "fail", "(f e2,e1,e2): -2*d(f,x1)")],
}


@pytest.mark.parametrize("part, idx", list(R2N_BUMPS))
def test_r2n_single_bump_scan_witnesses(part, idx):
    rep = check_presymplectic(bumped(fixtures.r2n_structure(1), part, idx))
    got = [(c.check_id, c.status, c.witness) for c in rep.checks
           if c.check_id in ("presym.def-i", "presym.def-ii",
                             "presym.cyclic-T")]
    assert got == R2N_BUMPS[(part, idx)]


# The six scalar-rule checks cannot fail on any structure the library
# builds: each verifies that a section operation extends its frame table
# by the scalar rules it is built from.  Each case below breaks one
# operation, so that the check must fail, and pins its witness.


def _without_derivation(op):
    """op without the right-slot derivation: a non-constant coefficient
    v_b of the right argument no longer adds rho(u)(v_b) e_b."""
    def broken(self, u, v):
        out = list(op(self, u, v))
        for b, vb in enumerate(v):
            if not vb.is_constant():
                out[b] = out[b] - self.anchor_apply(u, vb)
        return tuple(out)
    return broken


def _with_stray_term(op):
    """op plus the square of each non-constant coefficient of the left
    argument, on the first frame element: no scalar rule has such a
    term."""
    def broken(self, u, v):
        out = list(op(self, u, v))
        for x in u:
            if not x.is_constant():
                out[0] = out[0] + x * x
        return tuple(out)
    return broken


SCALAR_RULE_BREAKS = {
    "algebroid.leibniz": (
        ChartAlgebroid, "bracket", _without_derivation,
        lambda: check_lie_algebroid(
            fixtures.sphere_structure().commutator_algebroid()),
        "[e1, f*e1]: residual = (x*d(f,y) - y*d(f,x))*e1"),
    "algebroid.lsa.scalar-left": (
        ChartAlgebroid, "product", _without_derivation,
        lambda: check_left_symmetric_algebroid(fixtures.twist_r2_data()[0]),
        "d1 * f*d1: residual = (-d(f0,x))*d1"),
    "algebroid.lsa.scalar-right": (
        ChartAlgebroid, "product", _with_stray_term,
        lambda: check_left_symmetric_algebroid(fixtures.twist_r2_data()[0]),
        "f*d1 * d1: residual = (f0^2)*d1"),
    "presym.scalar-left": (
        PreSymStructure, "star", _without_derivation,
        lambda: check_presymplectic(fixtures.sphere_structure()),
        "e1 * (f e1), component e1: x*d(f,y) - y*d(f,x)"),
    "presym.scalar-right": (
        PreSymStructure, "star", _with_stray_term,
        lambda: check_presymplectic(fixtures.sphere_structure()),
        "(f e1) * e1, component e1: f^2"),
    "presym.bracket-leibniz": (
        PreSymStructure, "bracket", _without_derivation,
        lambda: check_presymplectic(fixtures.sphere_structure()),
        "[e1, f e1], component e1: x*d(f,y) - y*d(f,x)"),
}


@pytest.mark.parametrize("check_id", list(SCALAR_RULE_BREAKS))
def test_scalar_rule_checks_fail_on_a_broken_operation(check_id,
                                                       monkeypatch):
    cls, method, breaking, run, witness = SCALAR_RULE_BREAKS[check_id]
    monkeypatch.setattr(cls, method, breaking(getattr(cls, method)))
    check = run().find(check_id)
    assert (check.status, check.witness) == ("fail", witness)
