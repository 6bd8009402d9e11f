"""Product structures compatible with the pairing, the pseudo-metric they
induce, Levi-Civita connections on the commutator structure, and the
identity between the metric connection and the product on both
eigenbundles.

A connection is a ChartAlgebroid of kind "lsa" on the commutator frame:
its table holds nabla_{e_a} e_b and its product is nabla_u v.

The formal slots of para.integrable follow from two other verdicts of
check_paracomplex.  With N(u,v) = P(u*v) - Pu*v - u*Pv + P(Pu*Pv), the
section product is built so that, for a scalar g,
(g u)*v = g u*v - 1/2 (u,v) Dg and u*(g v) = g u*v + rho(u)(g) v
+ 1/2 (u,v) Dg; P(g u) = g Pu, and the pairing is bilinear.  Expanding
each of the four terms with them gives
N(f u,v) = f N(u,v) - 1/2 ((u,v) + (Pu,Pv)) P Df
+ 1/2 ((Pu,v) + (u,Pv)) Df and
N(u,f v) = f N(u,v) + 1/2 ((u,v) + (Pu,Pv)) P Df
- 1/2 ((Pu,v) + (u,Pv)) Df + rho(Pu)(f) (P(Pv) - v);
the rho(u)(f) Pv terms of P(u*(f v)) and u*P(f v) cancel.  When P
squares to the identity (para.squares-to-identity, which gates the check)
and para.pairing-anti-invariance passes, (Pu,Pv) = -(u,v) and
(Pu,v) = (Pu,P(Pv)) = -(u,Pv), so every anomaly is zero and each formal
case is f times its frame case.  The frame case of (e_a, e_b) is scanned
before its two formal cases, so the frame cases decide the verdict and
the witness, and the formal cases are not evaluated.  Otherwise they
are, in full and in the same order."""

import itertools
from fractions import Fraction

from .algebroid import ChartAlgebroid
from .exactlinalg import (ExprMatrix, SingularMatrixError, expr_kernel_basis,
                          expr_solve, invert)
from .exprcore import ChartContext, DiffExpr
from .presym import PreSymStructure, Subbundle, check_dirac
from .report import CheckReport, components

__all__ = [
    "ParaComplexOp", "MetricField", "check_paracomplex",
    "metric_from", "check_metric", "levi_civita", "check_levi_civita",
    "check_star_equals_nabla",
]


class ParaComplexOp:
    """Bundle endomorphism in frame coordinates: P(e_b) = sum_a m[a][b] e_a."""

    def __init__(self, ctx: ChartContext, matrix):
        if not isinstance(matrix, ExprMatrix):
            matrix = ExprMatrix(ctx, matrix)
        if matrix.nrows != matrix.ncols:
            raise ValueError("operator matrix must be square")
        self.ctx = ctx
        self.matrix = matrix
        self.rank = matrix.nrows

    def apply(self, u):
        u = tuple(u)
        if len(u) != self.rank:
            raise ValueError("section length mismatch")
        return tuple(self.matrix.mulvec(u))

    def column(self, b: int):
        return tuple(self.matrix.rows[a][b] for a in range(self.rank))


class MetricField:
    """Symmetric nondegenerate frame pairing g_ab."""

    def __init__(self, ctx: ChartContext, matrix):
        if not isinstance(matrix, ExprMatrix):
            matrix = ExprMatrix(ctx, matrix)
        if matrix.nrows != matrix.ncols:
            raise ValueError("metric matrix must be square")
        self.ctx = ctx
        self.matrix = matrix
        self.rank = matrix.nrows
        self._inv = None

    @property
    def inverse(self) -> ExprMatrix:
        if self._inv is None:
            self._inv = invert(self.matrix)
        return self._inv

    def value(self, u, v) -> DiffExpr:
        out = self.ctx.zero()
        rows = self.matrix.rows
        for a in range(self.rank):
            if u[a].is_zero():
                continue
            for b in range(self.rank):
                if not v[b].is_zero() and not rows[a][b].is_zero():
                    out = out + u[a] * rows[a][b] * v[b]
        return out


def _entry_cases(template: str, matrix: ExprMatrix):
    """(template with the 1-based row a and column b filled in, entry)
    over the nonzero entries of a residual matrix, row by row."""
    for a, row in enumerate(matrix.rows):
        for b, x in enumerate(row):
            if x:
                yield template.format(a=a + 1, b=b + 1), x


def check_paracomplex(E: PreSymStructure, P: ParaComplexOp):
    """(report, plus bundle, minus bundle); the square-to-identity check
    runs first and gates the rest."""
    rec = CheckReport()
    r = E.rank
    if P.rank != r:
        raise ValueError("operator rank does not match the structure")
    ctx = E.ctx
    eye = ExprMatrix.identity(ctx, r)

    if not rec.scan("para.squares-to-identity", _entry_cases(
            "(P o P - id)[{a}][{b}] = ", P.matrix.matmul(P.matrix).sub(eye))):
        rec.skip("not evaluated: P does not square to the identity",
                 "para.pairing-anti-invariance", "para.integrable",
                 "para.eigen-split", "para.eigen-dirac-plus",
                 "para.eigen-dirac-minus")
        return rec, None, None

    def integrable(formal):
        # (e_a, e_b), and with formal followed by f on slot 1 and on slot 2
        # (the module docstring)
        f = ctx.formal_function()
        frames = [E.frame_section(a) for a in range(r)]
        for a, b in itertools.product(range(r), repeat=2):
            cases = [("", frames[a], frames[b])]
            if formal:
                cases += [("f on slot 1, ", tuple(f * x for x in frames[a]),
                           frames[b]),
                          ("f on slot 2, ", frames[a],
                           tuple(f * x for x in frames[b]))]
            for tag, u, v in cases:
                lhs = P.apply(E.star(u, v))
                rhs1 = E.star(P.apply(u), v)
                rhs2 = E.star(u, P.apply(v))
                rhs3 = P.apply(E.star(P.apply(u), P.apply(v)))
                yield from components(
                    f"({tag}e{a+1}, e{b+1}) ",
                    (lhs[k] - rhs1[k] - rhs2[k] + rhs3[k] for k in range(r)),
                    E.names)

    anti = rec.scan("para.pairing-anti-invariance", _entry_cases(
        "(P e{a}, P e{b}) + (e{a}, e{b}) = ",
        P.matrix.transpose().matmul(E.pairing).matmul(P.matrix)
        .add(E.pairing)))
    try:
        E.inverse_pairing
    except SingularMatrixError:
        # the section product needs D, which inverts the pairing
        degenerate = "not evaluated: pairing is degenerate"
        rec.skip(degenerate, "para.integrable")
    else:
        degenerate = None
        rec.scan("para.integrable", integrable(not anti))

    kernels = []

    def eigen_split():
        # P o P = id holds, so ker(P - 1) + ker(P + 1) is the whole space
        # and two halves of rank r/2 always span rank r
        kernels.extend((expr_kernel_basis(P.matrix.sub(eye)),
                        expr_kernel_basis(P.matrix.add(eye))))
        plus_dim, minus_dim = map(len, kernels)
        if 2 * plus_dim != r or 2 * minus_dim != r:
            yield (f"eigenbundle ranks {plus_dim} and {minus_dim}, "
                   f"need {r // 2} each", True)

    if not rec.scan("para.eigen-split", eigen_split()):
        rec.skip("not evaluated: eigenbundles do not split the structure",
                 "para.eigen-dirac-plus", "para.eigen-dirac-minus")
        return rec, None, None

    plus_vecs, minus_vecs = kernels
    half = r // 2
    plus = Subbundle(plus_vecs, names=[f"p{i+1}" for i in range(half)])
    minus = Subbundle(minus_vecs, names=[f"m{i+1}" for i in range(half)])

    def dirac(bundle):
        for c in check_dirac(E, bundle)[0].failures():
            yield f"{c.check_id}: {c.witness}", True

    if degenerate:
        rec.skip(degenerate, "para.eigen-dirac-plus", "para.eigen-dirac-minus")
    else:
        rec.scan("para.eigen-dirac-plus", dirac(plus))
        rec.scan("para.eigen-dirac-minus", dirac(minus))
    return rec, plus, minus


def metric_from(E: PreSymStructure, P: ParaComplexOp) -> MetricField:
    """g(x, y) = (x, P y), the pairing twisted by the product structure:
    check_metric's metric, or ValueError naming its first failed check."""
    report, metric = check_metric(E, P)
    if metric is None:
        c = report.failures()[0]
        raise ValueError(f"no induced metric: {c.check_id}: {c.witness}")
    return metric


def check_metric(E: PreSymStructure, P: ParaComplexOp):
    """Symmetry, nondegeneracy, anti-invariance, and recovery of the
    pairing; returns the metric when it exists."""
    rec = CheckReport()
    g = E.pairing.matmul(P.matrix)
    metric_holder = []

    def nondegenerate():
        try:
            m = MetricField(E.ctx, g)
            m.inverse
        except SingularMatrixError as exc:
            yield f"determinant {exc.determinant}", True
        else:
            metric_holder.append(m)

    # g - g^T is antisymmetric, so its first nonzero entry lies above
    # the diagonal
    ok = rec.scan("para.metric-symmetric", _entry_cases(
        "g[{a}][{b}] - g[{b}][{a}] = ", g.sub(g.transpose())))
    ok = rec.scan("para.metric-nondegenerate", nondegenerate()) and ok
    rec.scan("para.metric-P-anti", _entry_cases(
        "g(P e{a}, P e{b}) + g(e{a}, e{b}) = ",
        P.matrix.transpose().matmul(g).matmul(P.matrix).add(g)))
    rec.scan("para.form-from-metric", _entry_cases(
        "g(e{a}, P e{b}) - (e{a}, e{b}) = ",
        g.matmul(P.matrix).sub(E.pairing)))
    metric = metric_holder[0] if (ok and metric_holder) else None
    return rec, metric


def levi_civita(L: ChartAlgebroid, g: MetricField) -> ChartAlgebroid:
    """The unique torsion-free metric frame connection on a bracket
    structure, as the product table nabla_{e_a} e_b on its frame, solved
    from the doubled-product expansion (Koszul)."""
    if L.kind != "lie":
        raise ValueError("expects a bracket (kind 'lie') structure")
    if g.rank != L.rank:
        raise ValueError("metric rank mismatch")
    r = L.rank
    half = L.ctx.number(Fraction(1, 2))
    frames = [L.frame_section(a) for a in range(r)]
    ginv = g.inverse
    gamma = []
    for a in range(r):
        row = []
        for b in range(r):
            rhs = []
            for c in range(r):
                acc = L.anchor_apply(frames[a], g.matrix.rows[b][c]) \
                    + L.anchor_apply(frames[b], g.matrix.rows[a][c]) \
                    - L.anchor_apply(frames[c], g.matrix.rows[a][b])
                br_ca = L.table[c][a]
                br_cb = L.table[c][b]
                br_ab = L.table[a][b]
                for k in range(r):
                    if not br_ca[k].is_zero():
                        acc = acc + br_ca[k] * g.matrix.rows[k][b]
                    if not br_cb[k].is_zero():
                        acc = acc + br_cb[k] * g.matrix.rows[k][a]
                    if not br_ab[k].is_zero():
                        acc = acc + br_ab[k] * g.matrix.rows[k][c]
                rhs.append(half * acc)
            row.append(tuple(ginv.mulvec(rhs)))
        gamma.append(tuple(row))
    return ChartAlgebroid(L.ctx, L.names, L.anchor, gamma, kind="lsa")


def _levi_civita_linear(L: ChartAlgebroid, g: MetricField):
    """Metric compatibility plus zero torsion as one sparse linear system
    over all rank^3 coefficients."""
    r = L.rank
    ctx = L.ctx
    z = ctx.zero()
    nvars = r * r * r

    def var(a, b, c):
        return (a * r + b) * r + c

    rows, rhs = [], []
    frames = [L.frame_section(a) for a in range(r)]
    for a in range(r):
        for b in range(r):
            for c in range(r):
                row = [z] * nvars
                for j in range(r):
                    if not g.matrix.rows[j][c].is_zero():
                        row[var(a, b, j)] = row[var(a, b, j)] \
                            + g.matrix.rows[j][c]
                    if not g.matrix.rows[b][j].is_zero():
                        row[var(a, c, j)] = row[var(a, c, j)] \
                            + g.matrix.rows[b][j]
                rows.append(row)
                rhs.append(L.anchor_apply(frames[a], g.matrix.rows[b][c]))
    one = ctx.one()
    for a in range(r):
        for b in range(a + 1, r):
            for c in range(r):
                row = [z] * nvars
                row[var(a, b, c)] = one
                row[var(b, a, c)] = -one
                rows.append(row)
                rhs.append(L.table[a][b][c])
    sol = expr_solve(ExprMatrix(ctx, rows), rhs)
    if sol is None:
        raise ValueError("connection conditions are inconsistent")
    gamma = [[[sol[var(a, b, c)] for c in range(r)] for b in range(r)]
             for a in range(r)]
    return ChartAlgebroid(L.ctx, L.names, L.anchor, gamma, kind="lsa")


def check_levi_civita(L: ChartAlgebroid, g: MetricField):
    """Builds the connection by both routes and verifies the defining
    residuals; returns (report, connection or None)."""
    rec = CheckReport()
    try:
        nabla = levi_civita(L, g)
    except (SingularMatrixError, ValueError) as exc:
        rec.scan("para.levi-civita-agreement", [(str(exc), True)])
        return rec, None
    r = L.rank
    frames = [L.frame_section(a) for a in range(r)]

    def agreement():
        other = _levi_civita_linear(L, g)
        for a, b, c in itertools.product(range(r), repeat=3):
            res = nabla.table[a][b][c] - other.table[a][b][c]
            if res:
                yield (f"coefficient ({a+1},{b+1},{c+1}) differs between "
                       f"solves: ", res)

    def torsion_free():
        for a, b in itertools.combinations(range(r), 2):
            lhs = L.bracket(frames[a], frames[b])
            fwd = nabla.product(frames[a], frames[b])
            bwd = nabla.product(frames[b], frames[a])
            yield from components(
                f"([e{a+1},e{b+1}] - nabla asym) ",
                (lhs[k] - fwd[k] + bwd[k] for k in range(r)), L.names)

    def metric_compat():
        for a, b, c in itertools.product(range(r), repeat=3):
            lhs = L.anchor_apply(frames[a], g.matrix.rows[b][c])
            gb = nabla.product(frames[a], frames[b])
            gc = nabla.product(frames[a], frames[c])
            res = lhs - g.value(gb, frames[c]) - g.value(frames[b], gc)
            if res:
                yield f"rho(e{a+1}) g(e{b+1},e{c+1}) defect: ", res

    rec.scan("para.levi-civita-agreement", agreement())
    rec.scan("para.torsion-free", torsion_free())
    rec.scan("para.metric-compatible", metric_compat())
    return rec, nabla


def check_star_equals_nabla(E: PreSymStructure, P: ParaComplexOp
                            ) -> CheckReport:
    """Metric connection of the commutator structure restricted to each
    eigenbundle agrees with the product; includes the commutation of the
    connection with P and g-isotropy of the eigenbundles.  The full
    product-structure suite of the CLI."""
    rest = ("para.eigen-g-isotropic", "para.nabla-P-commute",
            "para.star-equals-nabla-plus", "para.star-equals-nabla-minus")
    rec, plus, minus = check_paracomplex(E, P)
    if plus is None or minus is None or not rec.passed():
        rec.skip("not evaluated: product structure checks failed", *rest)
        return rec
    metric_report, g = check_metric(E, P)
    rec.extend(metric_report)
    if g is None:
        rec.skip("not evaluated: no induced metric", *rest)
        return rec
    lc_report, nabla = check_levi_civita(E.commutator_algebroid(), g)
    rec.extend(lc_report)
    if nabla is None:
        rec.skip("not evaluated: no metric connection", *rest)
        return rec
    r = E.rank
    frames = [E.frame_section(a) for a in range(r)]

    def nabla_P():
        for a, b in itertools.product(range(r), repeat=2):
            lhs = nabla.product(frames[a], P.apply(frames[b]))
            rhs = P.apply(nabla.product(frames[a], frames[b]))
            yield from components(f"(e{a+1}, e{b+1}) ",
                                  (x - y for x, y in zip(lhs, rhs)), E.names)

    def star_match(secs):
        for i, j in itertools.product(range(len(secs)), repeat=2):
            star = E.star(secs[i], secs[j])
            nab = nabla.product(secs[i], secs[j])
            yield from components(f"sections {i+1},{j+1}: ",
                                  (x - y for x, y in zip(star, nab)),
                                  E.names)

    rec.scan("para.eigen-g-isotropic", (
        (f"{tag} eigenbundle sections {i+1},{j+1}: g = ", res)
        for tag, secs in (("+1", plus.sections), ("-1", minus.sections))
        for i in range(len(secs)) for j in range(i, len(secs))
        if (res := g.value(secs[i], secs[j]))))
    rec.scan("para.nabla-P-commute", nabla_P())
    rec.scan("para.star-equals-nabla-plus", star_match(plus.sections))
    rec.scan("para.star-equals-nabla-minus", star_match(minus.sections))
    return rec
