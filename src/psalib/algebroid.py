"""Anchored bundles over one chart: brackets, products, forms.

A ChartAlgebroid stores a frame, an anchor (rows of chart vector-field
components, one per frame element), and a structure table: either a bracket
(kind "lie") or a left-symmetric product (kind "lsa").  Sections are
coefficient tuples over the frame; section-level operations extend the
frame table by the scalar-function rules that the axioms force, and the
check functions verify those axioms with a fresh formal function symbol so
the extension itself is exercised, not assumed.

Jacobi's formal slot follows from two other verdicts of
check_lie_algebroid.  The section bracket is built so that, for a scalar
g, [x, g y] = g [x,y] + rho(x)(g) y and [g x, y] = g [x,y] - rho(y)(g) x;
it is additive in each slot, rho(g x) = g rho(x), and rho(x) is a
derivation.  With J(u,v,w) = [[u,v],w] + [[v,w],u] + [[w,u],v]:
[[u,v], f w] = f [[u,v],w] + rho([u,v])(f) w;
[[v, f w], u] = f [[v,w],u] - rho(u)(f) [v,w] + rho(v)(f) [w,u]
- rho(u)(rho(v)f) w; and
[[f w, u], v] = f [[w,u],v] - rho(v)(f) [w,u] - rho(u)(f) [w,v]
+ rho(v)(rho(u)f) w.  So
J(u,v,f w) = f J(u,v,w) + (rho([u,v]) - [rho(u), rho(v)])(f) w
- rho(u)(f) ([v,w] + [w,v]).
On frames of a skew table (algebroid.bracket-skew) the last term is
zero, and the anomaly is the anchor-morphism residual at (u, v) applied
to f.  When algebroid.anchor-morphism passes too, every formal case is
f times its frame case.  The frame Jacobiator is then totally
antisymmetric: it is cyclic by definition, and [[v,u],w] = -[[u,v],w]
on a skew table.  So the frame triples a < b < c, which the scan runs
first, decide the verdict and the witness, and the formal group is not
evaluated.  Otherwise it is, in full and in the same order.
"""

from __future__ import annotations

import itertools
from operator import add, sub

from .exprcore import ChartContext, DiffExpr, differentiate
from .lsa import FiniteAlgebra, sorted_sign
from .report import CheckReport

__all__ = [
    "ChartAlgebroid",
    "FormField",
    "check_lie_algebroid",
    "check_left_symmetric",
    "check_left_symmetric_algebroid",
    "de_rham_d",
    "check_2cocycle",
]


def nonzero_entries(seq) -> tuple:
    """(index, entry) for each nonzero entry of a sequence of DiffExpr:
    what the section products walk in place of the whole sequence."""
    return tuple((i, x) for i, x in enumerate(seq) if x.num)


class ChartAlgebroid:
    """kind "lie": table[a][b] = coefficients of [e_a, e_b];
    kind "lsa": table[a][b] = coefficients of e_a * e_b."""

    def __init__(self, ctx: ChartContext, names, anchor, table,
                 kind: str = "lie"):
        if kind not in ("lie", "lsa"):
            raise ValueError("kind must be 'lie' or 'lsa'")
        self.ctx = ctx
        self.names = tuple(names)
        self.rank = len(self.names)
        n = len(ctx.coords)
        self.anchor = tuple(
            tuple(self._expr(x) for x in row) for row in anchor)
        if len(self.anchor) != self.rank or any(
                len(r) != n for r in self.anchor):
            raise ValueError("anchor shape must be rank x #coords")
        # (coordinate position, entry) for each nonzero anchor entry, by row
        self._anchor_nz = tuple(nonzero_entries(row) for row in self.anchor)
        self.table = tuple(
            tuple(tuple(self._expr(x) for x in cell) for cell in row)
            for row in table)
        if len(self.table) != self.rank or any(
                len(row) != self.rank or any(len(c) != self.rank
                                             for c in row)
                for row in self.table):
            raise ValueError("table shape must be rank x rank x rank")
        # (k, entry) for each nonzero entry of each table cell
        self._table_nz = tuple(
            tuple(nonzero_entries(cell) for cell in row) for row in self.table)
        self.kind = kind

    def lifted(self, ext: ChartContext) -> "ChartAlgebroid":
        """The same algebroid over a context that extends this one's, its
        anchor and table entries lifted into it (ChartContext.lift)."""
        lift = ext.lift
        return ChartAlgebroid(
            ext, self.names,
            [[lift(x) for x in row] for row in self.anchor],
            [[[lift(x) for x in cell] for cell in row] for row in self.table],
            self.kind)

    def extended(self, stem: str):
        """This algebroid lifted over its context extended by one fresh
        function symbol named after stem, and that symbol."""
        name = self.ctx.fresh_func_name(stem)
        ext = self.ctx.extended((name,))
        return self.lifted(ext), ext.function(name)

    @staticmethod
    def point(alg) -> "ChartAlgebroid":
        """The product structure of a finite algebra on a point chart."""
        d = alg.dim
        table = [[[alg.constants.get((a, b, k), 0) for k in range(d)]
                  for b in range(d)] for a in range(d)]
        return ChartAlgebroid(ChartContext(coords=()), alg.names, [[]] * d,
                              table, kind="lsa")

    def _expr(self, x) -> DiffExpr:
        return x if isinstance(x, DiffExpr) else self.ctx.number(x)

    # -- sections ---------------------------------------------------------

    def frame_section(self, a: int):
        return tuple(self.ctx.one() if i == a else self.ctx.zero()
                     for i in range(self.rank))

    def anchor_of(self, u):
        """Chart vector-field components of the anchor of a section."""
        n = len(self.ctx.coords)
        out = [self.ctx.zero()] * n
        for a, ua in enumerate(u):
            if not ua.num:
                continue
            for i in range(n):
                out[i] = out[i] + ua * self.anchor[a][i]
        return tuple(out)

    def anchor_apply(self, u, f: DiffExpr) -> DiffExpr:
        """Derivation action of the anchor of u on a scalar.

        f is differentiated only by the coordinates that some nonzero u_a
        reaches through a nonzero anchor entry, each at most once per call;
        a frame section of a flat chart needs one partial, not all of them.
        """
        out = self.ctx.zero()
        if f.is_constant():
            return out
        coords = self.ctx.coords
        partials = {}
        for a, ua in enumerate(u):
            if not ua.num:
                continue
            for i, rho in self._anchor_nz[a]:
                df = partials.get(i)
                if df is None:
                    df = partials[i] = differentiate(f, coords[i])
                if df.num:
                    out = out + ua * rho * df
        return out

    def frame_apply(self, a: int, f: DiffExpr) -> DiffExpr:
        """rho(e_a)(f): anchor_apply on the frame section e_a, without
        multiplying by its unit coefficient."""
        out = self.ctx.zero()
        if f.is_constant():
            return out
        coords = self.ctx.coords
        for i, rho in self._anchor_nz[a]:
            df = differentiate(f, coords[i])
            if df.num:
                out = out + rho * df
        return out

    def frame_derivatives(self, f: DiffExpr):
        """rho(e_a)(f) for every frame e_a, each partial of f taken once:
        frame_apply on each frame would take it again for every anchor row
        that reaches its coordinate."""
        zero = self.ctx.zero()
        if f.is_constant():
            return (zero,) * self.rank
        coords = self.ctx.coords
        partials = {}
        for row in self._anchor_nz:
            for i, _ in row:
                if i not in partials:
                    partials[i] = differentiate(f, coords[i])
        return tuple(sum((rho * partials[i] for i, rho in row
                          if partials[i].num), zero)
                     for row in self._anchor_nz)

    def _walk(self, u, v):
        """The frame table on (u, v) plus the derivation on the right slot:
        the product of a product structure, and the bracket of a bracket
        structure less its left-slot term."""
        out = [self.ctx.zero()] * self.rank
        for a, ua in enumerate(u):
            if not ua.num:
                continue
            cells = self._table_nz[a]
            for b, vb in enumerate(v):
                if not vb.num:
                    continue
                for k, x in cells[b]:
                    out[k] = out[k] + ua * vb * x
        for b, vb in enumerate(v):
            if not vb.is_constant():
                out[b] = out[b] + self.anchor_apply(u, vb)
        return out

    def bracket(self, u, v):
        """Section bracket: frame table + Leibniz terms on both slots."""
        if self.kind != "lie":
            raise ValueError("not a bracket structure")
        out = self._walk(u, v)
        for a, ua in enumerate(u):
            if not ua.is_constant():
                out[a] = out[a] - self.anchor_apply(v, ua)
        return tuple(out)

    def product(self, u, v):
        """Section product: frame table + derivation on the right slot only
        (the left slot is scalar-linear)."""
        if self.kind != "lsa":
            raise ValueError("not a product structure")
        return tuple(self._walk(u, v))

    def commutator_algebroid(self) -> "ChartAlgebroid":
        """The bracket structure x*y - y*x of a product structure."""
        if self.kind != "lsa":
            raise ValueError("already a bracket structure")
        table = [[tuple(self.table[a][b][k] - self.table[b][a][k]
                        for k in range(self.rank))
                  for b in range(self.rank)] for a in range(self.rank)]
        return ChartAlgebroid(self.ctx, self.names, self.anchor, table,
                              kind="lie")


def scalar_rule(op, act, table, f, frames, slots, correction):
    """(a, b, residual list) of the scalar extension rule of the section
    operation op for each pair of frame indices, a outer and b inner;
    slots[b] is f e_b for the formal function f.  Given the anchor action
    act, f is in the right slot and the residual is
    op(e_a, f e_b) - f table[a][b] - act(e_a, f) e_b, with act(e_a, f)
    evaluated once per a; with act None it is op(f e_a, e_b)
    - f table[a][b].  A correction(a, b) that is not None is a section
    the rule adds to f table[a][b]."""
    for a, e_a in enumerate(frames):
        da = None if act is None else act(e_a, f)
        for b, e_b in enumerate(frames):
            got = op(slots[a], e_b) if da is None else op(e_a, slots[b])
            want = [f * x for x in table[a][b]]
            if da is not None:
                want[b] = want[b] + da
            extra = None if correction is None else correction(a, b)
            if extra is not None:
                want = map(add, want, extra)
            yield a, b, list(map(sub, got, want))


def product_associator(prod, x, y, z):
    """x*(y*z) - (x*y)*z for the section product prod."""
    return tuple(map(sub, prod(x, prod(y, z)), prod(prod(x, y), z)))


def left_symmetry_residual(prod, x, y, z):
    """(x,y,z) - (y,x,z) for the associator of the section product prod:
    zero on a left-symmetric product."""
    return tuple(map(sub, product_associator(prod, x, y, z),
                     product_associator(prod, y, x, z)))


def check_lie_algebroid(alg: ChartAlgebroid) -> CheckReport:
    """Skewness and Jacobi on frame triples, the scalar Leibniz rule and
    Jacobi with a formal function slot, and the anchor acting as a bracket
    morphism to chart vector fields.  Jacobi's formal slot is evaluated
    only when the table is not skew or the anchor is not a bracket
    morphism (the module docstring)."""
    rec = CheckReport()
    if alg.kind != "lie":
        raise ValueError("check_lie_algebroid needs a bracket structure")
    r, names = alg.rank, alg.names
    lifted, f = alg.extended("f")
    frames = [lifted.frame_section(a) for a in range(r)]
    slots = [tuple(f * x for x in e) for e in frames]

    def jacobi(formal):
        # the frames, then the formal slots f e_c, by position; each inner
        # bracket [secs[i], secs[j]] is evaluated once, so the memo holds
        # at most 3 r^2 sections: [e_a,e_b], [e_b,f e_c] and [f e_c,e_a]
        secs = frames + slots
        inner = {}

        def outer(i, j, k):
            """[[secs[i], secs[j]], secs[k]]"""
            b = inner.get((i, j))
            if b is None:
                b = inner[(i, j)] = lifted.bracket(secs[i], secs[j])
            return lifted.bracket(b, secs[k])

        def residual(i, j, k):
            s = tuple(map(add, outer(i, j, k), outer(j, k, i)))
            return tuple(map(add, s, outer(k, i, j)))

        for a, b, c in itertools.combinations(range(r), 3):
            res = residual(a, b, c)
            if any(res):
                yield (f"({names[a]},{names[b]},{names[c]}): residual = ",
                       res)
        if not formal:
            return
        # one formal scalar slot: J(u, v, f w) - f J(u, v, w) is
        # (rho([u,v]) - [rho(u), rho(v)])(f) w - rho(u)(f) ([v,w] + [w,v])
        for a, b, c in itertools.product(range(r), repeat=3):
            res = residual(a, b, r + c)
            if any(res):
                yield (f"({names[a]},{names[b]},f*{names[c]}): residual = ",
                       res)

    def anchor_morphism():
        # the bracket of chart vector fields is that of the coordinate
        # frame (exactclass imports this module, so it is imported here)
        from .exactclass import FlatConnection
        fields = FlatConnection(alg.ctx).commutator_algebroid()
        for a, b in itertools.product(range(r), repeat=2):
            lhs = alg.anchor_of(alg.table[a][b])
            rhs = fields.bracket(alg.anchor[a], alg.anchor[b])
            res = tuple(map(sub, lhs, rhs))
            if any(res):
                yield (f"rho[{names[a]},{names[b]}] - "
                       f"[rho {names[a]}, rho {names[b]}] = ", res)

    skew = rec.scan("algebroid.bracket-skew", (
        (f"[{names[a]},{names[b]}] + [{names[b]},{names[a]}] = ", res)
        for a in range(r) for b in range(a, r)
        if any(res := tuple(map(add, alg.table[a][b], alg.table[b][a])))),
        names)
    # anchor-morphism gates Jacobi's formal slot, so it is decided first;
    # the report lists it after leibniz
    morphism = CheckReport()
    morphic = morphism.scan("algebroid.anchor-morphism", anchor_morphism(),
                            alg.ctx.coords)
    rec.scan("algebroid.jacobi", jacobi(not (skew and morphic)), names)
    rec.scan("algebroid.leibniz", (
        (f"[{names[a]}, f*{names[b]}]: residual = ", tuple(res))
        for a, b, res in scalar_rule(lifted.bracket, lifted.anchor_apply,
                                     lifted.table, f, frames, slots, None)
        if any(res)), names)
    rec.extend(morphism)
    return rec


def check_left_symmetric(alg: FiniteAlgebra) -> CheckReport:
    """A finite algebra on its point chart:
    associator symmetry in the first two slots, plus the Jacobi identity
    of the commutator (which left-symmetry implies; checked
    independently).  Every residual is a constant, so each component is
    reported as its exact rational."""
    rec = CheckReport()
    point = ChartAlgebroid.point(alg)
    prod, br = point.product, point.commutator_algebroid().bracket
    d, names = point.rank, point.names
    e = [point.frame_section(a) for a in range(d)]

    def constants(vec):
        return tuple(x.constant_value() for x in vec)

    def assoc_sym():
        for a, b, c in itertools.product(range(d), repeat=3):
            res = constants(left_symmetry_residual(prod, e[a], e[b], e[c]))
            if any(res):
                yield (f"({names[a]},{names[b]},{names[c]}): residual = ",
                       res)

    def jacobi():
        for a, b, c in itertools.combinations(range(d), 3):
            s = map(add, br(br(e[a], e[b]), e[c]), br(br(e[b], e[c]), e[a]))
            res = constants(map(add, s, br(br(e[c], e[a]), e[b])))
            if any(res):
                yield (f"({names[a]},{names[b]},{names[c]}): residual = ",
                       res)

    rec.scan("lsa.left-symmetric", assoc_sym(), names)
    rec.scan("lsa.subadjacent-jacobi", jacobi(), names)
    return rec


def check_left_symmetric_algebroid(alg: ChartAlgebroid) -> CheckReport:
    """The two scalar rules of a left-symmetric product over a chart and
    associator symmetry on frame triples with a formal function slot."""
    rec = CheckReport()
    if alg.kind != "lsa":
        raise ValueError("needs a product structure")
    r, names = alg.rank, alg.names
    lifted, f = alg.extended("f")
    prod = lifted.product
    frames = [lifted.frame_section(a) for a in range(r)]
    slots = [tuple(f * x for x in e) for e in frames]

    def left_symmetric():
        for a, b, c in itertools.product(range(r), repeat=3):
            for z, tag in ((frames[c], ""),
                           (slots[c], " (formal scalar on the third slot)")):
                res = left_symmetry_residual(prod, frames[a], frames[b], z)
                if any(res):
                    yield (f"({names[a]},{names[b]},{names[c]}){tag}: "
                           f"residual = ", res)

    for side, act, label in (("left", lifted.anchor_apply, "{} * f*{}"),
                             ("right", None, "f*{} * {}")):
        rec.scan(f"algebroid.lsa.scalar-{side}", (
            (label.format(names[a], names[b]) + ": residual = ", tuple(res))
            for a, b, res in scalar_rule(prod, act, lifted.table, f, frames,
                                         slots, None) if any(res)), names)
    rec.scan("algebroid.lsa.left-symmetric", left_symmetric(), names)
    return rec


class FormField:
    """An alternating k-slot field over the frame, components on strictly
    increasing index tuples."""

    def __init__(self, ctx: ChartContext, rank: int, degree: int,
                 components=None):
        self.ctx = ctx
        self.rank = rank
        self.degree = degree
        comp = {}
        for key, v in (components or {}).items():
            key = tuple(key)
            if len(key) != degree or list(key) != sorted(set(key)):
                raise ValueError(f"non-canonical form key {key}")
            v = v if isinstance(v, DiffExpr) else ctx.number(v)
            if not v.is_zero():
                comp[key] = v
        self.components = comp

    def value_frame(self, idx) -> DiffExpr:
        if len(idx) != self.degree:
            raise ValueError("wrong slot count")
        key, sign = sorted_sign(idx)
        if not sign:
            return self.ctx.zero()
        got = self.components.get(key)
        if got is None:
            return self.ctx.zero()
        return got if sign == 1 else -got


def de_rham_d(alg: ChartAlgebroid, form: FormField) -> FormField:
    """Chart-level differential: anchor terms on omitted slots plus bracket
    contractions, on the bracket structure of the algebroid."""
    if alg.kind != "lie":
        alg = alg.commutator_algebroid()
    k = form.degree
    comp = {}
    for key in itertools.combinations(range(alg.rank), k + 1):
        total = alg.ctx.zero()
        for i in range(k + 1):
            rest = key[:i] + key[i + 1:]
            base = form.value_frame(rest)
            if not base.is_zero():
                term = alg.frame_apply(key[i], base)
                total = total + (term if i % 2 == 0 else -term)
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                cell = alg.table[key[i]][key[j]]
                rest = tuple(key[t] for t in range(k + 1)
                             if t != i and t != j)
                sign = 1 if (i + j) % 2 == 0 else -1  # (-1)^(i+1 + j+1)
                for m in range(alg.rank):
                    if cell[m].is_zero():
                        continue
                    base = form.value_frame((m,) + rest)
                    if not base.is_zero():
                        total = total + sign * cell[m] * base
        if not total.is_zero():
            comp[key] = total
    return FormField(alg.ctx, alg.rank, k + 1, comp)


def check_2cocycle(alg: ChartAlgebroid, form: FormField) -> CheckReport:
    rec = CheckReport()
    r = alg.rank

    rec.scan("form.skew", (
        (f"w({alg.names[a]},{alg.names[b]}) + w({alg.names[b]},"
         f"{alg.names[a]}) = ", res)
        for a in range(r) for b in range(a, r)
        if (res := form.value_frame((a, b)) + form.value_frame((b, a)))))

    def closed():
        for key, v in de_rham_d(alg, form).components.items():
            yield f"({','.join(alg.names[i] for i in key)}): residual = ", v

    rec.scan("form.closed", closed())
    return rec

