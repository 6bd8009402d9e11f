"""Built-in example structures, one table entry per registry name.

`build` returns a Bundle ready for the checking pipelines and for
definition-file emission.  These are the worked structures the test
suite pins down entry by entry.
"""

from .algebroid import ChartAlgebroid, FormField
from .exactclass import FlatConnection, PhiTensor
from .exprcore import ChartContext
from .lsa import FiniteAlgebra
from .parakahler import ParaComplexOp
from .presym import PreSymStructure, pseudo_semidirect
from .psafile import Bundle

__all__ = ["REGISTRY_NAMES", "build", "r2n_structure", "sphere_structure",
           "lsa2_algebra", "lsa2_semidirect", "twist_r2_data"]


def r2n_structure(n: int = 1) -> PreSymStructure:
    """Tangent frame of a flat 2n-dim chart, zero products, pairing
    sum_i dx_i ^ dx_{n+i}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    d = 2 * n
    ctx = ChartContext(coords=tuple(f"x{i+1}" for i in range(d)))
    z, one = ctx.zero(), ctx.one()
    anchor = [[one if i == j else z for j in range(d)] for i in range(d)]
    table = [[[z] * d for _ in range(d)] for _ in range(d)]
    pairing = [[z] * d for _ in range(d)]
    for i in range(n):
        pairing[i][n + i] = one
        pairing[n + i][i] = -one
    return PreSymStructure(ctx, tuple(f"d{i+1}" for i in range(d)),
                           anchor, table, pairing)


def sphere_structure() -> PreSymStructure:
    """Unit-sphere leaf chart: two tangent frames with the area pairing y
    and the quadratic-cone products."""
    ctx = ChartContext(coords=("x", "y", "z"))
    e = ctx.expr
    z2 = (ctx.zero(), ctx.zero())
    table = [[z2, (e("-z/(2*y)"), e("-x/(2*y)"))],
             [(e("z/(2*y)"), e("x/(2*y)")), z2]]
    anchor = [[e("y"), e("-x"), e("0")], [e("0"), e("z"), e("-y")]]
    return PreSymStructure(ctx, ("e1", "e2"), anchor, table,
                           [[ctx.zero(), e("y")], [e("-y"), ctx.zero()]])


def prolongation_so3_data():
    """Rank-6 bracket structure over the dual chart of the rotation
    algebra, with its canonical nondegenerate closed 2-form."""
    ctx = ChartContext(coords=("y1", "y2", "y3"))
    z, one = ctx.zero(), ctx.one()
    names = ("t1", "t2", "t3", "b1", "b2", "b3")
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
    z6 = (z,) * 6

    def t_cell(a, b):
        out = [z] * 6
        for c in range(3):
            s = eps.get((a, b, c))
            if s:
                out[c] = ctx.number(s)
        return tuple(out)

    table = [[z6] * 6 for _ in range(6)]
    for a in range(3):
        for b in range(3):
            table[a][b] = t_cell(a, b)
    anchor = [[z, z, z]] * 3 + [[one, z, z], [z, one, z], [z, z, one]]
    lie = ChartAlgebroid(ctx, names, anchor, table, kind="lie")
    comps = {(0, 1): ctx.expr("y3"), (0, 2): ctx.expr("-y2"),
             (1, 2): ctx.expr("y1"),
             (0, 3): one, (1, 4): one, (2, 5): one}
    return lie, FormField(ctx, 6, 2, comps)


def bisection_data():
    """Cotangent bracket structure of the bivector (1+x^2) dx^dy with the
    matching symplectic form."""
    ctx = ChartContext(coords=("x", "y"))
    e = ctx.expr
    z2 = (ctx.zero(), ctx.zero())
    table = [[z2, (e("2*x"), ctx.zero())], [(e("-2*x"), ctx.zero()), z2]]
    anchor = [[ctx.zero(), e("1 + x^2")], [e("-(1 + x^2)"), ctx.zero()]]
    lie = ChartAlgebroid(ctx, ("e1", "e2"), anchor, table, kind="lie")
    return lie, FormField(ctx, 2, 2, {(0, 1): e("1 + x^2")})


def lsa2_algebra() -> FiniteAlgebra:
    """Two-dim left-symmetric point algebra with e1*e2 = e2."""
    return FiniteAlgebra(2, {(0, 1, 1): 1}, names=("e1", "e2"))


def lsa2_chart_algebroid() -> ChartAlgebroid:
    return ChartAlgebroid.point(lsa2_algebra())


def lsa2_semidirect() -> PreSymStructure:
    return pseudo_semidirect(lsa2_chart_algebroid())


def parakahler_lsa2_data():
    E = lsa2_semidirect()
    ctx = E.ctx
    one, z = ctx.one(), ctx.zero()
    rows = [[one, z, z, z], [z, one, z, z],
            [z, z, -one, z], [z, z, z, -one]]
    return E, ParaComplexOp(ctx, rows)


def twist_r2_data():
    """Flat two-dim chart with one formal function; the obstruction
    tensor is the reshuffled coboundary of f dx(x)dx."""
    ctx = ChartContext(coords=("x", "y"), funcs=("f",))
    z = ctx.zero()
    fy = ctx.expr("d(f,y)")
    conn = FlatConnection(ctx)
    comps = [[[z, z], [z, z]], [[z, z], [z, z]]]
    comps[0][0] = [z, -fy]
    comps[1][0] = [fy, z]
    return conn, PhiTensor(ctx, comps)


# name -> (description, a function that builds the Bundle fields)
_TABLE = {
    "r2n": ("flat 2n-dim chart, zero products, standard pairing (n = 1)",
            lambda: {"structure": r2n_structure(1)}),
    "sphere": ("unit-sphere leaf chart with the area pairing",
               lambda: {"structure": sphere_structure()}),
    "prolongation-so3": (
        "rank-6 bracket structure over the rotation coadjoint chart with "
        "its canonical 2-form",
        lambda: dict(zip(("algebroid", "form"), prolongation_so3_data()))),
    "bisection": ("cotangent bracket structure of the bivector (1+x^2) "
                  "dx^dy",
                  lambda: dict(zip(("algebroid", "form"), bisection_data()))),
    "lsa2": ("two-dim left-symmetric point algebra e1*e2 = e2",
             lambda: {"algebra": lsa2_algebra()}),
    "semidirect-lsa2": ("doubled structure of the lsa2 point algebra with "
                        "its dual frame",
                        lambda: {"structure": lsa2_semidirect()}),
    "parakahler-lsa2": (
        "doubled lsa2 structure with the block reflection product operator",
        lambda: dict(zip(("structure", "paracomplex"),
                         parakahler_lsa2_data()))),
    "twist-r2": ("flat two-dim chart twisted by a closed obstruction tensor "
                 "built from a formal function",
                 lambda: dict(zip(("connection", "phi"), twist_r2_data()))),
}

REGISTRY_NAMES = tuple(_TABLE)


def build(name: str) -> Bundle:
    try:
        description, fields = _TABLE[name]
    except KeyError:
        raise ValueError(f"unknown fixture '{name}'; known: "
                         f"{', '.join(REGISTRY_NAMES)}") from None
    return Bundle(name=name, description=description, **fields())
