"""Exact structures over a flat chart connection.

A chart connection is a left-symmetric product on the tangent frame:
FlatConnection is the ChartAlgebroid of kind "lsa" with frame d1..dn, the
identity anchor and the connection coefficients as its table, so its
product is the covariant derivative.

A rank-2n structure is exact over the chart when its anchor is onto the
chart directions, the dual of the anchor fills out the anchor's kernel,
and frame products cover the connection.  An isotropic splitting then
produces a cubic obstruction tensor; the structure is a twist of the
pseudo-semidirect product by that tensor, twists are valid exactly when
the reshuffled tensor is coboundary-closed, and changing the splitting
shifts the reshuffle by the coboundary of a symmetric 2-tensor.
`ChartCochain` and `chart_coboundary` are the one symbolic cochain and
coboundary, on a chart as at a point (over `ChartAlgebroid.point`).  The
coboundary is built on `algebroid.de_rham_d`: for each last slot, the
differential of that slot's form over the commutator structure, minus the
products absorbed into the last slot.  It is coded apart from
`lsa.RestrictedComplex._coboundary_terms`, which `tests/test_complex.py`
compares it with.  The degree-truncated restricted cochain complex at
the end (`TruncatedComplex`, ranked by `lsa.restricted_dims`) makes the
classifying dimensions finitely computable.

The formal slot of exact.anchor-compatible follows from exact.sequence.
With A(u,v) = rho(u*v) - nabla_{rho(u)} rho(v), the section product is
built so that u*(f v) = f u*v + rho(u)(f) v + 1/2 (u,v) Df for a scalar
f; rho(g u) = g rho(u), and nabla_X (f Y) = f nabla_X Y + X(f) Y.  So
A(u, f v) = f A(u,v) + 1/2 (u,v) rho(Df): the two rho(u)(f) rho(v) terms
cancel.  D f is the sum over j of d_j f rho'(dx_j), with rho'(dx_j) the
j-th column of rho_star_matrix, so rho(Df) is the sum of
d_j f rho(rho'(dx_j)); exact.sequence fails on the first nonzero
component of a rho(rho'(dx_j)).  When it passes, each formal case is f
times its frame case, which the scan runs just before it, so the frame
cases decide the verdict and the witness and the formal cases are not
evaluated.  Otherwise they are, in full and in the same order.
"""

import itertools
from fractions import Fraction
from operator import sub

from .algebroid import ChartAlgebroid, FormField, de_rham_d
from .exactlinalg import (ExprMatrix, SingularMatrixError, expr_rank,
                          expr_solve, kernel_basis)
# unused here; perfbench's test_tracer_wraps_every_binding_and_restores_them
from .exactlinalg import rank  # noqa: F401
from .exprcore import ChartContext, DiffExpr, ExprError
from .lsa import RestrictedComplex, cochain_keys, sorted_sign
from .presym import PreSymStructure, pseudo_semidirect
from .report import CheckReport, components

__all__ = [
    "FlatConnection", "Splitting", "PhiTensor", "ChartCochain",
    "chart_coboundary", "rho_star_matrix", "check_exact", "extract_phi",
    "canonical_splitting", "twisted_product", "twist_residual",
    "splitting_equivalence", "TruncatedComplex",
]


class FlatConnection(ChartAlgebroid):
    """A chart connection as the tangent product structure: frame d1..dn
    over the coordinate directions, the identity anchor, and table
    gamma[i][j][k], the d_k component of the derivative of d_j along d_i
    (zero when omitted)."""

    def __init__(self, ctx: ChartContext, gamma=None):
        n = len(ctx.coords)
        if gamma is None:
            gamma = [[[0] * n] * n] * n
        super().__init__(ctx, [f"d{i + 1}" for i in range(n)],
                         [[int(i == j) for j in range(n)] for i in range(n)],
                         gamma, kind="lsa")

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.table for cell in row
                   for x in cell)

    def torsion_residual(self, i: int, j: int):
        return tuple(self.table[i][j][k] - self.table[j][i][k]
                     for k in range(self.rank))

    def curvature_residual(self, i: int, j: int, k: int):
        """Component list of the curvature applied to (d_i, d_j, d_k):
        d_i*(d_j*d_k) - d_j*(d_i*d_k).  Coordinate vector fields commute,
        so there is no bracket term."""
        e, prod = self.frame_section, self.product
        return tuple(map(sub, prod(e(i), prod(e(j), e(k))),
                         prod(e(j), prod(e(i), e(k)))))


class Splitting:
    """Right inverse of the anchor: sigma[i] = frame coefficients of the
    lift of the i-th chart direction."""

    def __init__(self, sigma):
        self.sigma = tuple(tuple(row) for row in sigma)
        if not self.sigma:
            raise ValueError("empty splitting")
        width = len(self.sigma[0])
        if any(len(r) != width for r in self.sigma):
            raise ValueError("ragged splitting rows")


def canonical_splitting(E: PreSymStructure) -> Splitting:
    """The block splitting lifting d_i to the i-th frame element; valid
    when the anchor has the identity-over-zero block shape and the first
    half of the frame is isotropic."""
    n = len(E.ctx.coords)
    if E.rank != 2 * n:
        raise ValueError("rank must be twice the chart dimension")
    for a in range(E.rank):
        for i in range(n):
            want = E.ctx.one() if (a == i) else E.ctx.zero()
            if not (E.anchor[a][i] - want).is_zero():
                raise ValueError(
                    "anchor is not in block shape; provide a splitting")
    for a in range(n):
        for b in range(n):
            if not E.pairing.rows[a][b].is_zero():
                raise ValueError(
                    "canonical block is not isotropic; provide a splitting")
    one, z = E.ctx.one(), E.ctx.zero()
    return Splitting([[one if a == i else z for a in range(2 * n)]
                      for i in range(n)])


def rho_star_matrix(E: PreSymStructure) -> ExprMatrix:
    """Columns: the pairing-dual of each conormal coordinate direction,
    defined by (col_j, e)_- = <dx_j, rho(e)>."""
    n = len(E.ctx.coords)
    cols = []
    for j in range(n):
        rhs = [E.anchor[b][j] for b in range(E.rank)]
        col = E.inverse_pairing.mulvec(rhs)
        cols.append([-x for x in col])
    return ExprMatrix(E.ctx, cols).transpose()


def _sigma_sections(E: PreSymStructure, sigma: Splitting):
    return [tuple(map(E.ctx.number, row)) for row in sigma.sigma]


def check_exact(E: PreSymStructure, conn: FlatConnection, sigma=None
                ) -> CheckReport:
    """Surjective anchor, kernel filled by the anchor's pairing-dual,
    products covering the connection; with a splitting, also the
    obstruction tensor identities and its coboundary closedness.

    The dimension count (rank twice the chart dimension) is part of the
    sequence check, not a precondition: structures of the wrong rank are
    reported as failing exactness rather than rejected.
    """
    n = len(E.ctx.coords)
    if sigma is not None and (
            len(sigma.sigma) != n or
            any(len(row) != E.rank for row in sigma.sigma)):
        raise ValueError("splitting block rank mismatch: need n x rank")
    rec = CheckReport()
    numbers = range(1, n + 1)

    def torsion_free():
        for i, j in itertools.combinations(range(n), 2):
            yield from components(f"gamma({i+1},{j+1}) - gamma({j+1},{i+1}), ",
                                  conn.torsion_residual(i, j), numbers)

    def flat():
        for i, j in itertools.combinations(range(n), 2):
            for k in range(n):
                yield from components(f"curvature(d{i+1},d{j+1})d{k+1}, ",
                                      conn.curvature_residual(i, j, k),
                                      numbers)

    rec.scan("exact.connection-torsion-free", torsion_free())
    rec.scan("exact.connection-flat", flat())
    anchor_m = ExprMatrix(E.ctx, [list(row) for row in E.anchor])

    def surjective():
        got = expr_rank(anchor_m)
        if got != n:
            yield f"anchor rank {got}, need {n}", True

    rec.scan("exact.anchor-surjective", surjective())
    try:
        rs, singular = rho_star_matrix(E), None
    except SingularMatrixError as exc:
        # the dual anchor and the section product both invert the pairing
        rs, singular = None, f"pairing determinant vanishes: {exc.determinant}"

    def sequence():
        if singular:
            yield singular, True
            return
        comp = rs.transpose().matmul(anchor_m)
        for i, j in itertools.product(range(comp.nrows), range(comp.ncols)):
            if x := comp.rows[i][j]:
                yield (f"the conormal image misses the anchor kernel: "
                       f"rho(rho'(dx{i+1})) component {j+1} is ", x)
        got = expr_rank(rs)
        if got != n:
            yield f"dual-anchor rank {got}, need {n}", True
        if E.rank != 2 * n:
            yield (f"rank {E.rank} is not twice the chart dimension {n}; "
                   f"the anchor kernel cannot match the conormal image",
                   True)

    def anchor_compatible(formal):
        # (e_a, e_b), and with formal followed by (e_a, f e_b) (the module
        # docstring)
        f = E.ctx.formal_function()
        frames = [E.frame_section(a) for a in range(E.rank)]
        for a, b in itertools.product(range(E.rank), repeat=2):
            cases = [("", frames[b])]
            if formal:
                cases.append(("f ", tuple(f * c for c in frames[b])))
            for tag, v in cases:
                got = E.anchor_of(E.star(frames[a], v))
                want = conn.product(E.anchor[a], E.anchor_of(v))
                yield from components(f"rho(e{a+1} * {tag}e{b+1}) ",
                                      (x - y for x, y in zip(got, want)),
                                      numbers)

    exact = rec.scan("exact.sequence", sequence())
    if singular:
        rec.skip("not evaluated: pairing is degenerate",
                 "exact.anchor-compatible")
    else:
        rec.scan("exact.anchor-compatible", anchor_compatible(not exact))
    if sigma is None:
        return rec

    secs = _sigma_sections(E, sigma)

    def splitting_section():
        for i in range(n):
            for j, got in enumerate(E.anchor_of(secs[i])):
                if got - int(i == j):
                    yield f"rho(sigma(d{i+1})) component {j+1}: {got}", True

    ok = rec.scan("exact.splitting-section", splitting_section())
    ok = rec.scan("exact.splitting-isotropic", (
        (f"(sigma(d{i+1}), sigma(d{j+1})) = ", res)
        for i in range(n) for j in range(i, n)
        if (res := E.pairing_value(secs[i], secs[j])))) and ok
    if not ok or singular:
        reason = "pairing is degenerate" if ok else "splitting is invalid"
        rec.skip(f"not evaluated: {reason}", "exact.phi-in-image",
                 "exact.phi-13-antisymmetry", "exact.phi-pair-symmetry",
                 "exact.phi-closed")
        return rec

    solved = []

    def phi_in_image():
        comps, missing = _phi_residuals(E, conn, secs, rs)
        solved.append(comps)
        if missing is not None:
            i, j = missing
            yield (f"sigma(d{i+1}) * sigma(d{j+1}) - "
                   f"sigma(nabla) is outside the dual-anchor image", True)

    if not rec.scan("exact.phi-in-image", phi_in_image()):
        rec.skip("not evaluated: no obstruction tensor",
                 "exact.phi-13-antisymmetry", "exact.phi-pair-symmetry",
                 "exact.phi-closed")
        return rec

    comps = solved[0]
    triples = list(itertools.product(range(n), repeat=3))

    def phi_closed():
        res = twist_residual(conn, PhiTensor(E.ctx, comps, validate=False))
        for key in sorted(res.components):
            yield (f"coboundary of the reshuffle, component {key}: ",
                   res.components[key])

    rec.scan("exact.phi-13-antisymmetry", (
        (f"phi({i+1},{j+1},{k+1}) + phi({k+1},{j+1},{i+1}) = ", res)
        for i, j, k in triples
        if (res := comps[i][j][k] + comps[k][j][i])))
    rec.scan("exact.phi-pair-symmetry", (
        (f"phi({i+1},{j+1},{k+1}) - phi({i+1},{k+1},{j+1}) + "
         f"phi({k+1},{i+1},{j+1}) = ", res)
        for i, j, k in triples
        if (res := comps[i][j][k] - comps[i][k][j] + comps[k][i][j])))
    rec.scan("exact.phi-closed", phi_closed())
    return rec


def _phi_residuals(E: PreSymStructure, conn: FlatConnection, secs,
                   rs: ExprMatrix):
    """phi(d_i,d_j) solved from the dual-anchor image rs (rho_star_matrix)
    of the splitting defect; returns (components, first (i,j) outside the
    image or None)."""
    n = conn.rank
    comps = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            w = list(E.star(secs[i], secs[j]))
            for k in range(n):
                g = conn.table[i][j][k]
                if not g.is_zero():
                    for a in range(E.rank):
                        if not secs[k][a].is_zero():
                            w[a] = w[a] - g * secs[k][a]
            sol = expr_solve(rs, w)
            if sol is None:
                return None, (i, j)
            comps[i][j] = tuple(sol)
    return comps, None


def extract_phi(E: PreSymStructure, conn: FlatConnection, sigma: Splitting
                ) -> "PhiTensor":
    secs = _sigma_sections(E, sigma)
    n = conn.rank
    for i in range(n):
        for j, got in enumerate(E.anchor_of(secs[i])):
            if not (got - int(i == j)).is_zero():
                raise ValueError("sigma is not a right inverse of the anchor")
    for i in range(n):
        for j in range(i, n):
            if not E.pairing_value(secs[i], secs[j]).is_zero():
                raise ValueError("sigma is not isotropic")
    comps, missing = _phi_residuals(E, conn, secs, rho_star_matrix(E))
    if missing is not None:
        raise ValueError(
            f"splitting defect at {missing} is outside the dual-anchor image")
    return PhiTensor(E.ctx, comps)


class PhiTensor:
    """Cubic obstruction data phi(d_i, d_j) = sum_k comps[i][j][k] dx_k.

    Construction enforces the outer-slot antisymmetry
    phi(x,y,z) = -phi(z,y,x) and the pair identity
    phi(x,y,z) = phi(x,z,y) - phi(z,x,y); together these make the
    reshuffle phi~(x,y,z) = phi(x,z,y) a cochain with zero cyclic sum.
    """

    def __init__(self, ctx: ChartContext, comps, validate: bool = True):
        self.ctx = ctx
        self.dim = len(comps)
        self.comps = tuple(
            tuple(tuple(map(ctx.number, cell)) for cell in row)
            for row in comps)
        n = self.dim
        if any(len(row) != n or any(len(c) != n for c in row)
               for row in self.comps):
            raise ValueError("components must be n x n x n")
        if not validate:
            return
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    v = self.comps
                    if not (v[i][j][k] + v[k][j][i]).is_zero():
                        raise ValueError(
                            f"outer antisymmetry fails at ({i},{j},{k})")
                    res = v[i][j][k] - v[i][k][j] + v[k][i][j]
                    if not res.is_zero():
                        raise ValueError(
                            f"pair identity fails at ({i},{j},{k})")

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.comps for cell in row
                   for x in cell)

    def tilde(self) -> "ChartCochain":
        """The reshuffle phi~(x,y,z) = phi(x,z,y) as a degree-3 cochain."""
        comps = {}
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    v = self.comps[i][k][j]
                    if not v.is_zero():
                        comps[((i, j), k)] = v
        return ChartCochain(self.ctx, self.dim, 3, comps)


# ---------------------------------------------------------------------------
# chart-level scalar cochains


class ChartCochain:
    """Scalar multilinear data, antisymmetric in all arguments but the
    last; components are chart expressions on canonical keys."""

    def __init__(self, ctx: ChartContext, dim: int, degree: int,
                 components=None):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.ctx = ctx
        self.dim = dim
        self.degree = degree
        comps = {}
        for key, val in (components or {}).items():
            subset, last = key
            subset = tuple(subset)
            if list(subset) != sorted(set(subset)):
                raise ValueError(f"component key {key} is not canonical")
            if len(subset) != degree - 1:
                raise ValueError(f"component key {key} has wrong arity")
            val = ctx.number(val)
            if not val.is_zero():
                comps[(subset, last)] = val
        self.components = comps

    def value_frame(self, idx) -> DiffExpr:
        """Value on frame indices (first degree-1 in any order, last free)."""
        idx = tuple(idx)
        if len(idx) != self.degree:
            raise ValueError("wrong number of arguments")
        subset, sign = sorted_sign(idx[:-1])
        if sign == 0:
            return self.ctx.zero()
        val = self.components.get((subset, idx[-1]))
        if val is None:
            return self.ctx.zero()
        return val if sign > 0 else -val

    def is_zero(self) -> bool:
        return not self.components


def chart_coboundary(alg: ChartAlgebroid, phi: ChartCochain) -> ChartCochain:
    """Degree-raising operator, a coboundary with values in the dual: for
    each last slot y, the differential (`de_rham_d`) of phi(., y) over the
    commutator structure, minus the products absorbed into the last slot,
    sum_t (-1)^t phi(..., x_t * y)."""
    if alg.kind != "lsa":
        raise ValueError("expects a product (kind 'lsa') structure")
    if alg.rank != phi.dim:
        raise ValueError("frame rank mismatch")
    ctx, dim, q = alg.ctx, phi.dim, phi.degree
    comm = alg.commutator_algebroid()
    comps = {}
    for last in range(dim):
        d = de_rham_d(comm, FormField(ctx, dim, q - 1, {
            subset: v for (subset, y), v in phi.components.items()
            if y == last})).components
        for subset in itertools.combinations(range(dim), q):
            acc = d.get(subset, ctx.zero())
            for t, i in enumerate(subset):
                rest = subset[:t] + subset[t + 1:]
                for m, x in alg._table_nz[i][last]:
                    base = phi.value_frame(rest + (m,))
                    if base.num:
                        acc = acc - x * base if t % 2 == 0 else acc + x * base
            comps[(subset, last)] = acc
    return ChartCochain(ctx, dim, q + 1, comps)


def twist_residual(conn: FlatConnection, phi: PhiTensor) -> ChartCochain:
    """Coboundary of the reshuffled tensor over the connection's tangent
    structure; empty exactly when the twist is a valid structure."""
    return chart_coboundary(conn, phi.tilde())


def twisted_product(conn: FlatConnection, phi: PhiTensor) -> PreSymStructure:
    """Pseudo-semidirect product of the connection's tangent structure
    with the dual frame c1..cn, the obstruction components added to the
    conormal block."""
    n = conn.rank
    if phi.dim != n:
        raise ValueError("tensor dimension mismatch")
    base = pseudo_semidirect(
        conn, dual_names=tuple(f"c{i + 1}" for i in range(n)))
    table = [[list(cell) for cell in row] for row in base.table]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = phi.comps[i][j][k]
                if not v.is_zero():
                    table[i][j][n + k] = table[i][j][n + k] + v
    return PreSymStructure(base.ctx, base.names, base.anchor, table,
                           base.pairing)


def splitting_equivalence(E1: PreSymStructure, E2: PreSymStructure, theta
                          ) -> CheckReport:
    """Does x + xi |-> x + theta(x) + xi intertwine the two structures?

    Both inputs must be exact over the same chart with the block frame
    layout (first half covering the chart directions, second half the
    conormal futures); theta is a symmetric n x n coefficient block.
    """
    ctx = E1.ctx
    n = len(ctx.coords)
    if E1.rank != 2 * n or E2.rank != 2 * n:
        raise ValueError("need rank 2n structures")
    th = [list(map(ctx.number, row)) for row in theta]
    if len(th) != n or any(len(r) != n for r in th):
        raise ValueError("theta must be n x n")
    for i in range(n):
        for j in range(i + 1, n):
            if not (th[i][j] - th[j][i]).is_zero():
                raise ValueError("theta must be symmetric")
    rec = CheckReport()

    def image(u):
        """Push a frame-coefficient vector of E1 through the map."""
        out = list(u)
        for i in range(n):
            if not u[i].is_zero():
                for j in range(n):
                    if not th[i][j].is_zero():
                        out[n + j] = out[n + j] + u[i] * th[i][j]
        return tuple(out)

    frames = [E1.frame_section(a) for a in range(2 * n)]
    mapped = [image(f) for f in frames]

    def anchor_ok():
        for a in range(2 * n):
            yield from components(
                f"anchor of image of e{a+1}, ",
                (x - y for x, y in zip(E2.anchor_of(mapped[a]),
                                       E1.anchor[a])), range(1, n + 1))

    def star_ok():
        for a, b in itertools.product(range(2 * n), repeat=2):
            want = image(E1.table[a][b])
            got = E2.star(mapped[a], mapped[b])
            yield from components(
                f"image(e{a+1} * e{b+1}) vs image(e{a+1}) * image(e{b+1}), ",
                (x - y for x, y in zip(got, want)), E2.names)

    rec.scan("equiv.anchor", anchor_ok())
    rec.scan("equiv.pairing", (
        (f"(image e{a+1}, image e{b+1}) - (e{a+1},e{b+1}) = ", res)
        for a, b in itertools.combinations(range(2 * n), 2)
        if (res := E2.pairing_value(mapped[a], mapped[b])
            - E1.pairing.rows[a][b])))
    rec.scan("equiv.star", star_ok())
    return rec


# ---------------------------------------------------------------------------
# degree-truncated restricted cohomology over a coordinate-flat chart


def _monomials_upto(n: int, dmax: int):
    """Exponent tuples of total degree <= dmax, graded then lexicographic."""
    out = []
    for d in range(dmax + 1):
        for combo in itertools.combinations_with_replacement(range(n), d):
            exp = [0] * n
            for i in combo:
                exp[i] += 1
            out.append(tuple(exp))
    return out


def _poly_to_coords(e: DiffExpr, index: dict):
    """Exact coordinates of a polynomial chart expression in the monomial
    basis, ints where integral; raises if a monomial falls outside the
    truncation."""
    try:
        terms, den = e.coordinate_terms()
    except ExprError:
        if not e.is_polynomial():
            raise ValueError(f"non-polynomial coefficient: {e}") from None
        raise ValueError(f"non-coordinate symbol in {e}") from None
    out = {}
    for exp, coeff in terms:
        if exp not in index:
            raise ValueError(f"monomial degree exceeds the truncation: {e}")
        q, r = divmod(coeff, den)
        out[index[exp]] = Fraction(coeff, den) if r else q
    return out


class TruncatedComplex:
    """Restricted cochains over a coordinate-flat chart, coefficients
    polynomial of bounded degree.

    Flat coordinates make the frame products and brackets vanish, so the
    coboundary is pure anchor transport and lowers coefficient degree;
    truncation therefore yields an honest subcomplex.  The sparse matrices
    come from an `lsa.RestrictedComplex` whose coefficient basis is the
    truncated monomials; this class converts its sparse coordinates to
    and from chart cochains.  `lsa.restricted_dims` ranks it.
    """

    def __init__(self, conn: FlatConnection, max_poly_degree: int = 2):
        if not conn.is_zero():
            raise ValueError(
                "degree truncation needs flat coordinates (zero connection "
                "coefficients): products would not preserve the truncation")
        if max_poly_degree < 0:
            raise ValueError("polynomial degree bound must be >= 0")
        self.conn = conn
        self.ctx = conn.ctx
        self.dim = conn.rank
        self.monomials = _monomials_upto(self.dim, max_poly_degree)
        self.mono_index = {m: i for i, m in enumerate(self.monomials)}
        self.complex = RestrictedComplex(self.dim, None, len(self.monomials),
                                         self._frame_action())

    def _frame_action(self):
        """The anchor of each frame element on the coefficient monomials,
        as `RestrictedComplex` takes it: one partial derivative per
        monomial, which lowers its degree and so stays in the span."""
        exprs = [self._mono_expr(mono) for mono in self.monomials]
        action = []
        for a in range(self.dim):
            action.append([
                (col, row, v) for col, e in enumerate(exprs)
                for row, v in _poly_to_coords(self.conn.frame_apply(a, e),
                                              self.mono_index).items()])
        return action

    def space_dim(self, degree: int) -> int:
        return self.complex.space_dim(degree)

    def _mono_expr(self, mono) -> DiffExpr:
        e = self.ctx.one()
        for i, p in enumerate(mono):
            if p:
                e = e * self.ctx.coordinate(self.ctx.coords[i]) ** p
        return e

    def cochain_from_vector(self, degree: int, vec) -> ChartCochain:
        """The chart cochain at sparse full-space coordinates `vec`:
        position key index * number of monomials + monomial index."""
        keys, m = cochain_keys(self.dim, degree), len(self.monomials)
        comps = {}
        for pos, c in sorted(vec.items()):
            key, mono = keys[pos // m], self.monomials[pos % m]
            add = self._mono_expr(mono) * self.ctx.number(c)
            comps[key] = comps.get(key, self.ctx.zero()) + add
        return ChartCochain(self.ctx, self.dim, degree, comps)

    def vector_from_cochain(self, phi: ChartCochain):
        """The sparse full-space coordinates of a polynomial cochain."""
        m = len(self.monomials)
        vec = {}
        for ki, key in enumerate(cochain_keys(self.dim, phi.degree)):
            val = phi.components.get(key)
            if val is None:
                continue
            for col, coeff in _poly_to_coords(val, self.mono_index).items():
                vec[ki * m + col] = coeff
        return vec

    def membership_matrix(self, degree: int):
        """Sparse rows: the linear conditions carving the restricted space.

        Degree 1 wants a symmetric coefficient Jacobian (the anchor form
        of the bracket-compatibility condition with zero brackets),
        degree 2 symmetry, degree 3 zero cyclic sum; higher degrees are
        unrestricted.
        """
        return self.complex.membership_matrix(degree)

    def restricted_basis(self, degree: int):
        return kernel_basis(self.membership_matrix(degree),
                            self.space_dim(degree))

    def coboundary_matrix(self, degree: int, basis_vectors):
        """Sparse columns: the coboundary of each basis cochain."""
        return self.complex.coboundary_matrix(degree, basis_vectors)
