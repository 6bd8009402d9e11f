"""Source-of-truth registry of check anchors.

Each check id maps to the identity it verifies, written out as the formula
or property itself so a failing report line is self-explanatory.  Notation
in the strings: * is the product, [ , ] the bracket, ( , ) the skew pairing,
rho the anchor, D the pairing-gradient operator, P the product structure
operator, g the induced metric, nabla the connection, delta the cochain
coboundary.
"""

from __future__ import annotations

ANCHORS: dict[str, str] = {
    # finite-dimensional algebras at a point
    "lsa.left-symmetric":
        "(x,y,z) = (y,x,z) where (x,y,z) = x*(y*z) - (x*y)*z",
    "lsa.subadjacent-jacobi":
        "[x,y] = x*y - y*x satisfies the Jacobi identity",

    # anchored bundles over a chart
    "algebroid.bracket-skew": "[x,y] = -[y,x]",
    "algebroid.jacobi":
        "[[x,y],z] + [[y,z],x] + [[z,x],y] = 0 on frame triples and with one "
        "scalar-function slot",
    "algebroid.leibniz": "[x, f y] = f [x,y] + rho(x)(f) y",
    "algebroid.anchor-morphism":
        "rho([x,y]) = [rho(x), rho(y)] as derivations of chart functions",
    "algebroid.lsa.scalar-left": "x * (f y) = f (x*y) + rho(x)(f) y",
    "algebroid.lsa.scalar-right": "(f x) * y = f (x*y)",
    "algebroid.lsa.left-symmetric":
        "(x,y,z) = (y,x,z) on frame triples and with one scalar-function slot",
    "form.skew": "w(x,y) = -w(y,x)",
    "form.closed":
        "rho(x)w(y,z) - rho(y)w(x,z) + rho(z)w(x,y) - w([x,y],z) + "
        "w([x,z],y) - w([y,z],x) = 0",

    # skew-paired products
    "presym.pairing-skew": "(x,y) = -(y,x)",
    "presym.pairing-nondegenerate": "the pairing matrix is invertible",
    "presym.def-i":
        "(e1,e2,e3) - (e2,e1,e3) = 1/6 D T(e1,e2,e3), associator of *",
    "presym.def-ii":
        "rho(e1)(e2,e3) = (e1*e2 - 1/2 D(e1,e2), e3) + (e2, [e1,e3])",
    "presym.scalar-left":
        "e1 * (f e2) = f (e1*e2) + rho(e1)(f) e2 + 1/2 (e1,e2) D f",
    "presym.scalar-right":
        "(f e1) * e2 = f (e1*e2) - 1/2 (e1,e2) D f",
    "presym.bracket-leibniz": "[e1, f e2] = f [e1,e2] + rho(e1)(f) e2",
    "presym.cyclic-T": "T(e1,e2,e3) + T(e2,e3,e1) + T(e3,e1,e2) = 0",
    "presym.D-reproducing": "(D f, e) = rho(e)(f)",
    "presym.star-with-D": "e * D f = 1/2 D (D f, e)",

    # closed subbundles
    "dirac.half-rank": "the subbundle has rank exactly half the total rank",
    "dirac.isotropic": "(u,v) = 0 for all spanning sections u, v",
    "dirac.closed": "u*v stays in the span of the subbundle's sections",
    "dirac.induced-left-symmetric":
        "the restricted product is a left-symmetric algebroid product",

    # exact structures over a tangent chart
    "exact.anchor-surjective": "rho has full rank onto chart vector fields",
    "exact.sequence": "rho o rho* = 0 and rank rho* complements rank rho",
    "exact.anchor-compatible": "rho(e1*e2) = nabla_rho(e1) rho(e2)",
    "exact.connection-torsion-free": "nabla_x y - nabla_y x = [x,y]",
    "exact.connection-flat": "nabla_x nabla_y z - nabla_y nabla_x z = "
        "nabla_[x,y] z",
    "exact.splitting-section": "rho o sigma = id on chart vector fields",
    "exact.splitting-isotropic": "(sigma x, sigma y) = 0",
    "exact.phi-in-image": "sigma(x)*sigma(y) - sigma(nabla_x y) lies in the "
        "image of rho*",
    "exact.phi-pair-symmetry": "phi(x,y,z) = phi(x,z,y) - phi(z,x,y)",
    "exact.phi-13-antisymmetry": "phi(x,y,z) = -phi(z,y,x)",
    "exact.phi-closed": "delta phi~ = 0 for the reshuffled tensor "
        "phi~(x,y,z) = phi(x,z,y)",
    "equiv.star": "the shear by theta intertwines the two products",
    "equiv.anchor": "the shear by theta intertwines the two anchors",
    "equiv.pairing": "the shear by theta preserves the pairing",

    # product structures and metrics
    "para.squares-to-identity": "P o P = id",
    "para.pairing-anti-invariance": "(P x, P y) = -(x, y)",
    "para.integrable":
        "P(x*y) = P(x)*y + x*P(y) - P(P(x)*P(y))",
    "para.eigen-split": "the +1 and -1 eigenbundles of P span the whole "
        "bundle with complementary ranks",
    "para.eigen-dirac-plus": "the +1 eigenbundle is a Dirac structure: "
        "half rank, isotropic, closed under the product, induced algebra "
        "left-symmetric",
    "para.eigen-dirac-minus": "the -1 eigenbundle is a Dirac structure: "
        "half rank, isotropic, closed under the product, induced algebra "
        "left-symmetric",
    "para.eigen-g-isotropic": "g(x,y) = 0 for x,y in the same eigenbundle",
    "para.metric-symmetric": "g(x,y) = g(y,x) for g(x,y) = w(x, P y)",
    "para.metric-nondegenerate": "the metric matrix is invertible",
    "para.metric-P-anti": "g(P x, P y) = -g(x, y)",
    "para.metric-compatible":
        "rho(x) g(y,z) = g(nabla_x y, z) + g(y, nabla_x z)",
    "para.torsion-free": "[x,y] = nabla_x y - nabla_y x",
    "para.levi-civita-agreement":
        "the 2 g(nabla_x y, z) expansion and the direct linear solve of the "
        "two connection conditions give the same connection",
    "para.nabla-P-commute": "nabla_x (P y) = P(nabla_x y)",
    "para.form-from-metric": "w(x,y) = g(x, P y) recovers the pairing",
    "para.star-equals-nabla-plus":
        "x*y = nabla_x y for sections of the +1 eigenbundle",
    "para.star-equals-nabla-minus":
        "x*y = nabla_x y for sections of the -1 eigenbundle",
}


def anchor_for(check_id: str) -> str:
    try:
        return ANCHORS[check_id]
    except KeyError:
        raise KeyError(f"check id not registered: {check_id}") from None
