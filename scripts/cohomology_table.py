#!/usr/bin/env python3
"""Tabulate restricted-cohomology dimensions for the point algebras and
the truncated chart complexes, under both elimination routes."""

import argparse
import sys

from psalib import fixtures
from psalib.exactclass import FlatConnection, truncated_restricted_matrices
from psalib.exprcore import ChartContext
from psalib.lsa import FiniteAlgebra, elimination_ranker, \
    restricted_complex_matrices, restricted_dims

DEGREES = (1, 2, 3)
ELIMINATIONS = ("bareiss", "gauss")
CHART_DIMS = (1, 2)


def ranked(mats):
    """(dims under the first route, whether every route agrees)."""
    dims = [restricted_dims(mats, elimination_ranker(route))
            for route in ELIMINATIONS]
    return dims[0], all(d == dims[0] for d in dims)


def point_rows():
    algebras = [("lsa2", fixtures.lsa2_algebra()),
                ("abelian-2", FiniteAlgebra(2, {}))]
    for label, alg in algebras:
        for degree in DEGREES:
            yield (label, degree,
                   *ranked(restricted_complex_matrices(alg, degree)))


def chart_rows(max_poly_degree: int):
    for n in CHART_DIMS:
        ctx = ChartContext(coords=tuple(f"x{i+1}" for i in range(n)))
        conn = FlatConnection(ctx)
        for degree in DEGREES:
            mats = truncated_restricted_matrices(conn, degree,
                                                 max_poly_degree)
            yield (f"flat-R{n} (<= deg {max_poly_degree})", degree,
                   *ranked(mats))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--truncate", type=int, default=2,
                    help="polynomial degree cap for the chart complexes")
    args = ap.parse_args()
    print(f"{'complex':<22} {'n':>2}  {'ker':>4} {'im':>4} {'h':>4}  routes")
    disagreements = 0
    for label, degree, (ker, im, h), agree in \
            list(point_rows()) + list(chart_rows(args.truncate)):
        note = "agree" if agree else "DISAGREE"
        disagreements += 0 if agree else 1
        print(f"{label:<22} {degree:>2}  {ker:>4} {im:>4} {h:>4}  {note}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
