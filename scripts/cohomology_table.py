#!/usr/bin/env python3
"""Tabulate restricted-cohomology dimensions for the point algebras and
the truncated chart complexes, under both elimination routes."""

import argparse
import sys
from pathlib import Path

# run from a source checkout: the package is src/psalib, not installed
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from psalib import fixtures
from psalib.exactclass import FlatConnection, TruncatedComplex
from psalib.exprcore import ChartContext
from psalib.lsa import FiniteAlgebra, RestrictedComplex, restricted_dims

DEGREES = (1, 2, 3)
CHART_DIMS = (1, 2)


def rows(label, cx):
    """(label, degree, Bareiss dims, whether Gauss agrees) per degree."""
    for degree in DEGREES:
        dims = restricted_dims(cx, degree)
        yield label, degree, dims["bareiss"], \
            dims["bareiss"] == dims["gauss"]


def point_rows():
    for label, alg in (("lsa2", fixtures.lsa2_algebra()),
                       ("abelian-2", FiniteAlgebra(2, {}))):
        yield from rows(label, RestrictedComplex.point(alg))


def chart_rows(max_poly_degree: int):
    for n in CHART_DIMS:
        ctx = ChartContext(coords=tuple(f"x{i+1}" for i in range(n)))
        cx = TruncatedComplex(FlatConnection(ctx), max_poly_degree)
        yield from rows(f"flat-R{n} (<= deg {max_poly_degree})", cx)


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
