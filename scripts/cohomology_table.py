#!/usr/bin/env python3
"""Tabulate restricted-cohomology dimensions for the point algebras and
the truncated chart complexes, under both elimination routes."""

import argparse
import sys
from dataclasses import dataclass, field

from psalib import fixtures
from psalib.exactclass import FlatConnection, truncated_restricted_matrices
from psalib.exprcore import ChartContext
from psalib.lsa import FiniteAlgebra, elimination_ranker, \
    restricted_complex_matrices, restricted_dims


@dataclass
class Config:
    degrees: tuple = (1, 2, 3)
    eliminations: tuple = ("bareiss", "gauss")
    max_poly_degree: int = 2
    chart_dims: tuple = (1, 2)


def point_rows(cfg: Config):
    algebras = [("lsa2", fixtures.lsa2_algebra()),
                ("abelian-2", FiniteAlgebra(2, {}))]
    for label, alg in algebras:
        for degree in cfg.degrees:
            mats = restricted_complex_matrices(alg, degree)
            dims = [restricted_dims(mats, elimination_ranker(route))
                    for route in cfg.eliminations]
            agree = all(d == dims[0] for d in dims)
            yield label, degree, dims[0], agree


def chart_rows(cfg: Config):
    for n in cfg.chart_dims:
        ctx = ChartContext(coords=tuple(f"x{i+1}" for i in range(n)))
        conn = FlatConnection(ctx)
        for degree in cfg.degrees:
            mats = truncated_restricted_matrices(conn, degree,
                                                 cfg.max_poly_degree)
            dims = [restricted_dims(mats, elimination_ranker(route))
                    for route in cfg.eliminations]
            agree = all(d == dims[0] for d in dims)
            yield f"flat-R{n} (<= deg {cfg.max_poly_degree})", degree, \
                dims[0], agree


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--truncate", type=int, default=2,
                    help="polynomial degree cap for the chart complexes")
    args = ap.parse_args()
    cfg = Config(max_poly_degree=args.truncate)
    print(f"{'complex':<22} {'n':>2}  {'ker':>4} {'im':>4} {'h':>4}  routes")
    disagreements = 0
    for label, degree, (ker, im, h), agree in \
            list(point_rows(cfg)) + list(chart_rows(cfg)):
        note = "agree" if agree else "DISAGREE"
        disagreements += 0 if agree else 1
        print(f"{label:<22} {degree:>2}  {ker:>4} {im:>4} {h:>4}  {note}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
