"""Command line front end.

Subcommands:
  check       run verification suites on a definition file
  derive      produce one structure from another and emit its file
  cohomology  restricted cohomology dimensions with two eliminations
  examples    list or emit the built-in structures

Exit codes: 0 all checks pass, 1 a check failed or the eliminations
disagree, 2 input or usage error.
"""

import argparse
import contextlib
import sys

from .algebroid import ChartAlgebroid, check_2cocycle, check_lie_algebroid, \
    check_left_symmetric_algebroid
from .exactclass import TruncatedComplex, canonical_splitting, \
    check_exact, twisted_product
from .exprcore import ExprError
from .lsa import RestrictedComplex, check_left_symmetric, restricted_dims
from .parakahler import check_star_equals_nabla
from .presym import check_presymplectic, presym_from_symplectic, \
    pseudo_semidirect, symplectic_from_presym
from .psafile import Bundle, PsaError, emit, load_path
from .report import CheckReport
from . import fixtures

SUITES = ("lsa", "algebroid", "presym", "exact", "parakahler")
DIRECTIONS = ("to-star", "to-bracket", "pseudo-semidirect", "twist")


def _presym_builder(b: Bundle):
    """A call that builds the skew-pairing structure a bundle determines,
    or None when it determines none.

    Priority: explicit star table, then the twisted product of a
    connection and obstruction tensor, then the product derived from a
    bracket with a symplectic form.
    """
    if b.structure is not None:
        return lambda: b.structure
    if b.connection is not None and b.phi is not None:
        return lambda: twisted_product(b.connection, b.phi)
    if b.algebroid is not None and b.algebroid.kind == "lie" \
            and b.form is not None:
        return lambda: presym_from_symplectic(b.algebroid, b.form)
    return None


def applicable_suites(b: Bundle):
    out = []
    if b.algebra is not None:
        out.append("lsa")
    if b.algebroid is not None:
        out.append("algebroid")
    star_capable = _presym_builder(b) is not None
    if star_capable:
        out.append("presym")
    if b.connection is not None and (b.structure is not None
                                     or b.phi is not None):
        out.append("exact")
    if b.paracomplex is not None and star_capable:
        out.append("parakahler")
    return out


def run_suites(b: Bundle, suites, artifact: str) -> CheckReport:
    """Run the named suites in order into one report.  The skew-pairing
    structure is built once, when a suite first needs it, and shared, so
    its memoised products, D and inverse pairing carry over."""
    out = CheckReport(artifact)
    E = None
    for suite in suites:
        if suite in ("presym", "exact", "parakahler") and E is None:
            E = _presym_builder(b)()
        if suite == "lsa":
            out.extend(check_left_symmetric(b.algebra, artifact=artifact))
        elif suite == "algebroid" and b.algebroid.kind == "lie":
            out.extend(check_lie_algebroid(b.algebroid, artifact=artifact))
            if b.form is not None:
                out.extend(check_2cocycle(b.algebroid, b.form,
                                          artifact=artifact))
        elif suite == "algebroid":
            out.extend(check_left_symmetric_algebroid(b.algebroid,
                                                      artifact=artifact))
        elif suite == "presym":
            out.extend(check_presymplectic(E, artifact=artifact))
        elif suite == "exact":
            sigma = b.splitting
            if sigma is None:
                try:
                    sigma = canonical_splitting(E)
                except ValueError:
                    sigma = None
            out.extend(check_exact(E, b.connection, sigma,
                                   artifact=artifact))
        elif suite == "parakahler":
            out.extend(check_star_equals_nabla(E, b.paracomplex,
                                               artifact=artifact))
        else:
            raise ValueError(f"unknown suite '{suite}'")
    return out


def cmd_check(args) -> int:
    try:
        b = load_path(args.file)
    except (PsaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    avail = applicable_suites(b)
    if b.paracomplex is not None and _presym_builder(b) is None:
        print("error: [paracomplex] needs a [star] table, a [connection] "
              "with [phi], or a [bracket] with a [form]", file=sys.stderr)
        return 2
    if not avail:
        print(f"error: no suite applies to {args.file}", file=sys.stderr)
        return 2
    if args.suite == "all":
        selected = avail
    elif args.suite in avail:
        selected = [args.suite]
    else:
        print(f"error: suite '{args.suite}' is not applicable to "
              f"{args.file}; applicable: {', '.join(avail)}",
              file=sys.stderr)
        return 2
    with contextlib.ExitStack() as stack:
        # the report file is opened before any check runs, so an
        # unwritable path fails before any work is done
        try:
            report = None if args.json is None else stack.enter_context(
                open(args.json, "w", encoding="utf-8"))
            combined = run_suites(b, selected, args.file)
        except (OSError, ValueError, ExprError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if report is not None:
            report.write(combined.to_json())
    for line in combined.text_lines():
        print(line)
    npass = sum(1 for c in combined.checks if c.status == "pass")
    nfail = sum(1 for c in combined.checks if c.status == "fail")
    nskip = sum(1 for c in combined.checks if c.status == "skipped")
    print(f"{len(combined.checks)} checks: {npass} pass, {nfail} fail, "
          f"{nskip} skipped")
    return 0 if nfail == 0 else 1


def derive_bundle(b: Bundle, direction: str) -> Bundle:
    """Apply one derivation step; raises ValueError when the input lacks
    the needed parts or the data is unsuitable (degenerate form, ...)."""
    if direction == "to-star":
        if b.algebroid is None or b.algebroid.kind != "lie" \
                or b.form is None:
            raise ValueError("to-star needs a [bracket] table and a "
                             "[form] section")
        return Bundle(structure=presym_from_symplectic(b.algebroid, b.form))
    if direction == "to-bracket":
        if b.structure is None:
            raise ValueError("to-bracket needs a [star] table with its "
                             "[pairing]")
        lie, form = symplectic_from_presym(b.structure)
        return Bundle(algebroid=lie, form=form)
    if direction == "pseudo-semidirect":
        if b.algebra is not None:
            A = ChartAlgebroid.point(b.algebra)
        elif b.algebroid is not None and b.algebroid.kind == "lsa":
            A = b.algebroid
        else:
            raise ValueError("pseudo-semidirect needs an [algebra] or a "
                             "[product] table")
        return Bundle(structure=pseudo_semidirect(A))
    if direction == "twist":
        if b.connection is None or b.phi is None:
            raise ValueError("twist needs [connection] and [phi] sections")
        return Bundle(structure=twisted_product(b.connection, b.phi),
                      connection=b.connection)
    raise ValueError(f"unknown direction '{direction}'")


def cmd_derive(args) -> int:
    try:
        b = load_path(args.file)
        out = derive_bundle(b, args.direction)
    except (PsaError, OSError, ValueError, ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit_to(args.output, out)


def cmd_cohomology(args) -> int:
    try:
        b = load_path(args.file)
    except (PsaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.degree not in (1, 2, 3) and not args.full:
        print("error: --degree must be 1, 2, or 3 (pass --full to "
              "evaluate other degrees)", file=sys.stderr)
        return 2
    if args.truncate < 0:
        print("error: --truncate must be >= 0", file=sys.stderr)
        return 2
    try:
        if b.algebra is not None:
            where = f"point algebra, dim {b.algebra.dim}"
            cx = RestrictedComplex.point(b.algebra)
        elif b.connection is not None:
            where = (f"chart, {b.connection.rank} flat coordinates, "
                     f"polynomial degree <= {args.truncate}")
            cx = TruncatedComplex(b.connection, args.truncate)
        else:
            print("error: cohomology needs an [algebra] or a "
                  "[connection] section", file=sys.stderr)
            return 2
        dims = restricted_dims(cx, args.degree)
    except (ValueError, ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"complex: {where}")
    ker, im, h = dims["bareiss"]
    print(f"degree {args.degree}: ker = {ker}  im = {im}  h = {h}")
    if dims["bareiss"] != dims["gauss"]:
        k2, i2, h2 = dims["gauss"]
        print(f"eliminations disagree: gauss gives ker = {k2}  "
              f"im = {i2}  h = {h2}")
        return 1
    print("eliminations: bareiss and gauss agree")
    return 0


def cmd_examples(args) -> int:
    if not args.name:
        width = max(len(n) for n in fixtures.REGISTRY_NAMES)
        for name in fixtures.REGISTRY_NAMES:
            b = fixtures.build(name)
            print(f"{name:<{width}}  {b.description}")
        return 0
    try:
        b = fixtures.build(args.name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    return _emit_to(args.output, b)


def _emit_to(output, b: Bundle) -> int:
    """Write a bundle's file text to output, or to stdout when no output
    is given; the exit code."""
    text = emit(b)
    if output is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="psa",
        description="exact verification of chart-level product, bracket, "
                    "and skew-pairing structures")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run verification suites on a file")
    c.add_argument("file")
    c.add_argument("--suite", choices=SUITES + ("all",), default="all")
    c.add_argument("--json", metavar="PATH",
                   help="also write the report as JSON")
    c.set_defaults(fn=cmd_check)

    d = sub.add_parser("derive", help="derive one structure from another")
    d.add_argument("file")
    d.add_argument("--direction", choices=DIRECTIONS, required=True)
    d.add_argument("-o", "--output", metavar="PATH",
                   help="write the derived file here instead of stdout")
    d.set_defaults(fn=cmd_derive)

    h = sub.add_parser("cohomology",
                       help="restricted cohomology dimensions")
    h.add_argument("file")
    h.add_argument("--degree", type=int, required=True)
    h.add_argument("--truncate", type=int, default=2, metavar="D",
                   help="polynomial coefficient degree bound for chart "
                        "complexes (default 2)")
    h.add_argument("--full", action="store_true",
                   help="allow degrees outside 1..3")
    h.set_defaults(fn=cmd_cohomology)

    e = sub.add_parser("examples", help="list or emit built-in structures")
    e.add_argument("name", nargs="?", default=None)
    e.add_argument("-o", "--output", metavar="PATH")
    e.set_defaults(fn=cmd_examples)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
