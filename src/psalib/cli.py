"""Command line front end.

Subcommands:
  check       run verification suites on a definition file
  derive      produce one structure from another and emit its file
  cohomology  restricted cohomology dimensions with two eliminations
  examples    list or emit the built-in structures

Exit codes: 0 all checks pass, 1 a check failed or the eliminations
disagree, 2 input or usage error.
"""

import contextlib
import math
import sys
from types import SimpleNamespace

from .algebroid import ChartAlgebroid, check_2cocycle, check_lie_algebroid, \
    check_left_symmetric, check_left_symmetric_algebroid
from .exactclass import TruncatedComplex, canonical_splitting, \
    check_exact, twisted_product
from .exprcore import ExprError
from .lsa import RestrictedComplex, cochain_dim, restricted_dims
from .parakahler import check_star_equals_nabla
from .presym import check_presymplectic, presym_from_symplectic, \
    pseudo_semidirect, symplectic_from_presym
from .psafile import Bundle, emit, load_path
from .report import CheckReport
from . import fixtures

SUITES = ("lsa", "algebroid", "presym", "exact", "parakahler")
DIRECTIONS = ("to-star", "to-bracket", "pseudo-semidirect", "twist")
# The largest cochain space `psa cohomology` builds, in keys times
# coefficients.  The complex is sparse, dense per block only: flat-2 at
# --truncate 40 --degree 2 (3444) takes 0.4 s and peaks at 20 MB, flat-4
# at --truncate 3 --degree 3 (840) 0.2 s and 18 MB (subprocess VmHWM).
COCHAIN_BUDGET = 4000


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


def run_suites(b: Bundle, suites) -> CheckReport:
    """Run the named suites in order into one report.  The skew-pairing
    structure is built once, when a suite first needs it, and shared, so
    its memoised products, D and inverse pairing carry over."""
    out = CheckReport()
    E = None
    for suite in suites:
        if suite in ("presym", "exact", "parakahler") and E is None:
            E = _presym_builder(b)()
        if suite == "lsa":
            out.extend(check_left_symmetric(b.algebra))
        elif suite == "algebroid" and b.algebroid.kind == "lie":
            out.extend(check_lie_algebroid(b.algebroid))
            if b.form is not None:
                out.extend(check_2cocycle(b.algebroid, b.form))
        elif suite == "algebroid":
            out.extend(check_left_symmetric_algebroid(b.algebroid))
        elif suite == "presym":
            out.extend(check_presymplectic(E))
        elif suite == "exact":
            sigma = b.splitting
            if sigma is None:
                try:
                    sigma = canonical_splitting(E)
                except ValueError:
                    sigma = None
            out.extend(check_exact(E, b.connection, sigma))
        elif suite == "parakahler":
            out.extend(check_star_equals_nabla(E, b.paracomplex))
        else:
            raise ValueError(f"unknown suite '{suite}'")
    return out


def cmd_check(args) -> int:
    b = load_path(args.file)
    avail = applicable_suites(b)
    if b.paracomplex is not None and _presym_builder(b) is None:
        raise ValueError("[paracomplex] needs a [star] table, a [connection] "
                         "with [phi], or a [bracket] with a [form]")
    if not avail:
        raise ValueError(f"no suite applies to {args.file}")
    if args.suite == "all":
        selected = avail
    elif args.suite in avail:
        selected = [args.suite]
    else:
        raise ValueError(f"suite '{args.suite}' is not applicable to "
                         f"{args.file}; applicable: {', '.join(avail)}")
    with contextlib.ExitStack() as stack:
        # the report file is opened before any check runs, so an
        # unwritable path fails before any work is done
        report = None if args.json is None else stack.enter_context(
            open(args.json, "w", encoding="utf-8"))
        combined = run_suites(b, selected)
        if report is not None:
            report.write(combined.to_json(args.file))
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
    return _emit_to(args.output,
                    derive_bundle(load_path(args.file), args.direction))


def cmd_cohomology(args) -> int:
    b = load_path(args.file)
    if args.degree not in (1, 2, 3) and not args.full:
        raise ValueError("--degree must be 1, 2, or 3 (pass --full to "
                         "evaluate other degrees)")
    if args.truncate < 0:
        raise ValueError("--truncate must be >= 0")
    if b.algebra is not None:
        where = f"point algebra, dim {b.algebra.dim}"
        rank, ncoeffs = b.algebra.dim, 1
    elif b.connection is not None:
        where = (f"chart, {b.connection.rank} flat coordinates, "
                 f"polynomial degree <= {args.truncate}")
        # coefficients: the monomials of degree <= truncate
        rank = b.connection.rank
        ncoeffs = math.comb(rank + args.truncate, rank)
    else:
        raise ValueError("cohomology needs an [algebra] or a [connection] "
                         "section")
    # the restricted bases of degree and degree - 1 and the coboundary
    # rows of degree + 1 are all built
    size = max((cochain_dim(rank, d, ncoeffs)
                for d in (args.degree - 1, args.degree, args.degree + 1)
                if d >= 1), default=0)
    if size > COCHAIN_BUDGET:
        raise ValueError(f"this complex needs a {size}-dimensional cochain "
                         f"space, above the budget of {COCHAIN_BUDGET}; "
                         f"lower --truncate or --degree")
    cx = (RestrictedComplex.point(b.algebra) if b.algebra is not None
          else TruncatedComplex(b.connection, args.truncate))
    dims = restricted_dims(cx, args.degree)
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
        if args.output is not None:
            raise ValueError("-o/--output needs a fixture NAME")
        width = max(len(n) for n in fixtures.REGISTRY_NAMES)
        for name in fixtures.REGISTRY_NAMES:
            b = fixtures.build(name)
            print(f"{name:<{width}}  {b.description}")
        return 0
    return _emit_to(args.output, fixtures.build(args.name))


def _emit_to(output, b: Bundle) -> int:
    """Write a bundle's file text to output, or to stdout when no output
    is given; the exit code."""
    text = emit(b)
    if output is None:
        sys.stdout.write(text)
        return 0
    with open(output, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


_HELP = ("-h", "--help")
_REQUIRED = object()  # the default of an option that must be given

# One row per command: its handler, a one-line summary, its positional
# (name, required, help) and its options.  An option row is (spellings,
# dest, takes, default, help), where takes is a tuple of choices, int, a
# metavar for a value taken as is, or None for a flag.
COMMANDS = {
    "check": (cmd_check, "run verification suites on a file",
              ("file", True, "a .psa definition file"), (
        (("--suite",), "suite", SUITES + ("all",), "all",
         "run this suite only (default: every applicable one)"),
        (("--json",), "json", "PATH", None,
         "also write the report as JSON"),
    )),
    "derive": (cmd_derive, "derive one structure from another",
               ("file", True, "a .psa definition file"), (
        (("--direction",), "direction", DIRECTIONS, _REQUIRED,
         "the derivation to apply"),
        (("-o", "--output"), "output", "PATH", None,
         "write the derived file here instead of stdout"),
    )),
    "cohomology": (cmd_cohomology, "restricted cohomology dimensions",
                   ("file", True, "a .psa file with an [algebra] or a "
                    "[connection]"), (
        (("--degree",), "degree", int, _REQUIRED,
         "the cochain degree: 1, 2 or 3, any with --full"),
        (("--truncate",), "truncate", int, 2,
         "polynomial coefficient degree bound for chart complexes "
         "(default 2)"),
        (("--full",), "full", None, False, "allow degrees outside 1..3"),
    )),
    "examples": (cmd_examples, "list or emit built-in structures",
                 ("name", False, "the fixture to emit; without it, list "
                  "the registry"), (
        (("-o", "--output"), "output", "PATH", None,
         "write the named fixture here instead of stdout"),
    )),
}


def _metavar(dest, takes) -> str:
    if isinstance(takes, tuple):
        return " {" + ",".join(takes) + "}"
    if takes is int:
        return " " + dest.upper()
    return "" if takes is None else " " + takes


def _usage(command) -> str:
    if command is None:
        return f"usage: psa [-h] {{{','.join(COMMANDS)}}} ..."
    _, _, (pos, pos_required, _), options = COMMANDS[command]
    parts = ["usage: psa", command, "[-h]"]
    for spellings, dest, takes, default, _ in options:
        part = spellings[0] + _metavar(dest, takes)
        parts.append(part if default is _REQUIRED else f"[{part}]")
    parts.append(pos if pos_required else f"[{pos}]")
    return " ".join(parts)


def _help(command) -> str:
    if command is None:
        rows = "".join(f"  {name:<12}{row[1]}\n"
                       for name, row in COMMANDS.items())
        return (f"{_usage(None)}\n\nexact verification of chart-level "
                f"product, bracket, and skew-pairing structures\n\n"
                f"commands:\n{rows}\nRun 'psa COMMAND -h' for a command's "
                f"options.  Exit codes: 0 all checks pass,\n1 a check "
                f"failed or the eliminations disagree, 2 input or usage "
                f"error.\n")
    _, summary, (pos, _, pos_help), options = COMMANDS[command]
    lines = [_usage(command), "", summary, "", f"  {pos}", f"      {pos_help}",
             "  -h, --help", "      show this help and exit"]
    for spellings, dest, takes, _, text in options:
        lines += ["  " + ", ".join(spellings) + _metavar(dest, takes),
                  "      " + text]
    return "\n".join(lines) + "\n"


def _usage_error(command, message):
    sys.stderr.write(f"{_usage(command)}\npsa: error: {message}\n")
    raise SystemExit(2)


def _is_option(token: str) -> bool:
    """A token is an option when it starts with '-' and is neither '-'
    nor a negative number, so that `--truncate -1` reaches the range
    check."""
    return token[:1] == "-" and token != "-" and \
        not token[1:].replace(".", "", 1).isdigit()


def read_argv(argv):
    """(handler, args) of one command line.  `-h` or `--help` anywhere
    prints help to stdout and exits 0; any usage error prints the usage
    and one `psa: error:` line to stderr and exits 2.  Options are
    spelled in full, as `--opt value` or `--opt=value`, before or after
    the positional; a repeated option keeps its last value."""
    command = argv[0] if argv else None
    if command in _HELP:
        sys.stdout.write(_help(None))
        raise SystemExit(0)
    if command not in COMMANDS:
        problem = ("missing command" if command is None
                   else f"unknown command '{command}'")
        _usage_error(None, f"{problem}; choose from {', '.join(COMMANDS)}")
    if any(token in _HELP for token in argv[1:]):
        sys.stdout.write(_help(command))
        raise SystemExit(0)
    handler, _, (pos, pos_required, _), options = COMMANDS[command]
    spelled = {s: row for row in options for s in row[0]}
    values = {pos: None}
    values.update((row[1], row[3]) for row in options)
    tokens = iter(argv[1:])
    for token in tokens:
        if not _is_option(token):
            if values[pos] is not None:
                _usage_error(command, f"unexpected argument '{token}'")
            values[pos] = token
            continue
        name, eq, value = token.partition("=") if token[:2] == "--" \
            else (token, "", "")
        row = spelled.get(name)
        if row is None:
            full = [s for s in spelled if s.startswith(name)]
            hint = (f" (options are not abbreviated: {', '.join(full)})"
                    if full and name[:2] == "--" else "")
            _usage_error(command, f"unknown option '{name}'{hint}")
        _, dest, takes, _, _ = row
        if takes is None:
            if eq:
                _usage_error(command, f"option {name} takes no value")
            values[dest] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or _is_option(value):
                _usage_error(command, f"option {name} expects a value")
        if isinstance(takes, tuple) and value not in takes:
            _usage_error(command, f"option {name}: invalid choice "
                         f"'{value}' (choose from {', '.join(takes)})")
        if takes is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(command, f"option {name}: invalid int value "
                             f"'{value}'")
        values[dest] = value
    missing = [pos] if pos_required and values[pos] is None else []
    missing += [row[0][0] for row in options if values[row[1]] is _REQUIRED]
    if missing:
        _usage_error(command, "the following arguments are required: "
                     + ", ".join(missing))
    return handler, SimpleNamespace(**values)


def main(argv=None) -> int:
    """Run one command line; every input error of every command leaves
    here, as one `error:` line on stderr and exit 2.  PsaError is a
    ValueError; an exception of any other type is a defect and keeps its
    traceback."""
    handler, args = read_argv(sys.argv[1:] if argv is None else argv)
    try:
        return handler(args)
    except (OSError, ValueError, ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
