"""Definition files: a small INI-like text format for charts, frames,
tables, pairings, forms, connections, obstruction tensors, splittings,
product operators, and point algebras.

Values are comma-separated expression strings in the exprcore grammar;
commas inside parentheses (derivative atoms) do not split.  Binary table
keys are two names separated by whitespace; only nonzero entries need to
be written.

`parse` returns the raw sections as {section: {key: value}}.  `realize`
reads every keyed section through one reader, which checks each key and
parses its entries; `emit` writes every table of "a b = entries" lines
through one cell writer.
"""

import re
from fractions import Fraction

from .algebroid import ChartAlgebroid, FormField
from .exactclass import FlatConnection, PhiTensor, Splitting
from .exprcore import (ChartContext, ExprError, ExprSyntaxError,
                       quote_prefix)
from .lsa import FiniteAlgebra
from .parakahler import ParaComplexOp
from .presym import PreSymStructure

__all__ = ["PsaError", "Bundle", "parse", "realize", "load_path", "emit"]

_SECTIONS = ("chart", "frame", "algebra", "anchor", "bracket", "product",
             "star", "pairing", "form", "connection", "phi", "splitting",
             "paracomplex")


class PsaError(ValueError):
    """Malformed definition file."""


class Bundle:
    """Realized content of a definition file; absent parts are None.

    algebra is a FiniteAlgebra, algebroid a ChartAlgebroid (a bracket or
    product file), form a degree-2 FormField, structure a PreSymStructure
    (star and pairing), connection a FlatConnection, phi a PhiTensor,
    splitting a Splitting and paracomplex a ParaComplexOp.
    """

    def __init__(self, name: str = "", description: str = "",
                 algebra=None, algebroid=None, form=None, structure=None,
                 connection=None, phi=None, splitting=None,
                 paracomplex=None):
        self.name = name
        self.description = description
        self.algebra = algebra
        self.algebroid = algebroid
        self.form = form
        self.structure = structure
        self.connection = connection
        self.phi = phi
        self.splitting = splitting
        self.paracomplex = paracomplex


_SECTION_RE = re.compile(r"^\[([a-z][a-z-]*)\]$")


def parse(text: str) -> dict:
    """Sections of a definition file: {section: {key: value string}}."""
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            name = m.group(1)
            if name not in _SECTIONS:
                raise PsaError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise PsaError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if current is None:
            raise PsaError(f"line {lineno}: content before any section")
        if "=" not in line:
            raise PsaError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = " ".join(key.split())
        if not key:
            raise PsaError(f"line {lineno}: empty key")
        if key in sections[current]:
            raise PsaError(f"line {lineno}: duplicate key '{key}' in "
                           f"[{current}]")
        sections[current][key] = value.strip()
    return sections


def _split_top(value: str):
    """Split on commas outside parentheses; empty value -> empty list."""
    if not value.strip():
        return []
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(value):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise PsaError(f"unbalanced parentheses in '{value}'")
        elif ch == "," and depth == 0:
            parts.append(value[start:i].strip())
            start = i + 1
    if depth != 0:
        raise PsaError(f"unbalanced parentheses in '{value}'")
    parts.append(value[start:].strip())
    if any(not p for p in parts):
        raise PsaError(f"empty list entry in '{value}'")
    return parts


def _parse_exprs(ctx: ChartContext, value: str, want: int, where: str):
    parts = _split_top(value)
    if len(parts) != want:
        raise PsaError(f"{where}: expected {want} entries, got {len(parts)}")
    out = []
    for p in parts:
        try:
            out.append(ctx.expr(p))
        except ExprSyntaxError as exc:
            raise PsaError(f"{where}: bad expression: {exc}") from exc
        except ExprError as exc:
            raise PsaError(f"{where}: bad expression {quote_prefix(p)}: "
                           f"{exc}") from exc
    return out


def _pair_key(key: str, index: dict, where: str):
    parts = key.split()
    if len(parts) != 2:
        raise PsaError(f"{where}: key '{key}' must be two names")
    try:
        return index[parts[0]], index[parts[1]]
    except KeyError as exc:
        raise PsaError(f"{where}: unknown name {exc} in key '{key}'")


def _names(df: dict, section: str):
    """The 'names' entry of a section, each name once."""
    if "names" not in df[section]:
        raise PsaError(f"[{section}] needs a 'names' entry")
    names = _split_top(df[section]["names"])
    for i, nm in enumerate(names):
        if nm in names[:i]:
            raise PsaError(f"[{section}]: duplicate name '{nm}'")
    return names


def realize(df: dict, name: str = "", description: str = "") -> Bundle:
    """Build domain objects from parsed sections, validating dependencies."""
    b = Bundle(name=name, description=description)
    for section, known in (("chart", ("coords", "funcs")),
                           ("frame", ("names",))):
        for key in df.get(section, ()):
            if key not in known:
                raise PsaError(f"[{section}]: unknown key '{key}'")
    chart = df.get("chart", {})
    coords = tuple(_split_top(chart["coords"])) if "coords" in chart else ()
    funcs = tuple(_split_top(chart["funcs"])) if "funcs" in chart else ()
    try:
        ctx = ChartContext(coords=coords, funcs=funcs)
    except ExprError as exc:
        raise PsaError(f"[chart]: {exc}") from exc
    coord_index = {nm: i for i, nm in enumerate(coords)}

    if "algebra" in df:
        names = _names(df, "algebra")
        index = {nm: i for i, nm in enumerate(names)}
        dim = len(names)
        constants = {}
        for key, value in df["algebra"].items():
            if key == "names":
                continue
            a, bidx = _pair_key(key, index, "[algebra]")
            parts = _split_top(value)
            if len(parts) != dim:
                raise PsaError(f"[algebra] {key}: expected {dim} entries")
            for k, p in enumerate(parts):
                try:
                    v = Fraction(p)
                except (ValueError, ZeroDivisionError) as exc:
                    raise PsaError(f"[algebra] {key}: bad rational "
                                   f"'{p}'") from exc
                if v:
                    constants[(a, bidx, k)] = v
        b.algebra = FiniteAlgebra(dim, constants, names)

    frame_names = _names(df, "frame") if "frame" in df else None
    frame_index = {nm: i for i, nm in enumerate(frame_names or ())}
    r = len(frame_index)

    def need_frame(section):
        if frame_names is None:
            raise PsaError(f"[{section}] requires a [frame] section")

    def need_coords(section):
        if not coords:
            raise PsaError(f"[{section}] requires chart coordinates")

    def keyed(section, index, width, what=None, order=None):
        """(indices, expressions) for each line of a section.  A key is
        two names of index or, when `what` says what a name is, one; with
        `order`, the tail of the message, two names must increase."""
        for key, value in df[section].items():
            if what is None:
                indices = _pair_key(key, index, f"[{section}]")
                if order is not None and indices[0] >= indices[1]:
                    raise PsaError(f"[{section}] {key}: use strictly "
                                   f"increasing frame order{order}")
            elif key in index:
                indices = (index[key],)
            else:
                raise PsaError(f"[{section}]: unknown {what} '{key}'")
            yield indices, _parse_exprs(ctx, value, width,
                                        f"[{section}] {key}")

    def cube(section, index):
        """A square table of cells; absent cells are zero."""
        n = len(index)
        table = [[[ctx.zero()] * n for _ in range(n)] for _ in range(n)]
        for (i, j), cell in keyed(section, index, n):
            table[i][j] = cell
        return table

    def columns(section, index, width, what, missing):
        """One line per name of index, every name present."""
        cols = [None] * len(index)
        for (i,), col in keyed(section, index, width, what):
            cols[i] = col
        if any(c is None for c in cols):
            raise PsaError(f"[{section}] needs one {missing}")
        return cols

    anchor = None
    if "anchor" in df:
        need_frame("anchor")
        anchor = [[ctx.zero()] * len(coords) for _ in frame_names]
        for (a,), row in keyed("anchor", frame_index, len(coords),
                               "frame name"):
            anchor[a] = row

    def read_table(section: str):
        need_frame(section)
        if anchor is None:
            raise PsaError(f"[{section}] requires an [anchor] section")
        return cube(section, frame_index)

    kinds = [s for s in ("bracket", "product", "star") if s in df]
    if len(kinds) > 1:
        raise PsaError(f"sections {kinds} are mutually exclusive")

    pairing = None
    if "pairing" in df:
        need_frame("pairing")
        pairing = [[ctx.zero()] * r for _ in range(r)]
        skew = "; the skew completion is automatic"
        for (a, c), (v,) in keyed("pairing", frame_index, 1, order=skew):
            pairing[a][c], pairing[c][a] = v, -v

    if "form" in df:
        need_frame("form")
        b.form = FormField(ctx, r, 2, {
            ac: v for ac, (v,) in keyed("form", frame_index, 1, order="")})

    for section, kind in (("bracket", "lie"), ("product", "lsa")):
        if section in df:
            b.algebroid = ChartAlgebroid(ctx, frame_names, anchor,
                                         read_table(section), kind=kind)
    if "star" in df:
        if pairing is None:
            raise PsaError("[star] requires a [pairing] section")
        b.structure = PreSymStructure(ctx, frame_names, anchor,
                                      read_table("star"), pairing)

    if "connection" in df:
        need_coords("connection")
        b.connection = FlatConnection(ctx, cube("connection", coord_index))

    if "phi" in df:
        need_coords("phi")
        comps = cube("phi", coord_index)
        try:
            b.phi = PhiTensor(ctx, comps)
        except ValueError as exc:
            raise PsaError(f"[phi]: {exc}") from exc

    if "splitting" in df:
        need_frame("splitting")
        need_coords("splitting")
        b.splitting = Splitting(columns("splitting", coord_index, r,
                                        "coordinate", "row per coordinate"))

    if "paracomplex" in df:
        need_frame("paracomplex")
        cols = columns("paracomplex", frame_index, r, "frame name",
                       "column per frame name")
        b.paracomplex = ParaComplexOp(
            ctx, [[cols[c][a] for c in range(r)] for a in range(r)])

    if b.algebra is None and b.algebroid is None and b.structure is None \
            and b.connection is None:
        raise PsaError("file defines no checkable object")
    return b


def load_path(path: str) -> Bundle:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise PsaError(f"{path}: not UTF-8 text (byte "
                           f"{exc.object[exc.start]:#04x}: {exc.reason})"
                           ) from None
    return realize(parse(text), name=path)


# ---------------------------------------------------------------------------
# emission


def _fmt_list(entries) -> str:
    return ", ".join(str(x) for x in entries)


def _cells(names, cell):
    """One "a b = entries" line per pair of names whose cell(a, b) has a
    nonzero entry, in row-major order."""
    return [f"{x} {y} = {_fmt_list(entries)}"
            for a, x in enumerate(names) for c, y in enumerate(names)
            if any(entries := cell(a, c))]


def emit(b: Bundle) -> str:
    """Deterministic text for a bundle; inverse of realize up to zero
    entries and formatting."""
    out = []

    def section(name, lines):
        out.extend([f"[{name}]", *lines, ""])

    if b.description:
        out.append(f"# {b.name}: {b.description}" if b.name
                   else f"# {b.description}")

    ctx = None
    for obj in (b.structure, b.algebroid, b.connection, b.phi):
        if obj is not None:
            ctx = obj.ctx
            break
    if ctx is not None and (ctx.coords or ctx.funcs):
        section("chart", [f"{key} = {_fmt_list(symbols)}" for key, symbols
                          in (("coords", ctx.coords), ("funcs", ctx.funcs))
                          if symbols])

    if b.algebra is not None:
        alg = b.algebra
        section("algebra", [f"names = {_fmt_list(alg.names)}", *_cells(
            alg.names, lambda a, c: [alg.constants.get((a, c, k), 0)
                                     for k in range(alg.dim)])])

    carrier = b.structure if b.structure is not None else b.algebroid
    if carrier is not None:
        names = carrier.names
        section("frame", [f"names = {_fmt_list(names)}"])
        section("anchor", [f"{nm} = {_fmt_list(row)}"
                           for nm, row in zip(names, carrier.anchor)
                           if any(row)])
        section("star" if b.structure is not None else (
            "bracket" if carrier.kind == "lie" else "product"),
            _cells(names, lambda a, c: carrier.table[a][c]))

    if b.structure is not None:
        rows = b.structure.pairing.rows
        section("pairing", _cells(names, lambda a, c: [rows[a][c]]
                                  if a < c else []))

    if b.form is not None:
        if carrier is None:
            raise PsaError("cannot emit a form without a frame")
        comps = b.form.components
        section("form", _cells(names, lambda a, c: [comps.get((a, c), 0)]))

    if b.connection is not None:
        table = b.connection.table
        section("connection", _cells(b.connection.ctx.coords,
                                     lambda i, j: table[i][j]))

    if b.phi is not None:
        comps = b.phi.comps
        section("phi", _cells(b.phi.ctx.coords, lambda i, j: comps[i][j]))

    if b.splitting is not None:
        coords = ctx.coords if ctx is not None else ()
        section("splitting", [f"{coords[i]} = {_fmt_list(row)}"
                              for i, row in enumerate(b.splitting.sigma)])

    if b.paracomplex is not None:
        if carrier is None:
            raise PsaError("cannot emit a paracomplex without a frame")
        cols = map(b.paracomplex.column, range(b.paracomplex.rank))
        section("paracomplex", [f"{nm} = {_fmt_list(col)}"
                                for nm, col in zip(carrier.names, cols)])

    while out and out[-1] == "":
        out.pop()
    return "\n".join(out) + "\n"
