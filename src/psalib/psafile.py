"""Definition files: a small INI-like text format for charts, frames,
tables, pairings, forms, connections, obstruction tensors, splittings,
product operators, and point algebras.

Values are comma-separated expression strings in the exprcore grammar;
commas inside parentheses (derivative atoms) do not split.  Binary table
keys are two names separated by whitespace; only nonzero entries need to
be written.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .algebroid import ChartAlgebroid, FormField
from .exactclass import FlatConnection, PhiTensor, Splitting
from .exprcore import (ChartContext, ExprError, ExprSyntaxError,
                       quote_prefix)
from .lsa import FiniteAlgebra
from .parakahler import ParaComplexOp
from .presym import PreSymStructure

__all__ = ["PsaError", "DefinitionFile", "Bundle", "parse", "realize",
           "load_path", "emit"]

_SECTIONS = ("chart", "frame", "algebra", "anchor", "bracket", "product",
             "star", "pairing", "form", "connection", "phi", "splitting",
             "paracomplex")


class PsaError(ValueError):
    """Malformed definition file."""


@dataclass
class DefinitionFile:
    """Raw sections: name -> ordered key/value string pairs."""
    sections: dict = field(default_factory=dict)

    def has(self, name: str) -> bool:
        return name in self.sections

    def get(self, name: str) -> dict:
        return self.sections.get(name, {})


@dataclass
class Bundle:
    """Realized content of a definition file; absent parts are None."""
    name: str = ""
    description: str = ""
    algebra: object = None        # FiniteAlgebra
    algebroid: object = None      # ChartAlgebroid (bracket or product file)
    form: object = None           # FormField (degree 2)
    structure: object = None      # PreSymStructure (star + pairing)
    connection: object = None     # FlatConnection
    phi: object = None            # PhiTensor
    splitting: object = None      # Splitting
    paracomplex: object = None    # ParaComplexOp


_SECTION_RE = re.compile(r"^\[([a-z][a-z-]*)\]$")


def parse(text: str) -> DefinitionFile:
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
    return DefinitionFile(sections)


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


def realize(df: DefinitionFile, name: str = "",
            description: str = "") -> Bundle:
    """Build domain objects from raw sections, validating dependencies."""
    b = Bundle(name=name, description=description)
    chart = df.get("chart")
    coords = tuple(_split_top(chart["coords"])) if "coords" in chart else ()
    funcs = tuple(_split_top(chart["funcs"])) if "funcs" in chart else ()
    try:
        ctx = ChartContext(coords=coords, funcs=funcs)
    except ExprError as exc:
        raise PsaError(f"[chart]: {exc}") from exc

    if df.has("algebra"):
        sec = dict(df.get("algebra"))
        if "names" not in sec:
            raise PsaError("[algebra] needs a 'names' entry")
        names = _split_top(sec.pop("names"))
        index = {nm: i for i, nm in enumerate(names)}
        dim = len(names)
        constants = {}
        for key, value in sec.items():
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

    frame_names = None
    if df.has("frame"):
        sec = df.get("frame")
        if "names" not in sec:
            raise PsaError("[frame] needs a 'names' entry")
        frame_names = tuple(_split_top(sec["names"]))

    anchor = None
    if df.has("anchor"):
        if frame_names is None:
            raise PsaError("[anchor] requires a [frame] section")
        index = {nm: i for i, nm in enumerate(frame_names)}
        rows = [[ctx.zero()] * len(coords) for _ in frame_names]
        for key, value in df.get("anchor").items():
            if key not in index:
                raise PsaError(f"[anchor]: unknown frame name '{key}'")
            rows[index[key]] = _parse_exprs(ctx, value, len(coords),
                                            f"[anchor] {key}")
        anchor = rows

    def read_table(section: str):
        if frame_names is None:
            raise PsaError(f"[{section}] requires a [frame] section")
        if anchor is None:
            raise PsaError(f"[{section}] requires an [anchor] section")
        r = len(frame_names)
        index = {nm: i for i, nm in enumerate(frame_names)}
        table = [[[ctx.zero()] * r for _ in range(r)] for _ in range(r)]
        for key, value in df.get(section).items():
            a, bidx = _pair_key(key, index, f"[{section}]")
            table[a][bidx] = _parse_exprs(ctx, value, r,
                                          f"[{section}] {key}")
        return table

    kinds = [s for s in ("bracket", "product", "star") if df.has(s)]
    if len(kinds) > 1:
        raise PsaError(f"sections {kinds} are mutually exclusive")

    pairing = None
    if df.has("pairing"):
        if frame_names is None:
            raise PsaError("[pairing] requires a [frame] section")
        r = len(frame_names)
        index = {nm: i for i, nm in enumerate(frame_names)}
        rows = [[ctx.zero()] * r for _ in range(r)]
        for key, value in df.get("pairing").items():
            a, bidx = _pair_key(key, index, "[pairing]")
            if a >= bidx:
                raise PsaError(f"[pairing] {key}: use strictly increasing "
                               f"frame order; the skew completion is "
                               f"automatic")
            v = _parse_exprs(ctx, value, 1, f"[pairing] {key}")[0]
            rows[a][bidx] = v
            rows[bidx][a] = -v
        pairing = rows

    if df.has("form"):
        if frame_names is None:
            raise PsaError("[form] requires a [frame] section")
        index = {nm: i for i, nm in enumerate(frame_names)}
        comps = {}
        for key, value in df.get("form").items():
            a, bidx = _pair_key(key, index, "[form]")
            if a >= bidx:
                raise PsaError(f"[form] {key}: use strictly increasing "
                               f"frame order")
            comps[(a, bidx)] = _parse_exprs(ctx, value, 1,
                                            f"[form] {key}")[0]
        b.form = FormField(ctx, len(frame_names), 2, comps)

    if df.has("bracket"):
        b.algebroid = ChartAlgebroid(ctx, frame_names, anchor,
                                     read_table("bracket"), kind="lie")
    if df.has("product"):
        b.algebroid = ChartAlgebroid(ctx, frame_names, anchor,
                                     read_table("product"), kind="lsa")
    if df.has("star"):
        if pairing is None:
            raise PsaError("[star] requires a [pairing] section")
        b.structure = PreSymStructure(ctx, frame_names, anchor,
                                      read_table("star"), pairing)

    if df.has("connection"):
        n = len(coords)
        if n == 0:
            raise PsaError("[connection] requires chart coordinates")
        cindex = {nm: i for i, nm in enumerate(coords)}
        gamma = [[[ctx.zero()] * n for _ in range(n)] for _ in range(n)]
        for key, value in df.get("connection").items():
            i, j = _pair_key(key, cindex, "[connection]")
            gamma[i][j] = _parse_exprs(ctx, value, n, f"[connection] {key}")
        b.connection = FlatConnection(ctx, gamma)

    if df.has("phi"):
        n = len(coords)
        if n == 0:
            raise PsaError("[phi] requires chart coordinates")
        cindex = {nm: i for i, nm in enumerate(coords)}
        comps = [[[ctx.zero()] * n for _ in range(n)] for _ in range(n)]
        for key, value in df.get("phi").items():
            i, j = _pair_key(key, cindex, "[phi]")
            comps[i][j] = _parse_exprs(ctx, value, n, f"[phi] {key}")
        try:
            b.phi = PhiTensor(ctx, comps)
        except ValueError as exc:
            raise PsaError(f"[phi]: {exc}") from exc

    if df.has("splitting"):
        if frame_names is None:
            raise PsaError("[splitting] requires a [frame] section")
        cindex = {nm: i for i, nm in enumerate(coords)}
        rows = [None] * len(coords)
        for key, value in df.get("splitting").items():
            if key not in cindex:
                raise PsaError(f"[splitting]: unknown coordinate '{key}'")
            rows[cindex[key]] = _parse_exprs(ctx, value, len(frame_names),
                                             f"[splitting] {key}")
        if any(r is None for r in rows):
            raise PsaError("[splitting] needs one row per coordinate")
        b.splitting = Splitting(rows)

    if df.has("paracomplex"):
        if frame_names is None:
            raise PsaError("[paracomplex] requires a [frame] section")
        r = len(frame_names)
        index = {nm: i for i, nm in enumerate(frame_names)}
        cols = [None] * r
        for key, value in df.get("paracomplex").items():
            if key not in index:
                raise PsaError(f"[paracomplex]: unknown frame name '{key}'")
            cols[index[key]] = _parse_exprs(ctx, value, r,
                                            f"[paracomplex] {key}")
        if any(c is None for c in cols):
            raise PsaError("[paracomplex] needs one column per frame name")
        rows = [[cols[bidx][a] for bidx in range(r)] for a in range(r)]
        b.paracomplex = ParaComplexOp(ctx, rows)

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


def emit(b: Bundle) -> str:
    """Deterministic text for a bundle; inverse of realize up to zero
    entries and formatting."""
    out = []
    if b.description:
        out.append(f"# {b.name}: {b.description}" if b.name
                   else f"# {b.description}")

    ctx = None
    for obj in (b.structure, b.algebroid, b.connection, b.phi):
        if obj is not None:
            ctx = obj.ctx
            break
    if ctx is not None and (ctx.coords or ctx.funcs):
        out.append("[chart]")
        if ctx.coords:
            out.append(f"coords = {_fmt_list(ctx.coords)}")
        if ctx.funcs:
            out.append(f"funcs = {_fmt_list(ctx.funcs)}")
        out.append("")

    if b.algebra is not None:
        alg = b.algebra
        out.append("[algebra]")
        out.append(f"names = {_fmt_list(alg.names)}")
        for a in range(alg.dim):
            for bidx in range(alg.dim):
                row = [alg.constants.get((a, bidx, k), Fraction(0))
                       for k in range(alg.dim)]
                if any(row):
                    out.append(f"{alg.names[a]} {alg.names[bidx]} = "
                               f"{_fmt_list(row)}")
        out.append("")

    carrier = b.structure if b.structure is not None else b.algebroid
    if carrier is not None:
        out.append("[frame]")
        out.append(f"names = {_fmt_list(carrier.names)}")
        out.append("")
        out.append("[anchor]")
        for a, nm in enumerate(carrier.names):
            if any(not x.is_zero() for x in carrier.anchor[a]):
                out.append(f"{nm} = {_fmt_list(carrier.anchor[a])}")
        out.append("")
        section = "star" if b.structure is not None else (
            "bracket" if carrier.kind == "lie" else "product")
        out.append(f"[{section}]")
        r = carrier.rank
        for a in range(r):
            for bidx in range(r):
                cell = carrier.table[a][bidx]
                if any(not x.is_zero() for x in cell):
                    out.append(f"{carrier.names[a]} {carrier.names[bidx]}"
                               f" = {_fmt_list(cell)}")
        out.append("")

    if b.structure is not None:
        out.append("[pairing]")
        for a in range(b.structure.rank):
            for bidx in range(a + 1, b.structure.rank):
                v = b.structure.pairing.rows[a][bidx]
                if not v.is_zero():
                    out.append(f"{b.structure.names[a]} "
                               f"{b.structure.names[bidx]} = {v}")
        out.append("")

    if b.form is not None:
        names = carrier.names if carrier is not None else None
        if names is None:
            raise PsaError("cannot emit a form without a frame")
        out.append("[form]")
        for (a, bidx) in sorted(b.form.components):
            out.append(f"{names[a]} {names[bidx]} = "
                       f"{b.form.components[(a, bidx)]}")
        out.append("")

    if b.connection is not None:
        out.append("[connection]")
        coords = b.connection.ctx.coords
        n = b.connection.rank
        for i in range(n):
            for j in range(n):
                cell = b.connection.table[i][j]
                if any(not x.is_zero() for x in cell):
                    out.append(f"{coords[i]} {coords[j]} = "
                               f"{_fmt_list(cell)}")
        out.append("")

    if b.phi is not None:
        out.append("[phi]")
        coords = b.phi.ctx.coords
        n = b.phi.dim
        for i in range(n):
            for j in range(n):
                cell = b.phi.comps[i][j]
                if any(not x.is_zero() for x in cell):
                    out.append(f"{coords[i]} {coords[j]} = "
                               f"{_fmt_list(cell)}")
        out.append("")

    if b.splitting is not None:
        out.append("[splitting]")
        coords = ctx.coords if ctx is not None else ()
        for i, row in enumerate(b.splitting.sigma):
            out.append(f"{coords[i]} = {_fmt_list(row)}")
        out.append("")

    if b.paracomplex is not None:
        names = carrier.names
        out.append("[paracomplex]")
        r = b.paracomplex.rank
        for bidx in range(r):
            col = b.paracomplex.column(bidx)
            if any(not x.is_zero() for x in col):
                out.append(f"{names[bidx]} = {_fmt_list(col)}")
        out.append("")

    while out and out[-1] == "":
        out.pop()
    return "\n".join(out) + "\n"
