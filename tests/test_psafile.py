"""Definition-file parsing, realization, and emission.  The round trip
also reads the benchmark's committed inputs; it only reads `perfbench/`."""

from pathlib import Path

import pytest

from psalib import fixtures
from psalib.parakahler import ParaComplexOp
from psalib.psafile import PsaError, emit, load_path, parse, realize

BENCH_INPUTS = sorted((Path(__file__).resolve().parent.parent / "perfbench"
                       / "inputs").glob("*.psa"))


def realize_text(text, **kw):
    return realize(parse(text), **kw)


# ---------------------------------------------------------------------------
# round trips through the text format


@pytest.mark.parametrize("source", [
    *fixtures.REGISTRY_NAMES,
    *(pytest.param(path, id=path.name) for path in BENCH_INPUTS)])
def test_emit_parse_realize_round_trip(source):
    if isinstance(source, Path):
        # a benchmark input is emit's own text, after its "# name:
        # description" line if it has one
        text = source.read_text(encoding="utf-8")
        if text.startswith("# "):
            text = text.partition("\n")[2]
        assert emit(load_path(str(source))) == text
        return
    b = fixtures.build(source)
    text = emit(b)
    b2 = realize_text(text, name=b.name, description=b.description)
    assert emit(b2) == text


def test_zero_paracomplex_column_round_trips():
    # realize reads one column per frame name, so emit writes a zero one
    b = fixtures.build("parakahler-lsa2")
    rows = b.paracomplex.matrix.rows
    b.paracomplex = ParaComplexOp(b.paracomplex.ctx,
                                  [row[:-1] + (0,) for row in rows])
    text = emit(b)
    assert "\nf2 = 0, 0, 0, 0\n" in text
    b2 = realize_text(text, name=b.name, description=b.description)
    assert b2.paracomplex.matrix == b.paracomplex.matrix
    assert emit(b2) == text


def test_splitting_round_trips():
    text = ("[chart]\ncoords = x, y\n\n[frame]\nnames = e1, e2\n\n"
            "[anchor]\ne1 = 1, 0\ne2 = 0, 1\n\n[star]\n\n"
            "[pairing]\ne1 e2 = 1\n\n[splitting]\nx = 1, 0\ny = 0, x\n")
    assert emit(realize_text(text)) == text


def test_round_trip_preserves_structure_data():
    b = fixtures.build("sphere")
    b2 = realize_text(emit(b))
    E, F = b.structure, b2.structure
    assert E.names == F.names
    for a in range(E.rank):
        for c in range(E.rank):
            assert (E.pairing.rows[a][c] - F.pairing.rows[a][c]).is_zero()
            for k in range(E.rank):
                assert (E.table[a][c][k] - F.table[a][c][k]).is_zero()
        for j in range(len(E.ctx.coords)):
            assert (E.anchor[a][j] - F.anchor[a][j]).is_zero()


def test_round_trip_preserves_algebra_constants():
    b = fixtures.build("lsa2")
    b2 = realize_text(emit(b))
    assert b2.algebra.constants == b.algebra.constants
    assert b2.algebra.names == b.algebra.names


def test_phi_entries_with_derivative_commas_survive():
    # d(f,y) contains a comma; the list splitter must not cut inside it
    b = fixtures.build("twist-r2")
    b2 = realize_text(emit(b))
    n = b.phi.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert (b.phi.comps[i][j][k] - b2.phi.comps[i][j][k]).is_zero()


def test_load_path(tmp_path):
    p = tmp_path / "sphere.psa"
    p.write_text(emit(fixtures.build("sphere")), encoding="utf-8")
    b = load_path(str(p))
    assert b.structure is not None and b.structure.rank == 2


# ---------------------------------------------------------------------------
# parse errors carry line numbers


def test_unknown_section():
    with pytest.raises(PsaError, match="line 1.*unknown section"):
        parse("[nope]\n")


def test_duplicate_section():
    with pytest.raises(PsaError, match="line 3.*duplicate section"):
        parse("[chart]\ncoords = x\n[chart]\n")


def test_duplicate_key():
    with pytest.raises(PsaError, match="duplicate key"):
        parse("[chart]\ncoords = x\ncoords = y\n")


def test_content_before_section():
    with pytest.raises(PsaError, match="before any section"):
        parse("coords = x\n")


def test_missing_equals():
    with pytest.raises(PsaError, match="expected 'key = value'"):
        parse("[chart]\njust words\n")


def test_comments_and_blanks_ignored():
    df = parse("# a comment\n\n[chart]\n# another\ncoords = x, y\n")
    assert df.get("chart")["coords"] == "x, y"


# ---------------------------------------------------------------------------
# realization errors


def test_star_requires_pairing():
    text = ("[chart]\ncoords = x\n[frame]\nnames = e1\n[anchor]\ne1 = 1\n"
            "[star]\n")
    with pytest.raises(PsaError, match="requires a \\[pairing\\]"):
        realize_text(text)


def test_table_requires_frame_and_anchor():
    with pytest.raises(PsaError, match="\\[bracket\\] requires a \\[frame\\]"):
        realize_text("[chart]\ncoords = x\n[bracket]\n")
    text = "[chart]\ncoords = x\n[frame]\nnames = e1\n[bracket]\n"
    with pytest.raises(PsaError, match="requires an \\[anchor\\]"):
        realize_text(text)


def test_bracket_and_star_mutually_exclusive():
    text = ("[chart]\ncoords = x\n[frame]\nnames = e1\n[anchor]\n"
            "[bracket]\n[star]\n[pairing]\n")
    with pytest.raises(PsaError, match="mutually exclusive"):
        realize_text(text)


def test_pairing_wants_increasing_keys():
    text = ("[chart]\ncoords = x, y\n[frame]\nnames = e1, e2\n[anchor]\n"
            "e1 = 1, 0\ne2 = 0, 1\n[star]\n[pairing]\ne2 e1 = 1\n")
    with pytest.raises(PsaError, match="strictly increasing"):
        realize_text(text)


def test_wrong_entry_count():
    text = ("[chart]\ncoords = x, y\n[frame]\nnames = e1, e2\n[anchor]\n"
            "e1 = 1\n")
    with pytest.raises(PsaError, match="expected 2 entries"):
        realize_text(text)


def test_unknown_frame_name_in_key():
    text = ("[chart]\ncoords = x\n[frame]\nnames = e1\n[anchor]\n"
            "e9 = 1\n")
    with pytest.raises(PsaError, match="unknown frame name"):
        realize_text(text)


def test_bad_rational_in_algebra():
    with pytest.raises(PsaError, match="bad rational"):
        realize_text("[algebra]\nnames = a, b\na b = 0, x\n")


def test_bad_expression_reported_with_location():
    text = "[chart]\ncoords = x\n[connection]\nx x = 1 +\n"
    with pytest.raises(PsaError, match="\\[connection\\] x x"):
        realize_text(text)


def test_unbalanced_parens_in_list():
    text = "[chart]\ncoords = x\n[connection]\nx x = d(f,x\n"
    with pytest.raises(PsaError, match="unbalanced"):
        realize_text(text)


def test_phi_symmetry_violations_rejected():
    text = ("[chart]\ncoords = x, y\n[phi]\nx x = 0, 1\n[connection]\n")
    with pytest.raises(PsaError, match="\\[phi\\]"):
        realize_text(text)


def test_splitting_needs_every_coordinate_row():
    text = ("[chart]\ncoords = x, y\n[frame]\nnames = e1, e2\n[anchor]\n"
            "e1 = 1, 0\ne2 = 0, 1\n[star]\n[pairing]\ne1 e2 = 1\n"
            "[splitting]\nx = 1, 0\n")
    with pytest.raises(PsaError, match="one row per coordinate"):
        realize_text(text)


def test_empty_file_defines_nothing():
    with pytest.raises(PsaError, match="no checkable object"):
        realize_text("[chart]\ncoords = x\n")


def test_emit_paracomplex_needs_a_frame_table():
    # realize accepts a [paracomplex] beside a [connection] alone, but
    # without a frame table there are no names to write its columns under
    b = realize_text("[chart]\ncoords = x, y\n[frame]\nnames = e1, e2\n"
                     "[connection]\n[paracomplex]\ne1 = 1, 0\ne2 = 0, -1\n")
    with pytest.raises(PsaError,
                       match="^cannot emit a paracomplex without a frame$"):
        emit(b)
