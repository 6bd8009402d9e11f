"""Command line behavior: suites, derivations, cohomology, examples,
exit codes, and report determinism."""

import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import psalib
from psalib import cli, fixtures, lsa
from psalib.cli import main
from psalib.exactclass import FlatConnection
from psalib.exprcore import ChartContext, ExprError
from psalib.psafile import Bundle, emit, load_path
from psalib.report import CheckReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def fixture_file(tmp_path):
    def write(name):
        p = tmp_path / f"{name}.psa"
        p.write_text(emit(fixtures.build(name)), encoding="utf-8")
        return str(p)
    return write


# ---------------------------------------------------------------------------
# check


@pytest.mark.parametrize("name", fixtures.REGISTRY_NAMES)
def test_every_fixture_passes_all_suites(capsys, fixture_file, name):
    code, out, _ = run(capsys, "check", fixture_file(name))
    assert code == 0
    assert ", 0 fail," in out.splitlines()[-1]


def test_check_failure_exits_one(capsys, tmp_path):
    p = tmp_path / "bad.psa"
    p.write_text("[algebra]\nnames = a, b\na b = 0, 1\nb b = 1, 0\n",
                 encoding="utf-8")
    code, out, _ = run(capsys, "check", str(p))
    assert code == 1
    assert "[FAIL]" in out


def test_check_inapplicable_suite_exits_two(capsys, fixture_file):
    code, _, err = run(capsys, "check", fixture_file("lsa2"),
                       "--suite", "presym")
    assert code == 2
    assert "not applicable" in err


def test_check_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "check", "does-not-exist.psa")
    assert code == 2
    assert "error:" in err


def test_check_malformed_file_exits_two(capsys, tmp_path):
    p = tmp_path / "junk.psa"
    p.write_text("[nope]\n", encoding="utf-8")
    code, _, err = run(capsys, "check", str(p))
    assert code == 2
    assert "unknown section" in err


@pytest.mark.parametrize("command", [["check"],
                                     ["derive", "--direction", "to-star"],
                                     ["cohomology", "--degree", "1"]])
def test_non_utf8_file_exits_two(capsys, tmp_path, command):
    p = tmp_path / "b.psa"
    p.write_bytes(b"[algebra]\nnames = e1, e2\ne1 e2 = 0, \xff\n")
    code, out, err = run(capsys, command[0], str(p), *command[1:])
    assert code == 2
    assert err == f"error: {p}: not UTF-8 text (byte 0xff: invalid " \
                  "start byte)\n"
    assert out == ""


@pytest.mark.parametrize("missing_dir", [True, False],
                         ids=["missing-dir", "empty-path"])
@pytest.mark.parametrize("command, example", [
    (["check", "--json"], None),
    (["derive", "--direction", "to-bracket", "-o"], None),
    (["examples", "-o"], "sphere"),
])
def test_unwritable_output_path_exits_two(capsys, fixture_file, tmp_path,
                                          command, example, missing_dir):
    """Nothing is printed on stdout: `check` opens its report before any
    check runs."""
    target = str(tmp_path / "missing" / "out") if missing_dir else ""
    source = example or fixture_file("sphere")
    code, out, err = run(capsys, command[0], source, *command[1:], target)
    assert code == 2
    assert err == f"error: [Errno 2] No such file or directory: " \
                  f"'{target}'\n"
    assert out == ""
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command", [["check"],
                                     ["cohomology", "--degree", "1"],
                                     ["derive", "--direction", "to-bracket"]])
def test_every_command_turns_an_expression_error_into_exit_two(
        capsys, monkeypatch, command):
    """`main` is the one exit for input errors: an ExprError from loading
    is one `error:` line and exit 2 under every command that loads."""
    def boom(path):
        raise ExprError("boom")
    monkeypatch.setattr(cli, "load_path", boom)
    code, out, err = run(capsys, command[0], "any.psa", *command[1:])
    assert (code, out, err) == (2, "", "error: boom\n")


def test_examples_broken_stdout_exits_two(capsys, monkeypatch):
    def broken(text):
        raise BrokenPipeError(32, "Broken pipe")
    monkeypatch.setattr(sys.stdout, "write", broken)
    code, _, err = run(capsys, "examples", "r2n")
    assert code == 2
    assert err == "error: [Errno 32] Broken pipe\n"


def test_check_deeply_nested_entry_exits_two(tmp_path):
    # run as a process: a RecursionError would print a traceback, exit 1
    deep = "(" * 3000 + "x1" + ")" * 3000
    p = tmp_path / "deep.psa"
    p.write_text("[chart]\ncoords = x1, x2\n[frame]\nnames = d1, d2\n"
                 f"[anchor]\nd1 = {deep}, 0\nd2 = 0, 1\n[star]\n"
                 "[pairing]\nd1 d2 = 1\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(psalib.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "psalib.cli", "check",
                           str(p)], capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert "nesting deeper than" in proc.stderr


def _check_process(path, *args, timeout=None):
    env = dict(os.environ, PYTHONPATH=str(Path(psalib.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "psalib.cli", "check",
                           str(path), *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


DATA = Path(__file__).resolve().parent / "data"


def test_rank6_rational_pairing_terminates():
    """The pairing of w0 + d(alpha) on a flat 6-chart, with w0 = dx1^dx4 +
    dx2^dx5 + dx3^dx6 and alpha = x2 x3 dx1 + x5 x6 dx2 + x1 x4 dx3 +
    x3 x6 dx4 + x2 x4 dx5 + x1 x5 dx6: its Pfaffian has 18 terms of degree
    3, and its determinant 140.  The check takes about 2.5 s on a 2-core
    VM, a tenth of the timeout.  Its empty [star] fails three checks,
    whose witnesses are pinned in the .out file."""
    proc = _check_process(DATA / "rank6-exact-form.psa", timeout=25)
    assert proc.returncode in (0, 1) and proc.stderr == ""
    want = (DATA / "rank6-exact-form.out").read_text(encoding="utf-8")
    assert proc.stdout == want
    failing = [line.split()[1].rstrip(":") for line in want.splitlines()
               if line.startswith("[FAIL]")]
    assert failing == ["presym.def-i", "presym.def-ii", "presym.star-with-D"]


def test_check_deeply_nested_entry_error_is_one_bounded_line(tmp_path):
    # the entry is quoted once, cut to a prefix
    deep = "(" * 3000 + "x1" + ")" * 3000
    p = tmp_path / "deep.psa"
    p.write_text("[chart]\ncoords = x1, x2\n[frame]\nnames = d1, d2\n"
                 f"[anchor]\nd1 = {deep}, 0\nd2 = 0, 1\n[star]\n"
                 "[pairing]\nd1 d2 = 1\n", encoding="utf-8")
    proc = _check_process(p)
    assert proc.returncode == 2
    line = proc.stderr
    assert line.count("\n") == 1 and len(line.encode()) < 300
    assert line.startswith("error: [anchor] d1: ")
    assert "at position 100" in line
    assert line.count("'(((") == 1 and line.endswith("'...\n")


def test_check_third_derivative_exits_two(tmp_path):
    # the twisted product differentiates d2(f,y,y) once more, past the
    # formal-derivative cap
    p = tmp_path / "d3.psa"
    p.write_text("[chart]\ncoords = x, y\nfuncs = f\n[connection]\n"
                 "[phi]\nx x = 0, -d2(f,y,y)\ny x = d2(f,y,y), 0\n",
                 encoding="utf-8")
    proc = _check_process(p)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: third derivative of f exceeds the cap\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("anchor, pairing", [("d2(g,x,x), 0", "1"),
                                             ("1, 0", "1 + d2(g,x,x)")])
def test_star_table_past_the_derivative_cap_exits_two(capsys, tmp_path,
                                                      anchor, pairing):
    # the presym suite differentiates a second partial of g once more (the
    # anchor's while def-i screens its formal-slot cases, the pairing's in
    # def-ii's frame triples): an input error, which skipping formal-slot
    # cases must not hide
    p = tmp_path / "cap.psa"
    p.write_text("[chart]\ncoords = x, y\nfuncs = g\n[frame]\n"
                 f"names = d1, d2\n[anchor]\nd1 = {anchor}\nd2 = 0, 1\n"
                 f"[star]\n[pairing]\nd1 d2 = {pairing}\n", encoding="utf-8")
    code, _, err = run(capsys, "check", str(p), "--suite", "presym")
    assert code == 2
    assert err == "error: third derivative of g exceeds the cap\n"


@pytest.mark.parametrize("command", [["check"],
                                     ["cohomology", "--degree", "1"]])
@pytest.mark.parametrize("coords", ["x, x", "x, d"])
def test_bad_chart_names_exit_two(tmp_path, command, coords):
    # a duplicate or reserved coordinate name is an input error, named
    # after its section, not a traceback
    p = tmp_path / "chart.psa"
    p.write_text(f"[chart]\ncoords = {coords}\n[connection]\n",
                 encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(psalib.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "psalib.cli", *command,
                           str(p)], capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: [chart]: ")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


@pytest.mark.parametrize("command", [["check"],
                                     ["cohomology", "--degree", "1"],
                                     ["derive", "--direction", "to-bracket"]])
@pytest.mark.parametrize("text, message", [
    # a splitting lifts chart directions, so a chart without coordinates
    # has none to lift
    ("[frame]\nnames = e1, e2\n[anchor]\n[star]\n[pairing]\ne1 e2 = 1\n"
     "[splitting]\n", "[splitting] requires chart coordinates"),
    # a repeated name would put the file's rows on its last position
    ("[chart]\ncoords = x\n[frame]\nnames = e1, e2, e1\n[anchor]\n"
     "[bracket]\ne1 e2 = 1, 0, 0\n", "[frame]: duplicate name 'e1'"),
    ("[algebra]\nnames = e1, e2, e1\ne1 e2 = 1, 0, 0\n",
     "[algebra]: duplicate name 'e1'"),
    # a misspelt key would otherwise be ignored and the file checked as if
    # it were absent
    ("[chart]\ncoords = x\ncoordz = z\n[frame]\nnames = e1\n[anchor]\n"
     "e1 = 1\n[bracket]\n", "[chart]: unknown key 'coordz'"),
    ("[chart]\ncoords = x\n[frame]\nnames = e1\nnmes = a\n[anchor]\n"
     "e1 = 1\n[bracket]\n", "[frame]: unknown key 'nmes'"),
], ids=["splitting-without-coords", "frame-repeated-name",
        "algebra-repeated-name", "chart-unknown-key", "frame-unknown-key"])
def test_ill_formed_sections_exit_two(capsys, tmp_path, command, text,
                                      message):
    p = tmp_path / "bad.psa"
    p.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, command[0], str(p), *command[1:])
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""


_NOT_INVOLUTION = "[paracomplex]\ne1 = 1, 0\ne2 = 0, 5\n"


@pytest.mark.parametrize("text, message", [
    # a connection alone is checked by no suite, so P = diag(1, 5), which
    # is no involution, would go unchecked
    ("[chart]\ncoords = x, y\n[frame]\nnames = e1, e2\n[connection]\n"
     "x x = 1, 0\n" + _NOT_INVOLUTION,
     "[paracomplex] needs a [star] table, a [connection] with [phi], or a "
     "[bracket] with a [form]"),
    # a bracket without a form has algebroid checks but no section product
    ("[chart]\ncoords = x, y\n[frame]\nnames = e1, e2\n[anchor]\n"
     "e1 = 1, 0\ne2 = 0, 1\n[bracket]\n" + _NOT_INVOLUTION,
     "[paracomplex] needs a [star] table, a [connection] with [phi], or a "
     "[bracket] with a [form]"),
    ("[chart]\ncoords = x, y\n[connection]\nx x = 1, 0\n",
     "no suite applies to {path}"),
], ids=["paracomplex-beside-connection", "paracomplex-beside-bracket",
        "connection-only"])
def test_check_with_nothing_to_check_exits_two(capsys, tmp_path, text,
                                               message):
    p = tmp_path / "unchecked.psa"
    p.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "check", str(p))
    assert code == 2
    assert err == f"error: {message.format(path=p)}\n"
    assert out == ""


def test_parakahler_degenerate_pairing_is_a_failed_check(tmp_path):
    # (e1,f1) = 0 makes the pairing singular: the suites that need the
    # section product are skipped, the nondegeneracy checks fail
    text = emit(fixtures.build("parakahler-lsa2"))
    assert "e1 f1 = -1\n" in text
    p = tmp_path / "degenerate.psa"
    p.write_text(text.replace("e1 f1 = -1\n", "e1 f1 = 0\n"),
                 encoding="utf-8")
    proc = _check_process(p)
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == \
        "24 checks: 7 pass, 2 fail, 15 skipped"


def test_exact_degenerate_pairing_is_a_failed_check(tmp_path):
    # an empty [pairing] cannot be inverted: the sequence check fails,
    # the checks that need the dual anchor or the section product are
    # skipped, and the connection, anchor and splitting checks still run
    p = tmp_path / "degenerate.psa"
    p.write_text("[chart]\ncoords = x\n\n[frame]\nnames = e1, e2\n\n"
                 "[anchor]\ne1 = 1\n\n[star]\n\n[pairing]\n\n[connection]\n",
                 encoding="utf-8")
    proc = _check_process(p, "--json", str(tmp_path / "report.json"))
    assert proc.returncode == 1
    assert proc.stderr == ""
    report = json.loads((tmp_path / "report.json").read_text("utf-8"))
    exact = {c["id"]: (c["status"], c["witness"]) for c in report["checks"]
             if c["id"].startswith("exact.")}
    skipped = ("skipped", "not evaluated: pairing is degenerate")
    assert exact == {
        "exact.connection-torsion-free": ("pass", None),
        "exact.connection-flat": ("pass", None),
        "exact.anchor-surjective": ("pass", None),
        "exact.sequence": ("fail", "pairing determinant vanishes: 0"),
        "exact.anchor-compatible": skipped,
        "exact.splitting-section": ("pass", None),
        "exact.splitting-isotropic": ("pass", None),
        "exact.phi-in-image": skipped,
        "exact.phi-13-antisymmetry": skipped,
        "exact.phi-pair-symmetry": skipped,
        "exact.phi-closed": skipped,
    }
    assert proc.stdout.splitlines()[-1] == \
        "21 checks: 6 pass, 2 fail, 13 skipped"


def test_exact_suite_runs_on_twist_file(capsys, fixture_file):
    code, out, _ = run(capsys, "check", fixture_file("twist-r2"),
                       "--suite", "exact")
    assert code == 0
    assert "exact.phi-closed" in out


def test_check_builds_the_twisted_product_once(capsys, fixture_file,
                                               tmp_path, monkeypatch):
    """The skew-pairing structure is built once per `psa check` and shared
    by presym, exact and parakahler; the report is byte for byte the one
    that a structure built afresh for each suite gives."""
    f = fixture_file("twist-r2")
    b = load_path(f)
    suites = cli.applicable_suites(b)
    assert {"presym", "exact"} <= set(suites)
    separate = CheckReport()
    for suite in suites:
        separate.extend(cli.run_suites(b, [suite]))
    calls = []
    build = cli.twisted_product

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(cli, "twisted_product", counting)
    shared = tmp_path / "shared.json"
    code, _, _ = run(capsys, "check", f, "--json", str(shared))
    assert code == 0
    assert len(calls) == 1
    assert _strip_timing(shared.read_text(encoding="utf-8")) == \
        _strip_timing(separate.to_json(f))


def test_json_report_shape(capsys, fixture_file, tmp_path):
    out_json = tmp_path / "report.json"
    code, _, _ = run(capsys, "check", fixture_file("sphere"),
                     "--json", str(out_json))
    assert code == 0
    data = json.loads(out_json.read_text(encoding="utf-8"))
    assert set(data) == {"artifact", "checks"}
    assert data["checks"], "report must not be empty"
    for c in data["checks"]:
        assert set(c) == {"id", "anchor", "status", "witness", "wall_ms"}
    ids = [c["id"] for c in data["checks"]]
    assert ids == sorted(ids)


def _strip_timing(text: str) -> str:
    return re.sub(r'"wall_ms": [0-9.]+', '"wall_ms": _', text)


@pytest.mark.parametrize("name", fixtures.REGISTRY_NAMES)
def test_json_reports_deterministic(capsys, fixture_file, tmp_path, name):
    f = fixture_file(name)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "check", f, "--json", str(a))
    run(capsys, "check", f, "--json", str(b))
    ra = a.read_text(encoding="utf-8")
    rb = b.read_text(encoding="utf-8")
    assert _strip_timing(ra) == _strip_timing(rb)


# ---------------------------------------------------------------------------
# derive


def test_derive_to_star_output_passes(capsys, fixture_file, tmp_path):
    out = tmp_path / "derived.psa"
    code, _, _ = run(capsys, "derive", fixture_file("bisection"),
                     "--direction", "to-star", "-o", str(out))
    assert code == 0
    code, _, _ = run(capsys, "check", str(out))
    assert code == 0


def test_derive_round_trip_stabilizes(capsys, fixture_file, tmp_path):
    """star -> bracket -> star reproduces the first derived file byte for
    byte, so one round trip is a fixed point."""
    p1 = tmp_path / "s1.psa"
    p2 = tmp_path / "b1.psa"
    p3 = tmp_path / "s2.psa"
    run(capsys, "derive", fixture_file("bisection"),
        "--direction", "to-star", "-o", str(p1))
    run(capsys, "derive", str(p1), "--direction", "to-bracket", "-o", str(p2))
    run(capsys, "derive", str(p2), "--direction", "to-star", "-o", str(p3))
    assert p1.read_bytes() == p3.read_bytes()


def test_derive_bracket_side_stabilizes(capsys, fixture_file, tmp_path):
    p1 = tmp_path / "b1.psa"
    p2 = tmp_path / "s1.psa"
    p3 = tmp_path / "b2.psa"
    run(capsys, "derive", fixture_file("sphere"),
        "--direction", "to-bracket", "-o", str(p1))
    run(capsys, "derive", str(p1), "--direction", "to-star", "-o", str(p2))
    run(capsys, "derive", str(p2), "--direction", "to-bracket", "-o", str(p3))
    assert p1.read_bytes() == p3.read_bytes()


def test_derive_pseudo_semidirect_matches_fixture(capsys, fixture_file,
                                                  tmp_path):
    out = tmp_path / "sd.psa"
    run(capsys, "derive", fixture_file("lsa2"),
        "--direction", "pseudo-semidirect", "-o", str(out))
    derived = out.read_text(encoding="utf-8")
    shipped = emit(fixtures.build("semidirect-lsa2"))
    shipped = "\n".join(l for l in shipped.splitlines()
                        if not l.startswith("#")) + "\n"
    assert derived == shipped.lstrip("\n")


def test_derive_twist_output_passes_exact(capsys, fixture_file, tmp_path):
    out = tmp_path / "tw.psa"
    code, _, _ = run(capsys, "derive", fixture_file("twist-r2"),
                     "--direction", "twist", "-o", str(out))
    assert code == 0
    code, out_text, _ = run(capsys, "check", str(out), "--suite", "exact")
    assert code == 0
    assert "[PASS] exact.sequence" in out_text


def test_derive_inapplicable_exits_two(capsys, fixture_file):
    code, _, err = run(capsys, "derive", fixture_file("lsa2"),
                       "--direction", "to-star")
    assert code == 2
    assert "to-star needs" in err


def test_derive_writes_stdout_without_output_flag(capsys, fixture_file):
    code, out, _ = run(capsys, "derive", fixture_file("r2n"),
                       "--direction", "to-bracket")
    assert code == 0
    assert "[bracket]" in out and "[form]" in out


# ---------------------------------------------------------------------------
# cohomology


def test_cohomology_point_dims(capsys, fixture_file):
    f = fixture_file("lsa2")
    code, out, _ = run(capsys, "cohomology", f, "--degree", "2")
    assert code == 0
    assert "degree 2: ker = 1  im = 0  h = 1" in out
    assert "agree" in out


def test_cohomology_disagreeing_eliminations_exit_one(capsys, fixture_file,
                                                      monkeypatch):
    """When the Gauss rank differs from the Bareiss one, the command prints
    both triples and exits 1."""
    gauss = lsa.rank_second_opinion
    monkeypatch.setattr(lsa, "rank_second_opinion", lambda m: gauss(m) + 1)
    code, out, err = run(capsys, "cohomology", fixture_file("lsa2"),
                         "--degree", "2")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[-2:] == [
        "degree 2: ker = 1  im = 0  h = 1",
        "eliminations disagree: gauss gives ker = -1  im = 0  h = -1"]


def test_cohomology_chart_route(capsys, fixture_file):
    code, out, _ = run(capsys, "cohomology", fixture_file("twist-r2"),
                       "--degree", "2", "--truncate", "2")
    assert code == 0
    assert "degree 2: ker = 12  im = 7  h = 5" in out


def test_cohomology_degree_gate(capsys, fixture_file):
    f = fixture_file("lsa2")
    code, _, err = run(capsys, "cohomology", f, "--degree", "4")
    assert code == 2
    assert "--full" in err
    code, out, _ = run(capsys, "cohomology", f, "--degree", "4", "--full")
    assert code == 0
    assert "degree 4" in out
    code, out, err = run(capsys, "cohomology", f, "--degree", "-1", "--full")
    assert (code, out, err) == (2, "", "error: degree must be >= 1\n")


def test_cohomology_rejects_negative_truncation(capsys, fixture_file):
    code, out, err = run(capsys, "cohomology", fixture_file("twist-r2"),
                         "--degree", "2", "--truncate", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --truncate must be >= 0\n"


def test_cohomology_needs_algebra_or_connection(capsys, fixture_file):
    code, _, err = run(capsys, "cohomology", fixture_file("sphere"),
                       "--degree", "2")
    assert code == 2
    assert "needs an" in err


# ---------------------------------------------------------------------------
# examples


def test_examples_lists_registry_in_order(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    listed = [line.split()[0] for line in out.splitlines() if line.strip()]
    assert listed == list(fixtures.REGISTRY_NAMES)


def test_examples_emits_named_fixture(capsys, tmp_path):
    out_file = tmp_path / "x.psa"
    code, _, _ = run(capsys, "examples", "parakahler-lsa2",
                     "-o", str(out_file))
    assert code == 0
    assert "[paracomplex]" in out_file.read_text(encoding="utf-8")


def test_examples_unknown_name_exits_two(capsys):
    code, _, err = run(capsys, "examples", "zzz")
    assert code == 2
    assert "unknown fixture" in err


def test_examples_output_without_name_exits_two(capsys, tmp_path):
    out_file = tmp_path / "x.psa"
    code, out, err = run(capsys, "examples", "-o", str(out_file))
    assert code == 2
    assert out == ""
    assert err == "error: -o/--output needs a fixture NAME\n"
    assert not out_file.exists()


# ---------------------------------------------------------------------------
# cohomology budget


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_cohomology_over_budget_exits_two_before_building(fixture_file):
    """Run as a process capped at 1 GB and 10 s: without the budget the
    complex would enumerate its five billion monomials."""
    env = dict(os.environ, PYTHONPATH=str(Path(psalib.__file__).parents[1]))
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "psalib.cli", "cohomology",
         fixture_file("twist-r2"), "--degree", "1", "--truncate", "100000"],
        capture_output=True, text=True, env=env, timeout=10,
        preexec_fn=_limit_memory)
    assert time.perf_counter() - started < 1.0
    assert proc.returncode == 2
    assert proc.stdout == ""
    # the degree-1 and degree-2 spaces: 2 and 2 * 2 keys, each times
    # the C(100002, 2) monomials of degree <= 100000 in 2 variables
    assert proc.stderr == (
        "error: this complex needs a 20000600004-dimensional cochain "
        "space, above the budget of 4000; lower --truncate or --degree\n")


@pytest.mark.parametrize("rank, truncate, degree", [
    (4, 3, 3),   # README's flat 4-chart
    (3, 3, 3),   # the largest perfbench cohomology cell
    (2, 40, 2),  # 3444-dimensional, COCHAIN_BUDGET's reference point
])
def test_cohomology_budget_admits_documented_cells(capsys, tmp_path,
                                                   monkeypatch, rank,
                                                   truncate, degree):
    """The budget refuses none of these; the ranks are stubbed out."""
    p = tmp_path / "flat.psa"
    p.write_text(emit(Bundle(connection=FlatConnection(ChartContext(
        coords=tuple(f"x{i + 1}" for i in range(rank)))))), encoding="utf-8")
    monkeypatch.setattr(cli, "restricted_dims",
                        lambda cx, degree: dict.fromkeys(("bareiss", "gauss"),
                                                         (0, 0, 0)))
    code, _, err = run(capsys, "cohomology", str(p), "--truncate",
                       str(truncate), "--degree", str(degree))
    assert (code, err) == (0, "")


# runs `psa cohomology` from argv, then prints its own peak resident size
PEAK_CHILD = """
import os, sys
from psalib.cli import main
code = main(sys.argv[1:])
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as status:
        sys.stderr.write("".join(line for line in status
                                 if line.startswith("VmHWM:")))
sys.exit(code)
"""


def test_cohomology_at_the_budget_reference_stays_small(tmp_path):
    """flat-2 at --truncate 40 --degree 2 (space 3444) prints its triple,
    both eliminations agree, and the process peaks under 40 MB where
    /proc gives its VmHWM.  Dense whole-space matrices peaked at about
    190 MB on this input."""
    p = tmp_path / "flat-2.psa"
    p.write_text("[chart]\ncoords = x1, x2\n\n[connection]\n",
                 encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(psalib.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_CHILD, "cohomology", str(p),
         "--truncate", "40", "--degree", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "complex: chart, 2 flat coordinates, polynomial degree <= 40\n"
        "degree 2: ker = 943  im = 900  h = 43\n"
        "eliminations: bareiss and gauss agree\n")
    if os.path.exists("/proc/self/status"):
        peak = re.fullmatch(r"VmHWM:\s+(\d+) kB\n", proc.stderr)
        assert peak, proc.stderr
        assert int(peak.group(1)) < 40 * 1024


# ---------------------------------------------------------------------------
# argv reader


def read(capsys, *argv):
    """(exit code, stdout, stderr) of a command line the reader stops."""
    with pytest.raises(SystemExit) as stopped:
        main(list(argv))
    captured = capsys.readouterr()
    return stopped.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv, message", [
    ([], "missing command; choose from check, derive, cohomology, examples"),
    (["bogus", "x.psa"], "unknown command 'bogus'"),
    (["check"], "the following arguments are required: file"),
    (["derive", "x.psa"], "the following arguments are required: "
                          "--direction"),
    (["cohomology", "x.psa"], "the following arguments are required: "
                              "--degree"),
    (["check", "x.psa", "--suite", "bogus"],
     "option --suite: invalid choice 'bogus'"),
    (["derive", "x.psa", "--direction=sideways"],
     "option --direction: invalid choice 'sideways'"),
    (["cohomology", "x.psa", "--degree", "two"],
     "option --degree: invalid int value 'two'"),
    (["check", "x.psa", "--x"], "unknown option '--x'"),
    (["cohomology", "x.psa", "--deg", "2"],
     "unknown option '--deg' (options are not abbreviated: --degree)"),
    (["check", "x.psa", "--json"], "option --json expects a value"),
    (["derive", "x.psa", "--direction", "-o", "out.psa"],
     "option --direction expects a value"),
    (["check", "x.psa", "y.psa"], "unexpected argument 'y.psa'"),
    (["cohomology", "x.psa", "--degree", "2", "--full=yes"],
     "option --full takes no value"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_usage_errors_exit_two(capsys, argv, message):
    code, out, err = read(capsys, *argv)
    assert code == 2
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: psa ")
    assert error.startswith("psa: error: ")
    assert message in error
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"],
    *([command, "-h"] for command in ("check", "derive", "cohomology",
                                      "examples")),
    ["cohomology", "x.psa", "--degree", "bad", "--help"],
])
def test_help_exits_zero(capsys, argv):
    code, out, err = read(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out.startswith("usage: psa ")
    command = argv[0] if argv[0] in cli.COMMANDS else None
    for name, row in cli.COMMANDS.items():
        if command in (None, name):
            assert row[1] in out


@pytest.mark.parametrize("argv", [
    ["cohomology", "{f}", "--degree=2", "--truncate=1"],
    ["cohomology", "--degree", "2", "--truncate", "1", "{f}"],
    ["cohomology", "--truncate", "3", "{f}", "--degree", "1",
     "--truncate", "1", "--degree", "2"],
])
def test_option_forms_agree(capsys, fixture_file, argv):
    f = fixture_file("twist-r2")
    spaced = run(capsys, "cohomology", f, "--degree", "2", "--truncate", "1")
    assert spaced[0] == 0
    assert run(capsys, *(f if a == "{f}" else a for a in argv)) == spaced


def test_json_equals_form_writes_the_same_report(capsys, fixture_file,
                                                 tmp_path):
    f = fixture_file("sphere")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    spaced = run(capsys, "check", f, "--json", str(a))
    joined = run(capsys, "check", f"--json={b}", f)
    assert joined == spaced
    assert _strip_timing(b.read_text(encoding="utf-8")) == \
        _strip_timing(a.read_text(encoding="utf-8"))


def test_import_loads_no_argparse_or_dataclasses():
    """`psa` starts without argparse, gettext, locale, dataclasses or
    inspect: each costs milliseconds on every run."""
    env = dict(os.environ, PYTHONPATH=str(Path(psalib.__file__).parents[1]))
    heavy = ("argparse", "gettext", "locale", "dataclasses", "inspect")
    proc = subprocess.run(
        [sys.executable, "-c", "import psalib.cli, sys; print(' '.join("
         f"m for m in {heavy!r} if m in sys.modules))"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == []
