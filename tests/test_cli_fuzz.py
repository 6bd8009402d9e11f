"""The exit-code contract of `psa` under mutated input.

Each case takes a registry fixture's `.psa` text, deletes, inserts or
duplicates a few lines or tokens, may splice in a byte that is not UTF-8,
and runs `check`, `derive` or `cohomology` on it, with an argument list
that may itself lose or repeat a token, gain `-h`, an unknown option or
a bare `--`, or spell an option `=`-joined or abbreviated, and an output
path that may sit in a missing directory.  Whatever the input, the
command exits 0, 1 or 2 and prints no traceback: a malformed file, an
unwritable output or an argument list the reader cannot read exits 2,
never crashes.  The bulk runs in-process through `cli.main`; one case
runs as a subprocess, where a crash would show as a traceback on stderr.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, seed, settings, strategies as st

import psalib
from psalib import fixtures
from psalib.cli import DIRECTIONS, main
from psalib.psafile import _SECTIONS, emit

TEXTS = {name: emit(fixtures.build(name)).encode("utf-8")
         for name in fixtures.REGISTRY_NAMES}
# every token of the fixture texts, every section header, plus pieces
# that break the syntax
POOL = sorted({tok for text in TEXTS.values() for tok in text.split()}
              | {f"[{section}]".encode() for section in _SECTIONS}
              | {b"[", b"]", b"=", b",", b"(", b")", b"1/0", b"d(f,x)"})
OPS = ("delete line", "insert line", "duplicate line",
       "delete token", "insert token", "duplicate token", "insert byte")
MUTATION = st.tuples(st.sampled_from(OPS), st.integers(0, 999),
                     st.integers(0, 999), st.sampled_from(POOL))
COMMAND = st.one_of(
    st.just(["check"]),
    st.sampled_from(DIRECTIONS).map(lambda d: ["derive", "--direction", d]),
    st.tuples(st.integers(1, 3), st.integers(0, 2)).map(
        lambda nt: ["cohomology", "--degree", str(nt[0]),
                    "--truncate", str(nt[1])]))
OUTPUT_FLAG = {"check": "--json", "derive": "-o"}


def mutate(text: bytes, mutations) -> bytes:
    """Apply (op, line seed, token seed, token) mutations in order; the
    seeds pick a line and a token modulo the current counts.  "insert
    byte" inserts the token b"\\xff", which is not UTF-8."""
    lines = text.split(b"\n")
    for op, i, j, token in mutations:
        i %= len(lines)
        what, unit = op.split()
        if unit == "byte":
            token = b"\xff"
        if unit == "line":
            if what == "delete" and len(lines) > 1:
                del lines[i]
            elif what == "insert":
                lines.insert(i, token)
            elif what == "duplicate":
                lines.insert(i, lines[i])
            continue
        tokens = lines[i].split(b" ")
        j %= len(tokens)
        if what == "delete":
            del tokens[j]
        elif what == "insert":
            tokens.insert(j, token)
        else:
            tokens.insert(j, tokens[j])
        lines[i] = b" ".join(tokens)
    return b"\n".join(lines)


# argv edits that insert one token
INSERTED = {"help": "-h", "unknown": "--x", "end": "--"}


def argv_for(command, path, output, argv_edit):
    """The argument list: command, file, options, an optional output
    option, then one edit at position k after the command: the deletion
    ("drop") or repetition ("repeat") of the token there, the insertion
    of `-h`, an unknown `--x` or a bare `--` there, or, for the first
    long option at or after k (cyclically), joining it to its value with
    "=" ("join") or cutting it to its first three letters ("abbreviate");
    or no edit (None)."""
    argv = [command[0], str(path), *command[1:]]
    if output is not None and command[0] in OUTPUT_FLAG:
        argv += [OUTPUT_FLAG[command[0]], str(output)]
    what, k = argv_edit
    longs = [i for i, token in enumerate(argv) if token.startswith("--")]
    i = longs[k % len(longs)] if longs else None
    k = 1 + k % (len(argv) - 1)
    if what == "repeat":
        argv.insert(k, argv[k])
    elif what == "drop":
        del argv[k]
    elif what in INSERTED:
        argv.insert(k, INSERTED[what])
    elif what == "join" and i is not None and i + 1 < len(argv):
        argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    elif what == "abbreviate" and i is not None:
        argv[i] = argv[i][:5]
    return argv


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # usage errors and help
            code = exc.code
    return code, err.getvalue()


@seed(20161)
@settings(max_examples=300, deadline=None, database=None)
@given(name=st.sampled_from(sorted(TEXTS)),
       mutations=st.lists(MUTATION, max_size=3),
       command=COMMAND,
       output=st.sampled_from([None, "out", "missing/out"]),
       argv_edit=st.tuples(st.sampled_from([None, None, None, "drop",
                                            "repeat", *INSERTED, "join",
                                            "abbreviate"]),
                           st.integers(0, 9)))
def test_mutated_input_exits_with_a_code_not_a_crash(
        tmp_path_factory, name, mutations, command, output, argv_edit):
    tmp = tmp_path_factory.getbasetemp() / "fuzz"
    tmp.mkdir(exist_ok=True)
    path = tmp / "input.psa"
    path.write_bytes(mutate(TEXTS[name], mutations))
    argv = argv_for(command, path, output and tmp / output, argv_edit)
    code, err = run_in_process(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def test_mutated_input_as_a_process(tmp_path):
    """`check` on the sphere file with a duplicated line and a lost
    token."""
    env = dict(os.environ, PYTHONPATH=str(Path(psalib.__file__).parents[1]))
    path = tmp_path / "input.psa"
    path.write_bytes(mutate(TEXTS["sphere"], [("duplicate line", 4, 0, b""),
                                              ("delete token", 7, 2, b"")]))
    proc = subprocess.run([sys.executable, "-m", "psalib.cli", "check",
                           str(path)], capture_output=True, text=True,
                          env=env)
    assert proc.returncode in (0, 1, 2)
    assert "Traceback" not in proc.stderr
