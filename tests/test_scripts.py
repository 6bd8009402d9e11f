"""Pins the stdout of `scripts/cohomology_table.py`, byte for byte, at
polynomial truncation 2 and 3, and the exit codes of
`scripts/verify_fixtures.py`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import psalib

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SCRIPT = SCRIPTS / "cohomology_table.py"

TABLE_T2 = (
    "complex                 n   ker   im    h  routes\n"
    "lsa2                    1     1    0    1  agree\n"
    "lsa2                    2     1    0    1  agree\n"
    "lsa2                    3     2    2    0  agree\n"
    "abelian-2               1     2    0    2  agree\n"
    "abelian-2               2     3    0    3  agree\n"
    "abelian-2               3     2    0    2  agree\n"
    "flat-R1 (<= deg 2)      1     1    0    1  agree\n"
    "flat-R1 (<= deg 2)      2     3    2    1  agree\n"
    "flat-R1 (<= deg 2)      3     0    0    0  agree\n"
    "flat-R2 (<= deg 2)      1     2    0    2  agree\n"
    "flat-R2 (<= deg 2)      2    12    7    5  agree\n"
    "flat-R2 (<= deg 2)      3    12    6    6  agree\n"
)

TABLE_T3 = (
    "complex                 n   ker   im    h  routes\n"
    "lsa2                    1     1    0    1  agree\n"
    "lsa2                    2     1    0    1  agree\n"
    "lsa2                    3     2    2    0  agree\n"
    "abelian-2               1     2    0    2  agree\n"
    "abelian-2               2     3    0    3  agree\n"
    "abelian-2               3     2    0    2  agree\n"
    "flat-R1 (<= deg 3)      1     1    0    1  agree\n"
    "flat-R1 (<= deg 3)      2     4    3    1  agree\n"
    "flat-R1 (<= deg 3)      3     0    0    0  agree\n"
    "flat-R2 (<= deg 3)      1     2    0    2  agree\n"
    "flat-R2 (<= deg 3)      2    18   12    6  agree\n"
    "flat-R2 (<= deg 3)      3    20   12    8  agree\n"
)


@pytest.mark.parametrize("truncate,want", [(2, TABLE_T2), (3, TABLE_T3)])
def test_cohomology_table_output_is_pinned(truncate, want):
    env = dict(os.environ, PYTHONPATH=str(Path(psalib.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(SCRIPT), "--truncate",
                           str(truncate)], capture_output=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == want.encode()
    assert proc.stderr == b""


def test_cohomology_table_runs_from_a_source_checkout(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(SCRIPT), "--truncate", "2"],
                          capture_output=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == TABLE_T2.encode()


def _verify_fixtures(*names):
    env = dict(os.environ, PYTHONPATH=str(Path(psalib.__file__).parents[1]))
    return subprocess.run([sys.executable,
                           str(SCRIPTS / "verify_fixtures.py"), *names],
                          capture_output=True, text=True, env=env)


def test_verify_fixtures_unknown_name_exits_two():
    proc = _verify_fixtures("lsa2", "nosuch")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error: unknown fixture 'nosuch'" in proc.stderr


def test_verify_fixtures_named_fixture_passes():
    proc = _verify_fixtures("lsa2")
    assert proc.returncode == 0
    assert proc.stdout.split() == ["lsa2", "ok", "2", "pass", "0", "fail",
                                   "0", "skipped"]
