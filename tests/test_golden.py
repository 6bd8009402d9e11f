"""The benchmark's committed inputs must give the outputs pinned in
`perfbench/golden.json`: exit code, stdout and stderr of every `psa check`,
`derive` and `cohomology` input, plus the SHA-256 of the written file.
For `check` that file is the JSON report, normalised as the benchmark
normalises it: `wall_ms` is dropped and the input path is written as
`{in}`.  For `derive` it is the derived definition file as written.  This
test only reads `perfbench/`."""

import hashlib
import json
from pathlib import Path

import pytest

from psalib.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("fixtures", "flat-sweep", "cohomology", "perturbed")


def _inputs(command):
    manifest = json.loads((BENCH / "inputs" / "manifest.json").read_text(
        encoding="utf-8"))
    return [pytest.param(inp, id=inp["label"])
            for name in WORKLOADS for inp in manifest[name]
            if inp["argv"][0] == command]


@pytest.fixture(scope="module")
def golden():
    return json.loads((BENCH / "golden.json").read_text(
        encoding="utf-8"))["outputs"]


def _run(capsys, tmp_path, inp):
    """(exit code, stdout, stderr, input path, written file's text)."""
    in_path = str(BENCH / "inputs" / f"{inp['source']}.psa")
    out_path = tmp_path / "written"
    argv = [a.replace("{in}", in_path).replace("{out}", str(out_path))
            for a in inp["argv"]]
    code = main(argv)
    captured = capsys.readouterr()
    written = out_path.read_text(encoding="utf-8") \
        if out_path.exists() else None
    return code, captured.out, captured.err, in_path, written


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _want(golden, inp):
    want = golden[inp["label"]]
    return (want["code"], want["stdout"], want["stderr"],
            want["written_sha256"])


@pytest.mark.parametrize("inp", _inputs("check"))
def test_check_output_matches_golden(capsys, tmp_path, golden, inp):
    code, out, err, in_path, written = _run(capsys, tmp_path, inp)
    report = json.loads(written)
    if report.get("artifact") == in_path:
        report["artifact"] = "{in}"
    for c in report.get("checks", []):
        c.pop("wall_ms", None)
    digest = _sha256(json.dumps(report, sort_keys=True))
    assert (code, out, err, digest) == _want(golden, inp)


@pytest.mark.parametrize("inp", _inputs("derive"))
def test_derive_output_matches_golden(capsys, tmp_path, golden, inp):
    code, out, err, _, written = _run(capsys, tmp_path, inp)
    assert (code, out, err, _sha256(written)) == _want(golden, inp)


@pytest.mark.parametrize("inp", _inputs("cohomology"))
def test_cohomology_output_matches_golden(capsys, tmp_path, golden, inp):
    code, out, err, _, written = _run(capsys, tmp_path, inp)
    assert (code, out, err, written) == _want(golden, inp)
