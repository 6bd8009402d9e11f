"""`psa check --json` on the benchmark's committed check inputs must give
the outputs pinned in `perfbench/golden.json`: exit code, stdout, stderr
and the SHA-256 of the JSON report.  The report is normalised as the
benchmark normalises it: `wall_ms` is dropped and the input path is
written as `{in}`.  This test only reads `perfbench/`."""

import hashlib
import json
from pathlib import Path

import pytest

from psalib.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("fixtures", "flat-sweep", "perturbed")


def _check_inputs():
    manifest = json.loads((BENCH / "inputs" / "manifest.json").read_text(
        encoding="utf-8"))
    return [pytest.param(inp, id=inp["label"])
            for name in WORKLOADS for inp in manifest[name]
            if inp["argv"][0] == "check"]


@pytest.fixture(scope="module")
def golden():
    return json.loads((BENCH / "golden.json").read_text(
        encoding="utf-8"))["outputs"]


@pytest.mark.parametrize("inp", _check_inputs())
def test_check_output_matches_golden(capsys, tmp_path, golden, inp):
    in_path = str(BENCH / "inputs" / f"{inp['source']}.psa")
    out_path = tmp_path / "report.json"
    argv = [a.replace("{in}", in_path).replace("{out}", str(out_path))
            for a in inp["argv"]]
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(out_path.read_text(encoding="utf-8"))
    if report.get("artifact") == in_path:
        report["artifact"] = "{in}"
    for c in report.get("checks", []):
        c.pop("wall_ms", None)
    digest = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode("utf-8")).hexdigest()
    want = golden[inp["label"]]
    assert (code, captured.out, captured.err, digest) == (
        want["code"], want["stdout"], want["stderr"],
        want["written_sha256"])
