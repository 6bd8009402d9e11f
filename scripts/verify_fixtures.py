#!/usr/bin/env python3
"""Run every applicable check suite on every shipped fixture and print a
one-line outcome per fixture.  Exits 1 if anything fails."""

import argparse
import sys
from pathlib import Path

# run from a source checkout: the package is src/psalib, not installed
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from psalib import fixtures
from psalib.cli import applicable_suites, run_suites
from psalib.report import CheckReport


def verify(name: str, verbose: bool) -> CheckReport:
    bundle = fixtures.build(name)
    combined = run_suites(bundle, applicable_suites(bundle))
    if verbose:
        for check in combined.checks:
            mark = {"pass": "ok", "fail": "FAIL", "skipped": "--"}[check.status]
            print(f"    {mark:>4}  {check.check_id}")
    return combined


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("names", nargs="*",
                    help="fixture names (default: the whole registry)")
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="print every check id")
    args = ap.parse_args()
    # checked here: argparse `choices` rejects an empty `nargs="*"` list
    unknown = [n for n in args.names if n not in fixtures.REGISTRY_NAMES]
    if unknown:
        ap.error(f"unknown fixture '{unknown[0]}'; known: "
                 f"{', '.join(fixtures.REGISTRY_NAMES)}")
    names = args.names or list(fixtures.REGISTRY_NAMES)
    bad = 0
    for name in names:
        rep = verify(name, args.verbose)
        counts = {"pass": 0, "fail": 0, "skipped": 0}
        for check in rep.checks:
            counts[check.status] += 1
        status = "ok" if rep.passed() else "FAIL"
        print(f"{name:<18} {status:<5} {counts['pass']:>3} pass "
              f"{counts['fail']:>3} fail {counts['skipped']:>3} skipped")
        if not rep.passed():
            bad += 1
            for check in rep.failures():
                print(f"    failing: {check.check_id}: {check.witness}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
