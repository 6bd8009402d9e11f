#!/usr/bin/env python3
"""Run the acceptance suite verbosely and gate on its failures.

Two tests assert fixed target values that the exact computation
contradicts and are expected to fail (see the module docstring of
tests/test_acceptance.py): test_flat_chart_table_literal_n2 and
test_abelian_dim2_degree2_target_dimensions.  Everything else must pass.

Exits 0 only when the failed tests are exactly those two; any other set
of failures, either of them passing, or a run that pytest could not
complete exits 1.
"""

import sys
from pathlib import Path

# run from a source checkout: the package is src/psalib, not installed
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

EXPECTED_FAILURES = {
    "test_flat_chart_table_literal_n2",
    "test_abelian_dim2_degree2_target_dimensions",
}


class FailureNames:
    """pytest plugin: the names of the tests that failed in any phase."""

    def __init__(self):
        self.names = set()

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.names.add(report.nodeid.split("::")[-1])


def main() -> int:
    target = Path(__file__).resolve().parent.parent / "tests" \
        / "test_acceptance.py"
    failures = FailureNames()
    code = pytest.main(["-v", str(target)], plugins=[failures])
    print()
    print("expected failures (asserted targets the exact computation "
          "contradicts):")
    for name in sorted(EXPECTED_FAILURES):
        print(f"  {name}")
    if code != pytest.ExitCode.TESTS_FAILED:
        print(f"gate: pytest exited with {int(code)}, expected 1")
        return 1
    if failures.names != EXPECTED_FAILURES:
        for name in sorted(failures.names - EXPECTED_FAILURES):
            print(f"gate: unexpected failure {name}")
        for name in sorted(EXPECTED_FAILURES - failures.names):
            print(f"gate: expected failure {name} did not fail")
        return 1
    print("gate: exactly the expected failures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
