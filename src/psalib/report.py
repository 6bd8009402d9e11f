"""Machine-readable check reports.

Every verification suite produces a CheckReport: a flat list of named
checks, each pass/fail/skipped with an optional witness (the indices and
residual expression that broke an identity).  Serialization is
deterministic: checks sort by id, keys are emitted in a fixed order, and
only the wall_ms fields vary between runs.  A suite records its checks
straight into the report it returns, through CheckReport.scan, which
turns a stream of cases into a verdict and a witness: every verdict
passes through it.  The artifact a report names is given only when it
is written out (to_dict, to_json).
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

from .identities import anchor_for

__all__ = ["Check", "CheckReport", "components", "section_str"]


class Check:
    """One check's verdict: status is pass, fail or skipped."""

    def __init__(self, check_id: str, anchor: str, status: str,
                 witness: str | None, wall_ms: float):
        self.check_id = check_id
        self.anchor = anchor
        self.status = status
        self.witness = witness
        self.wall_ms = wall_ms


class CheckReport:
    """The checks recorded by one suite or one run, in the order they ran,
    each one timed.

    Every verdict goes through scan.  A check that verifies an identity
    instance by instance yields its residuals.  A verdict that is not a
    residual scan (a singular matrix, a rank count, a failed solve) is
    at most one (witness, True) case, yielded by a generator that does
    the work first, so that the check's wall time covers it.  skip
    records checks that cannot be evaluated.
    """

    def __init__(self):
        self.checks: list[Check] = []

    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status == "fail"]

    def extend(self, other: "CheckReport") -> None:
        self.checks.extend(other.checks)

    def find(self, check_id: str) -> Check:
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)

    def scan(self, check_id: str, cases, names=()) -> bool:
        """Record check_id from the first nonzero residual in cases.

        cases yields (label, residual) pairs in a fixed enumeration order;
        the scan stops at the first nonzero residual and its witness is:
          a scalar (chart expression or exact number): label + residual;
          a tuple of coefficients over names: label + section_str;
          a bool (True: the instance fails): the label alone.
        A case with a zero residual is skipped, so a suite may yield only
        its nonzero residuals and build a label only for those (see
        components): then an instance that passes costs no formatting.
        The time spent producing the cases is the check's wall time.
        """
        t0 = time.perf_counter()
        witness = None
        for label, res in cases:
            if isinstance(res, tuple):
                if any(res):
                    witness = label + section_str(res, names)
                    break
            elif res:
                witness = label if isinstance(res, bool) else f"{label}{res}"
                break
        ms = (time.perf_counter() - t0) * 1000.0
        self._add(check_id, "pass" if witness is None else "fail", witness,
                  ms)
        return witness is None

    def skip(self, reason: str, *check_ids: str) -> None:
        """Record each of check_ids as skipped, with the same reason."""
        for check_id in check_ids:
            self._add(check_id, "skipped", reason)

    def _add(self, check_id: str, status: str, witness: str | None,
             wall_ms: float = 0.0) -> None:
        self.checks.append(
            Check(check_id, anchor_for(check_id), status, witness, wall_ms))

    def to_dict(self, artifact: str) -> dict:
        return {
            "artifact": artifact,
            "checks": [
                {
                    "id": c.check_id,
                    "anchor": c.anchor,
                    "status": c.status,
                    "witness": c.witness,
                    "wall_ms": round(c.wall_ms, 3),
                }
                for c in sorted(self.checks, key=lambda c: c.check_id)
            ],
        }

    def to_json(self, artifact: str) -> str:
        return json.dumps(self.to_dict(artifact), indent=2, ensure_ascii=True,
                          separators=(",", ": ")) + "\n"

    def text_lines(self) -> list[str]:
        lines = []
        for c in sorted(self.checks, key=lambda c: c.check_id):
            mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[c.status]
            line = f"[{mark}] {c.check_id}: {c.anchor}"
            if c.witness:
                line += f"  <{c.witness}>"
            lines.append(line)
        return lines


def section_str(coeffs, names) -> str:
    """The nonzero coefficients as c*name terms; chart expressions are
    parenthesised, exact numbers are not."""
    parts = [f"{c}*{n}" if isinstance(c, Fraction) else f"({c})*{n}"
             for c, n in zip(coeffs, names) if c]
    return " + ".join(parts) if parts else "0"


def components(label: str, vec, names):
    """One scan case per nonzero component of a section residual, so that
    the witness names the first nonzero one:
    label + "component {name}: {value}".  A zero component yields no case
    and builds no label.  vec may be a generator, and then no component
    after the first nonzero one is computed."""
    return ((f"{label}component {name}: ", x)
            for name, x in zip(names, vec) if x)
