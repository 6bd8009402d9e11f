"""Pin the golden output of every benchmark input.

    python3 perfbench/pin_golden.py

Runs every input of every workload (the committed files under
perfbench/inputs/) untraced, with every perturbed bump in the pool, and
writes perfbench/golden.json: the SHA-256 of every input file, and per
input the exit code, stdout (report lines with their witnesses, or cohomology
dimensions and the elimination agreement line), stderr, and the SHA-256
of the written file (the JSON report without `wall_ms`, or the derived
`.psa` bytes).  Each input runs twice and must give the same output
both times.  Run it only on the commit the goldens describe.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    env = run.child_env()
    run.warm_up(env)
    outputs = {}
    for name in workloads.WORKLOADS:
        wl = run.Workload(workloads.all_inputs(name))
        for inp in wl.inputs:
            argv, rel_in = wl.argv(inp)
            first, second = (run.normalized(
                inp, run.invoke(argv, wl.out, False, env), rel_in)
                for _ in range(2))
            if first != second:
                print(f"error: {inp.label} is not deterministic",
                      file=sys.stderr)
                return 1
            if first["code"] not in (0, 1) or first["raised"]:
                print(f"error: {inp.label} did not run: {first}",
                      file=sys.stderr)
                return 1
            outputs[inp.label] = first
            print(f"{inp.label}: exit {first['code']}")
    inputs = {p.name: run.file_sha256(p)
              for p in sorted(workloads.INPUTS.glob("*.psa"))}
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"meta": run.meta(), "inputs": inputs, "outputs": outputs},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
