"""Benchmark of `psa check`, `psa derive` and `psa cohomology`.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout (`src/psalib` must exist).  Each
input runs as a fresh interpreter (perfbench/child.py), one at a time, in
a closed loop: whole passes over the workload's inputs, in the order the
seed fixes, repeat for as close to `--seconds` as whole passes allow.
The inputs are the committed files under perfbench/inputs/, and every
output is compared with the pinned goldens in perfbench/golden.json.
Reported times are scaled to a nominal host speed (see NOMINAL_START_S).

With `--trace 0` the end-to-end metrics are reported; with `--trace 1`
the run spends half its time untraced and half traced (at least one pass
each) and reports the per-layer metrics.  The last line of stdout is one
JSON object `{"correct", "attempted", "failed", "metrics"}`; a fuller
record with the run's metadata, raw and scaled samples goes to
`.perfbench_work/results/`.  `--workload all` prints a table of every
end-to-end metric for each workload instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = BENCH_DIR / "golden.json"
CHILD_TIMEOUT_S = 150

# End-to-end metrics as reported with --trace 0.  failed_frac, the fifth
# a user sees, is 0 whenever the run is correct, so it is printed and
# reported as `failed`/`attempted` and among the per-layer metrics
# instead of carrying a bound.
END_TO_END = (("wall_s", "s"), ("slowest_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
SHOWN = END_TO_END + (("failed_frac", "frac"),)
TIME_METRICS = ("wall_s", "slowest_s", "setup_s")

# The speed of a shared host drifts by 10-30% over minutes, and all code
# slows or speeds up together; a run of 30 s cannot outlast the drift.
# Every child reports how long the interpreter took to reach the first
# line of child.py, before any psalib code runs, so no change to the
# library can move it.  Every reported time is scaled by NOMINAL_START_S
# / (the run's median of these start times): seconds on a host whose
# interpreter starts in NOMINAL_START_S.  Memory, counts and ratios are
# not scaled; raw times are kept in the results file.
NOMINAL_START_S = 0.040

CHECK_IDS = ("presym.def-i", "presym.def-ii", "presym.cyclic-T",
             "algebroid.jacobi", "para.levi-civita-agreement")
# check-id prefix -> the `psa check --suite` that emits it
SUITE_OF_PREFIX = {"lsa": "lsa", "algebroid": "algebroid", "form": "algebroid",
                   "presym": "presym", "exact": "exact",
                   "para": "parakahler", "dirac": "parakahler"}
SUITES = ("lsa", "algebroid", "presym", "exact", "parakahler")


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


# ---------------------------------------------------------------------------
# one invocation


def child_env() -> dict:
    """The children import psalib from this checkout and cache its
    bytecode under the work directory, as an installed package would
    have it compiled, so setup_s does not include compiling."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def invoke(argv, out_path: Path, trace: bool, env: dict) -> dict:
    """Run one psa command in a fresh interpreter; the child's report."""
    if out_path.exists():
        out_path.unlink()
    cmd = [sys.executable, str(BENCH_DIR / "child.py")]
    spawn = time.monotonic()
    proc = subprocess.run(cmd + [repr(spawn), "1" if trace else "0",
                                 str(out_path), "--"] + list(argv),
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        return {"code": None, "raised": proc.stderr[-2000:],
                "elapsed_s": time.monotonic() - spawn, "setup_s": 0.0,
                "start_s": NOMINAL_START_S, "peak_rss_kb": 0, "trace": None}
    return json.loads(proc.stdout)


def normalized(inp, result: dict, in_rel: str) -> dict:
    """The parts of an invocation's result pinned by the goldens."""
    written = result.get("written")
    digest = None
    if written is not None:
        if inp.argv[0] == "check":
            report = json.loads(written)
            if report.get("artifact") == in_rel:
                report["artifact"] = "{in}"
            for c in report.get("checks", []):
                c.pop("wall_ms", None)
            written = json.dumps(report, sort_keys=True)
        digest = hashlib.sha256(written.encode("utf-8")).hexdigest()
    return {"code": result.get("code"), "stdout": result.get("stdout"),
            "stderr": result.get("stderr"), "raised": result.get("raised"),
            "written_sha256": digest}


def check_ms(result: dict) -> dict:
    """check id -> wall_ms from a `psa check --json` report."""
    written = result.get("written")
    if not written or not written.startswith("{"):
        return {}
    return {c["id"]: c["wall_ms"] for c in json.loads(written)["checks"]}


# ---------------------------------------------------------------------------
# a run


class Workload:
    """The inputs of one pass, and the file their commands write."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.out = WORK / "out" / "result"
        self.out.parent.mkdir(parents=True, exist_ok=True)

    def argv(self, inp):
        rel_in = inp.path.relative_to(ROOT).as_posix()
        rel_out = self.out.relative_to(ROOT).as_posix()
        return [a.replace("{in}", rel_in).replace("{out}", rel_out)
                for a in inp.argv], rel_in


def run_pass(wl: Workload, trace: bool, env: dict, golden: dict):
    """One pass over every input; a list of per-input records."""
    records = []
    for inp in wl.inputs:
        argv, rel_in = wl.argv(inp)
        try:
            result = invoke(argv, wl.out, trace, env)
        except subprocess.TimeoutExpired:
            result = {"code": None, "raised": "timeout",
                      "elapsed_s": float(CHILD_TIMEOUT_S), "setup_s": 0.0,
                      "start_s": NOMINAL_START_S, "peak_rss_kb": 0,
                      "trace": None}
        ok = normalized(inp, result, rel_in) == golden.get(inp.label)
        records.append({"label": inp.label, "ok": ok,
                        "start_s": result["start_s"],
                        "elapsed_s": result["elapsed_s"],
                        "setup_s": result["setup_s"],
                        "peak_rss_kb": result["peak_rss_kb"],
                        "check_ms": check_ms(result),
                        "trace": result.get("trace")})
    return records


def run_passes(wl: Workload, trace: bool, until: float, env: dict,
               golden: dict):
    """Whole passes ending as close to the monotonic time `until` as
    whole passes allow (at least one): another pass starts only if it
    should overshoot `until` by less than stopping would fall short."""
    start = time.monotonic()
    passes = [run_pass(wl, trace, env, golden)]
    while True:
        now = time.monotonic()
        per_pass = (now - start) / len(passes)
        if now + per_pass - until >= until - now:
            return passes
        passes.append(run_pass(wl, trace, env, golden))


# ---------------------------------------------------------------------------
# statistics


def percentile_summary(values):
    """(median, label and value of the highest percentile with at least
    ten samples beyond it, or None, sample count)."""
    vals = sorted(values)
    n = len(vals)
    med = statistics.median(vals)
    if n <= 10:
        return med, None, n
    # vals[n - 11] has exactly ten samples above it
    return med, (f"p{100 * (n - 10) // n}", vals[n - 11]), n


def input_times(passes) -> dict:
    """label -> the input's in-child times over the passes."""
    out: dict = {}
    for p in passes:
        for r in p:
            out.setdefault(r["label"], []).append(r["elapsed_s"])
    return out


def end_to_end(passes) -> dict:
    """Metric -> list of samples: one per pass, one per child for
    setup_s, and for slowest_s the times of the input with the largest
    median time."""
    times = input_times(passes)
    return {
        "wall_s": [sum(r["elapsed_s"] for r in p) for p in passes],
        "slowest_s": max(times.values(), key=statistics.median),
        "setup_s": [r["setup_s"] for p in passes for r in p],
        "peak_rss_mb": [max(r["peak_rss_kb"] for r in p) / 1024.0
                        for p in passes],
        "failed_frac": [sum(not r["ok"] for r in p) / len(p)
                        for p in passes],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_pass_metrics(records) -> dict:
    """Per-layer metrics of one traced pass."""
    total: dict = {}
    terms_max = 0
    for r in records:
        for k, v in (r["trace"] or {}).items():
            if k == "exprcore.terms_max":
                terms_max = max(terms_max, v)
            else:
                total[k] = total.get(k, 0) + v
    out = {k: v for k, v in total.items()
           if k.endswith((".calls", ".self_s"))
           or k in ("exactlinalg.rank.cells",)}
    out["exprcore.terms_max"] = terms_max
    out["exprcore.rational_frac"] = _ratio(total.get("exprcore.rational", 0),
                                           total.get("exprcore.results", 0))
    out["exprcore.zero_frac"] = _ratio(total.get("exprcore.add_zero", 0),
                                       total.get("exprcore.add.calls", 0))
    out["presym.star.repeat_frac"] = _ratio(
        total.get("presym.star.repeats", 0),
        total.get("presym.star.calls", 0))
    return out


def report_pass_metrics(records) -> dict:
    """check.*, suite.* and input.* rows of one untraced pass, from the
    program's own report timings and the in-child times."""
    out = {f"check.{cid}.ms": 0.0 for cid in CHECK_IDS}
    out.update({f"suite.{s}.ms": 0.0 for s in SUITES})
    for r in records:
        for cid, ms in r["check_ms"].items():
            if cid in CHECK_IDS:
                out[f"check.{cid}.ms"] += ms
            out[f"suite.{SUITE_OF_PREFIX[cid.split('.')[0]]}.ms"] += ms
        out[f"input.{r['label']}.s"] = r["elapsed_s"]
    return out


def per_layer_names():
    """Every per-layer metric name with its unit, in a fixed order."""
    import tracer
    names = []
    for metric in tracer.TARGETS:
        names += [(f"{metric}.calls", "count"), (f"{metric}.self_s", "s")]
    names += [("exprcore.rational_frac", "frac"),
              ("exprcore.terms_max", "count"),
              ("exprcore.zero_frac", "frac"),
              ("exactlinalg.rank.cells", "count"),
              ("presym.star.repeat_frac", "frac"),
              ("cli.self_s", "s")]
    names += [(f"check.{cid}.ms", "ms") for cid in CHECK_IDS]
    names += [(f"suite.{s}.ms", "ms") for s in SUITES]
    for w in ("fixtures", "flat-sweep", "cohomology"):
        names += [(f"input.{inp.label}.s", "s")
                  for inp in workloads.all_inputs(w)]
    names += [("failed_frac", "frac"), ("trace.overhead_frac", "frac")]
    return names


def median_of(dicts, name: str) -> float:
    return statistics.median(d.get(name, 0.0) for d in dicts)


# ---------------------------------------------------------------------------
# driver


def meta() -> dict:
    digest = hashlib.sha256()
    for p in sorted((SRC / "psalib").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0))}


def load_golden() -> dict:
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_inputs(inputs) -> None:
    """Refuse to run on input files other than those the goldens were
    pinned on."""
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        pinned = json.load(fh)["inputs"]
    for inp in inputs:
        if not inp.path.is_file() or \
                file_sha256(inp.path) != pinned.get(inp.path.name):
            raise BenchError(f"input {inp.path.name} is missing or differs "
                             f"from the one the goldens were pinned on")


def warm_up(env: dict) -> None:
    """Compile the library's bytecode once, outside every measurement."""
    invoke(["examples"], WORK / "warm-up", False, env)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    env = child_env()
    golden = load_golden()
    wl = Workload(workloads.build(name, seed))
    check_inputs(wl.inputs)
    missing = [i.label for i in wl.inputs if i.label not in golden]
    if missing:
        raise BenchError(f"no pinned golden output for {missing[0]}")
    warm_up(env)
    start = time.monotonic()
    if not trace:
        passes = run_passes(wl, False, start + seconds, env, golden)
        traced = []
    else:
        passes = run_passes(wl, False, start + seconds / 2, env, golden)
        traced = run_passes(wl, True, start + seconds, env, golden)
    return wl, passes, traced


def host_scale(passes) -> float:
    """NOMINAL_START_S over the median interpreter start time of the
    passes' children."""
    return NOMINAL_START_S / statistics.median(
        r["start_s"] for p in passes for r in p)


def scaled(samples: dict, scale: float) -> dict:
    return {k: [v * scale for v in vals] if k in TIME_METRICS else vals
            for k, vals in samples.items()}


def result_line(passes, traced, trace: bool):
    """The result line and the scaled end-to-end samples of a run."""
    every = [r for p in passes + traced for r in p]
    failed = sum(not r["ok"] for r in every)
    scale = host_scale(passes + traced)
    samples = scaled(end_to_end(passes), scale)
    if not trace:
        metrics = {name: {"value": statistics.median(samples[name]),
                          "unit": unit} for name, unit in END_TO_END}
    else:
        layer = [traced_pass_metrics(p) for p in traced]
        rows = [report_pass_metrics(p) for p in passes]
        wall = statistics.median(end_to_end(passes)["wall_s"])
        traced_wall = statistics.median(end_to_end(traced)["wall_s"])
        metrics = {}
        for name, unit in per_layer_names():
            if name == "failed_frac":
                value = failed / len(every)
            elif name == "trace.overhead_frac":
                value = traced_wall / wall - 1.0
            elif name.startswith(("check.", "suite.", "input.")):
                value = median_of(rows, name)
            else:
                value = median_of(layer, name)
            if unit in ("s", "ms"):
                value *= scale
            metrics[name] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": len(every),
            "failed": failed, "metrics": metrics}, samples


def describe(samples) -> list:
    lines = []
    for name, unit in SHOWN:
        med, pct, n = percentile_summary(samples[name])
        tail = f"{pct[0]} {pct[1]:.4g}" if pct else "no percentile (n <= 10)"
        lines.append(f"  {name:<12} {med:>10.4g} {unit:<4}  median; {tail}; "
                     f"n = {n}")
    return lines


def save(record: dict, name: str, seed: int, trace: bool) -> Path:
    path = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "psalib" / "cli.py").is_file() or not GOLDEN.is_file():
        print(f"error: {ROOT} holds no psalib source checkout to "
              f"benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"error: unknown workload '{args.workload}'; known: "
              f"{', '.join(workloads.WORKLOADS)}, all", file=sys.stderr)
        return 2
    info = meta()
    print(f"# {json.dumps(info, sort_keys=True)}")
    for name in names:
        trace = bool(args.trace) and args.workload != "all"
        try:
            wl, passes, traced = run_workload(name, args.seed, args.seconds,
                                              trace)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        line, samples = result_line(passes, traced, trace)
        scale = host_scale(passes + traced)
        path = save({"meta": info, "workload": name, "seed": args.seed,
                     "seconds": args.seconds, "trace": trace,
                     "order": [i.label for i in wl.inputs],
                     "passes": len(passes), "traced_passes": len(traced),
                     "host_scale": scale, "samples": samples,
                     "raw_samples": end_to_end(passes),
                     "raw_input_s": {k: statistics.median(v) for k, v in
                                     input_times(passes).items()},
                     "result": line},
                    name, args.seed, trace)
        print(f"{name}: seed {args.seed}, {len(passes)} passes of "
              f"{len(wl.inputs)} inputs, {line['failed']} of "
              f"{line['attempted']} outputs differ from golden; "
              f"{path.relative_to(ROOT)}")
        print(f"  times scaled by {scale:.4f}: interpreter start median "
              f"{NOMINAL_START_S / scale * 1000:.2f} ms, nominal "
              f"{NOMINAL_START_S * 1000:g} ms")
        for text in describe(samples):
            print(text)
    if args.workload != "all":
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
