"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the checkout root.  They run short passes of real inputs (about
20 s in all) and write only under .perfbench_work/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import tracer  # noqa: E402
import workloads  # noqa: E402

PREDICTIONS = json.loads((BENCH_DIR / "predictions.json").read_text())
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Cheap inputs of each workload, enough to reach every layer it exercises.
SUBSETS = {
    "fixtures": None,
    "flat-sweep": ("flat-sweep.r2n-1", "flat-sweep.r2n-2"),
    "cohomology": ("cohomology.n2-t2-d1", "cohomology.n2-t2-d2",
                   "cohomology.n2-t2-d3"),
    "perturbed": None,
}


def _workload(name: str, seed: int = 3) -> run.Workload:
    keep = SUBSETS[name]
    return run.Workload([i for i in workloads.build(name, seed)
                         if keep is None or i.label in keep])


def test_metric_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        run.per_layer_names()
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)


def test_predictions_name_real_metrics():
    layer_names = {m["name"] for m in BENCHMARK["per_layer"]}
    e2e_names = {m["name"] for m in BENCHMARK["end_to_end"]}
    for layer in PREDICTIONS["layers"].values():
        assert set(layer["per_layer"]) <= layer_names
        for metric in layer["called_on"]:
            assert f"{metric}.calls" in layer_names
    for row in PREDICTIONS["predictions"]:
        assert row["workload"] in workloads.WORKLOADS + ("every",)
        if "end_to_end" in row:
            assert row["end_to_end"] in e2e_names
        else:
            assert row["per_layer"] in layer_names


def test_seed_fixes_inputs_and_every_choice_has_a_golden():
    golden = run.load_golden()
    for name in workloads.WORKLOADS:
        first = [i.label for i in workloads.build(name, 7)]
        assert first == [i.label for i in workloads.build(name, 7)]
        assert all(i.label in golden for i in workloads.all_inputs(name))
    orders = {tuple(i.label for i in workloads.build("perturbed", s))
              for s in range(5)}
    assert len(orders) == 5
    assert len(workloads.build("perturbed", 0)) == 30


def test_inputs_are_the_pinned_files():
    every = [i for name in workloads.WORKLOADS
             for i in workloads.all_inputs(name)]
    run.check_inputs(every)
    copy = run.WORK / "selftest-inputs" / every[0].path.name
    copy.parent.mkdir(parents=True, exist_ok=True)
    copy.write_bytes(every[0].path.read_bytes() + b"\n")
    try:
        run.check_inputs([workloads.Input("altered", copy, ())])
    except run.BenchError:
        pass
    else:
        raise AssertionError("an altered input file was accepted")
    finally:
        shutil.rmtree(copy.parent)


def test_tracer_wraps_every_binding_and_restores_them():
    from psalib import exactclass, exactlinalg, lsa, presym
    originals = {(m, n): getattr(m, n) for m, n in (
        (exactlinalg, "rank"), (exactclass, "rank"), (lsa, "rank"),
        (exactclass, "kernel_basis"), (lsa, "rank_second_opinion"),
        (presym, "invert"))}
    t = tracer.Tracer()
    t.install()
    try:
        for (module, name), fn in originals.items():
            assert getattr(module, name) is not fn
            assert getattr(module, name).__wrapped__ is fn
    finally:
        t.uninstall()
    for (module, name), fn in originals.items():
        assert getattr(module, name) is fn


def _record(elapsed_s: float) -> dict:
    return {"label": "flat-sweep.r2n-1", "ok": True, "start_s": 0.080,
            "elapsed_s": elapsed_s, "setup_s": 0.2, "peak_rss_kb": 2048,
            "check_ms": {"presym.def-i": 400.0}, "trace": {}}


def test_times_are_scaled_to_the_nominal_start_and_overhead_is_raw():
    # interpreter start 80 ms against the nominal 40 ms: times halve
    untraced, traced = [[_record(1.0)]], [[_record(1.5)]]
    line, _ = run.result_line(untraced, [], False)
    assert line["metrics"]["wall_s"]["value"] == 0.5
    assert line["metrics"]["setup_s"]["value"] == 0.1
    assert line["metrics"]["peak_rss_mb"]["value"] == 2.0
    line, _ = run.result_line(untraced, traced, True)
    m = {k: v["value"] for k, v in line["metrics"].items()}
    assert m["input.flat-sweep.r2n-1.s"] == 0.5
    assert m["check.presym.def-i.ms"] == 200.0
    assert m["trace.overhead_frac"] == 0.5
    assert set(m) == {name for name, _ in run.per_layer_names()}


def test_percentile_leaves_ten_samples_above():
    for n in (11, 20, 37, 100):
        _, (label, value), count = run.percentile_summary(range(n))
        assert count == n
        assert sum(v > value for v in range(n)) == 10
        assert label == f"p{100 * (n - 10) // n}"
    assert run.percentile_summary(range(10))[1] is None


def test_altered_golden_raises_failed_frac():
    env = run.child_env()
    wl = _workload("flat-sweep")
    golden = run.load_golden()
    records = run.run_pass(wl, False, env, golden)
    assert run.end_to_end([records])["failed_frac"] == [0.0]
    altered = dict(golden)
    label = wl.inputs[0].label
    altered[label] = dict(golden[label], stdout=golden[label]["stdout"] + "x")
    records = run.run_pass(wl, False, env, altered)
    assert run.end_to_end([records])["failed_frac"][0] > 0


def test_traced_passes_match_goldens_and_record_predicted_calls():
    env = run.child_env()
    golden = run.load_golden()
    called = {}
    for layer in PREDICTIONS["layers"].values():
        for metric, names in layer["called_on"].items():
            for w in names:
                called.setdefault(w, []).append(metric)
    for name in workloads.WORKLOADS:
        records = run.run_pass(_workload(name), True, env, golden)
        assert all(r["ok"] for r in records), name
        totals = run.traced_pass_metrics(records)
        for metric in called[name]:
            assert totals[f"{metric}.calls"] > 0, (name, metric)
        if name == "flat-sweep":
            assert totals["exactlinalg.rank.calls"] == 0
            assert totals["exprcore.rational_frac"] == 0


def test_fails_without_a_source_checkout():
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", "fixtures", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
