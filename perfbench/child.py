"""Run one `psa` invocation in this fresh interpreter and report on it.

Usage: python3 child.py SPAWN_MONOTONIC TRACE OUT_PATH -- PSA_ARGS...

SPAWN_MONOTONIC is the parent's `time.monotonic()` just before it
started this process, so the set-up time covers interpreter start and
`import psalib.cli`.  The time to the first line of this file, before
any psalib code, is reported too, as a measure of the host's speed.
With TRACE 1 the tracer wraps the library's public
functions before the command runs.  Prints one JSON object on stdout.
"""

import sys
import time

STARTED = time.monotonic()

import psalib.cli  # noqa: E402  (timed: part of set-up)

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import traceback  # noqa: E402


def peak_rss_kb() -> int:
    """This process's resident-set high-water mark.  VmHWM belongs to the
    process's own memory map, which exec starts afresh; `ru_maxrss` would
    also carry the peak of the parent the child was forked from."""
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    spawn, trace, out_path = float(sys.argv[1]), sys.argv[2] == "1", \
        sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    raised = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = psalib.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # reported as a failed input, never fatal
            code = None
            raised = traceback.format_exc()
    elapsed = time.perf_counter() - t0
    written = None
    if os.path.exists(out_path):
        with open(out_path, "r", encoding="utf-8") as fh:
            written = fh.read()
    result = {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "raised": raised,
        "written": written,
        "elapsed_s": elapsed,
        "setup_s": READY - spawn,
        "start_s": STARTED - spawn,
        "peak_rss_kb": peak_rss_kb(),
        "trace": tracer.summary(elapsed) if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
