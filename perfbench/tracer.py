"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each traced public function of `psalib` by a
timing wrapper *wherever it is looked up*: in its defining module, in
every psalib module that bound it with `from .x import name`, and under
every class attribute that refers to it (`__radd__ = __add__`).  A
wrapper records calls and self time (its duration minus the time of the
traced calls nested inside it).  A call nested directly inside a call of
the same metric (`a - b` runs `-b` and `a + (-b)`) is folded into the
outer call, so `calls` counts operations a caller asked for.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from psalib import (algebroid, exactclass, exactlinalg, exprcore, presym,
                    psafile)

_DE = exprcore.DiffExpr

# metric name -> (owner, attribute names); the owner is a module or class
TARGETS = {
    "exprcore.add": (_DE, ("__add__", "__sub__", "__rsub__", "__neg__")),
    "exprcore.mul": (_DE, ("__mul__", "__pow__")),
    "exprcore.div": (_DE, ("__truediv__", "__rtruediv__")),
    "exprcore.diff": (exprcore, ("differentiate",)),
    "exprcore.parse": (exprcore, ("parse_expr",)),
    "exprcore.str": (_DE, ("__str__",)),
    "exactlinalg.rank": (exactlinalg, ("rank",)),
    "exactlinalg.rank_second_opinion": (exactlinalg,
                                        ("rank_second_opinion",)),
    "exactlinalg.kernel_basis": (exactlinalg, ("kernel_basis",)),
    "exactlinalg.invert": (exactlinalg, ("invert",)),
    "exactclass.coboundary_matrix": (exactclass.TruncatedComplex,
                                     ("coboundary_matrix",)),
    "exactclass.membership_matrix": (exactclass.TruncatedComplex,
                                     ("membership_matrix",)),
    "presym.star": (presym.PreSymStructure, ("star",)),
    "presym.D": (presym.PreSymStructure, ("D",)),
    "presym.bracket": (presym.PreSymStructure, ("bracket",)),
    "algebroid.bracket": (algebroid.ChartAlgebroid, ("bracket",)),
    "algebroid.anchor_apply": (algebroid.ChartAlgebroid, ("anchor_apply",)),
    "psafile.load": (psafile, ("load_path",)),
    "psafile.emit": (psafile, ("emit",)),
}

@dataclass
class _Span:
    """Totals of one metric."""
    calls: int = 0
    self_s: float = 0.0


class Tracer:
    def __init__(self):
        self.spans = {name: _Span() for name in TARGETS}
        self.top_s = 0.0          # time inside outermost traced calls
        self.results = 0          # scalar results seen
        self.rational = 0         # ... with a non-constant denominator
        self.terms_max = 0
        self.add_zero = 0         # add results that cancelled to 0
        self.rank_cells = 0
        self.star_seen = set()
        self.star_repeats = 0
        self._stack = []          # [span, child seconds] per open call
        self._undo = []           # (owner, attribute, original)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "psalib" or name.startswith("psalib.")]
        for metric, (owner, attrs) in TARGETS.items():
            for attr in attrs:
                original = owner.__dict__[attr]
                wrapped = self._wrap(metric, original)
                for holder in [owner] + modules:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            self._undo.append((holder, name, value))
                            setattr(holder, name, wrapped)

    def uninstall(self) -> None:
        for holder, name, value in reversed(self._undo):
            setattr(holder, name, value)
        self._undo.clear()

    def _wrap(self, metric: str, fn):
        span = self.spans[metric]
        stack = self._stack
        clock = time.perf_counter
        after = self._after.get(metric)
        before = self._star_key if metric == "presym.star" else None

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is span:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                span.calls += 1
                span.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                else:
                    self.top_s += dt
            if after is not None:
                after(self, result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-call observations -------------------------------------------

    def _scalar(self, result, args) -> None:
        if isinstance(result, _DE):
            self.results += 1
            if not result.is_polynomial():
                self.rational += 1
            self.terms_max = max(self.terms_max, len(result.num),
                                 len(result.den))

    def _add(self, result, args) -> None:
        if isinstance(result, _DE):
            self._scalar(result, args)
            if result.is_zero():
                self.add_zero += 1

    def _rank(self, result, args) -> None:
        self.rank_cells += args[0].nrows * args[0].ncols

    def _star_key(self, structure, u, v) -> None:
        key = (id(structure), structure._section(u), structure._section(v))
        if key in self.star_seen:
            self.star_repeats += 1
        else:
            self.star_seen.add(key)

    _after = {"exprcore.add": _add, "exprcore.mul": _scalar,
              "exprcore.div": _scalar, "exprcore.diff": _scalar,
              "exactlinalg.rank": _rank}

    # -- report ----------------------------------------------------------

    def summary(self, elapsed_s: float) -> dict:
        """Counts and seconds of this invocation; ratios are left as
        numerator/denominator pairs so passes can be summed."""
        out = {}
        for name, span in self.spans.items():
            out[f"{name}.calls"] = span.calls
            out[f"{name}.self_s"] = span.self_s
        out["cli.self_s"] = elapsed_s - self.top_s
        out["exprcore.results"] = self.results
        out["exprcore.rational"] = self.rational
        out["exprcore.terms_max"] = self.terms_max
        out["exprcore.add_zero"] = self.add_zero
        out["exactlinalg.rank.cells"] = self.rank_cells
        out["presym.star.repeats"] = self.star_repeats
        return out
