"""Write the benchmark's input files from the library's fixture builders.

    python3 perfbench/make_inputs.py

Writes perfbench/inputs/<source>.psa for every text an input reads, and
perfbench/inputs/manifest.json, which lists each workload's inputs (label,
source text, `psa` arguments) in a fixed order.  The benchmark reads only
these committed files, so the code under test cannot change the inputs
it is measured on.  Run it only on the commit the inputs and goldens
describe, and re-pin the goldens (pin_golden.py) afterwards.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads

sys.path.insert(0, str(workloads.BENCH_DIR.parent / "src"))
from psalib import cli, fixtures  # noqa: E402
from psalib.exactclass import FlatConnection  # noqa: E402
from psalib.exprcore import ChartContext  # noqa: E402
from psalib.presym import PreSymStructure  # noqa: E402
from psalib.psafile import Bundle, emit  # noqa: E402


def _check(label: str, source: str) -> dict:
    return {"label": label, "source": source,
            "argv": ["check", "{in}", "--json", "{out}"]}


def fixture_inputs():
    texts = {f"fixture-{name}": emit(fixtures.build(name))
             for name in fixtures.REGISTRY_NAMES}
    inputs = [_check(f"fixtures.check.{n}", f"fixture-{n}")
              for n in fixtures.REGISTRY_NAMES]
    # every derive direction a fixture admits
    for name in fixtures.REGISTRY_NAMES:
        b = fixtures.build(name)
        for d in cli.DIRECTIONS:
            try:
                cli.derive_bundle(b, d)
            except ValueError:
                continue
            inputs.append({"label": f"fixtures.derive.{name}.{d}",
                           "source": f"fixture-{name}",
                           "argv": ["derive", "{in}", "--direction", d,
                                    "-o", "{out}"]})
    return inputs, texts


def flat_sweep_inputs():
    texts = {f"r2n-{n}": emit(Bundle(structure=fixtures.r2n_structure(n)))
             for n in range(1, 5)}
    return [_check(f"flat-sweep.r2n-{n}", f"r2n-{n}")
            for n in range(1, 5)], texts


# n = 3, truncation 3, degrees 2 and 3: 9-11 s each on a 2-core VM, so
# a 30 s run could make only one pass.  The Bareiss-dominated cells left
# (n = 3 at truncation 2, and truncation 3 at degree 1) take about 1 s
# each, and a run makes several passes.
HEAVY_CELLS = ((3, 3, 2), (3, 3, 3))


def cohomology_inputs():
    texts = {f"flat-{n}": emit(Bundle(connection=FlatConnection(
        ChartContext(coords=tuple(f"x{i + 1}" for i in range(n))))))
        for n in (2, 3)}
    inputs = [{"label": f"cohomology.n{n}-t{t}-d{d}", "source": f"flat-{n}",
               "argv": ["cohomology", "{in}", "--truncate", str(t),
                        "--degree", str(d)]}
              for n in (2, 3) for t in (2, 3) for d in (1, 2, 3)
              if (n, t, d) not in HEAVY_CELLS]
    return inputs, texts


def perturbed_inputs():
    """Every single entry of the sphere fixture a .psa file can carry
    (star-table components, anchor components, and the upper pairing
    cell; the lower cell is completed by skewness), with every bump of
    workloads.BUMPS."""
    E = fixtures.sphere_structure()
    entries = []
    for a, na in enumerate(E.names):
        for b, nb in enumerate(E.names):
            for k in range(E.rank):
                entries.append((f"star.{na}{nb}.{k + 1}", ("star", a, b, k)))
    for a, na in enumerate(E.names):
        for i, c in enumerate(E.ctx.coords):
            entries.append((f"anchor.{na}.{c}", ("anchor", a, i)))
    entries.append((f"pairing.{E.names[0]}{E.names[1]}", ("pairing", 0, 1)))
    bump_value = {"plus1": E.ctx.one(), "minus1": -E.ctx.one(),
                  "plusx": E.ctx.coordinate("x"),
                  "minusx": -E.ctx.coordinate("x")}
    texts, inputs = {}, []
    for entry, where in entries:
        for bump in workloads.BUMPS:
            delta = bump_value[bump]
            table = [[list(cell) for cell in row] for row in E.table]
            anchor = [list(row) for row in E.anchor]
            pairing = [list(row) for row in E.pairing.rows]
            if where[0] == "star":
                _, a, b, k = where
                table[a][b][k] = table[a][b][k] + delta
            elif where[0] == "anchor":
                _, a, i = where
                anchor[a][i] = anchor[a][i] + delta
            else:
                _, a, b = where
                pairing[a][b] = pairing[a][b] + delta
                pairing[b][a] = pairing[b][a] - delta
            bumped = PreSymStructure(E.ctx, E.names, anchor, table, pairing)
            label = f"perturbed.{entry}.{bump}"
            texts[label] = emit(Bundle(structure=bumped))
            inputs.append(_check(label, label))
    return inputs, texts


def main() -> int:
    made = {"fixtures": fixture_inputs(), "flat-sweep": flat_sweep_inputs(),
            "cohomology": cohomology_inputs(),
            "perturbed": perturbed_inputs()}
    shutil.rmtree(workloads.INPUTS, ignore_errors=True)
    workloads.INPUTS.mkdir()
    manifest = {}
    for name in workloads.WORKLOADS:
        inputs, texts = made[name]
        manifest[name] = inputs
        for source, text in texts.items():
            (workloads.INPUTS / f"{source}.psa").write_text(
                text, encoding="utf-8")
    with open(workloads.MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
