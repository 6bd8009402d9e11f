"""Inputs of the four benchmark workloads.

Every input is one `psa` invocation on a `.psa` file committed under
perfbench/inputs/, written once from the library's fixture builders at
the commit the goldens describe (make_inputs.py).  `build(workload,
seed)` returns the inputs of one pass in the order the seed fixes.
Nothing here imports `psalib`, so the code under test cannot change the
inputs it is measured on.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
INPUTS = BENCH_DIR / "inputs"
MANIFEST = INPUTS / "manifest.json"

WORKLOADS = ("fixtures", "flat-sweep", "cohomology", "perturbed")

# Bumps a perturbed entry can receive: one constant (+1 or -1) and one
# coordinate bump (+x or -x), signs picked by the seed.  Every bump has
# pinned goldens.  A sign flip hardly changes the cost of an input, so
# the cost of a pass does not depend on the seed.
BUMP_SLOTS = (("plus1", "minus1"), ("plusx", "minusx"))
BUMPS = tuple(b for slot in BUMP_SLOTS for b in slot)


@dataclass(frozen=True)
class Input:
    """One `psa` invocation.

    `label` names the input in metrics (`input.<label>.s`) and its golden
    entry.  `path` is the `.psa` file it reads.  `argv` holds `{in}` and
    `{out}` placeholders for that file and the file the command writes
    (JSON report or derived file).
    """
    label: str
    path: Path
    argv: tuple


def all_inputs(workload: str, rng: random.Random | None = None):
    """Inputs of one pass before ordering.

    For `perturbed` the rng picks each entry's two bumps; with rng None
    every bump in the pool is listed (used when pinning goldens)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload '{workload}'; known: "
                         f"{', '.join(WORKLOADS)}")
    with open(MANIFEST, "r", encoding="utf-8") as fh:
        listed = [Input(i["label"], INPUTS / f"{i['source']}.psa",
                        tuple(i["argv"]))
                  for i in json.load(fh)[workload]]
    if workload != "perturbed" or rng is None:
        return listed
    by_label = {i.label: i for i in listed}
    entries = dict.fromkeys(i.label.rsplit(".", 1)[0] for i in listed)
    return [by_label[f"{entry}.{rng.choice(slot)}"]
            for entry in entries for slot in BUMP_SLOTS]


def build(workload: str, seed: int):
    """Inputs of one pass, in seed order."""
    rng = random.Random(f"{workload}:{seed}")
    inputs = all_inputs(workload, rng)
    rng.shuffle(inputs)
    return inputs
