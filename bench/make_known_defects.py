"""Write known_defects.json: the inputs of the double-points and profile
pools that raise.

Run from the repository root, at the commit whose failures are the
reference:

    python3 bench/make_known_defects.py

Each pool's first CHECKED draws go through the workload, in pool order,
at both sizes; the index of every draw that raised is recorded.  Runs
skip those draws and try them apart (run.known_defects).  The cli-mix
counterparts are the commands pinned in cli_golden.json.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import KNOWN_DEFECTS_FILE, SRC, Speed  # noqa: E402

sys.path.insert(0, str(SRC))

from tracing import NullTracer  # noqa: E402
from workloads import double_points, profile  # noqa: E402

#: Draws checked per pool: about a minute of operations at the
#: workload's nominal rate, three times a 20 s run.
CHECKED = {"double-points": 7500, "profile": 2000}


def failing(name: str, size: str) -> list[int]:
    mod = double_points if name == "double-points" else profile
    draws = list(itertools.islice(mod.pool(size), CHECKED[name]))
    inputs = draws if mod is double_points else (profile.SAMPLES[size], draws)
    r = mod.run(inputs, NullTracer(), Speed())
    return [i for i, op in enumerate(r.ops) if op.error]


def main() -> None:
    out = {"checked": CHECKED}
    for name in CHECKED:
        out[name] = {size: failing(name, size) for size in ("full", "tiny")}
        print(name, {k: len(v) for k, v in out[name].items()}, flush=True)
    with open(KNOWN_DEFECTS_FILE, "w") as fp:
        json.dump(out, fp, indent=1)
        fp.write("\n")


if __name__ == "__main__":
    main()
