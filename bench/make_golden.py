"""Write cli_golden.json: the cli-mix command set with expected outputs.

Run from the repository root, at the commit whose output is the
reference:

    python3 bench/make_golden.py

Each valid command, and each malformed one whose documented behaviour
the program already has, is recorded with the exit code and stdout it
gives.  Commands that ended in a Python traceback when the file was
made are pinned instead to what the documented exit codes allow: exit
1 or 2, nothing on stdout.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BENCH  # noqa: E402
from workloads.cli_mix import GOLDEN, invoke  # noqa: E402

CSV = "bench/out/cli-trace.csv"

VALID = [
    ["classify", "--pairs", "2,1;1,2"],
    ["classify", "--pairs", "1,-1;1,4;-2,-3"],
    ["classify", "--pairs", "3,2"],
    ["classify", "--pairs", "5,-7"],
    ["invariants", "--pairs", "4,1;1,1"],
    ["invariants", "--pairs", "2,1;1,2"],
    ["invariants", "--pairs", "7,3;2,5"],
    ["invariants", "--pairs", "1,-1;1,4;-2,-3", "--ordering", "1"],
    ["trace", "--pair", "1,2", "--range", "1", "--samples", "500",
     "--out", CSV],
    ["trace", "--pair", "3,7", "--range", "0", "--samples", "1000",
     "--out", CSV],
    ["trace", "--pair", "2,-1", "--range", "1", "--samples", "200",
     "--out", CSV],
    ["enumerate", "--max-abs", "2", "--ends", "2"],
    ["enumerate", "--max-abs", "3", "--ends", "3"],
    ["double-points", "--pairs", "4,1;1,1", "--method", "all"],
    ["double-points", "--pairs", "7,3;2,5", "--method", "all"],
    ["spectrum", "--pair", "1,0", "--nmax", "3"],
    ["spectrum", "--pair", "2,3", "--nmax", "5"],
    ["spectrum", "--polar-m", "1", "--nmax", "2"],
    ["catalog"],
]

# Malformed or out of domain, with the documented outcome given.
MALFORMED = [
    ["classify", "--pairs", "1,2;x,3"],
    ["classify", "--pairs", "1,1;1,1"],
    ["invariants", "--pairs", "1,1"],
    ["invariants", "--pairs", "2,1;1,2;3,3"],
    ["double-points", "--pairs", "1,2;2,1"],
    ["spectrum", "--pair=-1,1"],
    ["spectrum"],
    ["trace", "--pair", "1,2", "--range", "7", "--out", CSV],
    ["enumerate", "--ends", "2"],
    ["frobnicate"],
]

# Malformed inputs that ended in a traceback: pinned to exit 1 or 2.
PINNED = [
    (["trace", "--pair", "1,2", "--range", "1", "--samples", "1",
      "--out", CSV], {}),
    (["trace", "--pair", "1,2", "--range", "1", "--quad-tol", "-1",
      "--out", CSV], {}),
    (["enumerate", "--max-abs", "0"], {}),
    (["spectrum", "--pair", "1,0", "--nmax", "-1"], {}),
    (["spectrum", "--polar-m", "0"], {}),
    (["double-points", "--pairs", "4,1;1,1", "--r", "0.5"], {}),
    (["double-points", "--pairs", "4,1;1,1", "--method", "model"],
     {"SYMPL_MODULI_TOL": "abc"}),
]


def main() -> None:
    (BENCH / "out").mkdir(exist_ok=True)
    golden = []
    for argv, malformed in ([(a, False) for a in VALID]
                            + [(a, True) for a in MALFORMED]):
        entry = {"argv": argv, "env": {}, "malformed": malformed,
                 "pinned": False}
        code, out, err = invoke(entry)
        if "Traceback" in err or (code != 0) != malformed:
            sys.exit(f"unexpected outcome {code} for {argv}:\n{err}")
        golden.append({**entry, "exit": [code], "stdout": out})
    for argv, env in PINNED:
        golden.append({"argv": argv, "env": env, "malformed": True,
                       "pinned": True, "exit": [1, 2], "stdout": ""})
    with open(GOLDEN, "w") as fp:
        json.dump(golden, fp, indent=1)
        fp.write("\n")


if __name__ == "__main__":
    main()
