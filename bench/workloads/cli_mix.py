"""Workload ``cli-mix``: the ``sympl-moduli`` command as a user meets it.

Each operation is a fresh ``python -m sympl_moduli.cli`` subprocess
(``src`` on PYTHONPATH; the package is not installed), one at a time.
Commands are a seeded draw from the golden set in ``cli_golden.json``,
which covers all seven subcommands; one in five is malformed or out of
domain and has a documented exit code of 1 or 2.  Which commands a run
makes follows from its size alone, and --seed sets their order.  The
malformed inputs that ended in a Python traceback when the golden file
was made (``pinned``), such as ``enumerate --max-abs 0``, are not drawn,
so that a failed command shows a change to the code; a run invokes each
of them once more apart (``known_defects``), so that they stay counted.
Start-up dominates (importing the package pulls in ``scipy.integrate``),
so this workload shows import and start-up changes and is blind to
enumeration or quadrature speed.  Latencies are scaled to a reference
speed by a reference child interpreter timed between commands
(common.Speed), since the machine's speed drifts.

Every output is checked three ways: stdout against the golden file
(parsed as JSON, floats to a relative 1e-9), the exit code against the
expected one, and stderr for ``Traceback``, since an uncaught exception
also exits 1, the documented domain-error code.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass

from common import (BENCH, OUT, POOL_SEED, ROOT, Speed, Tally, child_env,
                    latency_summary)

GOLDEN = BENCH / "cli_golden.json"
SUBCOMMANDS = ("classify", "invariants", "trace", "enumerate",
               "double-points", "spectrum", "catalog")
#: Commands per second of --seconds (one takes ~1.1 s on the machine
#: the benchmark was defined on, and the reference child ~0.2 s).
OPS_PER_S = {"full": 0.75, "tiny": 6.0}
#: Share of a run's commands that are malformed with a documented
#: outcome; at least one command.
MALFORMED_SHARE = 0.2
FLOAT_RTOL = 1e-9
CALL_TIMEOUT_S = 120


def load_golden() -> list[dict]:
    with open(GOLDEN) as fp:
        return json.load(fp)


def _first(pool: list, k: int) -> list:
    """The first k items of pool, which repeats as often as needed."""
    return [pool[i % len(pool)] for i in range(k)]


def prepare(seed: int, size: str, n: int):
    """(golden set, indices of the n commands to run, in order)."""
    golden = load_golden()
    valid = [i for i, g in enumerate(golden) if not g["malformed"]]
    documented = [i for i, g in enumerate(golden)
                  if g["malformed"] and not g["pinned"]]
    pool_rng = random.Random(POOL_SEED)
    pool_rng.shuffle(valid)
    pool_rng.shuffle(documented)
    n_malformed = max(1, round(n * MALFORMED_SHARE))
    order = (_first(valid, max(1, n - n_malformed))
             + _first(documented, n_malformed))
    random.Random(seed).shuffle(order)
    return (golden, order)


def known_defects(size: str):
    """(golden set, the pinned commands): those that ended in a
    traceback when the golden file was made."""
    golden = load_golden()
    return (golden, [i for i, g in enumerate(golden) if g["pinned"]])


def warm_up() -> None:
    import sympl_moduli.cli  # noqa: F401  (what every command imports)


def invoke(entry: dict) -> tuple[int | str, str, str]:
    """Run one command as a subprocess; (exit code, stdout, stderr)."""
    cmd = [sys.executable, "-m", "sympl_moduli.cli", *entry["argv"]]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(entry["env"]),
                              capture_output=True, text=True,
                              timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", "", ""
    return proc.returncode, proc.stdout, proc.stderr


def main_in_process(entry: dict) -> None:
    """cli.main in this process, where the imports are already warm."""
    from sympl_moduli import cli
    saved = {k: os.environ.get(k) for k in entry["env"]}
    os.environ.update(entry["env"])
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(entry["argv"])
    except SystemExit:
        pass
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


@dataclass
class Op:
    index: int
    code: int | str
    stdout: str
    traceback: bool
    latency_s: float
    start: float
    main_s: float | None = None          # traced run: in-process cli.main


@dataclass
class Run:
    ops: list
    busy_s: float
    speed: Speed
    catalog_ms: list | None = None


def _subcommand(entry: dict) -> str:
    head = entry["argv"][0] if entry["argv"] else ""
    return head if head in SUBCOMMANDS else "other"


def run(inputs, tracer, speed) -> Run:
    """Every command of the run, one at a time.

    Traced, each command is also run through cli.main in process, so
    that start-up can be told apart from the command's own work."""
    golden, order = inputs
    OUT.mkdir(exist_ok=True)
    ops: list[Op] = []
    busy = 0.0
    for idx in order:
        entry = golden[idx]
        tracer.begin_op()
        speed.tick()
        t0 = time.perf_counter()
        code, out, err = tracer.call("cli.command", invoke, entry)
        dt = time.perf_counter() - t0
        busy += dt
        op = Op(idx, code, out, "Traceback" in err, dt, t0)
        if tracer.enabled:
            t0 = time.perf_counter()
            try:
                tracer.call(f"cli.main.{_subcommand(entry)}",
                            main_in_process, entry)
            except Exception:  # a traceback, counted from the subprocess
                pass
            op.main_s = time.perf_counter() - t0
        ops.append(op)
    speed.tick()
    r = Run(ops, busy, speed)
    if tracer.enabled:
        # Every golden command once more in process, so that each
        # subcommand has a cli.main time whatever the seed drew.
        for entry in golden:
            try:
                tracer.call(f"cli.main.{_subcommand(entry)}",
                            main_in_process, entry)
            except Exception:  # a traceback, counted from the subprocess
                pass
        from sympl_moduli import catalog_entries
        r.catalog_ms = []
        for _ in range(20):
            t0 = time.perf_counter()
            tracer.call("catalog.entries", catalog_entries)
            r.catalog_ms.append((time.perf_counter() - t0) * 1e3)
    return r


def _parse(text: str):
    """stdout as JSON: one document, or one per line (enumerate)."""
    if not text.strip():
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line]


def same(a, b) -> bool:
    """Structural equality, floats to a relative FLOAT_RTOL."""
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=1e-12))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


def stdout_matches(got: str, want: str) -> bool:
    try:
        return same(_parse(got), _parse(want))
    except json.JSONDecodeError:
        return got == want


def check(inputs, r: Run) -> Tally:
    golden = inputs[0]
    tally = Tally(attempted=len(r.ops))
    for op in r.ops:
        entry = golden[op.index]
        if op.traceback:
            tally.failures["traceback"] += 1
        elif op.code not in entry["exit"]:
            tally.failures[f"exit_{op.code}"] += 1
        elif not stdout_matches(op.stdout, entry["stdout"]):
            tally.wrong["stdout_vs_golden"] += 1
    return tally


def end_to_end(inputs, r: Run, tally: Tally) -> dict:
    """Durations scaled by the reference child timed around each."""
    golden = inputs[0]
    scaled = [r.speed.scaled(op.start, op.latency_s) for op in r.ops]
    ok = [dt for op, dt in zip(r.ops, scaled)
          if not op.traceback and op.code in golden[op.index]["exit"]]
    lat = latency_summary(ok, len(r.ops) - len(ok), r.busy_s)
    return {
        "throughput_per_s": len(r.ops) / sum(scaled),
        "latency": lat,
        "named": {
            "cli_latency_p50_ms": (lat["p50_ms"], "ms"),
            "cli_latency_tail_ms": (lat["tail_ms"], "ms"),
        },
        "inputs": {
            "commands": len(r.ops),
            "share_malformed": sum(golden[op.index]["malformed"]
                                   for op in r.ops) / len(r.ops),
            "by_subcommand": {s: sum(_subcommand(golden[op.index]) == s
                                     for op in r.ops) for s in SUBCOMMANDS},
        },
    }


def _median(xs: list) -> float:
    xs = sorted(xs)
    return xs[len(xs) // 2] if xs else 0.0


def per_layer(inputs, r: Run, spans: dict) -> dict:
    out = {f"cli.main_ms.{s}": _median(spans.get(f"cli.main.{s}", [])) * 1e3
           for s in SUBCOMMANDS}
    out["cli.startup_ms"] = _median(
        [op.latency_s - op.main_s for op in r.ops]) * 1e3
    out["cli.tracebacks"] = sum(op.traceback for op in r.ops)
    out["catalog.entries_ms"] = _median(r.catalog_ms or [])
    return out
