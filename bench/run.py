"""The sympl-moduli benchmark.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads: cli-mix, sweep, double-points, profile (see workloads/);
``all`` runs every one of them in this one process.  Load is a closed
loop with one client: one operation at a time.

With ``--trace 0`` a workload runs a fixed number of operations, sized
so that they take about ``--seconds`` (common.op_count), and the
end-to-end metrics of BENCHMARK.json are reported, scaled to a
reference machine speed (see common.Speed).  With ``--trace 1`` a fixed set of operations is run
twice, untraced and then traced, and the per-layer metrics are reported: span totals, self time
per layer, the tracing overhead (traced over untraced time of the
same operations), and how many of the workload's known defects still
fail (see known_defects).  Per-layer metrics of a layer the workload
never calls read 0.

Outputs are checked outside the timed region.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and
metrics; the line before it is the full report (machine, seed, input
properties, failures by class, the percentile each tail resolves to,
and the metrics under the names used in the benchmark's README).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (BENCH, OUT, ROOT, SRC, Speed,  # noqa: E402
                    Tally, child_env, die, machine_info, op_count,
                    peak_rss_mb)

if not (SRC / "sympl_moduli" / "__init__.py").is_file():
    die(f"no sympl_moduli package under {SRC}")
sys.path.insert(0, str(SRC))

from tracing import NullTracer, Tracer  # noqa: E402
from workloads import cli_mix, double_points, profile, sweep  # noqa: E402

WORKLOADS = {"cli-mix": cli_mix, "sweep": sweep,
             "double-points": double_points, "profile": profile}

#: Operations in the traced run's fixed set, per size.
TRACE_OPS = {"cli-mix": {"full": 8, "tiny": 2},
             "sweep": {"full": 2, "tiny": 1},
             "double-points": {"full": 1000, "tiny": 20},
             "profile": {"full": 150, "tiny": 3}}

#: Fresh interpreters timed for setup_s (half of them before the
#: workload's operations and half after, so that the median spans the
#: run), and for the import probe.
PROBES = {"full": 7, "tiny": 1}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def setup_seconds(module: str, n: int, speed: Speed) -> list[tuple]:
    """(start, seconds) of n fresh interpreters, each timed from spawn
    until it has imported the package and done the workload's one-time
    warm-up; speed (of children) is sampled around each."""
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); "
            f"from workloads import {module} as w; w.warm_up(); "
            "print('ready', flush=True)")
    times = []
    for _ in range(n):
        speed.tick()
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                              env=child_env(), stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            times.append((t0, time.perf_counter() - t0))
            proc.stdout.read()
            status = proc.wait(timeout=120)
        if line.strip() != "ready" or status:
            die(f"set-up probe for {module} failed (exit {status})", 1)
    speed.tick()
    return times


def import_ms(n: int) -> dict[str, float]:
    """Cumulative import times of the package and of its curves module,
    from ``python -X importtime``; medians over n interpreters."""
    want = {"sympl_moduli": [], "sympl_moduli.curves": []}
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sympl_moduli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=120)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in want:
                want[parts[2]].append(int(parts[1]) / 1e3)
    if not all(want.values()):
        die("could not read import times", 1)
    return {"sympl_moduli.import_ms": statistics.median(want["sympl_moduli"]),
            "curves.import_ms": statistics.median(want["sympl_moduli.curves"])}


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def known_defects(mod, size: str) -> Tally:
    """The workload's inputs that raised at the seed commit (which its
    runs skip), each tried once more, untimed: how many still fail.
    Traced runs only."""
    probes = mod.known_defects(size)
    if probes is None:
        return Tally()
    return mod.check(probes, mod.run(probes, NullTracer(), Speed()))


def _result(values: dict, kind: str, tally: Tally) -> dict:
    units = _units(kind)
    if values.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(values.keys() ^ units.keys())} "
                           f"do not match BENCHMARK.json {kind}")
    return {"correct": not tally.wrong,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()}}


def end_to_end(name: str, seed: int, seconds: float, size: str):
    mod = WORKLOADS[name]
    module = mod.__name__.split(".")[-1]
    probes = PROBES[size]
    child_speed = Speed(children=True)
    setup = setup_seconds(module, probes // 2, child_speed)
    inputs = mod.prepare(seed, size, op_count(seconds, mod.OPS_PER_S[size]))
    speed = child_speed if mod is cli_mix else Speed()
    r = mod.run(inputs, NullTracer(), speed)
    rss = peak_rss_mb(children=mod is cli_mix)
    setup += setup_seconds(module, probes - probes // 2, child_speed)
    setup = [child_speed.scaled(t0, dt) for t0, dt in setup]
    tally = mod.check(inputs, r)
    e2e = mod.end_to_end(inputs, r, tally)
    lat = e2e["latency"]
    values = {"throughput_per_s": e2e["throughput_per_s"],
              "latency_p50_ms": lat["p50_ms"],
              "latency_tail_ms": lat["tail_ms"],
              "peak_rss_mb": rss,
              "setup_s": statistics.median(setup)}
    named = {k: {"value": v, "unit": u} for k, (v, u) in e2e["named"].items()}
    named["setup_s"] = {"value": values["setup_s"], "unit": "s"}
    named["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    report = {"slowness": {"median": speed.slowness(),
                           "min": min(speed.loops, default=0) / speed.ref_s,
                           "max": max(speed.loops, default=0) / speed.ref_s,
                           "samples": len(speed.loops)},
              "child_slowness": child_speed.slowness(),
              "setup_samples_s": setup,
              "latency_samples": lat["samples"],
              "tail_percentile": lat["tail_percentile"],
              "inputs": e2e["inputs"],
              "named_metrics": named}
    return values, tally, report


def per_layer(name: str, seed: int, size: str):
    mod = WORKLOADS[name]
    k = TRACE_OPS[name][size]
    inputs = mod.prepare(seed, size, k)
    base_speed = Speed(children=mod is cli_mix)
    speed = Speed(children=mod is cli_mix)
    base = mod.run(inputs, NullTracer(), base_speed)
    tracer = Tracer()
    r = mod.run(inputs, tracer, speed)
    tally = mod.check(inputs, r)
    defects = known_defects(mod, size)
    tally.wrong.update(defects.wrong)
    values = dict.fromkeys(_units("per_layer"), 0.0)
    values.update(mod.per_layer(inputs, r, tracer.by_name()))
    values.update(import_ms(PROBES[size]))
    for layer, secs in tracer.self_times().items():
        values[f"{layer}.self_s"] = secs
    values["trace.overhead_pct"] = (
        r.busy_s / speed.slowness() / (base.busy_s / base_speed.slowness())
        - 1.0) * 100.0
    values["trace.spans"] = len(tracer)
    values["known_defects.failed"] = sum(defects.failures.values())
    spans_file = OUT / f"spans-{name}.csv"
    tracer.write(spans_file)
    report = {"traced_ops": k,
              "known_defects": defects.to_json(),
              "untraced_s": base.busy_s,
              "traced_s": r.busy_s,
              "spans_file": str(spans_file.relative_to(ROOT))}
    return values, tally, report


def measure(name: str, seed: int, seconds: float, trace: bool, size: str):
    if trace:
        values, tally, report = per_layer(name, seed, size)
    else:
        values, tally, report = end_to_end(name, seed, seconds, size)
    head = {"workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "size": size, "machine": machine_info(),
            **tally.to_json(), **report}
    return values, tally, head


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs, for the smoke test")
    ns = ap.parse_args(argv)
    if ns.seconds <= 0:
        ap.error("--seconds must be positive")
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    kind = "per_layer" if ns.trace else "end_to_end"
    names = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
    results, summary = {}, {}
    for name in names:
        values, tally, head = measure(name, ns.seed, ns.seconds,
                                      bool(ns.trace), ns.size)
        results[name] = _result(values, kind, tally)
        print(json.dumps({**head, "result": results[name]}), flush=True)
        # The summary of `all` uses the per-workload names (README), with
        # the metrics every workload has prefixed by the workload.
        named = head.get("named_metrics", results[name]["metrics"])
        for k, v in named.items():
            shared = ns.trace or k in ("setup_s", "peak_rss_mb")
            summary[f"{name}.{k}" if shared else k] = v
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
