"""Workload ``double-points``: seeded two-end labels with large Deltas,
each counted by all three double-point routes.

Entry magnitudes are log-uniform in [1, 100] with random signs, and
only admissible draws are kept, so Deltas reach ~1e4: the O(Delta)
residue scan and the complex powers of the model map dominate, while
enumeration does nothing.  It shares ``residue_pairs`` with ``sweep``
at the other end of its size range, so a change that helps one regime
and costs the other shows.  The range reaches where the model map
starts failing (~1 % of labels at the seed commit).

The labels are drawn once, from a pool seed of the benchmark's own
(common.POOL_SEED); a run takes the first of them, as many as its size
calls for, in an order set by --seed.  The labels that raised at the
seed commit are listed in ``known_defects.json``: a run skips them, so
that its failures are the ones a change to the code brings, and tries
them once more apart (``known_defects``), so that they stay counted.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from sympl_moduli import (Label2, ModelMapParams, double_points_bruteforce,
                          double_points_formula, phi_double_points)

from common import (POOL_SEED, Speed, Tally, known_indices, latency_summary,
                    quantiles, split_pool)
from workloads.labels import admissible2

MAX_ENTRY = {"full": 100, "tiny": 12}
#: Labels per second of --seconds (~135/s on the machine the benchmark
#: was defined on).
OPS_PER_S = {"full": 125.0, "tiny": 40.0}
MODEL_SCALE = 10.0


def pool(size: str):
    return stream(POOL_SEED, MAX_ENTRY[size])


def prepare(seed: int, size: str, n: int) -> list[tuple]:
    """The first n labels of the pool that are not known defects, in the
    order --seed sets."""
    labels, _ = split_pool(pool(size), n, known_indices("double-points", size))
    random.Random(seed).shuffle(labels)
    return labels


def known_defects(size: str) -> list[tuple]:
    """The labels of the pool that raised at the seed commit."""
    return split_pool(pool(size), 0, known_indices("double-points", size))[1]


def stream(seed: int, top: int):
    """Admissible (p, p', q, q') draws, the same sequence for a seed."""
    rng = random.Random(seed)
    log_top = math.log(top + 1)

    def entry() -> int:
        mag = min(top, int(math.exp(rng.uniform(0.0, log_top))))
        return mag if rng.random() < 0.5 else -mag

    while True:
        draw = (entry(), entry(), entry(), entry())
        if admissible2(*draw):
            yield draw


def warm_up() -> None:
    label = Label2.make((2, 1), (1, 2))
    phi_double_points(ModelMapParams(label=label, r=MODEL_SCALE))


@dataclass
class Op:
    draw: tuple
    start: float
    latency_s: float
    counts: tuple | None = None      # (formula, oracle, model points)
    max_residual: float = 0.0
    failed_at: str | None = None     # span name that raised
    error: str | None = None


@dataclass
class Run:
    ops: list
    busy_s: float
    speed: Speed


def run(inputs, tracer, speed) -> Run:
    """Every label of the run, one at a time."""
    ops: list[Op] = []
    busy = 0.0
    for draw in inputs:
        p, pp, q, qp = draw
        stage = None
        tracer.begin_op()
        speed.tick()
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.label"):
                stage = "moduli.make"
                label = tracer.call(stage, Label2.make, (p, pp), (q, qp))
                stage = "invariants.formula"
                formula = tracer.call(stage, double_points_formula, label)
                stage = "invariants.oracle"
                oracle = tracer.call(stage, double_points_bruteforce, label)
                stage = "model_maps.double_points"
                params = ModelMapParams(label=label, r=MODEL_SCALE)
                points = tracer.call(stage, phi_double_points, params)
        except Exception as exc:  # counted, and the run goes on
            dt = time.perf_counter() - t0
            ops.append(Op(draw, t0, dt, failed_at=stage,
                          error=f"{type(exc).__name__}@{stage}"))
        else:
            dt = time.perf_counter() - t0
            ops.append(Op(draw, t0, dt, (formula, oracle, len(points)),
                          max((x.residual for x in points), default=0.0)))
        busy += dt
    speed.tick()
    return Run(ops, busy, speed)


def _delta(draw) -> int:
    p, pp, q, qp = draw
    return p * qp - q * pp


def _agrees(op: Op) -> bool:
    formula, oracle, points = op.counts
    return formula == oracle and points == 2 * formula


def check(inputs, r: Run) -> Tally:
    tally = Tally(attempted=len(r.ops))
    for op in r.ops:
        if op.error:
            tally.failures[op.error] += 1
        elif not _agrees(op):
            tally.wrong["formula_oracle_model"] += 1
    return tally


def end_to_end(inputs, r: Run, tally: Tally) -> dict:
    good = [op for op in r.ops if not op.error and _agrees(op)]
    points = sum(op.counts[2] for op in good)
    busy = sum(r.speed.scaled(op.start, op.latency_s) for op in r.ops)
    lat = latency_summary([r.speed.scaled(op.start, op.latency_s)
                           for op in good],
                          len(r.ops) - len(good), r.busy_s)
    deltas = [_delta(op.draw) for op in r.ops]
    return {
        "throughput_per_s": points / busy,
        "latency": lat,
        "named": {
            "dp_points_per_s": (points / busy, "1/s"),
            "dp_label_latency_p50_ms": (lat["p50_ms"], "ms"),
            "dp_label_latency_tail_ms": (lat["tail_ms"], "ms"),
        },
        "inputs": {
            "labels": len(r.ops),
            "delta_quantiles": quantiles(deltas),
            "share_delta_over_1000":
                sum(d > 1000 for d in deltas) / len(deltas),
            "failed_share": (len(r.ops) - len(good)) / len(r.ops),
        },
    }


def per_layer(inputs, r: Run, spans: dict) -> dict:
    done = [op for op in r.ops if not op.error]
    points = sum(op.counts[2] for op in done)
    # Residues the oracle scans: Delta - 1 per label it ran on (computed).
    residues = sum(_delta(op.draw) - 1 for op in r.ops
                   if op.failed_at not in ("moduli.make", "invariants.formula",
                                           "invariants.oracle"))
    oracle_s = sum(spans.get("invariants.oracle", []))
    model_s = sum(spans.get("model_maps.double_points", []))
    return {
        "moduli.make_s": sum(spans.get("moduli.make", [])),
        "invariants.formula_s": sum(spans.get("invariants.formula", [])),
        "invariants.oracle_s": oracle_s,
        "invariants.residues_scanned": residues,
        "invariants.oracle_ns_per_residue": oracle_s / residues * 1e9,
        "model_maps.double_points_s": model_s,
        "model_maps.points": points,
        "model_maps.us_per_point": model_s / points * 1e6,
        "model_maps.max_residual": max((op.max_residual for op in done),
                                       default=0.0),
        "model_maps.failures": sum(op.failed_at == "model_maps.double_points"
                                   for op in r.ops),
    }
