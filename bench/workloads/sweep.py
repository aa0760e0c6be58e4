"""Workload ``sweep``: every admissible two-end label with entries up to
10 and every three-end label with entries up to 8, pass after pass.

Each pass enumerates both sets and gives every label the invariant
report, the root-of-unity oracle and the gcd formula; three-end labels
also get their two orderings.  This is the acceptance-suite scale and
the ``enumerate`` loop: many tiny Deltas (at most 200), so admissibility
filtering and per-label overhead dominate, and model maps and curves
never run.  The sweep is exhaustive, so it ignores the seed.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from dataclasses import dataclass, field

from sympl_moduli import (OrderedLabel3, double_points_bruteforce,
                          double_points_formula, enumerate_labels,
                          sphere_report)

from common import Speed, Tally, latency_summary, quantiles

#: (two-end bound, three-end bound) per size.
BOUNDS = {"full": (10, 8), "tiny": (3, 3)}
#: Passes per second of --seconds (a full pass takes ~4 s on the
#: machine the benchmark was defined on).
OPS_PER_S = {"full": 0.25, "tiny": 4.0}

#: Admissible label totals; workloads.labels.count_labels reproduces
#: them from the rules alone (checked by the smoke test).
EXPECTED_LABELS = {(10, 2): 43354, (8, 3): 1562, (3, 2): 465, (3, 3): 32}


@dataclass
class Pass:
    enum2_s: float = 0.0
    proc2_s: float = 0.0
    enum3_s: float = 0.0
    proc3_s: float = 0.0
    span2: tuple = ()                # wall-clock (start, end) of each half
    span3: tuple = ()
    labels2: int = 0
    labels3: int = 0
    residues: int = 0                # sum of Delta - 1 over the labels


@dataclass
class Run:
    speed: Speed
    passes: list = field(default_factory=list)
    starts: array = field(default_factory=lambda: array("d"))
    latencies: array = field(default_factory=lambda: array("d"))
    failures: Counter = field(default_factory=Counter)
    wrong: Counter = field(default_factory=Counter)
    deltas: list = field(default_factory=list)      # first pass only
    busy_s: float = 0.0


def prepare(seed: int, size: str, n: int):
    """(bounds, passes); the sweep is exhaustive, so the seed is unused."""
    return (BOUNDS[size], n)


def known_defects(size: str) -> None:
    """No input of the sweep raised at the seed commit."""
    return None


def warm_up() -> None:
    enumerate_labels(1, 2)


def _process(label, tracer):
    rep = tracer.call("invariants.report", sphere_report, label)
    oracle = tracer.call("invariants.oracle", double_points_bruteforce, label)
    formula = tracer.call("invariants.formula", double_points_formula, label)
    return (rep.m_c, oracle, formula, rep.delta)


def _distinct_boundaries(pairs, orderings) -> bool:
    """Exactly two orderings, each a permutation of the label summing to
    zero, whose first two pairs (the boundary labels) differ."""
    want = sorted(p.as_tuple() for p in pairs)
    if len(orderings) != 2:
        return False
    for o in orderings:
        if sorted(o) != want or sum(x for x, _ in o) or sum(y for _, y in o):
            return False
    return orderings[0][:2] != orderings[1][:2]


def _check_pass(bounds, ps: Pass, results, orderings, r: Run) -> None:
    """The pass's outputs against the expected totals and each other;
    runs after the pass, outside its timed region."""
    b2, b3 = bounds
    if ps.labels2 != EXPECTED_LABELS[(b2, 2)]:
        r.wrong["two_end_total"] += 1
    if ps.labels3 != EXPECTED_LABELS[(b3, 3)]:
        r.wrong["three_end_total"] += 1
    for m_c, oracle, formula, d in results:
        if not m_c == oracle == formula:
            r.wrong["formula_vs_oracle"] += 1
        ps.residues += d - 1
    for pairs, ords in orderings:
        if not _distinct_boundaries(pairs, ords):
            r.wrong["boundary_labels"] += 1
    if not r.deltas:
        r.deltas = [d for *_, d in results]


def run(inputs, tracer, speed) -> Run:
    """The run's passes.  A pass's time is its enumerations plus its
    per-label times."""
    bounds, n_passes = inputs
    b2, b3 = bounds
    r = Run(speed)
    for _ in range(n_passes):
        ps, results, orderings = Pass(), [], []
        tracer.begin_op()
        speed.tick()
        t0 = time.perf_counter()
        labels2 = tracer.call("moduli.enumerate2", enumerate_labels, b2, 2)
        ps.enum2_s = time.perf_counter() - t0
        first = len(r.latencies)
        for label in labels2:
            speed.tick()
            ta = time.perf_counter()
            try:
                with tracer.span("bench.label2"):
                    results.append(_process(label, tracer))
            except Exception as exc:  # counted, and the sweep goes on
                r.failures[type(exc).__name__] += 1
            r.latencies.append(time.perf_counter() - ta)
            r.starts.append(ta)
        ps.proc2_s = sum(r.latencies[first:])
        ps.span2 = (t0, time.perf_counter())
        speed.tick()
        t0 = time.perf_counter()
        labels3 = tracer.call("moduli.enumerate3", enumerate_labels, b3, 3)
        ps.enum3_s = time.perf_counter() - t0
        first = len(r.latencies)
        for label in labels3:
            speed.tick()
            ta = time.perf_counter()
            try:
                with tracer.span("bench.label3"):
                    ords = tracer.call("moduli.orderings", label.orderings)
                    orderings.append((label.pairs, ords))
                    results.append(
                        _process(OrderedLabel3(label, ords[0]), tracer))
            except Exception as exc:  # counted, and the sweep goes on
                r.failures[type(exc).__name__] += 1
            r.latencies.append(time.perf_counter() - ta)
            r.starts.append(ta)
        ps.proc3_s = sum(r.latencies[first:])
        ps.span3 = (t0, time.perf_counter())
        ps.labels2, ps.labels3 = len(labels2), len(labels3)
        r.busy_s += ps.enum2_s + ps.proc2_s + ps.enum3_s + ps.proc3_s
        _check_pass(bounds, ps, results, orderings, r)
        r.passes.append(ps)
    speed.tick()
    return r


def check(inputs, r: Run) -> Tally:
    return Tally(attempted=sum(p.labels2 + p.labels3 for p in r.passes),
                 failures=Counter(r.failures), wrong=Counter(r.wrong))


def end_to_end(inputs, r: Run, tally: Tally) -> dict:
    b2, b3 = inputs[0]
    ps = r.passes
    speed = r.speed
    labels2 = sum(p.labels2 for p in ps)
    labels3 = sum(p.labels3 for p in ps)
    t2 = sum((p.enum2_s + p.proc2_s) / speed.slowness(*p.span2) for p in ps)
    t3 = sum((p.enum3_s + p.proc3_s) / speed.slowness(*p.span3) for p in ps)
    lat = latency_summary(map(speed.scaled, r.starts, r.latencies), 0,
                          r.busy_s)
    candidates2 = (2 * b2 + 1) ** 4
    return {
        "throughput_per_s": (labels2 + labels3) / (t2 + t3),
        "latency": lat,
        "named": {
            "sweep2_labels_per_s": (labels2 / t2, "1/s"),
            "sweep3_labels_per_s": (labels3 / t3, "1/s"),
            "sweep_label_latency_p50_ms": (lat["p50_ms"], "ms"),
            "sweep_label_latency_tail_ms": (lat["tail_ms"], "ms"),
        },
        "inputs": {
            "seed_used": False,
            "passes": len(ps),
            "bounds": {"two_end": b2, "three_end": b3},
            "two_end_candidates": candidates2,
            "two_end_labels": ps[0].labels2,
            "three_end_labels": ps[0].labels3,
            "two_end_accept_ratio": ps[0].labels2 / candidates2,
            "delta_quantiles": quantiles(r.deltas),
        },
    }


def per_layer(inputs, r: Run, spans: dict) -> dict:
    """Per pass: times are a pass's mean, counts those of one pass."""
    b2, b3 = inputs[0]
    ps = r.passes
    n = len(ps)
    side = 2 * b3 + 1
    # Candidates the exhaustive filter visits (computed, not counted):
    # all (2b+1)^4 two-end tuples and all ordered pairs of non-zero
    # pairs for three ends.
    candidates = (2 * b2 + 1) ** 4 + (side * side - 1) ** 2
    labels = ps[0].labels2 + ps[0].labels3

    def per_pass(name: str) -> float:
        return sum(spans.get(name, [])) / n

    oracle_s = per_pass("invariants.oracle")
    return {
        "moduli.enumerate2_s": per_pass("moduli.enumerate2"),
        "moduli.enumerate3_s": per_pass("moduli.enumerate3"),
        "moduli.orderings_s": per_pass("moduli.orderings"),
        "moduli.candidates": candidates,
        "moduli.labels": labels,
        "moduli.accept_ratio": labels / candidates,
        "invariants.report_s": per_pass("invariants.report"),
        "invariants.formula_s": per_pass("invariants.formula"),
        "invariants.oracle_s": oracle_s,
        "invariants.residues_scanned": ps[0].residues,
        "invariants.oracle_ns_per_residue": oracle_s / ps[0].residues * 1e9,
    }
