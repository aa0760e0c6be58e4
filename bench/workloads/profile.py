"""Workload ``profile``: seeded profile cylinders, traced and evaluated.

Each operation draws a coprime pair (p, p') with 1 <= p <= 12 and
|p'| <= 20 and one of its theta ranges, traces it with
``integrate_profile`` at 1000 samples, evaluates ``eval_invariant_curve``
at a few u inside the traced range, asks ``s_of_theta`` for a few
angles, and evaluates the static families (examples 2-4).  scipy's
quadrature dominates, and traces and point evaluations use it
differently (short steps against a long integral from the anchor at
every bisection step), so a cache that helps one and costs the other
shows.  moduli and invariants never run.

The pairs are drawn once, from a pool seed of the benchmark's own
(common.POOL_SEED); a run takes the first of them, as many as its size
calls for, in an order set by --seed.  The draws that raised at the
seed commit are listed in ``known_defects.json``: a run skips them and
tries them once more apart (``known_defects``), as double-points does.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from sympl_moduli import (BranchId, CurveSpec, classify_pair,
                          eval_invariant_curve, integrate_profile, s_of_theta,
                          solve_theta0, theta_from_lambda)

from common import (POOL_SEED, Speed, Tally, known_indices, latency_summary,
                    split_pool)

SAMPLES = {"full": 1000, "tiny": 50}
#: Pairs per second of --seconds (~34/s on the machine the benchmark
#: was defined on).
OPS_PER_S = {"full": 32.0, "tiny": 6.0}
EVALS, QUERIES = 3, 5
#: Distance kept from the fixed angles, by traces and point evaluations
#: alike, so that every evaluated u lies inside the traced range.
CLIP = 1e-4
#: At most this many trace rows per run are checked against mpmath.
MPMATH_CHECKS = 40
S_TOL = 1e-8         # |s - s_ref| <= S_TOL * (1 + |s_ref|)
U_TOL = 1e-7         # |u(point) - u| <= U_TOL * |u|
SQRT6 = math.sqrt(6.0)


def pool(size: str):
    return stream(POOL_SEED, SAMPLES[size])


def prepare(seed: int, size: str, n: int):
    """(samples per trace, the first n draws of the pool that are not
    known defects, in the order --seed sets)."""
    draws, _ = split_pool(pool(size), n, known_indices("profile", size))
    random.Random(seed).shuffle(draws)
    return (SAMPLES[size], draws)


def known_defects(size: str):
    """(samples per trace, the draws of the pool that raised at the seed
    commit)."""
    return (SAMPLES[size],
            split_pool(pool(size), 0, known_indices("profile", size))[1])


@dataclass
class Draw:
    p: int
    pp: int
    range_pick: float            # picks the theta range
    eval_rows: tuple             # trace rows whose u is evaluated
    query_fracs: tuple           # s_of_theta angles, as range fractions
    check_row: int               # trace row checked against mpmath
    lam: float                   # theta_from_lambda input ...
    branch: BranchId             # ... on a branch where it is valid
    static: tuple                # (example id, tau, u, kappa, sign) each


def stream(seed: int, n: int):
    """Draws for traces of n samples, the same sequence for a seed."""
    rng = random.Random(seed)
    while True:
        p, pp = rng.randint(1, 12), rng.randint(-20, 20)
        if math.gcd(p, pp) != 1:
            continue
        lam = rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(-3.0, 3.0))
        branch = (BranchId.B if rng.random() < 0.5
                  else BranchId.A if lam < 0 else BranchId.C)
        static = []
        for ex in (2, 3, 4):
            kappa = math.exp(rng.uniform(-2.0, 2.0))
            u = math.exp(rng.uniform(-3.0, 3.0))
            sign = rng.choice((-1, 1))
            if ex != 2:             # the plane needs u >= 0 and kappa > 0
                u *= rng.choice((-1, 1))
            static.append((ex, rng.uniform(0.0, 6.0), u, kappa, sign))
        yield Draw(p, pp, rng.random(),
                   tuple(rng.randrange(n // 20, n - n // 20)
                         for _ in range(EVALS)),
                   tuple(rng.uniform(0.01, 0.99) for _ in range(QUERIES)),
                   rng.randrange(n), lam, branch, tuple(static))


def _static_spec(ex: int, kappa: float, sign: int) -> CurveSpec:
    if ex == 2:
        return CurveSpec.example2(0.5, kappa, sign)
    if ex == 3:
        return CurveSpec.example3(0.5, kappa)
    return CurveSpec.example4(0.25, sign * kappa)


def warm_up() -> None:
    integrate_profile(1, 2, 0, n_samples=3)


@dataclass
class Op:
    draw: Draw
    n_ranges: int
    range_id: int
    start: float = 0.0
    latency_s: float = 0.0
    trace_s: float = 0.0
    evals: list = field(default_factory=list)       # (u, s, theta, seconds)
    checkpoint: tuple = ()                          # (theta, s), one row
    stage: str = ""                                 # the call under way
    error: str | None = None                        # the call raised
    wrong: str | None = None                        # a check disagreed


@dataclass
class Run:
    ops: list
    busy_s: float
    samples: int
    speed: Speed


def _one(d: Draw, op: Op, n: int, tracer) -> None:
    p, pp, rid = d.p, d.pp, op.range_id

    def call(name, fn, *args, **kwargs):
        op.stage = name
        return tracer.call(name, fn, *args, **kwargs)

    t0 = time.perf_counter()
    try:
        trace = call("curves.integrate_profile", integrate_profile,
                     p, pp, rid, n_samples=n, clip=CLIP)
    finally:
        op.trace_s = time.perf_counter() - t0
    spec = trace.spec
    for i in d.eval_rows:
        u = trace.samples[i].f
        t0 = time.perf_counter()
        pt = call("curves.eval", eval_invariant_curve, spec, 0.3, u,
                  clip=CLIP)
        op.evals.append((u, pt.s, pt.theta, time.perf_counter() - t0))
    anchor = spec.anchor_angle()
    lo, hi = trace.samples[0].theta, trace.samples[-1].theta
    for frac in d.query_fracs:
        call("curves.s_of_theta", s_of_theta, p, pp, anchor, 0.0,
             lo + frac * (hi - lo))
    call("reeb.solve_theta0", solve_theta0, p, pp)
    call("reeb.classify_pair", classify_pair, p, pp)
    call("geometry.theta_from_lambda", theta_from_lambda, d.lam, d.branch)
    for ex, tau, u, kappa, sign in d.static:
        call("curves.eval_static", eval_invariant_curve,
             _static_spec(ex, kappa, sign), tau, u)
    return trace


def run(inputs, tracer, speed) -> Run:
    """Every pair of the run, one at a time."""
    n, draws = inputs
    ops: list[Op] = []
    busy = 0.0
    for d in draws:
        n_ranges = 2 if 2 * d.pp * d.pp < 3 * d.p * d.p else 3
        op = Op(d, n_ranges, min(n_ranges - 1, int(d.range_pick * n_ranges)))
        tracer.begin_op()
        speed.tick()
        t0 = op.start = time.perf_counter()
        try:
            with tracer.span("bench.pair"):
                trace = _one(d, op, n, tracer)
        except Exception as exc:  # counted, and the run goes on
            op.error = f"{type(exc).__name__}@{op.stage}"
        op.latency_s = time.perf_counter() - t0
        busy += op.latency_s
        if not op.error:
            _verify(op, trace)
        ops.append(op)
    speed.tick()
    return Run(ops, busy, n, speed)


def _ranges_reference(p: int, pp: int) -> list[tuple[float, float]]:
    """The theta ranges in increasing order: cut (0, pi) at the angles
    whose cosine solves 3 a x^2 + sqrt6 x - a = 0 (a = p'/p)."""
    a = pp / p
    cuts = [0.0, math.pi]
    if a == 0:
        cuts.append(math.pi / 2)
    else:
        disc = math.sqrt(6.0 + 12.0 * a * a)
        cuts += [math.acos(x) for x in ((-SQRT6 + disc) / (6 * a),
                                        (-SQRT6 - disc) / (6 * a))
                 if abs(x) < 1.0]
    cuts.sort()
    return list(zip(cuts, cuts[1:]))


def _s_reference(p: int, pp: int, lo: float, hi: float, theta: float) -> float:
    """s(theta) with s = 0 at the range midpoint, by mpmath quadrature of
    ds/dtheta written out from the profile equation."""
    import mpmath
    a = mpmath.mpf(pp) / p
    s6 = mpmath.sqrt(6)

    def ds(th):
        c, sn = mpmath.cos(th), mpmath.sin(th)
        return -(1 - 3 * c * c + s6 * a * c * sn * sn) / (
            (s6 * c - a * (1 - 3 * c * c)) * sn)

    with mpmath.workdps(20):
        return float(mpmath.quad(ds, [0.5 * (lo + hi), theta]))


def _verify(op: Op, trace) -> None:
    """Checks on one traced pair, run between operations (untimed): theta
    strictly increasing over the reference range, and every evaluated
    point giving back its u.  Keeps one row for the mpmath check."""
    thetas = [row.theta for row in trace.samples]
    lo, hi = _ranges_reference(op.draw.p, op.draw.pp)[op.range_id]
    if any(b <= a for a, b in zip(thetas, thetas[1:])):
        op.wrong = "theta_not_monotone"
    elif (abs(thetas[0] - lo - CLIP) > 1e-9
          or abs(thetas[-1] - hi + CLIP) > 1e-9):
        op.wrong = "theta_range"
    elif any(abs(math.exp(-SQRT6 * s) * (1 - 3 * math.cos(th) ** 2) - u)
             > U_TOL * abs(u) for u, s, th, _ in op.evals):
        op.wrong = "u_not_recovered"
    row = trace.samples[op.draw.check_row]
    op.checkpoint = (row.theta, row.s)


def check(inputs, r: Run) -> Tally:
    """Per-pair verdicts, and s against mpmath on an evenly spread
    subset of at most MPMATH_CHECKS pairs."""
    tally = Tally(attempted=len(r.ops))
    done = [op for op in r.ops if not op.error and not op.wrong]
    step = max(1, math.ceil(len(done) / MPMATH_CHECKS))
    for op in r.ops:
        if op.error:
            tally.failures[op.error] += 1
        elif op.wrong:
            tally.wrong[op.wrong] += 1
    for op in done[::step]:
        lo, hi = _ranges_reference(op.draw.p, op.draw.pp)[op.range_id]
        th, s = op.checkpoint
        ref = _s_reference(op.draw.p, op.draw.pp, lo, hi, th)
        if abs(s - ref) > S_TOL * (1 + abs(ref)):
            tally.wrong["s_vs_mpmath"] += 1
    return tally


def end_to_end(inputs, r: Run, tally: Tally) -> dict:
    """Durations inside one pair are scaled by the speed around the pair."""
    done = [op for op in r.ops if not op.error]
    slow = {id(op): r.speed.slowness(op.start, op.start + op.latency_s)
            for op in r.ops}
    trace_s = sum(op.trace_s / slow[id(op)] for op in r.ops)
    evals = [e[3] / slow[id(op)] for op in done for e in op.evals]
    n_failed_evals = EVALS * (len(r.ops) - len(done))
    lat = latency_summary(evals, n_failed_evals, r.busy_s)
    samples = r.samples * len(done)
    return {
        "throughput_per_s": samples / trace_s,
        "latency": lat,
        "named": {
            "trace_samples_per_s": (samples / trace_s, "1/s"),
            "curve_points_per_s": (len(evals) / sum(evals), "1/s"),
            "curve_point_latency_p50_ms": (lat["p50_ms"], "ms"),
            "curve_point_latency_tail_ms": (lat["tail_ms"], "ms"),
        },
        "inputs": {
            "pairs": len(r.ops),
            "share_three_range_pairs": sum(op.n_ranges == 3 for op in r.ops)
            / len(r.ops),
            "failed_share": (len(r.ops) - len(done)) / len(r.ops),
        },
    }


def _mean_us(spans: dict, name: str) -> float:
    d = spans.get(name, [])
    return sum(d) / len(d) * 1e6 if d else 0.0


def per_layer(inputs, r: Run, spans: dict) -> dict:
    integ = sum(spans.get("curves.integrate_profile", []))
    evals = spans.get("curves.eval", [])
    rows = r.samples * len(spans.get("curves.integrate_profile", []))
    return {
        "curves.integrate_profile_s": integ,
        "curves.us_per_sample": integ / rows * 1e6 if rows else 0.0,
        "curves.eval_s": sum(evals),
        "curves.ms_per_eval": sum(evals) / len(evals) * 1e3 if evals else 0.0,
        "curves.s_of_theta_us": _mean_us(spans, "curves.s_of_theta"),
        "curves.eval_static_us": _mean_us(spans, "curves.eval_static"),
        "reeb.solve_theta0_us": _mean_us(spans, "reeb.solve_theta0"),
        "reeb.classify_pair_us": _mean_us(spans, "reeb.classify_pair"),
        "geometry.theta_from_lambda_us": _mean_us(
            spans, "geometry.theta_from_lambda"),
    }
