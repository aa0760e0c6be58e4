"""Pieces shared by the benchmark workloads: paths, run accounting,
percentiles, scaling to a reference speed, and the machine record."""

from __future__ import annotations

import bisect
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Percentiles a tail may resolve to: the tail is the highest of these
#: with at least TAIL_BEYOND samples beyond it, and never below the
#: median.  The grid is coarse so that a workload's tail stays at one
#: percentile from run to run, and so that a failure share of one to
#: ten per cent (double-points fails on ~1 % of labels at the seed
#: commit) does not flip the tail between a latency and the
#: failures-as-missing value from seed to seed.
STANDARD_PERCENTILES = (50.0, 90.0, 99.9)
TAIL_BEYOND = 10

#: Seed of the fixed input pools of double-points and profile.  A run
#: takes the first operations of its pool, as many as its --seconds
#: call for, and --seed sets their order.  So the inputs a run attempts,
#: and hence how many of them fail, depend on --seconds and the code
#: alone, not on the seed or on how fast the machine ran.
POOL_SEED = 20020212

#: Inputs that raised at the seed commit, by workload and size: indices
#: into the fixed pools of double-points and profile, among their first
#: draws, as many as the file's "checked" gives (it is made by
#: make_known_defects.py).  A run's operations skip them, so that an
#: operation that fails shows a change in the code; a traced run tries
#: each of them once more, untimed, and reports how many still fail
#: (run.known_defects).
KNOWN_DEFECTS_FILE = BENCH / "known_defects.json"


def known_indices(workload: str, size: str) -> list[int]:
    with open(KNOWN_DEFECTS_FILE) as fp:
        return json.load(fp)[workload][size]


def split_pool(draws, n: int, known: list[int]) -> tuple[list, list]:
    """(the first n draws whose index is not in known, the draws at the
    known indices)."""
    skip, last = set(known), max(known, default=-1)
    timed, probes = [], []
    for i, d in enumerate(draws):
        if i in skip:
            probes.append(d)
        elif len(timed) < n:
            timed.append(d)
        if len(timed) == n and i >= last:
            return timed, probes
    raise ValueError("pool exhausted")


#: Calls of the calibration loop, and its time on the machine the
#: benchmark was defined on (2-CPU Intel Xeon, Python 3.11).
CAL_CALLS = 5000
CAL_REF_S = 2.0e-3


def _cal_step(a: float, x: float) -> float:
    c, s = math.cos(x), math.sin(x)
    return (1.0 - 3.0 * c * c + a * c * s * s) / ((c - a) * s + 2.0)


def calibration_loop() -> float:
    """Seconds taken by a fixed pure-Python loop of small function calls
    on floats.  Of the loops tried it tracked the machine's speed drift
    best for both the quadrature and the integer workloads."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CAL_CALLS):
        acc += _cal_step(0.7, 0.1 + i * 1e-4)
    return time.perf_counter() - t0


#: The reference for work done in child interpreters (cli-mix commands
#: and setup_s): a fresh interpreter that imports numpy, which scipy,
#: and so the package, imports first.  No code of the repository runs
#: in it.  REF_CHILD_S is its time on the machine the benchmark was
#: defined on.
REF_CHILD = ("-c", "import numpy")
REF_CHILD_S = 0.18


def reference_child() -> float:
    """Seconds taken by the reference child, from spawn to exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *REF_CHILD], cwd=ROOT, check=True,
                   capture_output=True, timeout=120)
    return time.perf_counter() - t0


class Speed:
    """How fast the machine ran while a workload was measured.

    On a shared machine the CPU's speed drifts by +-20 % over seconds,
    and at times by more, which swamps what a change to the program
    moves.  So the benchmark times a probe between operations (outside
    every timed region, at most once per INTERVAL_S of wall time) and
    scales each measured duration to the probe's reference time: a
    duration is divided by the slowness measured around it.  The probe
    is the calibration loop for work done in this process, and the
    reference child for work done in child interpreters, which a loop
    in this process does not track.
    """

    INTERVAL_S = 0.1
    #: Samples this far before and after a duration count towards it.
    WINDOW_S = 0.2

    def __init__(self, children: bool = False):
        self.probe = reference_child if children else calibration_loop
        self.ref_s = REF_CHILD_S if children else CAL_REF_S
        self.times: list[float] = []
        self.loops: list[float] = []
        self._due = 0.0

    def tick(self) -> None:
        now = time.perf_counter()
        if now >= self._due:
            self.loops.append(self.probe())
            end = time.perf_counter()
            self.times.append(0.5 * (now + end))
            self._due = end + self.INTERVAL_S

    def slowness(self, t0: float | None = None,
                 t1: float | None = None) -> float:
        """Median probe time over the reference (1.2 is 20 % slower)
        around [t0, t1], or over the whole run; the nearest sample if no
        sample falls in the window.  The median, because a sample that
        an interrupt lands in reads several times too slow.  1.0 (no
        scaling) when nothing was sampled."""
        if not self.loops:
            return 1.0
        if t0 is None:
            return statistics.median(self.loops) / self.ref_s
        i = bisect.bisect_left(self.times, t0 - self.WINDOW_S)
        j = bisect.bisect_right(self.times, t1 + self.WINDOW_S)
        near = self.loops[i:j] or [self.loops[min(i, len(self.loops) - 1)]]
        return statistics.median(near) / self.ref_s

    def scaled(self, t0: float, dt: float) -> float:
        """A duration that started at t0, at the reference speed."""
        return dt / self.slowness(t0, t0 + dt)


def op_count(seconds: float, per_s: float) -> int:
    """Operations a run does: its --seconds at a nominal rate (measured
    on the machine the benchmark was defined on), at least one.  A fixed
    count rather than a deadline, so that the operations attempted do
    not move with the machine's speed."""
    return max(1, round(seconds * per_s))


def child_env(extra: dict | None = None) -> dict:
    """Environment for a child interpreter: the package is not
    installed, so ``src`` goes on PYTHONPATH, as the tier-1 tests do."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


@dataclass
class Tally:
    """Operations attempted, failed (raised, or exited unexpectedly) and
    wrong (completed, but the output check disagreed)."""

    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    wrong: Counter = field(default_factory=Counter)

    @property
    def failed(self) -> int:
        return sum(self.failures.values()) + sum(self.wrong.values())

    def to_json(self) -> dict:
        return {"attempted": self.attempted,
                "failed": self.failed,
                "failures_by_class": dict(sorted(self.failures.items())),
                "wrong_by_check": dict(sorted(self.wrong.items()))}


def nearest_rank(sorted_vals: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(pct / 100.0 * len(sorted_vals)))
    return sorted_vals[k - 1]


def tail_percentile(n: int) -> float:
    """The tail percentile at sample count n (see STANDARD_PERCENTILES);
    below 2 * TAIL_BEYOND samples this is the median."""
    for pct in reversed(STANDARD_PERCENTILES):
        if n * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return pct
    return STANDARD_PERCENTILES[0]


def latency_summary(ok_s: list[float], n_failed: int,
                    window_s: float) -> dict:
    """Median and tail latency in ms, with failures ranked as missing any
    limit: each failure counts as the whole measuring window (or the
    slowest completed operation, if that is longer)."""
    vals = sorted(x * 1e3 for x in ok_s)
    miss = max([window_s * 1e3] + vals[-1:])
    vals += [miss] * n_failed
    if not vals:
        raise RuntimeError("no operation completed")
    tail_pct = tail_percentile(len(vals))
    return {"p50_ms": nearest_rank(vals, 50.0),
            "tail_ms": nearest_rank(vals, tail_pct),
            "tail_percentile": tail_pct,
            "samples": len(vals)}


def quantiles(vals: list[float], cuts=(0.0, 25.0, 50.0, 75.0, 100.0)) -> dict:
    s = sorted(vals)
    return {f"p{c:g}": nearest_rank(s, c) for c in cuts} if s else {}


def peak_rss_mb(children: bool) -> float:
    """Peak resident set in MB of this process, or of its largest
    waited-for child (ru_maxrss is in KiB on Linux)."""
    import resource
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """sha256 over the package sources, which names the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "sympl_moduli").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_info() -> dict:
    return {"nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "scipy": _version("scipy"),
            "mpmath": _version("mpmath"),
            "git_commit": _git_commit(),
            "src_sha256": _src_digest()}


def die(msg: str, code: int = 2):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)
