"""Spans recorded by the benchmark around its own calls into each layer.

Nothing inside sympl_moduli is instrumented: a span covers one call the
benchmark makes into a module's public function.  Each span holds its
name (``<layer>.<what>``), start and end (perf_counter_ns), the index
of the span that caused it, and the id of the operation it belongs to.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from pathlib import Path


class NullTracer:
    """The untraced run: calls go straight through."""

    enabled = False

    def begin_op(self) -> None:
        pass

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return contextlib.nullcontext()


class Tracer(NullTracer):
    """The traced run: every call and span is recorded."""

    enabled = True

    def __init__(self):
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self._stack: list[int] = []
        self._op_id = 0

    def begin_op(self) -> None:
        self._op_id += 1

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(name)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter_ns()
            self.start[idx] = t0
            self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        self.start[idx] = time.perf_counter_ns()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def __len__(self) -> int:
        return len(self.names)

    def by_name(self) -> dict[str, list[float]]:
        """Span durations in seconds, grouped by span name."""
        out: dict[str, list[float]] = defaultdict(list)
        for n, s, e in zip(self.names, self.start, self.end):
            out[n].append((e - s) * 1e-9)
        return out

    def self_times(self) -> dict[str, float]:
        """Self time in seconds per layer (the name before the first dot):
        each span's duration minus what its direct children cover."""
        covered = [0] * len(self.names)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            own = self.end[i] - self.start[i] - covered[i]
            out[name.split(".", 1)[0]] += own * 1e-9
        return dict(out)

    def write(self, path: Path) -> None:
        """One CSV row per span: id, name, start_ns, end_ns, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fp:
            fp.write("id,name,start_ns,end_ns,parent,op\n")
            for i, name in enumerate(self.names):
                fp.write(f"{i},{name},{self.start[i]},{self.end[i]},"
                         f"{self.parent[i]},{self.op[i]}\n")
