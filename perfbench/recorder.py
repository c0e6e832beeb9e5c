"""A small in-memory span recorder for the traced run.

It lives in the benchmark's own files on purpose: spans are taken around
calls into the program's public functions, so a change to the program's
own tracer cannot shift the benchmark's clock.  All timestamps are
``time.perf_counter()`` seconds (CLOCK_MONOTONIC, the same clock the
serving timelines stamp with ``time.monotonic()``).

Each operation (one frame, one request or one pipeline build) owns a
root span; its child spans share the root's ``op`` id.  A span's self
time is its duration minus the part of it covered by its children, so
the self times of one operation add up to its root span exactly.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    def __init__(self):
        self._spans: list[tuple[str, int, float, float, int]] = []
        self._lock = threading.Lock()

    def add(self, name: str, op: int, t0: float, t1: float) -> None:
        """Record a span measured elsewhere (e.g. kernel group times)."""
        with self._lock:
            self._spans.append((name, op, t0, max(t0, t1),
                                threading.get_ident()))

    @contextmanager
    def span(self, name: str, op: int):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, op, t0, time.perf_counter())

    def self_times(self, ops=None) -> tuple[dict[str, float], int, float]:
        """(layer -> total self seconds, root count, total root seconds)
        over the ops in ``ops`` (all ops when None).

        Spans of one op nest by interval: a span's parent is the
        innermost earlier span of the same op that contains it."""
        by_op: dict[int, list] = {}
        with self._lock:
            for span in self._spans:
                if ops is None or span[1] in ops:
                    by_op.setdefault(span[1], []).append(span)
        totals: dict[str, float] = {}
        roots = 0
        root_s = 0.0
        for spans in by_op.values():
            spans.sort(key=lambda s: (s[2], -s[3]))
            stack: list[list] = []
            nodes = []
            for name, _, t0, t1, _ in spans:
                while stack and not (stack[-1][1] <= t0
                                     and t1 <= stack[-1][2]):
                    stack.pop()
                node = [name, t0, t1, t1 - t0]
                if stack:
                    stack[-1][3] -= t1 - t0
                else:
                    roots += 1
                    root_s += t1 - t0
                stack.append(node)
                nodes.append(node)
            for name, _, _, self_s in nodes:
                totals[name] = totals.get(name, 0.0) + self_s
        return totals, roots, root_s

    def write_chrome(self, path: Path) -> Path:
        """Write every span as Chrome trace-event JSON (``ph: X``)."""
        with self._lock:
            spans = list(self._spans)
        base = min((s[2] for s in spans), default=0.0)
        tids: dict[int, int] = {}
        events = [{"name": name, "ph": "X", "pid": 1,
                   "tid": tids.setdefault(tid, len(tids)),
                   "ts": (t0 - base) * 1e6, "dur": (t1 - t0) * 1e6,
                   "args": {"op": op}}
                  for name, op, t0, t1, tid in spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
        return path
