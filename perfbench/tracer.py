"""In-memory span tracer that instruments a package from outside.

Spans are recorded by temporarily replacing attributes at call sites
(module-level names and class methods) with timing wrappers. Each span
has a name, start, end and parent; all spans stay in memory until
`summary()` aggregates them after the traced run. Stdlib only, so the
tracer adds no imports to the program it measures.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        # True when no enclosing open span has the same name, so inclusive
        # totals do not double-count recursive calls.
        self.outer: list[bool] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._open_names: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.outer.append(self._open_names[name] == 0)
        self.ends.append(0.0)
        self._open_names[name] += 1
        self._stack.append(idx)
        self.starts.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = _clock()
        self._stack.pop()
        self._open_names[self.names[idx]] -= 1

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Replace `owner.attr` with a wrapper that records one span per call.

        `name` is a span name or a function of the call's arguments that
        returns one. `after(tracer, args, kwargs, result)` runs once the
        span has closed, so counting work is not charged to the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self.open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-name counts, inclusive and self times, per-module self times.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly on one thread, so children never
        overlap. A module is the part of a span name before the first dot.
        """
        n = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        self_times = list(durations)
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                self_times[parent] -= durations[i]
        by_name: dict[str, dict[str, float]] = {}
        by_module: dict[str, float] = defaultdict(float)
        for i in range(n):
            entry = by_name.setdefault(self.names[i], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["self_s"] += self_times[i]
            if self.outer[i]:
                entry["count"] += 1
                entry["total_s"] += durations[i]
            by_module[self.names[i].split(".", 1)[0]] += self_times[i]
        roots = sum(durations[i] for i in range(n) if self.parents[i] < 0)
        return {
            "spans": n,
            "root_s": roots,
            "self_sum_s": sum(self_times),
            "by_name": by_name,
            "self_by_module": dict(by_module),
            "counters": dict(self.counters),
        }
