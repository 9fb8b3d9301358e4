"""The one timing helper behind both the timed runs and the traced run.

A `Recorder` times calls.  Timed runs use `call` around each operation;
the traced run also replaces module attributes with `wrap`ped versions that
time every call through them.  Spans stay in memory until `dump`; each
finished interval adds its duration to the enclosing one, so every name gets
self time (duration minus the time of timed calls nested inside it) as well
as inclusive time.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable


class Recorder:
    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent span index or -1]
        self.spans: list[list[Any]] = []
        # name -> [calls, inclusive_ns, self_ns, size]
        self.totals: dict[str, list[int]] = {}
        # open intervals: [name, start_ns, span index or -1, child_ns]
        self._stack: list[list[Any]] = []
        self._open: dict[str, int] = {}

    def _entry(self, name: str) -> list[int]:
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0, 0, 0]
        return entry

    def _enter(self, name: str, keep: bool) -> list[Any]:
        index = -1
        if keep:
            parent = next((f[2] for f in reversed(self._stack) if f[2] >= 0), -1)
            index = len(self.spans)
            self.spans.append([name, 0, 0, parent])
        self._open[name] = self._open.get(name, 0) + 1
        frame = [name, time.perf_counter_ns(), index, 0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list[Any]) -> int:
        end = time.perf_counter_ns()
        name, start, index, child = frame
        self._stack.pop()
        duration = end - start
        if index >= 0:
            self.spans[index][1:3] = [start, end]
        if self._stack:
            self._stack[-1][3] += duration
        self._open[name] -= 1
        entry = self._entry(name)
        entry[0] += 1
        if not self._open[name]:  # count a name's time once when it nests
            entry[1] += duration
        entry[2] += duration - child
        return duration

    def call(self, name: str, fn: Callable[[], Any]) -> tuple[bool, Any, float]:
        """Run fn() in a span; return (completed, result or exception, seconds)."""
        frame = self._enter(name, True)
        try:
            result, ok = fn(), True
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, ok = exc, False
        return ok, result, self._exit(frame) / 1e9

    def wrap(
        self,
        fn: Callable,
        name: str,
        keep: bool = True,
        size: Callable[[tuple, dict, Any], int] | None = None,
    ) -> Callable:
        """fn timed under `name` on every call.

        keep=False tallies calls and time without storing one span per call,
        for hot leaf functions.  size(args, kwargs, result) adds to the name's
        size total, e.g. bits of a returned int.
        """

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = self._enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if size is not None:
                self._entry(name)[3] += size(args, kwargs, result)
            return result

        return timed

    def counter(self, fn: Callable, name: str) -> Callable:
        """fn with its calls counted under `name` and not timed."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._entry(name)[0] += 1
            return fn(*args, **kwargs)

        return counted

    def add(self, name: str, seconds: float = 0.0, size: int = 0) -> None:
        """Record an interval or a size measured outside this process."""
        entry = self._entry(name)
        entry[0] += 1
        entry[1] += int(seconds * 1e9)
        entry[2] += int(seconds * 1e9)
        entry[3] += size

    def summary(self) -> dict[str, dict[str, float]]:
        return {
            name: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9, "size": z}
            for name, (c, t, s, z) in sorted(self.totals.items())
        }

    def dump(self) -> dict[str, Any]:
        """Spans (seconds from the first span) and per-name totals."""
        origin = self.spans[0][1] if self.spans else 0
        return {
            "spans": [
                [name, (start - origin) / 1e9, (end - origin) / 1e9, parent]
                for name, start, end, parent in self.spans
            ],
            "totals": self.summary(),
        }
