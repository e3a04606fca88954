"""Spans around the benchmark's calls into the library, and self times.

A span records a name, its start and end (``time.perf_counter``), the span
that was open when it began, the instance it worked on and the round it
belongs to (None during set-up).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.round: int | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, instance: str | None = None):
        record = {"id": len(self.spans), "name": name, "instance": instance,
                  "parent": self._open[-1] if self._open else None,
                  "round": self.round, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


class NullTracer:
    """Records nothing; the untraced runs use it."""

    round: int | None = None
    _nothing = contextlib.nullcontext()

    def span(self, name: str, instance: str | None = None):
        return self._nothing


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = []
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children[s["id"]]):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(s["end"] - s["start"] - covered)
    return out
