"""In-memory spans for the traced replay.

A span records its name, start, end, parent span and request id. Spans stay
in memory until the run ends. A layer's self time is its span's duration
minus the durations of its child spans. Garbage-collector pauses are seen
through ``gc.callbacks`` and charged to the innermost open span. Summaries
divide each span's times by its request's speed factor (see ``speed.py``).

Probe spans time extra calls the CLI does not make (a warm second solver
call, a standalone decomposition check); they are left out of the traced
throughput.
"""

from __future__ import annotations

import gc
import json
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "gc_s", "probe", "compile_s")

    def __init__(self, name: str, parent: int | None, request, probe: bool):
        self.name = name
        self.parent = parent
        self.request = request
        self.probe = probe
        self.gc_s = 0.0
        self.compile_s = 0.0  # part of a first solver call that a warm call does not repeat
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list[Span] = []
        self.request = None
        self.gc_gen2 = 0
        self._open: list[int] = []
        self._gc_t0 = 0.0

    @contextmanager
    def span(self, name: str, probe: bool = False):
        s = Span(name, self._open[-1] if self._open else None, self.request, probe)
        self._open.append(len(self.spans))
        self.spans.append(s)
        s.start = self.clock()
        try:
            yield s
        finally:
            s.end = self.clock()
            self._open.pop()

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self._open:
            return
        if phase == "start":
            self._gc_t0 = self.clock()
            return
        self.spans[self._open[-1]].gc_s += self.clock() - self._gc_t0
        if info.get("generation") == 2:
            self.gc_gen2 += 1

    def __enter__(self):
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)

    def self_seconds(self, factor: dict) -> dict[str, float]:
        """Self seconds per span name; compile time moves to ``solvers.compile``."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        out: dict[str, float] = defaultdict(float)
        for s, covered in zip(self.spans, child):
            f = factor[s.request]
            out[s.name] += (s.seconds - covered - s.compile_s) / f
            out["solvers.compile"] += s.compile_s / f
        return out

    def gc_pause_seconds(self, factor: dict) -> float:
        return sum(s.gc_s / factor[s.request] for s in self.spans)

    def request_intervals(self) -> dict:
        """(first start, last end) of each request's spans."""
        out: dict = {}
        for s in self.spans:
            t0, t1 = out.get(s.request, (s.start, s.end))
            out[s.request] = (min(t0, s.start), max(t1, s.end))
        return out

    def unprobed_root_seconds(self, factor: dict) -> float:
        """Time of the replayed requests without the probe calls."""
        roots = sum(s.seconds / factor[s.request] for s in self.spans if s.parent is None)
        return roots - sum(s.seconds / factor[s.request] for s in self.spans if s.probe)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                row = {
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "request": s.request,
                    "gc_s": s.gc_s,
                }
                if s.probe:
                    row["probe"] = True
                if s.compile_s:
                    row["compile_s"] = s.compile_s
                fh.write(json.dumps(row) + "\n")
