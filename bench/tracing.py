"""Spans recorded by the benchmark around its calls into the rdslab layers.

The program itself is not instrumented.  `Tracer.patched` swaps a module
attribute for a wrapper that records a span around each call and keeps the
call's argument and result, so the benchmark can read counts (edges, coupon
tallies) off the objects the layer returned.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Optional


class Tracer:
    """In-memory span recorder.

    A span is a dict with ``name``, ``start`` and ``end`` (seconds since the
    tracer was made), ``parent`` (index of the enclosing span or None) and
    ``rep`` (replication id or None).
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.last: dict[str, tuple] = {}
        self.rep: Optional[int] = None
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = {"name": name, "start": time.perf_counter() - self._t0, "end": None,
                  "parent": parent, "rep": self.rep}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.last[name] = (args, result)
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Trace calls through ``(module, attribute, span name)`` targets."""
        saved = []
        try:
            for module, attribute, name in targets:
                original = getattr(module, attribute)
                saved.append((module, attribute, original))
                setattr(module, attribute, self._wrap(original, name))
            yield self
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path) -> None:
        """Write one JSON object per span, with its self time, to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            for s, own in zip(self.spans, self.self_times()):
                fh.write(json.dumps({**s, "self": own}) + "\n")
