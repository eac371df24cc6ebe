"""In-memory span recorder for the traced run.

A span has a name, a start and end (``perf_counter_ns``), the span that
caused it, and the request it belongs to.  A *replayed* span re-runs, on the
same inputs, a stage that its parent ran inside a library call the benchmark
cannot open; it lies outside the parent's interval, so a parent's self time
is its duration minus the durations of all its children, nested or replayed.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    request: int | None
    replay: bool
    start_ns: int
    end_ns: int = -1

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    """Records spans when enabled; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._request: int | None = None
        self._next_request = 0

    def span(self, name: str, *, parent: Span | None = None, replay: bool = False):
        """Context manager timing one span; the parent defaults to the open span."""
        if not self.enabled:
            return nullcontext()
        return self._span(name, parent, replay)

    @contextmanager
    def _span(self, name, parent, replay):
        if parent is None and self._open:
            parent = self._open[-1]
        sp = Span(
            len(self.spans), name, None if parent is None else parent.id,
            self._request, replay, 0,
        )
        self.spans.append(sp)
        self._open.append(sp)
        sp.start_ns = time.perf_counter_ns()
        try:
            yield sp
        finally:
            sp.end_ns = time.perf_counter_ns()
            self._open.pop()

    @contextmanager
    def request(self):
        """Tag every span opened inside with a fresh request id."""
        self._request = self._next_request
        self._next_request += 1
        try:
            yield
        finally:
            self._request = None

    def self_ms(self) -> dict[int, float]:
        """Self time of every span: its duration minus its children's durations."""
        own = {sp.id: sp.ms for sp in self.spans}
        for sp in self.spans:
            if sp.parent is not None:
                own[sp.parent] -= sp.ms
        return own

    def per_request(self, name: str, self_time: bool = False) -> list[float]:
        """Total ms (or self ms) of spans called ``name`` in each request, by request."""
        own = self.self_ms() if self_time else None
        totals: dict[int, float] = {}
        for sp in self.spans:
            if sp.name == name and sp.request is not None:
                ms = own[sp.id] if self_time else sp.ms
                totals[sp.request] = totals.get(sp.request, 0.0) + ms
        return [totals[r] for r in sorted(totals)]

    def median_ms(self, name: str, self_time: bool = False) -> float:
        values = self.per_request(name, self_time)
        if not values:
            raise ValueError(f"no span named {name!r} was recorded")
        return statistics.median(values)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(sp) for sp in self.spans]) + "\n", encoding="utf-8")
