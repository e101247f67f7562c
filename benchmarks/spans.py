"""In-memory spans around the calls into each heatchain layer.

The package itself is not modified.  A trace point names the place where a
caller looks a function up, such as the `evolve` attribute of
`heatchain.continuum` or the `write` attribute of `RunReport`, together with
the span name its calls are recorded under.  `Tracer.install` replaces each
such attribute with a wrapper that appends a `Span` (name, start, end,
parent) to an in-memory list; `Tracer.remove` puts the originals back.

The self time of a span is its duration minus the durations of its direct
children.  Calls are nested on one thread, so children never overlap and
the self times of all spans add up to the durations of the top-level ones.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span in Tracer.spans, -1 at top level
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class TracePoint:
    """A function looked up as `owner.attr` (or `owner[attr]` for a dict)."""

    owner: object
    attr: str
    span: str
    measure: "object | None" = None  # callable(result) -> dict of span attributes


def _lookup(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _assign(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self, points: "list[TracePoint]"):
        self.points = points
        self.spans: "list[Span]" = []
        self._stack: "list[int]" = []
        self._originals: list = []

    def _wrap(self, fn, point: TracePoint):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(point.span, 0.0, parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if point.measure is not None:
                span.attrs.update(point.measure(result))
            return result

        return traced

    def install(self) -> None:
        for point in self.points:
            original = _lookup(point.owner, point.attr)
            self._originals.append((point.owner, point.attr, original))
            _assign(point.owner, point.attr, self._wrap(original, point))

    def remove(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            _assign(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


@dataclass
class LayerTotals:
    self_s: float = 0.0
    total_s: float = 0.0
    calls: int = 0
    attrs: dict = field(default_factory=dict)


def layer_totals(spans: "list[Span]") -> "dict[str, LayerTotals]":
    """Self time, total time, call count and summed attributes per span name."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    totals: "dict[str, LayerTotals]" = {}
    for span, children in zip(spans, child_time):
        t = totals.setdefault(span.name, LayerTotals())
        t.self_s += span.duration - children
        t.total_s += span.duration
        t.calls += 1
        for key, value in span.attrs.items():
            t.attrs[key] = t.attrs.get(key, 0) + value
    return totals


def top_level_time(spans: "list[Span]") -> float:
    return sum(s.duration for s in spans if s.parent < 0)


def write_spans(spans: "list[Span]", path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([asdict(s) for s in spans]) + "\n", encoding="utf-8")
