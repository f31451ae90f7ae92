"""In-memory spans around calls into the library's public functions.

A traced run installs :func:`instrument`, which wraps each layer's entry
point for the duration of a ``with`` block and restores it afterwards.  The
library itself is not changed: spans come from the benchmark's own wrappers.
A wrapper records a span only inside an open trace (a root span the
benchmark opens per query or write), so set-up work is not traced.

Spans stay in memory until the traced pass ends; :meth:`Tracer.write_jsonl`
writes them out.  :func:`self_times` turns them into each layer's self time: a
span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    trace_id: str
    span_id: int
    parent_id: Optional[int]
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects spans in memory; one trace ID per root span."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self) -> bool:
        """``True`` inside an open trace on the calling thread."""
        return bool(self._stack())

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Open a span; outside any trace it starts a new trace (a root span)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        trace_id = parent.trace_id if parent else f"{name}-{next(self._traces):06d}"
        span = Span(
            name,
            trace_id,
            next(self._ids),
            parent.span_id if parent else None,
            self.clock(),
            attrs=dict(attrs),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()
            self.spans.append(span)

    def roots(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.parent_id is None and span.name == name]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda span: span.span_id):
                handle.write(json.dumps(span.as_dict()) + "\n")


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span ID -> duration minus the union of its children's intervals (clipped to it)."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda child: child.start):
            begin = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > begin:
                covered += end - begin
                cursor = end
        result[span.span_id] = span.duration - covered
    return result


def layer_totals(spans: Sequence[Span], roots: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name, under the given roots: summed self seconds and summed numeric attrs."""
    wanted = {root.trace_id for root in roots}
    mine = [span for span in spans if span.trace_id in wanted]
    selfs = self_times(mine)
    totals: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in mine:
        entry = totals[span.name]
        entry["self_seconds"] += selfs[span.span_id]
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                entry[key] += value
    return totals


def _examined(result) -> Dict[str, int]:
    """Tuples examined, from a ``QueryResult`` or an ``(answers, stats)`` pair."""
    stats = result[1] if isinstance(result, tuple) else result.stats
    return {"tuples_examined": stats.tuples_examined}


def _targets() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, result capture) for every traced entry point."""
    from repro.baselines import counting, magic
    from repro.core import schema
    from repro.engine import query, seminaive
    from repro.optimize import passes, unfold
    from repro.service import service

    return [
        (query, "as_selection_query", "datalog.coerce", None),
        (service, "as_selection_query", "datalog.coerce", None),
        (passes.Optimizer, "run", "optimize.analyze", None),
        (schema.OneSidedSchema, "run", "core.schema", _examined),
        (counting, "counting_query", "baselines.counting", _examined),
        (magic, "magic_query", "baselines.magic", _examined),
        (unfold, "evaluate_unfolded", "optimize.unfolded", _examined),
        (seminaive, "seminaive_query", "engine.seminaive", _examined),
    ]


def _wrap(tracer: Tracer, name: str, function: Callable, capture: Optional[Callable]) -> Callable:
    def traced(*args, **kwargs):
        if not tracer.active():
            return function(*args, **kwargs)
        with tracer.span(name) as span:
            result = function(*args, **kwargs)
            if capture is not None:
                span.attrs.update(capture(result))
            return result

    traced.__wrapped__ = function
    return traced


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer entry point with ``tracer`` spans; restore them on exit."""
    installed = []
    try:
        for owner, attribute, name, capture in _targets():
            original = owner.__dict__[attribute]
            setattr(owner, attribute, _wrap(tracer, name, original, capture))
            installed.append((owner, attribute, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(installed):
            setattr(owner, attribute, original)
