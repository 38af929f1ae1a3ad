"""Wall-clock spans recorded from the benchmark, around calls into each layer.

A :class:`Tracer` patches timing wrappers onto public callables of the
``repro`` package — class methods and module attributes — for the
duration of a ``with`` block, in the benchmark's own process only. Each
call records a span: name, start, end (``perf_counter_ns``) and the
index of the enclosing span. Spans are kept in compact arrays in memory
and exported when the run ends, as per-layer self times and as Chrome
trace-event JSON.

Self time is a span's duration minus the part of it that child spans
cover. Spans come from one thread of nested synchronous calls, so the
children of one span never overlap and the covered part is the sum of
their durations.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Tuple

NO_PARENT = -1

MAX_EXPORTED_SPANS = 100_000
"""Chrome trace events written per file (about 15 MB). Later spans still
count toward self times; the file records how many there were, so that
a trace stays small enough for a viewer to open."""


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int


class Tracer:
    """Records nested call spans from patched wrappers."""

    def __init__(self) -> None:
        self._name_ids: Dict[str, int] = {}
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object, bool]] = []

    def _open(self, name: str) -> int:
        index = len(self._start)
        self._name.append(self._name_ids.setdefault(name, len(self._name_ids)))
        self._parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self._end.append(0)
        self._stack.append(index)
        self._start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``.

        ``owner`` is a class (the wrapper becomes a method, also for an
        inherited one) or a module (callers that look the attribute up
        at call time see the wrapper).
        """
        original: Callable = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(index)

        traced.__wrapped__ = original
        self._patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, traced)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block of benchmark code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def restore(self) -> None:
        """Undo every patch, newest first (idempotent)."""
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False

    def spans(self) -> List[Span]:
        names = {i: name for name, i in self._name_ids.items()}
        return [
            Span(names[n], s, e, p)
            for n, s, e, p in zip(self._name, self._start, self._end, self._parent)
        ]


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Seconds of self time per span name (see the module docstring)."""
    spans = list(spans)
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent != NO_PARENT:
            child_ns[span.parent] += span.end_ns - span.start_ns
    totals: Dict[str, int] = defaultdict(int)
    for span, children in zip(spans, child_ns):
        totals[span.name] += span.end_ns - span.start_ns - children
    return {name: ns / 1e9 for name, ns in totals.items()}


def total_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Seconds per span name, children included."""
    totals: Dict[str, int] = defaultdict(int)
    for span in spans:
        totals[span.name] += span.end_ns - span.start_ns
    return {name: ns / 1e9 for name, ns in totals.items()}


def call_counts(spans: Iterable[Span]) -> Dict[str, int]:
    counts: Dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span.name] += 1
    return dict(counts)


def chrome_trace(spans: List[Span], *, limit: int = MAX_EXPORTED_SPANS) -> dict:
    """Spans as a Chrome trace-event document of complete (``X``) events.

    Times are microseconds from the first span; ``args`` carries each
    span's index and its parent's (``-1`` for none).
    """
    origin = min((s.start_ns for s in spans), default=0)
    events = [
        {
            "name": span.name,
            "cat": span.name.rsplit(".", 1)[0],
            "ph": "X",
            "ts": (span.start_ns - origin) / 1e3,
            "dur": (span.end_ns - span.start_ns) / 1e3,
            "pid": 1,
            "tid": 1,
            "args": {"id": index, "parent": span.parent},
        }
        for index, span in enumerate(spans[:limit])
    ]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"spans": len(spans), "exported": len(events)},
    }


def write_chrome_trace(spans: List[Span], path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(spans)))
    return path
