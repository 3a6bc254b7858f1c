"""In-memory spans recorded by the benchmark around its calls into a layer.

Nothing inside the program is instrumented: a span starts just before the
harness calls a layer's public function and ends when the call returns.
Spans stay in a list until the run ends and are then written as JSON
lines.  A span is ``{id, name, query_id, parent, start, end}``; spans of
one request share ``query_id``, ``parent`` is the ``id`` of the span that
caused this one, and times are ``time.perf_counter()`` readings.  A
layer's self time is its span's duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import time
from typing import Dict, List


class Span:
    """Context manager around one call; records itself when it exits."""

    __slots__ = ("tracer", "id", "name", "query_id", "parent", "start", "end")

    def __init__(self, tracer: "Tracer", name: str, query_id, parent) -> None:
        self.tracer = tracer
        self.id = next(tracer._ids)
        self.name = name
        self.query_id = query_id
        self.parent = parent
        self.start = 0.0
        self.end = 0.0

    def __enter__(self) -> "Span":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = time.perf_counter()
        # list.append is atomic, so client threads record without a lock
        self.tracer.spans.append(self)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.id, "name": self.name, "query_id": self.query_id,
            "parent": self.parent, "start": self.start, "end": self.end,
        }


class _NoSpan:
    """What a disabled tracer hands out: no clock read, nothing recorded."""

    id = None

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NO_SPAN = _NoSpan()


class Tracer:
    """Collects spans while :attr:`enabled`; costs one branch otherwise."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)

    def span(self, name: str, query_id=None, parent=None):
        if not self.enabled:
            return _NO_SPAN
        return Span(self, name, query_id, parent)

    def record(self, name: str, start: float, end: float,
               query_id=None, parent=None) -> None:
        """Add a span whose interval was read off timestamps afterwards."""
        if self.enabled:
            span = Span(self, name, query_id, parent)
            span.start, span.end = start, end
            self.spans.append(span)

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def seconds(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(span.seconds for span in self.spans if span.name == name)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True))
                handle.write("\n")
