"""Hold a served query at a known point, so it is running by construction.

A test that needs a query *on a worker* while it inspects the server (a
backlog behind it, a live sample before the end) cannot rely on the table
being big enough: on a fast or a loaded machine the query may finish
first.  :func:`hold_streams` makes every stream sink the server creates
from then on stop its worker at the query's second sample until the
returned event is set.  Set it — in a ``finally`` — before cancelling or
draining a held query.
"""

from __future__ import annotations

import threading

from repro.server import EventStream, StreamSink
from repro.server import app as app_module


class HeldStreamSink(StreamSink):
    """A query's stream sink that holds its worker at the second sample
    until ``release`` is set, so the query is running by construction —
    however fast the engine gets through the table."""

    def __init__(self, stream: EventStream, release: threading.Event) -> None:
        super().__init__(stream)
        self.release = release
        self.samples = 0

    def emit(self, event) -> None:
        if event.kind == "sample":
            self.samples += 1
            if self.samples == 2:
                self.release.wait(timeout=30.0)
        super().emit(event)


def hold_streams(monkeypatch) -> threading.Event:
    """Route the server's stream sinks through :class:`HeldStreamSink` for
    the rest of the test; returns the event that releases them."""
    release = threading.Event()
    monkeypatch.setattr(
        app_module, "StreamSink",
        lambda stream: HeldStreamSink(stream, release),
    )
    return release
