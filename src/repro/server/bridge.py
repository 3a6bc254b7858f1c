"""The thread→event-loop bridge for live progress streams.

Queries execute on worker threads (or in worker processes whose shepherd
threads relay events); WebSocket subscribers live on the asyncio event
loop.  :class:`EventStream` is the rendezvous: worker-side ``publish`` is
plain thread-safe Python that encodes the frame once and appends the
bytes; each loop-side :class:`Subscription` is a cursor into that one
buffer, woken via ``loop.call_soon_threadsafe`` — the only safe way to
wake a coroutine from a foreign thread — at most once per *burst*: a
subscriber is woken only when it is parked with nothing to read, and then
takes everything published since in one piece, so the worker pays one
self-pipe write per burst, not one per frame per subscriber.

Streams buffer everything they publish, so a subscriber that connects
mid-run (or after completion) replays the full frame sequence first and
then follows live — every subscriber sees the same bytes in the same
order, which is what lets the load benchmark assert streamed traces
bit-identical to solo runs.

A stream built with the service's
:class:`~repro.service.monitor.FirstPaintPending` holds that count raised
from construction until its first ``sample`` frame has been written to a
subscriber or the stream closes, whichever comes first — exactly one
lower per stream, on every exit.

The front door's streams are *headed*: their first frame, ``queued``,
needs the id admission gives the query, by when a worker may already be
sampling it — samples published before the header wait for it.
"""

from __future__ import annotations

import asyncio
import io
import json
import threading
from typing import Dict, List, Optional, Tuple

from repro.core.observe import Fragments, ProgressEvent, ProgressEventSink
from repro.server import wsproto
from repro.service.handle import QueryState
from repro.service.monitor import FirstPaintPending


class Subscription:
    """One subscriber's cursor into an :class:`EventStream` (loop side)."""

    def __init__(self, stream: "EventStream") -> None:
        self._stream = stream
        self._cursor = 0
        #: True while parked with nothing to read; guarded by the stream's
        #: lock, cleared by the publisher that sends the one wake-up
        self._parked = False
        self._wakeup = asyncio.Event()

    async def next_burst(self) -> Tuple[List[bytes], bool]:
        """Everything published since the last call, in order.

        Returns ``(frames, ended)``: the encoded frames (the whole backlog
        on the first call) and whether the stream has closed, in which case
        nothing follows them.  Parks until there is something to report.
        Coming back for more tells the stream that the previous burst has
        been written to the peer — which is what lowers the first-paint
        count once that burst carried the first ``sample`` frame.
        """
        stream = self._stream
        stream._painted_through(self._cursor)
        while True:
            with stream._lock:
                frames = stream._encoded[self._cursor:]
                ended = stream._closed
                if not frames and not ended:
                    self._parked = True
                    self._wakeup.clear()
            if frames or ended:
                self._cursor += len(frames)
                return frames, ended
            await self._wakeup.wait()


class EventStream:
    """One query's ordered frame sequence, fan-out to asyncio subscribers."""

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 first_paint: Optional[FirstPaintPending] = None,
                 *, headed: bool = False) -> None:
        self._loop = loop
        self._lock = threading.Lock()
        self._encoded: List[bytes] = []
        #: samples published before the header, while one is awaited
        self._early: Optional[List[bytes]] = [] if headed else None
        #: index of the first ``sample`` frame, once one was published
        self._first_sample: Optional[int] = None
        self._subscribers: List[Subscription] = []
        self._closed = False
        #: held raised until the first paint or the close; then None
        self._first_paint = first_paint
        if first_paint is not None:
            first_paint.raise_()

    # -- worker side (any thread) -------------------------------------------------

    def publish(self, text: str, is_sample: bool = False) -> None:
        """Append a frame (JSON text) and wake parked subscribers.  No-op
        once closed.

        The text becomes its WebSocket text frame here, once; replay and
        every subscriber reuse those bytes.  ``is_sample`` marks the frames
        whose writing counts as the first paint.
        """
        encoded = wsproto.encode_text(text)
        with self._lock:
            if self._closed:
                return
            early = self._early
            if early is not None:
                if is_sample:
                    early.append(encoded)
                    return
                # The header goes first, then the samples that beat it.
                self._early = None
                if early:
                    self._first_sample = len(self._encoded) + 1
                self._encoded.append(encoded)
                self._encoded.extend(early)
            else:
                if self._first_sample is None and is_sample:
                    self._first_sample = len(self._encoded)
                self._encoded.append(encoded)
            parked = self._unpark()
        self._wake(parked)

    def close(self) -> None:
        """Seal the stream; subscribers drain buffered frames then finish."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            parked = self._unpark()
            first_paint, self._first_paint = self._first_paint, None
        if first_paint is not None:
            first_paint.lower()
        self._wake(parked)

    def _unpark(self) -> List[Subscription]:
        parked = [sub for sub in self._subscribers if sub._parked]
        for subscription in parked:
            subscription._parked = False
        return parked

    def _wake(self, parked: List[Subscription]) -> None:
        for subscription in parked:
            try:
                self._loop.call_soon_threadsafe(subscription._wakeup.set)
            except RuntimeError:
                # Loop already closed (server shutting down): subscribers
                # are gone, frames stay buffered for post-hoc inspection.
                pass

    def _painted_through(self, cursor: int) -> None:
        if self._first_paint is None:  # already lowered: stays None
            return
        with self._lock:
            first = self._first_sample
            if first is None or cursor <= first:
                return
            first_paint, self._first_paint = self._first_paint, None
        if first_paint is not None:
            first_paint.lower()

    # -- loop side ------------------------------------------------------------------

    def subscribe(self) -> Subscription:
        """Register a subscriber (call on the loop thread).

        Its first burst replays every frame published so far; later bursts
        follow live, and the last one reports the stream closed.
        """
        subscription = Subscription(self)
        with self._lock:
            self._subscribers.append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        with self._lock:
            try:
                self._subscribers.remove(subscription)
            except ValueError:
                pass

    # -- inspection -------------------------------------------------------------------

    def frames(self) -> List[Dict[str, object]]:
        """Everything published so far, decoded (tests, post-hoc checks)."""
        with self._lock:
            encoded = list(self._encoded)
        return [
            json.loads(wsproto.read_frame(io.BytesIO(data).read)[1])
            for data in encoded
        ]

    @property
    def closed(self) -> bool:
        return self._closed


class StreamSink(ProgressEventSink):
    """Per-query sink: forwards cadence samples into an :class:`EventStream`.

    Attached through ``QueryService.submit(..., sinks=(StreamSink(s),))``,
    so it receives exactly the sample stream both backends publish.  Frames
    are the event's own JSON text (:meth:`ProgressEvent.to_json`) with an
    ``"event": "sample"`` marker; floats survive the JSON round trip exactly.
    """

    def __init__(self, stream: EventStream) -> None:
        self.stream = stream
        self._fragments: Fragments = {}

    def emit(self, event: ProgressEvent) -> None:
        if event.kind != "sample":
            return
        self.stream.publish(event.to_json(self._fragments, "sample"), True)


def sample_to_dict(sample) -> Dict[str, object]:
    """A sealed :class:`~repro.core.metrics.TraceSample` as a JSON object."""
    return {
        "curr": sample.curr,
        "actual": sample.actual,
        "estimates": dict(sample.estimates),
        "lower_bound": sample.lower_bound,
        "upper_bound": sample.upper_bound,
    }


def stream_of(handle) -> Optional[EventStream]:
    """The event stream a front-door query publishes to, if watched."""
    for sink in handle._sinks:
        if isinstance(sink, StreamSink):
            return sink.stream
    return None


def _record(handle, **fields) -> Dict[str, object]:
    record: Dict[str, object] = {
        "id": handle.query_id,
        "query": handle.name,
        "tenant": handle.tenant,
        "state": handle.state.value,
    }
    record.update(fields)
    if handle.error is not None:
        record["error"] = str(handle.error)
    return record


def status_record(handle) -> Dict[str, object]:
    """One query's status, as ``GET /queries/{id}`` answers it."""
    record = _record(handle, done=handle.done)
    sample = handle.progress()
    if sample is not None:
        record["progress"] = sample_to_dict(sample)
    return record


def terminal_frame(handle) -> Dict[str, object]:
    """The stream's final frame: state, error, profile, sealed trace.

    The trace rides along so a client can verify bit-identity against a
    solo in-process run without a second HTTP round trip; ``actual`` labels
    are the back-filled truth of the single-pass protocol.
    """
    frame = _record(handle, event="end")
    if handle.state is QueryState.DONE:
        report = handle.result(timeout=0)
        frame["total"] = report.total
        frame["trace"] = [
            sample_to_dict(sample) for sample in report.trace.samples
        ]
        if report.profile is not None:
            frame["profile"] = report.profile.to_dict()
    return frame
