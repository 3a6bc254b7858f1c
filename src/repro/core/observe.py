"""Progress observability: structured event streams and run profiling.

The paper's operational motivation — progress bars, kill-or-wait decisions —
needs more than a post-hoc trace: it needs a *live*, structured feed of what
the estimators are saying, what each pipeline is doing, and what the
instrumentation itself costs.  This module supplies that layer:

* :class:`ProgressEvent` — one structured record per sampled instant:
  Curr/total/actual, runtime bounds, every estimator's answer, per-pipeline
  driver state, and the tick-rate / ETA gauges;
* :class:`ProgressEventSink` — where events go.  :class:`MemorySink` keeps
  them for tests and dashboards; :class:`JsonlTraceWriter` streams them as
  JSON Lines (one object per line, append-friendly, ``tail -f``-able);
* :class:`EstimatorProfile` / :class:`RunProfile` — wall-time accounting of
  the instrumentation itself: how long each estimator's ``estimate`` takes,
  how much of the run went to sampling vs. executing the query.  This is
  the measurement behind the sampling-overhead benchmark.

Everything here is dependency-free and JSON-serializable by construction.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import IO, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.pipelines import PipelineState

#: keys already warned about through :func:`warn_once` (process-wide)
_warned_keys: Set[str] = set()

#: ``json.dumps(record, sort_keys=True)`` without building an encoder per call
_encode = json.JSONEncoder(sort_keys=True).encode

#: a sink's table of encoded fragments for :meth:`ProgressEvent.to_json`:
#: pipeline position or ``"payload"`` → (the object last encoded, its text)
Fragments = Dict[object, Tuple[object, str]]


def warn_once(key: str, message: str, category: type = RuntimeWarning) -> None:
    """Emit ``message`` as a warning the first time ``key`` is seen.

    The observability layer's channel for "you are holding it wrong"
    diagnostics that would be noise if repeated per run — e.g. an overlay
    bound provider downgraded for want of degree statistics.
    Process-wide: a key warns once per interpreter, not once per monitor.
    """
    if key in _warned_keys:
        return
    _warned_keys.add(key)
    warnings.warn(message, category, stacklevel=3)


@dataclass(frozen=True)
class PipelineSnapshot:
    """One pipeline's driver state at a sampled instant."""

    index: int
    drivers: Tuple[str, ...]
    started: bool
    finished: bool
    driver_consumed: int
    driver_fraction: float

    @classmethod
    def of(cls, state: PipelineState) -> "PipelineSnapshot":
        """The event-stream form of one instant's pipeline state."""
        pipeline = state.pipeline
        return cls(
            pipeline.index,
            pipeline.driver_labels,
            state.started,
            state.finished,
            state.driver_consumed,
            state.driver_fraction,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "drivers": list(self.drivers),
            "started": self.started,
            "finished": self.finished,
            "driver_consumed": self.driver_consumed,
            "driver_fraction": self.driver_fraction,
        }


@dataclass(frozen=True)
class ProgressEvent:
    """One structured record of an instrumented run's event stream.

    ``kind`` is ``"run_start"``, ``"sample"`` or ``"run_end"``; samples carry
    the full estimator/bounds/pipeline state, the boundary events carry the
    frame (plan name, totals, work model).  Two annotation kinds interleave
    with samples: ``"estimator_selected"`` when a combining estimator
    switches candidates, and ``"bound_refined"`` the first time an overlay
    bound provider tightens an operator's upper bound (payload: operator,
    provider, upper bound before/after).

    ``total`` and ``actual`` are ``None`` on live events: truth is unknown
    until the run finishes, so only ``run_end`` (and the sealed trace) carry
    labels.
    """

    seq: int
    kind: str
    plan: str
    elapsed_seconds: float
    curr: float
    total: Optional[float]
    actual: Optional[float]
    lower_bound: float
    upper_bound: float
    estimates: Dict[str, float]
    pipelines: Tuple[PipelineSnapshot, ...] = ()
    #: observed work rate so far (None until any time has elapsed)
    ticks_per_second: Optional[float] = None
    #: point ETA from the first estimator's answer (None when unknown)
    eta_seconds: Optional[float] = None
    #: sound remaining-time interval from the runtime bounds
    eta_interval_seconds: Tuple[Optional[float], Optional[float]] = (None, None)
    payload: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "seq": self.seq,
            "kind": self.kind,
            "plan": self.plan,
            "elapsed_seconds": self.elapsed_seconds,
            "curr": self.curr,
            "total": self.total,
            "actual": self.actual,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "estimates": dict(self.estimates),
            "pipelines": [snapshot.to_dict() for snapshot in self.pipelines],
            "ticks_per_second": self.ticks_per_second,
            "eta_seconds": self.eta_seconds,
            "eta_interval_seconds": list(self.eta_interval_seconds),
        }
        if self.payload is not None:
            record["payload"] = self.payload
        return record

    def to_json(
        self,
        fragments: Optional[Fragments] = None,
        event: Optional[str] = None,
    ) -> str:
        """``json.dumps(self.to_dict(), sort_keys=True)``, byte for byte.

        The one encoding of an event — the JSONL line, the WebSocket
        frame; the format is a contract (docs/observability.md).
        ``event`` adds the ``"event"`` marker key stream frames carry.

        ``fragments`` is the caller's to keep between the events of a run
        (one dict per sink): the text of each pipeline snapshot and of the
        payload is reused while the *same object* comes by again — the
        runner hands out the same :class:`PipelineSnapshot` until the
        pipeline's state changes, and the same payload while no estimator
        reports new extras — so a sample pays for what moved.  The scalar
        keys, which sort before ``payload`` and after ``pipelines``, go
        through the C encoder in one piece.
        """
        if fragments is None:
            fragments = {}
        scalars: Dict[str, object] = {
            "actual": self.actual,
            "curr": self.curr,
            "elapsed_seconds": self.elapsed_seconds,
            "estimates": self.estimates,
            "eta_interval_seconds": self.eta_interval_seconds,
            "eta_seconds": self.eta_seconds,
            "kind": self.kind,
            "lower_bound": self.lower_bound,
            "plan": self.plan,
            "seq": self.seq,
            "ticks_per_second": self.ticks_per_second,
            "total": self.total,
            "upper_bound": self.upper_bound,
        }
        if event is not None:
            scalars["event"] = event
        text = _encode(scalars)
        pieces = []
        for position, snapshot in enumerate(self.pipelines):
            kept = fragments.get(position)
            if kept is None or kept[0] is not snapshot:
                kept = fragments[position] = (
                    snapshot, _encode(snapshot.to_dict())
                )
            pieces.append(kept[1])
        middle = ', "pipelines": [%s]' % ", ".join(pieces)
        payload = self.payload
        if payload is not None:
            kept = fragments.get("payload")
            if kept is None or kept[0] is not payload:
                kept = fragments["payload"] = (payload, _encode(payload))
            middle = ', "payload": %s%s' % (kept[1], middle)
        # The last ``, "plan": `` is the top-level key: only scalars follow
        # it, and a quote inside a string value is written escaped.
        cut = text.rindex(', "plan": ')
        return "".join((text[:cut], middle, text[cut:]))


class ProgressEventSink:
    """Receives :class:`ProgressEvent`\\ s as a run produces them."""

    def emit(self, event: ProgressEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; safe to call more than once."""


class MemorySink(ProgressEventSink):
    """Keeps every event in memory (tests, dashboards, notebooks)."""

    def __init__(self) -> None:
        self.events: List[ProgressEvent] = []

    def emit(self, event: ProgressEvent) -> None:
        self.events.append(event)

    def samples(self) -> List[ProgressEvent]:
        return [event for event in self.events if event.kind == "sample"]


class ForwardingSink(ProgressEventSink):
    """Forwards each event to a callable instead of storing or writing it.

    This is the bridge that moves a run's event stream across an execution
    boundary: the multiprocess query service attaches one inside each
    worker with ``kinds=("sample",)`` and the pipe's one writer as
    ``send``, so cadence samples — and only those; life-cycle events and
    the sealed trace ride in the worker's final report — reach the parent
    in display-rate batches.  ``kinds`` optionally restricts which event
    kinds cross (``None`` forwards everything); serialization is the
    transport's business — events are plain frozen dataclasses and pickle
    cleanly.
    """

    def __init__(self, send, kinds: Optional[Sequence[str]] = None) -> None:
        self._send = send
        self._kinds = frozenset(kinds) if kinds is not None else None

    def emit(self, event: ProgressEvent) -> None:
        if self._kinds is None or event.kind in self._kinds:
            self._send(event)


class JsonlTraceWriter(ProgressEventSink):
    """Streams events as JSON Lines to a path or an open text handle.

    One JSON object per line, flushed per event, so a running query's trace
    can be followed live (``tail -f out.jsonl``).  Usable as a context
    manager; closing is idempotent and never closes a handle it did not
    open.
    """

    def __init__(self, target) -> None:
        if hasattr(target, "write"):
            self._handle: IO[str] = target
            self._owns_handle = False
        else:
            self._handle = open(target, "w")
            self._owns_handle = True
        self.lines_written = 0
        self._fragments: Fragments = {}

    def emit(self, event: ProgressEvent) -> None:
        self._handle.write(event.to_json(self._fragments) + "\n")
        self._handle.flush()
        self.lines_written += 1

    def close(self) -> None:
        if self._owns_handle and not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class EstimatorProfile:
    """Wall-time accounting for one estimator across a run."""

    name: str
    calls: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0

    def record(self, seconds: float) -> None:
        self.calls += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    @property
    def avg_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "calls": self.calls,
            "total_seconds": self.total_seconds,
            "avg_seconds": self.avg_seconds,
            "max_seconds": self.max_seconds,
        }


@dataclass
class RunProfile:
    """What one instrumented run cost, and where the time went."""

    elapsed_seconds: float = 0.0
    ticks: int = 0
    samples: int = 0
    #: total wall time spent inside the sampling observer (snapshots +
    #: estimator calls + event emission) — the instrumentation overhead
    sample_seconds: float = 0.0
    estimators: Dict[str, EstimatorProfile] = field(default_factory=dict)

    def profile_for(self, name: str) -> EstimatorProfile:
        profile = self.estimators.get(name)
        if profile is None:
            profile = EstimatorProfile(name)
            self.estimators[name] = profile
        return profile

    @property
    def ticks_per_second(self) -> Optional[float]:
        if self.elapsed_seconds <= 0:
            return None
        return self.ticks / self.elapsed_seconds

    @property
    def avg_sample_seconds(self) -> float:
        return self.sample_seconds / self.samples if self.samples else 0.0

    @property
    def overhead_fraction(self) -> float:
        """Share of the run's wall time spent sampling."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return min(1.0, self.sample_seconds / self.elapsed_seconds)

    def to_dict(self) -> Dict[str, object]:
        return {
            "elapsed_seconds": self.elapsed_seconds,
            "ticks": self.ticks,
            "samples": self.samples,
            "sample_seconds": self.sample_seconds,
            "avg_sample_seconds": self.avg_sample_seconds,
            "ticks_per_second": self.ticks_per_second,
            "overhead_fraction": self.overhead_fraction,
            "estimators": {
                name: profile.to_dict()
                for name, profile in sorted(self.estimators.items())
            },
        }


def emit_to_all(sinks: Sequence[ProgressEventSink], event: ProgressEvent) -> None:
    for sink in sinks:
        sink.emit(event)
