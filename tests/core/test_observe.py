"""The observability layer: event streams, JSONL export, run profiling."""

import io
import json
import pickle
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    BytesModel,
    JsonlTraceWriter,
    MemorySink,
    ProgressRunner,
    standard_toolkit,
)
from repro.core import observe
from repro.core.estimators import ProgressEstimator
from repro.core.observe import (
    EstimatorProfile,
    PipelineSnapshot,
    ProgressEvent,
    RunProfile,
)
from repro.engine.expressions import col
from repro.engine.operators import Sort, SortKey, TableScan
from repro.engine.plan import Plan
from repro.storage import Table, schema_of


def scan_plan(n=60, name="obs"):
    table = Table("t", schema_of("t", "k:int"), [(v,) for v in range(n)])
    return Plan(TableScan(table), name)


class FakeClock:
    """Deterministic clock: advances a fixed step per reading."""

    def __init__(self, step=0.001):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestEventStream:
    def run_with_sink(self, sink, **kwargs):
        runner = ProgressRunner(
            scan_plan(), standard_toolkit(), target_samples=10,
            sinks=[sink], clock=FakeClock(), **kwargs
        )
        return runner.run()

    def test_memory_sink_receives_framed_stream(self):
        sink = MemorySink()
        self.run_with_sink(sink)
        kinds = [event.kind for event in sink.events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert all(kind == "sample" for kind in kinds[1:-1])
        assert [event.seq for event in sink.events] == list(range(len(kinds)))

    def test_sample_events_carry_estimates_bounds_and_pipelines(self):
        sink = MemorySink()
        report = self.run_with_sink(sink)
        samples = sink.samples()
        assert len(samples) == len(report.trace.samples)
        for event, sample in zip(samples, report.trace.samples):
            assert event.curr == sample.curr
            # Truth is deferred to completion, so live events are
            # unlabeled; the sealed trace sample at the same instant is not.
            assert event.actual is None
            assert event.total is None
            assert sample.actual is not None
            assert event.estimates == sample.estimates
            assert event.lower_bound == sample.lower_bound
            assert event.upper_bound == sample.upper_bound
            assert event.pipelines  # single scan → one pipeline snapshot
            assert event.pipelines[0].drivers

    def test_gauges_progress_monotonically(self):
        sink = MemorySink()
        self.run_with_sink(sink)
        samples = sink.samples()
        assert all(event.ticks_per_second > 0 for event in samples)
        # ETA interval stays sound: lower end ≤ upper end.
        for event in samples:
            low, high = event.eta_interval_seconds
            assert low is not None and high is not None
            assert low <= high + 1e-12
        assert samples[-1].eta_interval_seconds[0] == 0.0

    def test_jsonl_writer_streams_parseable_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceWriter(str(path))
        self.run_with_sink(sink)
        lines = path.read_text().splitlines()
        assert len(lines) == sink.lines_written
        records = [json.loads(line) for line in lines]
        assert records[0]["kind"] == "run_start"
        assert records[-1]["kind"] == "run_end"
        assert records[-1]["actual"] == 1.0
        sample_records = [r for r in records if r["kind"] == "sample"]
        assert all("dne" in r["estimates"] for r in sample_records)
        assert all(r["pipelines"] for r in sample_records)

    def test_jsonl_writer_accepts_open_handles(self):
        buffer = io.StringIO()
        sink = JsonlTraceWriter(buffer)
        self.run_with_sink(sink)
        sink.close()  # must not close a handle it does not own
        lines = buffer.getvalue().splitlines()
        assert lines
        json.loads(lines[0])

    def test_weighted_model_events_use_weighted_units(self):
        sink = MemorySink()
        report = self.run_with_sink(sink, work_model=BytesModel())
        assert report.work_model == "bytes"
        final = sink.events[-1]
        assert final.curr == report.total
        assert final.actual == 1.0


# -- the one encoder ----------------------------------------------------------------------

any_float = st.floats(allow_nan=True, allow_infinity=True)
label = st.one_of(st.none(), any_float)
text = st.text(max_size=12)  # non-ASCII, quotes, backslashes, ', "plan": '
snapshots = st.builds(
    PipelineSnapshot,
    index=st.integers(0, 9),
    drivers=st.lists(text, max_size=3).map(tuple),
    started=st.booleans(),
    finished=st.booleans(),
    driver_consumed=st.integers(0, 10 ** 12),
    driver_fraction=any_float,
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), any_float, text),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(text, inner, max_size=3),
    ),
    max_leaves=8,
)
payloads = st.one_of(st.none(), st.dictionaries(text, json_values, max_size=3))
# "plan" as an estimator name puts ', "plan": ' ahead of the real key
names = st.one_of(text, st.sampled_from(["plan", "dne", "payload"]))


@st.composite
def event_runs(draw):
    """A run's worth of events over a small pool of snapshot and payload
    *objects*, so consecutive events share some by identity — the case
    the encoder's fragments exist for — and differ in others."""
    pool = draw(st.lists(snapshots, min_size=1, max_size=4))
    shared_payloads = draw(st.lists(payloads, min_size=1, max_size=3))
    events = []
    for seq in range(draw(st.integers(1, 5))):
        events.append(ProgressEvent(
            seq=seq,
            kind=draw(st.sampled_from(["sample", "run_end", "bound_refined"])),
            plan=draw(st.one_of(text, st.just('q, "plan": "x'))),
            elapsed_seconds=draw(any_float),
            curr=draw(st.one_of(st.integers(0, 10 ** 9), any_float)),
            total=draw(label),
            actual=draw(label),
            lower_bound=draw(any_float),
            upper_bound=draw(any_float),
            estimates=draw(st.dictionaries(names, any_float, max_size=4)),
            pipelines=tuple(draw(st.lists(st.sampled_from(pool), max_size=4))),
            ticks_per_second=draw(label),
            eta_seconds=draw(label),
            eta_interval_seconds=(draw(label), draw(label)),
            payload=draw(st.sampled_from(shared_payloads)),
        ))
    return events


def recorded_events():
    sink = MemorySink()
    ProgressRunner(
        scan_plan(), standard_toolkit(), target_samples=10,
        sinks=[sink], clock=FakeClock(),
    ).run()
    return sink.events


class TestEventEncoding:
    @settings(max_examples=150, deadline=None)
    @given(event_runs())
    def test_to_json_is_json_dumps_of_to_dict_byte_for_byte(self, events):
        plain, framed = {}, {}
        for event in events:
            record = event.to_dict()
            expected = json.dumps(record, sort_keys=True)
            assert event.to_json(plain) == expected
            assert event.to_json() == expected
            assert event.to_json(framed, "sample") == json.dumps(
                dict(record, event="sample"), sort_keys=True
            )

    def test_fragments_are_reused_by_identity_not_by_equality(self):
        def event(snapshot, payload):
            return ProgressEvent(
                seq=0, kind="sample", plan="p", elapsed_seconds=0.5, curr=3,
                total=None, actual=None, lower_bound=3.0, upper_bound=9.0,
                estimates={"dne": 0.25}, pipelines=(snapshot,),
                payload=payload,
            )

        one = PipelineSnapshot(0, ("Scan#1",), True, False, 1, 0.5)
        # equal under ==, spelled differently: 1 vs 1.0
        other = PipelineSnapshot(0, ("Scan#1",), True, False, 1.0, 0.5)
        assert one == other
        fragments = {}
        first = event(one, {"k": 1}).to_json(fragments)
        kept = dict(fragments)
        assert event(one, kept["payload"][0]).to_json(fragments) == first
        assert fragments == kept and fragments[0][0] is one
        second = event(other, {"k": 1.0}).to_json(fragments)
        assert second != first
        assert second == json.dumps(
            event(other, {"k": 1.0}).to_dict(), sort_keys=True
        )

    def test_encoding_leaves_equality_and_the_pickle_alone(self):
        events = recorded_events()
        twins = pickle.loads(pickle.dumps(events))
        sizes = [len(pickle.dumps(event)) for event in events]
        writer = JsonlTraceWriter(io.StringIO())
        for event in events:
            writer.emit(event)
        # one side encoded, the other not: still equal, nothing grew
        assert events == twins
        assert [len(pickle.dumps(event)) for event in events] == sizes
        assert [event.to_dict() for event in events] == [
            event.to_dict() for event in twins
        ]

    def test_runner_built_events_equal_constructed_ones(self):
        for event in recorded_events():
            rebuilt = ProgressEvent(**{
                name: getattr(event, name)
                for name in ProgressEvent.__dataclass_fields__
            })
            assert rebuilt == event
            assert list(vars(rebuilt)) == list(vars(event))
            assert pickle.dumps(rebuilt) == pickle.dumps(event)

    def test_extras_are_encoded_once_per_object(self):
        """The ``event_extras`` rule (docs/api.md): the same dict again
        means unchanged.  A new dict per change reaches every line; one
        dict mutated after it was returned stays at its first encoding."""

        class Reporting(ProgressEstimator):
            def __init__(self, name, in_place):
                self.name = name
                self.in_place = in_place
                self.extras = {"calls": 0}

            def estimate(self, observation):
                if self.in_place:
                    self.extras["calls"] += 1
                elif self.extras["calls"] < observation.curr // 20:
                    # moves now and then; the same dict in between
                    self.extras = {"calls": self.extras["calls"] + 1}
                return 0.5

            def event_extras(self):
                return self.extras

        def traced(in_place):
            handle, sink = io.StringIO(), MemorySink()
            ProgressRunner(
                scan_plan(), [Reporting("reporting", in_place)],
                target_samples=10, clock=FakeClock(),
                sinks=[sink, JsonlTraceWriter(handle)],
            ).run()
            lines = handle.getvalue().splitlines()
            assert len(lines) == len(sink.events) > 10
            return [
                (line, event) for line, event in zip(lines, sink.events)
                if event.kind == "sample"
            ]

        kept = traced(in_place=False)
        for line, event in kept:
            assert line == json.dumps(event.to_dict(), sort_keys=True)
        reported = [event.payload["estimators"]["reporting"]["calls"]
                    for _, event in kept]
        assert reported == sorted(reported) and len(set(reported)) == 4
        # one payload object per report, shared by the samples in between
        assert len({id(event.payload) for _, event in kept}) == 4

        mutated = traced(in_place=True)
        first = json.loads(mutated[0][0])["payload"]
        for line, event in mutated:
            assert json.loads(line)["payload"] == first  # stale: rule broken
            assert event.to_dict()["payload"] != first  # while this moved

    def test_unchanged_pipelines_keep_their_snapshot_object(self):
        table = Table("t", schema_of("t", "k:int"),
                      [(v % 7,) for v in range(300)])
        sink = MemorySink()
        ProgressRunner(
            Plan(Sort(TableScan(table), [SortKey(col("t.k"))]), "sorted"),
            standard_toolkit(), target_samples=20, sinks=[sink],
            clock=FakeClock(),
        ).run()
        samples = sink.samples()
        emitting = [s for s in samples if s.pipelines[0].finished]
        scanning = [s for s in samples if not s.pipelines[1].started]
        assert len(emitting) > 5 and len(scanning) > 5
        # the finished scan and the not yet started sort: one object each
        assert len({id(s.pipelines[0]) for s in emitting}) == 1
        assert len({id(s.pipelines[1]) for s in scanning}) == 1
        # the moving pipeline: a snapshot per instant
        assert len({id(s.pipelines[0]) for s in scanning}) == len(scanning)


class TestRunProfile:
    def test_runner_profiles_each_estimator(self):
        report = ProgressRunner(
            scan_plan(), standard_toolkit(), target_samples=10,
            clock=FakeClock(),
        ).run()
        profile = report.profile
        assert profile is not None
        assert profile.ticks == 60
        assert profile.samples == len(report.trace.samples)
        assert set(profile.estimators) == {"dne", "pmax", "safe"}
        for estimator_profile in profile.estimators.values():
            assert estimator_profile.calls == profile.samples
            assert estimator_profile.total_seconds > 0
            assert estimator_profile.max_seconds >= estimator_profile.avg_seconds
        assert profile.elapsed_seconds > 0
        assert profile.ticks_per_second > 0
        assert 0 < profile.sample_seconds
        assert 0 < profile.overhead_fraction <= 1.0

    def test_profile_serializes(self):
        report = ProgressRunner(
            scan_plan(), standard_toolkit(), target_samples=5,
            clock=FakeClock(),
        ).run()
        record = report.profile.to_dict()
        json.dumps(record)  # must be plain-JSON serializable
        assert record["samples"] == len(report.trace.samples)
        assert "dne" in record["estimators"]
        assert record["estimators"]["dne"]["calls"] == record["samples"]

    def test_estimator_profile_accumulates(self):
        profile = EstimatorProfile("x")
        profile.record(0.25)
        profile.record(0.75)
        assert profile.calls == 2
        assert profile.total_seconds == 1.0
        assert profile.avg_seconds == 0.5
        assert profile.max_seconds == 0.75

    def test_empty_run_profile_defaults(self):
        profile = RunProfile()
        assert profile.ticks_per_second is None
        assert profile.avg_sample_seconds == 0.0
        assert profile.overhead_fraction == 0.0


class TestWarnOnce:
    def test_warns_first_time_only(self):
        observe._warned_keys.discard("test-warn-once-key")
        with pytest.warns(RuntimeWarning, match="something"):
            observe.warn_once("test-warn-once-key", "something happened")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            observe.warn_once("test-warn-once-key", "something happened")

    def test_distinct_keys_warn_independently(self):
        observe._warned_keys.discard("test-warn-once-a")
        observe._warned_keys.discard("test-warn-once-b")
        with pytest.warns(RuntimeWarning):
            observe.warn_once("test-warn-once-a", "a")
        with pytest.warns(UserWarning):
            observe.warn_once("test-warn-once-b", "b", category=UserWarning)
