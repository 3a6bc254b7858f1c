"""Server metrics primitives: nearest-rank percentile, latency reservoir."""

import pytest

from repro.server.metrics import LatencyReservoir, ServerMetrics, percentile


class TestPercentile:
    def test_empty_population_is_none(self):
        assert percentile([], 0.5) is None

    def test_p50_of_two_is_the_lower(self):
        # The regression: int(0.5 * 2) picked index 1 — the *max* — as the
        # median of a two-element population.
        assert percentile([1.0, 2.0], 0.50) == 1.0

    def test_p50_of_three_is_the_middle(self):
        assert percentile([3.0, 1.0, 2.0], 0.50) == 2.0

    def test_p50_of_four_is_the_second(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 0.50) == 2.0

    def test_p99_of_1_to_100(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 0.99) == 99.0

    def test_p100_is_the_max(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 1.0) == 100.0

    def test_p0_is_the_min(self):
        assert percentile([5.0, 1.0, 3.0], 0.0) == 1.0

    def test_singleton(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0

    def test_unsorted_input_is_sorted_first(self):
        assert percentile([9.0, 1.0], 0.5) == 1.0

    def test_nearest_rank_definition(self):
        # Smallest value with >= fraction of the population at or below it.
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 0.20) == 1.0
        assert percentile(values, 0.21) == 2.0
        assert percentile(values, 0.80) == 4.0
        assert percentile(values, 0.81) == 5.0


class TestLatencyReservoir:
    def test_quantiles_over_small_population(self):
        reservoir = LatencyReservoir()
        for value in (0.1, 0.2, 0.3):
            reservoir.record(value)
        quantiles = reservoir.quantiles()
        assert quantiles["count"] == 3
        assert quantiles["p50_seconds"] == pytest.approx(0.2)
        assert quantiles["p99_seconds"] == pytest.approx(0.3)

    def test_p50_of_two_after_fix(self):
        reservoir = LatencyReservoir()
        reservoir.record(1.0)
        reservoir.record(2.0)
        assert reservoir.quantiles()["p50_seconds"] == 1.0

    def test_bounded_capacity(self):
        reservoir = LatencyReservoir(capacity=10)
        for i in range(100):
            reservoir.record(float(i))
        assert reservoir.count == 100
        assert len(reservoir._values) == 10


class TestServerMetricsLatency:
    def test_snapshot_percentiles(self):
        metrics = ServerMetrics(clock=lambda: 0.0)
        metrics.record_submitted("t")
        metrics.record_completed("t", "succeeded", latency_seconds=1.0)
        metrics.record_submitted("t")
        metrics.record_completed("t", "succeeded", latency_seconds=2.0)
        latency = metrics.snapshot()["latency"]
        assert latency["count"] == 2
        assert latency["p50_seconds"] == 1.0
        assert latency["p99_seconds"] == 2.0
