"""Rendering utilities of the benchmark harness."""

import pytest

from repro.bench import downsample, render_series, render_table, save_artifact
from repro.bench import harness


class TestRenderTable:
    def test_alignment(self):
        text = render_table(["name", "value"], [["a", 1], ["bbbb", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "|" in lines[0]
        assert len(lines) == 4

    def test_title(self):
        text = render_table(["x"], [[1]], title="Table 9")
        assert text.splitlines()[0] == "Table 9"

    def test_float_formatting(self):
        text = render_table(["v"], [[0.123456]])
        assert "0.1235" in text

    def test_empty_rows(self):
        text = render_table(["a", "b"], [])
        assert "a" in text


class TestDownsample:
    def test_short_series_unchanged(self):
        series = [(i, i) for i in range(10)]
        assert downsample(series, 25) == series

    def test_long_series_reduced(self):
        series = [(i, i) for i in range(1000)]
        picked = downsample(series, 25)
        assert len(picked) == 25
        assert picked[0] == (0, 0)
        assert picked[-1] == (999, 999)

    def test_monotone_x_preserved(self):
        series = [(i / 100, i) for i in range(100)]
        xs = [x for x, _ in downsample(series, 10)]
        assert xs == sorted(xs)


class TestRenderSeries:
    def test_columns_per_series(self):
        series = {"a": [(0.0, 0.1), (1.0, 0.9)], "b": [(0.0, 0.2), (1.0, 1.0)]}
        text = render_series(series, points=2)
        header = text.splitlines()[0]
        assert "a" in header and "b" in header

    def test_empty(self):
        assert render_series({}, title="t") == "t"


class TestSaveArtifact:
    def test_writes_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "RESULTS_DIR", str(tmp_path / "results"))
        path = save_artifact("test.txt", "hello")
        assert path == str(tmp_path / "results" / "test.txt")
        with open(path) as handle:
            assert handle.read() == "hello\n"
