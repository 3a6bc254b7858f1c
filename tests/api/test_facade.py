"""The stable ``repro.api`` facade.

Two contracts are pinned here: the README quickstart runs **verbatim**
through the facade, and the facade's paths stay free of
:class:`DeprecationWarning` (the package has no shims of its own, so one
would be the interpreter's: fork-in-threads, asyncio).
"""

from __future__ import annotations

import warnings
from pathlib import Path

import pytest

import repro
from repro.options import ExecutionOptions
from repro.engine.plan import Plan
from repro.errors import ReproError
from repro.service import QueryState
from repro.stats import StatisticsManager
from repro.storage import Catalog, Table, schema_of

README = Path(__file__).resolve().parents[2] / "README.md"


def small_catalog(rows=2000):
    catalog = Catalog("api-test")
    catalog.add_table(Table(
        "t",
        schema_of("t", "x:int", "g:int"),
        [(i, i % 7) for i in range(rows)],
    ))
    StatisticsManager(catalog).analyze_all()
    return catalog


class TestReadmeQuickstart:
    def test_quickstart_runs_verbatim(self, capsys):
        text = README.read_text()
        section = text.split("## Quickstart", 1)[1]
        code = section.split("```python", 1)[1].split("```", 1)[0]
        # The quickstart is the facade's showcase: it must not trip any
        # deprecation.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            exec(compile(code, str(README), "exec"), {})
        out = capsys.readouterr().out
        assert "total getnext calls:" in out
        assert "state: done" in out


class TestSession:
    def test_connect_is_keyword_only(self):
        with pytest.raises(TypeError):
            repro.connect(Catalog())

    def test_sql_returns_plan_without_executing(self):
        with repro.connect(catalog=small_catalog()) as session:
            plan = session.sql("SELECT COUNT(*) FROM t")
            assert isinstance(plan, Plan)

    def test_execute_returns_rows_and_accounting(self):
        with repro.connect(catalog=small_catalog()) as session:
            result = session.execute("SELECT g, COUNT(*) FROM t GROUP BY g")
            assert result.row_count == 7
            assert result.total_getnext > 0

    def test_run_accepts_plan_or_sql(self):
        with repro.connect(catalog=small_catalog()) as session:
            from_text = session.run(
                "SELECT COUNT(*) FROM t", target_samples=10
            )
            from_plan = session.run(
                session.sql("SELECT COUNT(*) FROM t"), target_samples=10
            )
            assert from_text.total == from_plan.total
            assert from_text.trace.samples == from_plan.trace.samples

    def test_run_rejects_other_query_types(self):
        with repro.connect(catalog=small_catalog()) as session:
            with pytest.raises(ReproError):
                session.run(42)

    def test_submit_round_trip_matches_run(self):
        with repro.connect(catalog=small_catalog(), target_samples=10) as session:
            solo = session.run("SELECT COUNT(*) FROM t")
            handle = session.submit("SELECT COUNT(*) FROM t")
            report = handle.result(timeout=60.0)
            assert handle.state is QueryState.DONE
            assert report.trace.samples == solo.trace.samples

    def test_close_shuts_service_down(self):
        session = repro.connect(catalog=small_catalog())
        handle = session.submit("SELECT COUNT(*) FROM t")
        assert handle.wait(60.0)
        session.close()
        with pytest.raises(ReproError):
            session.service

    def test_package_reexports(self):
        assert repro.connect is not None
        assert repro.Session is not None
        assert repro.QueryService is not None
        assert repro.QueryState is QueryState
        assert issubclass(repro.AdmissionError, repro.ReproError)
        with pytest.raises(AttributeError):
            repro.does_not_exist


class TestEngineResolution:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "interpreted")
        assert ExecutionOptions(engine="fused").resolve().engine == "fused"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "interpreted")
        assert ExecutionOptions().resolve().engine == "interpreted"
        monkeypatch.delenv("REPRO_ENGINE")
        assert ExecutionOptions().resolve().engine == "fused"

    def test_rejects_unknown_engine(self):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            ExecutionOptions(engine="bogus").resolve()

    def test_env_read_at_resolve_time(self, monkeypatch):
        options = ExecutionOptions()
        monkeypatch.setenv("REPRO_ENGINE", "interpreted")
        assert options.resolve().engine == "interpreted"

    def test_session_engine_uses_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "interpreted")
        session = repro.connect(catalog=small_catalog())
        assert session.engine == "interpreted"
        session.close()


class TestDeprecationShims:
    """There are none left; what this guards is the interpreter's own."""

    def test_facade_paths_are_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with repro.connect(catalog=small_catalog()) as session:
                session.execute("SELECT COUNT(*) FROM t")
                session.run("SELECT COUNT(*) FROM t", target_samples=5)
                session.submit("SELECT COUNT(*) FROM t").result(timeout=60.0)
