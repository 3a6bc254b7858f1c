"""The command-line interface."""

import pytest

from repro.cli import main


class TestProgress:
    def test_tpch_q1(self, capsys):
        assert main(["progress", "--scale", "0.0003", "--tpch", "1"]) == 0
        out = capsys.readouterr().out
        assert "TableScan(lineitem" in out
        assert "mu (work per input tuple)" in out
        assert "dne" in out and "pmax" in out and "safe" in out

    def test_tpch_q6(self, capsys):
        assert main(["progress", "--scale", "0.0003", "--tpch", "6"]) == 0
        assert "total getnext calls" in capsys.readouterr().out


class TestSql:
    def test_sql_with_rows(self, capsys):
        code = main([
            "progress", "--scale", "0.0003", "--rows", "3",
            "SELECT o_orderpriority, COUNT(*) FROM orders "
            "GROUP BY o_orderpriority ORDER BY o_orderpriority",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "HashAggregate" in out
        assert "first 3 rows" in out

    def test_explain(self, capsys):
        assert main(["explain", "--scale", "0.0003",
                     "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 10"]) == 0
        out = capsys.readouterr().out
        assert "TableScan(lineitem" in out
        assert "scan-based: True" in out


class TestServe:
    def test_serve_runs_to_terminal_states(self, capsys):
        code = main([
            "serve", "--scale", "0.0003", "--queries", "1,6",
            "--workers", "2", "--poll", "0.01",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "admitted 2 queries onto 2 thread workers" in out
        assert "all queries reached a terminal state" in out
        assert "done=2" in out

    def test_serve_process_backend(self, capsys):
        code = main([
            "serve", "--scale", "0.0003", "--queries", "1,6",
            "--workers", "2", "--poll", "0.01", "--backend", "process",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "admitted 2 queries onto 2 process workers" in out
        assert "all queries reached a terminal state" in out
        assert "done=2" in out

    def test_serve_with_cancellation(self, capsys):
        code = main([
            "serve", "--scale", "0.0003", "--queries", "1,6",
            "--workers", "1", "--poll", "0.01", "--cancel", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cancelled Q1#0 mid-flight" in out
        assert "all queries reached a terminal state" in out


class TestExperiments:
    def test_single_experiment(self, capsys):
        assert main(["experiments", "ablation_predictive_orders"]) == 0
        out = capsys.readouterr().out
        assert "2-predictive" in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiments", "bogus"]) == 2

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
