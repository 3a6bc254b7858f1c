"""Sort and aggregation operators."""

import pytest

import repro
from repro.engine.expressions import col, lit
from repro.engine.monitor import ExecutionMonitor
from repro.engine.operators import (
    ExecutionContext,
    HashAggregate,
    RowSource,
    Sort,
    SortKey,
    StreamAggregate,
    TableScan,
    agg_avg,
    agg_max,
    agg_min,
    agg_sum,
    count,
    count_star,
)
from repro.errors import PlanError
from repro.sql import plan_query, run_query
from repro.storage import Table, schema_of


def run(op):
    return op.run(ExecutionContext())


@pytest.fixture
def table():
    rows = [(i % 3, float(i)) for i in range(9)]
    return Table("t", schema_of("t", "g:int", "v:float"), rows)


class TestSort:
    def test_ascending(self, table):
        out = run(Sort(TableScan(table), [SortKey(col("v"))]))
        assert [row[1] for row in out] == sorted(float(i) for i in range(9))

    def test_descending(self, table):
        out = run(Sort(TableScan(table), [SortKey(col("v"), descending=True)]))
        assert [row[1] for row in out][0] == 8.0

    def test_multi_key_stable(self, table):
        out = run(Sort(TableScan(table),
                       [SortKey(col("g")), SortKey(col("v"), descending=True)]))
        assert [row[0] for row in out] == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        assert [row[1] for row in out][:3] == [6.0, 3.0, 0.0]

    def test_nulls_first(self):
        source = RowSource(schema_of(None, "x:float"), [(2.0,), (None,), (1.0,)])
        out = run(Sort(source, [SortKey(col("x"))]))
        assert out[0] == (None,)

    def test_requires_keys(self, table):
        with pytest.raises(PlanError):
            Sort(TableScan(table), [])

    def test_blocking_counting(self, table):
        monitor = ExecutionMonitor()
        sort = Sort(TableScan(table), [SortKey(col("v"))])
        sort.open(ExecutionContext(monitor))
        first = sort.get_next()
        assert first is not None
        # child fully consumed before the first output
        assert monitor.total_ticks == 9 + 1
        sort.close()

    def test_materialized_count(self, table):
        sort = Sort(TableScan(table), [SortKey(col("v"))])
        assert sort.materialized_count() is None
        run(sort)
        # after close state is reset; run again partially
        sort.open(ExecutionContext())
        sort.get_next()
        assert sort.materialized_count() == 9
        sort.close()


class TestHashAggregate:
    def test_group_by_counts(self, table):
        agg = HashAggregate(TableScan(table), [("g", col("g"))], [count_star("n")])
        assert sorted(run(agg)) == [(0, 3), (1, 3), (2, 3)]

    def test_sum_avg_min_max(self, table):
        agg = HashAggregate(
            TableScan(table),
            [("g", col("g"))],
            [agg_sum(col("v"), "s"), agg_avg(col("v"), "a"),
             agg_min(col("v"), "lo"), agg_max(col("v"), "hi")],
        )
        rows = {row[0]: row[1:] for row in run(agg)}
        assert rows[0] == (9.0, 3.0, 0.0, 6.0)  # values 0, 3, 6

    def test_scalar_aggregate_on_empty_input(self):
        empty = RowSource(schema_of(None, "x:int"), [])
        agg = HashAggregate(empty, [], [count_star("n"), agg_sum(col("x"), "s")])
        assert run(agg) == [(0, None)]

    def test_group_by_on_empty_input(self):
        empty = RowSource(schema_of(None, "x:int"), [])
        agg = HashAggregate(empty, [("x", col("x"))], [count_star("n")])
        assert run(agg) == []

    def test_nulls_ignored_by_aggregates(self):
        source = RowSource(schema_of(None, "x:int"), [(1,), (None,), (3,)])
        agg = HashAggregate(source, [], [count(col("x"), "c"),
                                         agg_sum(col("x"), "s"),
                                         count_star("all")])
        assert run(agg) == [(2, 4, 3)]

    def test_avg_of_no_values_is_null(self):
        source = RowSource(schema_of(None, "x:int"), [(None,), (None,)])
        agg = HashAggregate(source, [], [agg_avg(col("x"), "a")])
        assert run(agg) == [(None,)]

    def test_null_group_key(self):
        source = RowSource(schema_of(None, "x:int"), [(None,), (None,), (1,)])
        agg = HashAggregate(source, [("x", col("x"))], [count_star("n")])
        assert sorted(run(agg), key=str) == sorted([(None, 2), (1, 1)], key=str)

    def test_needs_something_to_do(self, table):
        with pytest.raises(PlanError):
            HashAggregate(TableScan(table), [], [])

    def test_groups_seen_grows_during_build(self, table):
        agg = HashAggregate(TableScan(table), [("g", col("g"))], [count_star("n")])
        assert agg.groups_seen() == 0
        run(agg)
        # close() resets; re-open and pull one row to trigger the build
        agg.open(ExecutionContext())
        agg.get_next()
        assert agg.groups_seen() == 3
        assert agg.input_consumed
        agg.close()

    def test_output_schema(self, table):
        agg = HashAggregate(TableScan(table), [("g", col("g"))],
                            [count_star("n"), agg_sum(col("v"), "s")])
        assert agg.schema.qualified_names() == ("g", "n", "s")


class TestStreamAggregate:
    def test_matches_hash_aggregate_on_sorted_input(self, table):
        sorted_scan = Sort(TableScan(table), [SortKey(col("g"))])
        stream = StreamAggregate(sorted_scan, [("g", col("g"))],
                                 [count_star("n"), agg_sum(col("v"), "s")])
        hash_agg = HashAggregate(TableScan(table), [("g", col("g"))],
                                 [count_star("n"), agg_sum(col("v"), "s")])
        assert sorted(run(stream)) == sorted(run(hash_agg))

    def test_streams_groups_incrementally(self, table):
        sorted_scan = Sort(TableScan(table), [SortKey(col("g"))])
        stream = StreamAggregate(sorted_scan, [("g", col("g"))], [count_star("n")])
        stream.open(ExecutionContext())
        first = stream.get_next()
        assert first == (0, 3)
        stream.close()

    def test_scalar_on_empty(self):
        empty = RowSource(schema_of(None, "x:int"), [])
        stream = StreamAggregate(empty, [], [count_star("n")])
        assert run(stream) == [(0,)]

    def test_not_blocking(self, table):
        stream = StreamAggregate(TableScan(table), [("g", col("g"))],
                                 [count_star("n")])
        assert not stream.is_blocking


class TestAggregateTypes:
    """What the output schema declares, and what it refuses to sum."""

    @pytest.fixture
    def typed(self):
        return Table("t", schema_of(
            "t", "g:int", "v:float", "s:str", "d:date", "b:bool",
        ), [(1, 2.5, "x", "1995-01-01", True), (1, 0.5, "y", "1996-02-03", False)])

    @pytest.mark.parametrize("column", ["s", "d", "b"])
    @pytest.mark.parametrize("spec", [agg_sum, agg_avg])
    @pytest.mark.parametrize("kind", [HashAggregate, StreamAggregate])
    def test_sum_and_avg_refuse_a_non_numeric_column(self, typed, kind, spec, column):
        with pytest.raises(PlanError, match="t.%s|%s" % (column, column)):
            kind(TableScan(typed), [("g", col("g"))], [spec(col(column))])

    def test_min_max_keep_a_plain_column_type(self, typed):
        agg = HashAggregate(TableScan(typed), [], [
            agg_min(col("d"), "lo"), agg_max(col("s"), "hi"),
            agg_min(col("g"), "g"), agg_max(col("b"), "b"),
            agg_min(col("v") * lit(2.0), "computed"), agg_sum(col("g"), "total"),
        ])
        types = [column.type.name for column in agg.schema.columns]
        assert types == ["DATE", "STR", "INT", "BOOL", "FLOAT", "FLOAT"]
        assert all(column.nullable for column in agg.schema.columns)
        assert run(agg) == [("1995-01-01", "y", 1, True, 1.0, 2)]

    def test_count_still_counts_any_column(self, typed):
        agg = HashAggregate(TableScan(typed), [], [count(col("s"), "n")])
        assert run(agg) == [(2,)]


class TestAggregateTypesOverSql:
    SQL = "SELECT AVG(o_orderstatus) FROM orders"

    @pytest.mark.parametrize("engine", ["interpreted", "fused", "columnar"])
    @pytest.mark.parametrize("sql", [SQL, "SELECT SUM(o_orderdate) FROM orders"])
    def test_session_run_raises_a_typed_error_on_every_engine(self, tpch_db, engine, sql):
        session = repro.connect(catalog=tpch_db.catalog)
        with pytest.raises(PlanError, match="cannot be summed"):
            session.run(sql, engine=engine)

    def test_the_sql_path_raises_before_running(self, tpch_db):
        with pytest.raises(PlanError, match="AVG\\(o_orderstatus\\)"):
            plan_query(self.SQL, tpch_db.catalog)
        with pytest.raises(PlanError):
            run_query(self.SQL, tpch_db.catalog)
        # MIN/MAX over the same column are fine and typed as the column
        plan = plan_query("SELECT MIN(o_orderstatus) FROM orders", tpch_db.catalog)
        assert plan.root.schema.columns[0].type.name == "STR"
