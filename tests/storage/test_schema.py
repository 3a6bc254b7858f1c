"""Schema construction, name resolution and row validation."""

import pickle

import pytest

from repro.errors import SchemaError
from repro.storage.schema import (
    Column,
    ColumnType,
    Schema,
    columns,
    format_name,
    schema_of,
    split_name,
)


class TestColumn:
    def test_defaults_to_int(self):
        assert Column("a").type is ColumnType.INT

    def test_rejects_qualified_name(self):
        with pytest.raises(SchemaError):
            Column("t.a")

    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError):
            Column("")

    def test_accepts_matching_value(self):
        assert Column("a", ColumnType.INT).accepts(3)
        assert Column("a", ColumnType.STR).accepts("x")
        assert Column("a", ColumnType.FLOAT).accepts(1.5)

    def test_float_column_accepts_int(self):
        assert Column("a", ColumnType.FLOAT).accepts(3)

    def test_bool_is_not_int(self):
        assert not Column("a", ColumnType.INT).accepts(True)
        assert Column("a", ColumnType.BOOL).accepts(True)

    def test_null_needs_nullable(self):
        assert not Column("a").accepts(None)
        assert Column("a", nullable=True).accepts(None)

    def test_date_stored_as_string(self):
        assert Column("d", ColumnType.DATE).accepts("2005-06-14")
        assert not Column("d", ColumnType.DATE).accepts(20050614)


class TestSchema:
    def test_positional_and_named_access(self):
        schema = schema_of("t", "a:int", "b:str")
        assert schema.index_of("a") == 0
        assert schema.index_of("t.b") == 1
        assert schema.column_at(1).name == "b"

    def test_missing_column_raises(self):
        schema = schema_of("t", "a:int")
        with pytest.raises(SchemaError):
            schema.index_of("zzz")

    def test_wrong_qualifier_raises(self):
        schema = schema_of("t", "a:int")
        with pytest.raises(SchemaError):
            schema.index_of("other.a")

    def test_ambiguous_bare_name_raises(self):
        left = schema_of("l", "a:int")
        right = schema_of("r", "a:int")
        joined = left.concat(right)
        with pytest.raises(SchemaError):
            joined.index_of("a")
        assert joined.index_of("l.a") == 0
        assert joined.index_of("r.a") == 1

    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            Schema(columns("a", "a"))

    def test_same_name_different_qualifier_allowed(self):
        schema = Schema(columns("a", "a"), ["l", "r"])
        assert len(schema) == 2

    def test_concat_preserves_order(self):
        joined = schema_of("l", "a:int").concat(schema_of("r", "b:str"))
        assert joined.qualified_names() == ("l.a", "r.b")

    def test_project(self):
        schema = schema_of("t", "a:int", "b:str", "c:float")
        projected = schema.project([2, 0])
        assert projected.qualified_names() == ("t.c", "t.a")

    def test_requalify(self):
        schema = schema_of("t", "a:int").qualified("alias")
        assert schema.qualified_names() == ("alias.a",)

    def test_validate_row_arity(self):
        schema = schema_of("t", "a:int", "b:str")
        with pytest.raises(SchemaError):
            schema.validate_row((1,))

    def test_validate_row_types(self):
        schema = schema_of("t", "a:int")
        with pytest.raises(SchemaError):
            schema.validate_row(("not an int",))
        schema.validate_row((5,))

    def test_equality_and_hash(self):
        assert schema_of("t", "a:int") == schema_of("t", "a:int")
        assert hash(schema_of("t", "a:int")) == hash(schema_of("t", "a:int"))
        assert schema_of("t", "a:int") != schema_of("u", "a:int")

    def test_has_column(self):
        schema = schema_of("t", "a:int")
        assert schema.has_column("a")
        assert schema.has_column("t.a")
        assert not schema.has_column("b")

    def test_resolution_map_keeps_the_scan_rules(self):
        # unqualified first, qualified second, either order: a bare name
        # matches both, a qualified one only its own column
        for schema in (Schema(columns("a", "a", "b"), [None, "r", "r"]),
                       Schema(columns("b", "a", "a"), ["r", "r", None])):
            with pytest.raises(SchemaError, match="ambiguous column 'a'"):
                schema.index_of("a")
            assert not schema.has_column("a")
            assert schema.column_at(schema.index_of("r.a")).name == "a"
            assert schema.qualifiers[schema.index_of("r.a")] == "r"
            assert schema.index_of("b") == schema.index_of("r.b")
            with pytest.raises(SchemaError, match="no column 'l.a'"):
                schema.index_of("l.a")
        schema = schema_of("t", "a:int")
        for malformed in (".a", "t."):
            assert not schema.has_column(malformed)
            with pytest.raises(SchemaError, match="malformed"):
                schema.index_of(malformed)

    def test_pickle_rebuilds_the_resolution_map(self):
        schema = schema_of("l", "a:int").concat(schema_of("r", "a:int", "b:str"))
        clone = pickle.loads(pickle.dumps(schema))
        assert clone == schema
        assert clone.index_of("r.a") == 1 and clone.index_of("b") == 2
        with pytest.raises(SchemaError):
            clone.index_of("a")
        assert b"_positions" not in pickle.dumps(schema)


class TestNameHelpers:
    def test_split_qualified(self):
        assert split_name("t.a") == ("t", "a")

    def test_split_bare(self):
        assert split_name("a") == (None, "a")

    def test_split_malformed(self):
        with pytest.raises(SchemaError):
            split_name(".a")
        with pytest.raises(SchemaError):
            split_name("t.")

    def test_format(self):
        assert format_name("t", "a") == "t.a"
        assert format_name(None, "a") == "a"
