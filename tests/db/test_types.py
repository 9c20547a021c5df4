"""Unit tests for column types, coercion, and value comparison."""

import enum
from functools import cmp_to_key

import pytest

from repro.db.types import (
    ColumnType,
    compare_values,
    coerce,
    infer_type,
    render_value,
    index_key,
    sql_literal,
    type_from_sql_name,
)
from repro.errors import TypeCoercionError


class TestTypeNames:
    def test_common_spellings(self):
        assert type_from_sql_name("INT") is ColumnType.INTEGER
        assert type_from_sql_name("integer") is ColumnType.INTEGER
        assert type_from_sql_name("BIGINT") is ColumnType.INTEGER
        assert type_from_sql_name("varchar") is ColumnType.TEXT
        assert type_from_sql_name("TEXT") is ColumnType.TEXT
        assert type_from_sql_name("DOUBLE") is ColumnType.FLOAT
        assert type_from_sql_name("bool") is ColumnType.BOOLEAN
        assert type_from_sql_name("TIMESTAMP") is ColumnType.TIMESTAMP

    def test_unknown_name_raises(self):
        with pytest.raises(TypeCoercionError):
            type_from_sql_name("BLOB")


class TestInference:
    def test_infer_each_kind(self):
        assert infer_type(5) is ColumnType.INTEGER
        assert infer_type(5.5) is ColumnType.FLOAT
        assert infer_type("x") is ColumnType.TEXT
        assert infer_type(True) is ColumnType.BOOLEAN

    def test_bool_checked_before_int(self):
        # bool is an int subclass; inference must not call it INTEGER.
        assert infer_type(False) is ColumnType.BOOLEAN

    def test_none_has_no_type(self):
        with pytest.raises(TypeCoercionError):
            infer_type(None)

    def test_unsupported_python_type(self):
        with pytest.raises(TypeCoercionError):
            infer_type([1, 2])


class TestCoercion:
    def test_null_passes_through_every_type(self):
        for col_type in ColumnType:
            assert coerce(None, col_type) is None

    def test_int_widens_to_float(self):
        assert coerce(3, ColumnType.FLOAT) == 3.0
        assert isinstance(coerce(3, ColumnType.FLOAT), float)

    def test_integral_float_narrows_to_int(self):
        assert coerce(3.0, ColumnType.INTEGER) == 3
        assert isinstance(coerce(3.0, ColumnType.INTEGER), int)

    def test_an_int_subclass_is_stored_as_an_exact_int(self):
        # A segment table keeps an INTEGER column as array('q'), which would
        # hand back a plain int anyway: every storage stores the same value.
        for col_type in (ColumnType.INTEGER, ColumnType.TIMESTAMP):
            value = coerce(enum.IntEnum("Level", "LOW HIGH").HIGH, col_type)
            assert type(value) is int and value == 2

    def test_fractional_float_rejected_as_int(self):
        with pytest.raises(TypeCoercionError):
            coerce(3.5, ColumnType.INTEGER)

    def test_string_not_coerced_to_int(self):
        with pytest.raises(TypeCoercionError):
            coerce("5", ColumnType.INTEGER)

    def test_int_not_coerced_to_text(self):
        with pytest.raises(TypeCoercionError):
            coerce(5, ColumnType.TEXT)

    def test_bool_is_not_integer(self):
        with pytest.raises(TypeCoercionError):
            coerce(True, ColumnType.INTEGER)

    def test_int_is_not_boolean(self):
        with pytest.raises(TypeCoercionError):
            coerce(1, ColumnType.BOOLEAN)

    def test_timestamp_accepts_int(self):
        assert coerce(1234, ColumnType.TIMESTAMP) == 1234


class TestComparison:
    def test_null_sorts_first(self):
        assert compare_values(None, 0) == -1
        assert compare_values(0, None) == 1
        assert compare_values(None, None) == 0

    def test_numbers(self):
        assert compare_values(1, 2) == -1
        assert compare_values(2, 1) == 1
        assert compare_values(2, 2) == 0
        assert compare_values(1, 1.5) == -1
        assert compare_values(2.0, 2) == 0

    def test_text(self):
        assert compare_values("a", "b") == -1
        assert compare_values("b", "a") == 1

    def test_cross_kind_order_is_total(self):
        # bool < numeric < text
        assert compare_values(True, 0) == -1
        assert compare_values(5, "a") == -1
        assert compare_values("a", 5) == 1

    def test_sort_key_sorts_mixed_values(self):
        values = ["b", None, 2, True, "a", 1]
        ordered = sorted(values, key=cmp_to_key(compare_values))
        assert ordered == [None, True, 1, 2, "a", "b"]

    def test_index_key(self):
        rows = [(2, "b"), (1, "z"), (1, "a"), (None, "x"), (True, "t"), ("s", 1)]
        ordered = sorted(rows, key=index_key)
        assert ordered == [
            (None, "x"), (True, "t"), (1, "a"), (1, "z"), (2, "b"), ("s", 1)
        ]
        # A key is a strict prefix of (so sorts just before) anything it leads.
        assert index_key((1,)) < index_key((1, "a")) < index_key((1.5,))


class TestRendering:
    def test_render_null(self):
        assert render_value(None) == "null"

    def test_render_bool(self):
        assert render_value(True) == "true"
        assert render_value(False) == "false"

    def test_sql_literal_escaping(self):
        assert sql_literal("O'Brien") == "'O''Brien'"
        assert sql_literal(None) == "NULL"
        assert sql_literal(True) == "TRUE"
        assert sql_literal(5) == "5"
