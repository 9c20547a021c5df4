"""Unit tests for scalar and aggregate SQL functions."""

import sqlite3

import pytest

from repro.db.sql.functions import (
    AGGREGATE_NAMES,
    call_scalar,
    is_scalar_function,
    make_accumulator,
)
from repro.errors import ExecutionError


class TestScalars:
    def test_upper_lower(self):
        assert call_scalar("UPPER", ["abc"]) == "ABC"
        assert call_scalar("lower", ["ABC"]) == "abc"
        assert call_scalar("UPPER", [None]) is None

    def test_length(self):
        assert call_scalar("LENGTH", ["abcd"]) == 4
        assert call_scalar("LENGTH", [None]) is None

    def test_abs_round(self):
        assert call_scalar("ABS", [-5]) == 5
        assert call_scalar("ROUND", [2.567, 1]) == 2.6
        assert call_scalar("ROUND", [2.4]) == 2
        assert isinstance(call_scalar("ROUND", [2.4]), int)

    def test_coalesce(self):
        assert call_scalar("COALESCE", [None, None, 3]) == 3
        assert call_scalar("COALESCE", [None]) is None

    def test_nullif_ifnull(self):
        assert call_scalar("NULLIF", [1, 1]) is None
        assert call_scalar("NULLIF", [1, 2]) == 1
        assert call_scalar("IFNULL", [None, "d"]) == "d"
        assert call_scalar("IFNULL", ["v", "d"]) == "v"

    def test_substr_is_one_based(self):
        assert call_scalar("SUBSTR", ["hello", 2]) == "ello"
        assert call_scalar("SUBSTR", ["hello", 2, 3]) == "ell"
        assert call_scalar("SUBSTR", ["hello", 1, 1]) == "h"
        assert call_scalar("SUBSTRING", ["hello", 1, 2]) == "he"

    def test_substr_positions_before_the_first_character_count(self):
        """SQLite's rule, held to sqlite3 over starts and lengths of every
        sign: SUBSTR('hello', 0, 2) is 'h', SUBSTR('hello', 2, -1) is 'h'."""
        lite = sqlite3.connect(":memory:")
        for start in (-7, -5, -2, -1, 0, 1, 2, 5, 6):
            for length in ((), (-9,), (-2,), (-1,), (0,), (1,), (2,), (9,)):
                args = ["hello", start, *length]
                marks = ", ".join("?" * len(args))
                want = lite.execute(f"SELECT SUBSTR({marks})", args).fetchone()[0]
                assert call_scalar("SUBSTR", args) == want, args
        assert call_scalar("SUBSTR", ["hello", 0, 2]) == "h"
        assert call_scalar("SUBSTR", ["hello", 2, -1]) == "h"
        assert call_scalar("SUBSTR", ["hello", 1, None]) is None

    def test_replace_with_an_empty_search_changes_nothing(self):
        assert call_scalar("REPLACE", ["abc", "", "x"]) == "abc"
        assert call_scalar("REPLACE", [12, "", "x"]) == 12
        assert call_scalar("TRIM", ["\t x \n"]) == "\t x \n"

    def test_trim_replace_concat(self):
        assert call_scalar("TRIM", ["  x "]) == "x"
        assert call_scalar("REPLACE", ["a-b", "-", "+"]) == "a+b"
        assert call_scalar("CONCAT", ["a", None, 1]) == "a1"

    def test_typeof(self):
        assert call_scalar("TYPEOF", [None]) == "NULL"
        assert call_scalar("TYPEOF", [True]) == "BOOLEAN"
        assert call_scalar("TYPEOF", [1]) == "INTEGER"
        assert call_scalar("TYPEOF", [1.5]) == "FLOAT"
        assert call_scalar("TYPEOF", ["s"]) == "TEXT"

    def test_unknown_function(self):
        assert not is_scalar_function("FROBNICATE")
        with pytest.raises(ExecutionError):
            call_scalar("FROBNICATE", [1])

    def test_arity_errors(self):
        with pytest.raises(ExecutionError):
            call_scalar("UPPER", [])
        with pytest.raises(ExecutionError):
            call_scalar("UPPER", ["a", "b"])
        with pytest.raises(ExecutionError):
            call_scalar("NULLIF", [1])


class TestAggregates:
    def feed(self, name, values, star=False, distinct=False):
        acc = make_accumulator(name, star=star, distinct=distinct)
        for value in values:
            acc.add(value)
        return acc.result()

    def test_aggregate_name_set(self):
        assert AGGREGATE_NAMES == {"COUNT", "SUM", "AVG", "MIN", "MAX"}

    def test_count_star_counts_everything(self):
        assert self.feed("COUNT", [1, None, "x"], star=True) == 3

    def test_count_value_skips_nulls(self):
        assert self.feed("COUNT", [1, None, 2]) == 2

    def test_count_distinct(self):
        assert self.feed("COUNT", [1, 1, 2, None, 2], distinct=True) == 2

    def test_sum(self):
        assert self.feed("SUM", [1, 2, 3]) == 6
        assert self.feed("SUM", [None, None]) is None
        assert self.feed("SUM", []) is None

    def test_sum_distinct(self):
        assert self.feed("SUM", [1, 1, 2], distinct=True) == 3

    def test_avg(self):
        assert self.feed("AVG", [1, 2, 3]) == 2.0
        assert self.feed("AVG", [None]) is None

    def test_min_max(self):
        assert self.feed("MIN", [3, 1, 2]) == 1
        assert self.feed("MAX", [3, 1, 2]) == 3
        assert self.feed("MIN", ["b", "a"]) == "a"
        assert self.feed("MIN", [None]) is None

    def test_min_max_ignore_nulls(self):
        assert self.feed("MAX", [None, 5, None]) == 5
