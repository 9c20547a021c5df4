"""Unit tests for expression evaluation and the AST helpers.

Each expression runs as its rowless program (``evaluate_rowless``, the
program any row would run) and through ``tests/sql_oracle.py`` — SQLite, or
the declared dialect difference that covers it — and the two must agree
on the value and its type before the case checks the value itself.
"""

import sqlite3

import pytest

from repro.db.expr import (
    Between,
    BinaryOp,
    Case,
    ColumnRef,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Param,
    UnaryOp,
    assign_param_indexes,
    conjoin,
    contains_aggregate,
    split_conjuncts,
)
from repro.db.sql.planner import evaluate_rowless
from repro.errors import ExecutionError
from sql_oracle import reference


def value(expr, params=()):
    """``expr``'s value, once the program and the oracle agree on it."""
    got = evaluate_rowless(expr, params)
    want = reference(expr, (), params)
    assert (type(got), got) == (type(want), want), (expr, got, want)
    return got


def error(expr, params=()) -> str:
    """The message ``expr`` fails with, once the program and the oracle
    fail alike."""
    with pytest.raises(ExecutionError) as raised:
        evaluate_rowless(expr, params)
    with pytest.raises(ExecutionError) as modelled:
        reference(expr, (), params)
    assert str(raised.value) == str(modelled.value)
    return str(raised.value)


class TestThreeValuedLogic:
    def test_comparison_with_null_is_null(self):
        expr = BinaryOp("=", Literal(None), Literal(1))
        assert value(expr) is None

    def test_and_kleene(self):
        cases = [
            (True, True, True),
            (True, False, False),
            (False, None, False),
            (None, True, None),
            (None, None, None),
        ]
        for a, b, expected in cases:
            expr = BinaryOp("AND", Literal(a), Literal(b))
            assert value(expr) is expected

    def test_or_kleene(self):
        cases = [
            (False, False, False),
            (True, None, True),
            (None, True, True),
            (False, None, None),
            (None, None, None),
        ]
        for a, b, expected in cases:
            expr = BinaryOp("OR", Literal(a), Literal(b))
            assert value(expr) is expected

    def test_not_null_is_null(self):
        assert value(UnaryOp("NOT", Literal(None))) is None

    def test_truth_rule_on_true_false_null_and_numbers(self):
        """A number is TRUE exactly when it is nonzero — in AND, OR, NOT,
        CASE WHEN and WHERE — and each answer is sqlite3's."""
        lite = sqlite3.connect(":memory:")
        operands = [True, False, None, 0, 1, 2, 0.0, -0.5]
        for a in operands:
            for b in operands:
                for op in ("AND", "OR"):
                    want = lite.execute(f"SELECT ? {op} ?", (a, b)).fetchone()[0]
                    got = value(BinaryOp(op, Literal(a), Literal(b)))
                    assert got == (None if want is None else bool(want)), (a, op, b)
            want = lite.execute("SELECT NOT ?", (a,)).fetchone()[0]
            assert value(UnaryOp("NOT", Literal(a))) == (
                None if want is None else bool(want)
            )
            case = Case([(Literal(a), Literal("yes"))], Literal("no"))
            assert value(case) == lite.execute(
                "SELECT CASE WHEN ? THEN 'yes' ELSE 'no' END", (a,)
            ).fetchone()[0]

    def test_text_is_no_truth_value(self):
        assert error(BinaryOp("AND", Literal("a"), Literal(True))) == (
            "TEXT 'a' is not a truth value"
        )
        assert error(UnaryOp("NOT", Literal("1"))) == "TEXT '1' is not a truth value"


class TestOperators:
    def test_arithmetic(self):
        assert value(BinaryOp("+", Literal(2), Literal(3))) == 5
        assert value(BinaryOp("-", Literal(2), Literal(3))) == -1
        assert value(BinaryOp("*", Literal(2), Literal(3))) == 6
        assert value(BinaryOp("%", Literal(7), Literal(3))) == 1

    def test_integer_division_stays_integer_when_exact(self):
        assert value(BinaryOp("/", Literal(6), Literal(3))) == 2
        assert isinstance(value(BinaryOp("/", Literal(6), Literal(3))), int)
        assert value(BinaryOp("/", Literal(7), Literal(2))) == 3.5

    def test_division_by_zero(self):
        assert error(BinaryOp("/", Literal(1), Literal(0))) == "division by zero"
        assert error(BinaryOp("%", Literal(1), Literal(0))) == "modulo by zero"

    def test_arithmetic_on_text_is_an_error(self):
        assert error(BinaryOp("+", Literal("a"), Literal("b"))) == "invalid operands for +"
        assert error(BinaryOp("*", Literal("a"), Literal(2))) == "invalid operands for *"
        assert value(BinaryOp("+", Literal("a"), Literal(None))) is None

    def test_arithmetic_with_null(self):
        assert value(BinaryOp("+", Literal(None), Literal(1))) is None

    def test_concat(self):
        assert value(BinaryOp("||", Literal("a"), Literal("b"))) == "ab"

    def test_comparisons(self):
        assert value(BinaryOp("<", Literal(1), Literal(2))) is True
        assert value(BinaryOp(">=", Literal(2), Literal(2))) is True
        assert value(BinaryOp("!=", Literal(1), Literal(2))) is True
        assert value(BinaryOp("<>", Literal(1), Literal(1))) is False

    def test_unary_minus(self):
        assert value(UnaryOp("-", Literal(5))) == -5
        assert value(UnaryOp("-", Literal(None))) is None


class TestPredicates:
    def test_is_null(self):
        assert value(IsNull(Literal(None))) is True
        assert value(IsNull(Literal(1))) is False
        assert value(IsNull(Literal(1), negated=True)) is True

    def test_in_list(self):
        expr = InList(Literal(2), [Literal(1), Literal(2)])
        assert value(expr) is True
        expr = InList(Literal(3), [Literal(1), Literal(2)])
        assert value(expr) is False

    def test_in_list_null_semantics(self):
        # 3 IN (1, NULL) is NULL (unknown), not FALSE.
        expr = InList(Literal(3), [Literal(1), Literal(None)])
        assert value(expr) is None
        # 1 IN (1, NULL) is TRUE.
        expr = InList(Literal(1), [Literal(1), Literal(None)])
        assert value(expr) is True

    def test_not_in(self):
        expr = InList(Literal(3), [Literal(1)], negated=True)
        assert value(expr) is True

    def test_between(self):
        assert value(Between(Literal(2), Literal(1), Literal(3))) is True
        assert value(Between(Literal(0), Literal(1), Literal(3))) is False
        assert (
            value(Between(Literal(0), Literal(1), Literal(3), negated=True))
            is True
        )

    def test_like_patterns(self):
        def like(text, pattern):
            return value(Like(Literal(text), Literal(pattern)))

        assert like("hello", "h%") is True
        assert like("hello", "%llo") is True
        assert like("hello", "h_llo") is True
        assert like("hello", "x%") is False
        assert like("h.llo", "h.llo") is True  # dot is literal
        assert like("hxllo", "h.llo") is False
        assert like("Hello", "h%") is False  # case-sensitive: a declared difference

    def test_case(self):
        expr = Case(
            [(BinaryOp("=", Param(0), Literal(1)), Literal("one"))],
            Literal("other"),
        )
        assert value(expr, (1,)) == "one"
        assert value(expr, (2,)) == "other"

    def test_case_without_else_yields_null(self):
        expr = Case([(Literal(False), Literal("x"))], None)
        assert value(expr) is None


class TestHelpers:
    def test_split_and_conjoin(self):
        a, b, c = Literal(1), Literal(2), Literal(3)
        tree = BinaryOp("AND", BinaryOp("AND", a, b), c)
        assert split_conjuncts(tree) == [a, b, c]
        rebuilt = conjoin([a, b, c])
        assert split_conjuncts(rebuilt) == [a, b, c]
        assert conjoin([]) is None
        assert split_conjuncts(None) == []

    def test_contains_aggregate(self):
        assert contains_aggregate(FuncCall("COUNT", [], star=True))
        assert contains_aggregate(
            BinaryOp("+", FuncCall("SUM", [ColumnRef("a")]), Literal(1))
        )
        assert not contains_aggregate(FuncCall("UPPER", [ColumnRef("a")]))

    def test_assign_param_indexes(self):
        p1, p2 = Param(-1), Param(-1)
        expr = BinaryOp("AND", p1, p2)
        count = assign_param_indexes([expr])
        assert count == 2
        assert (p1.index, p2.index) == (0, 1)

    def test_param_out_of_range(self):
        assert error(Param(2), (1,)) == (
            "statement uses parameter #3 but only 1 were supplied"
        )

    def test_sql_rendering_roundtrip_shapes(self):
        expr = BinaryOp(
            "AND",
            BinaryOp("=", ColumnRef("a", "t"), Literal("x")),
            IsNull(ColumnRef("b"), negated=True),
        )
        text = expr.sql()
        assert "t.a" in text and "'x'" in text and "IS NOT NULL" in text
