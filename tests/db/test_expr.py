"""Unit tests for expression evaluation (interpreter path) and helpers."""

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
    Scope,
    UnaryOp,
    assign_param_indexes,
    conjoin,
    contains_aggregate,
    split_conjuncts,
    truthy,
)
from repro.errors import ExecutionError


def scope(**bindings) -> Scope:
    s = Scope()
    for name, value in bindings.items():
        s.bind("t", name, value)
    return s


class TestScope:
    def test_qualified_and_unqualified(self):
        s = scope(a=1)
        assert s.lookup("t", "a") == 1
        assert s.lookup(None, "a") == 1

    def test_case_insensitive(self):
        s = scope(UserId="U1")
        assert s.lookup(None, "userid") == "U1"
        assert s.lookup("T", "USERID") == "U1"

    def test_ambiguous_unqualified(self):
        s = Scope()
        s.bind("a", "x", 1)
        s.bind("b", "x", 2)
        with pytest.raises(ExecutionError, match="ambiguous"):
            s.lookup(None, "x")
        assert s.lookup("a", "x") == 1
        assert s.lookup("b", "x") == 2

    def test_unknown_column(self):
        with pytest.raises(ExecutionError):
            scope(a=1).lookup(None, "zzz")


class TestThreeValuedLogic:
    def test_comparison_with_null_is_null(self):
        expr = BinaryOp("=", Literal(None), Literal(1))
        assert expr.eval(Scope()) is None

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
            assert expr.eval(Scope()) is expected

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
            assert expr.eval(Scope()) is expected

    def test_not_null_is_null(self):
        assert UnaryOp("NOT", Literal(None)).eval(Scope()) is None

    def test_truthy_only_on_true(self):
        assert truthy(True)
        assert not truthy(None)
        assert not truthy(False)
        assert not truthy(1)


class TestOperators:
    def test_arithmetic(self):
        s = Scope()
        assert BinaryOp("+", Literal(2), Literal(3)).eval(s) == 5
        assert BinaryOp("-", Literal(2), Literal(3)).eval(s) == -1
        assert BinaryOp("*", Literal(2), Literal(3)).eval(s) == 6
        assert BinaryOp("%", Literal(7), Literal(3)).eval(s) == 1

    def test_integer_division_stays_integer_when_exact(self):
        assert BinaryOp("/", Literal(6), Literal(3)).eval(Scope()) == 2
        assert isinstance(BinaryOp("/", Literal(6), Literal(3)).eval(Scope()), int)
        assert BinaryOp("/", Literal(7), Literal(2)).eval(Scope()) == 3.5

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError):
            BinaryOp("/", Literal(1), Literal(0)).eval(Scope())
        with pytest.raises(ExecutionError, match="modulo by zero"):
            BinaryOp("%", Literal(1), Literal(0)).eval(Scope())

    def test_arithmetic_with_null(self):
        assert BinaryOp("+", Literal(None), Literal(1)).eval(Scope()) is None

    def test_concat(self):
        assert BinaryOp("||", Literal("a"), Literal("b")).eval(Scope()) == "ab"

    def test_comparisons(self):
        s = Scope()
        assert BinaryOp("<", Literal(1), Literal(2)).eval(s) is True
        assert BinaryOp(">=", Literal(2), Literal(2)).eval(s) is True
        assert BinaryOp("!=", Literal(1), Literal(2)).eval(s) is True
        assert BinaryOp("<>", Literal(1), Literal(1)).eval(s) is False

    def test_unary_minus(self):
        assert UnaryOp("-", Literal(5)).eval(Scope()) == -5
        assert UnaryOp("-", Literal(None)).eval(Scope()) is None


class TestPredicates:
    def test_is_null(self):
        assert IsNull(Literal(None)).eval(Scope()) is True
        assert IsNull(Literal(1)).eval(Scope()) is False
        assert IsNull(Literal(1), negated=True).eval(Scope()) is True

    def test_in_list(self):
        expr = InList(Literal(2), [Literal(1), Literal(2)])
        assert expr.eval(Scope()) is True
        expr = InList(Literal(3), [Literal(1), Literal(2)])
        assert expr.eval(Scope()) is False

    def test_in_list_null_semantics(self):
        # 3 IN (1, NULL) is NULL (unknown), not FALSE.
        expr = InList(Literal(3), [Literal(1), Literal(None)])
        assert expr.eval(Scope()) is None
        # 1 IN (1, NULL) is TRUE.
        expr = InList(Literal(1), [Literal(1), Literal(None)])
        assert expr.eval(Scope()) is True

    def test_not_in(self):
        expr = InList(Literal(3), [Literal(1)], negated=True)
        assert expr.eval(Scope()) is True

    def test_between(self):
        assert Between(Literal(2), Literal(1), Literal(3)).eval(Scope()) is True
        assert Between(Literal(0), Literal(1), Literal(3)).eval(Scope()) is False
        assert (
            Between(Literal(0), Literal(1), Literal(3), negated=True).eval(Scope())
            is True
        )

    def test_like_patterns(self):
        def like(value, pattern):
            return Like(Literal(value), Literal(pattern)).eval(Scope())

        assert like("hello", "h%") is True
        assert like("hello", "%llo") is True
        assert like("hello", "h_llo") is True
        assert like("hello", "x%") is False
        assert like("h.llo", "h.llo") is True  # dot is literal
        assert like("hxllo", "h.llo") is False

    def test_case(self):
        expr = Case(
            [(BinaryOp("=", Param(0), Literal(1)), Literal("one"))],
            Literal("other"),
        )
        s = Scope(params=(1,))
        assert expr.eval(s) == "one"
        s = Scope(params=(2,))
        assert expr.eval(s) == "other"

    def test_case_without_else_yields_null(self):
        expr = Case([(Literal(False), Literal("x"))], None)
        assert expr.eval(Scope()) is None


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
        with pytest.raises(ExecutionError):
            Param(2).eval(Scope(params=(1,)))

    def test_sql_rendering_roundtrip_shapes(self):
        expr = BinaryOp(
            "AND",
            BinaryOp("=", ColumnRef("a", "t"), Literal("x")),
            IsNull(ColumnRef("b"), negated=True),
        )
        text = expr.sql()
        assert "t.a" in text and "'x'" in text and "IS NOT NULL" in text
