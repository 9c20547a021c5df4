"""Expression AST shared by the SQL parser, planner, and executor.

A tree here is data: it renders back to SQL (``sql()``) and walks its
children, and nothing in this module evaluates it. Every expression runs
as a program generated from the tree by :mod:`repro.db.sql.compile` — per
row over a plan node's layout, or once per statement over no columns
(:func:`repro.db.sql.planner.evaluate_rowless`).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence


class Expr:
    """Base class for expression nodes."""

    #: ``(row, params) -> value`` over no columns, built the first time
    #: :func:`~repro.db.sql.planner.evaluate_rowless` runs this node. A
    #: parsed statement is shared by every execution of its text, so its
    #: LIMIT, INSERT VALUES and probe keys are generated once, not per call.
    rowless: Callable | None = None

    def sql(self) -> str:
        """Render back to SQL text (used in provenance ``Query`` columns)."""
        raise NotImplementedError

    def children(self) -> tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterable["Expr"]:
        yield self
        for child in self.children():
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.sql()})"


class Literal(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        return repr(self.value)


class Param(Expr):
    """A positional ``?`` placeholder."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def sql(self) -> str:
        return "?"


class ColumnRef(Expr):
    __slots__ = ("qualifier", "column")

    def __init__(self, column: str, qualifier: str | None = None):
        self.qualifier = qualifier
        self.column = column

    def sql(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.column}"
        return self.column


class Star(Expr):
    """``*`` in a projection or ``COUNT(*)``; never evaluated directly."""

    __slots__ = ("qualifier",)

    def __init__(self, qualifier: str | None = None):
        self.qualifier = qualifier

    def sql(self) -> str:
        return f"{self.qualifier}.*" if self.qualifier else "*"


class BinaryOp(Expr):
    """Arithmetic, comparison, and logical binary operators."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op.upper() if op.upper() in ("AND", "OR") else op
        self.left = left
        self.right = right

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


class UnaryOp(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        self.op = op.upper() if op.upper() == "NOT" else op
        self.operand = operand

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def sql(self) -> str:
        return f"({self.op} {self.operand.sql()})"


class IsNull(Expr):
    __slots__ = ("operand", "negated")

    def __init__(self, operand: Expr, negated: bool = False):
        self.operand = operand
        self.negated = negated

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.sql()} {suffix})"


class InList(Expr):
    __slots__ = ("operand", "items", "negated")

    def __init__(self, operand: Expr, items: Sequence[Expr], negated: bool = False):
        self.operand = operand
        self.items = tuple(items)
        self.negated = negated

    def children(self) -> tuple[Expr, ...]:
        return (self.operand, *self.items)

    def sql(self) -> str:
        inner = ", ".join(i.sql() for i in self.items)
        word = "NOT IN" if self.negated else "IN"
        return f"({self.operand.sql()} {word} ({inner}))"


class Between(Expr):
    __slots__ = ("operand", "low", "high", "negated")

    def __init__(self, operand: Expr, low: Expr, high: Expr, negated: bool = False):
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated

    def children(self) -> tuple[Expr, ...]:
        return (self.operand, self.low, self.high)

    def sql(self) -> str:
        word = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.operand.sql()} {word} {self.low.sql()} AND {self.high.sql()})"


class Like(Expr):
    __slots__ = ("operand", "pattern", "negated")

    def __init__(self, operand: Expr, pattern: Expr, negated: bool = False):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated

    def children(self) -> tuple[Expr, ...]:
        return (self.operand, self.pattern)

    def sql(self) -> str:
        word = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand.sql()} {word} {self.pattern.sql()})"


class Case(Expr):
    """``CASE WHEN cond THEN value ... [ELSE value] END``."""

    __slots__ = ("branches", "default")

    def __init__(self, branches: Sequence[tuple[Expr, Expr]], default: Expr | None):
        self.branches = tuple(branches)
        self.default = default

    def children(self) -> tuple[Expr, ...]:
        out: list[Expr] = []
        for cond, value in self.branches:
            out.extend((cond, value))
        if self.default is not None:
            out.append(self.default)
        return tuple(out)

    def sql(self) -> str:
        parts = ["CASE"]
        for cond, value in self.branches:
            parts.append(f"WHEN {cond.sql()} THEN {value.sql()}")
        if self.default is not None:
            parts.append(f"ELSE {self.default.sql()}")
        parts.append("END")
        return " ".join(parts)


class FuncCall(Expr):
    """Scalar or aggregate function call.

    Aggregates (``COUNT``, ``SUM``, ...) are recognized by the planner and
    never reach a scalar program; scalar functions dispatch through the
    function registry in :mod:`repro.db.sql.functions`.
    """

    __slots__ = ("name", "args", "distinct", "star")

    def __init__(
        self,
        name: str,
        args: Sequence[Expr],
        distinct: bool = False,
        star: bool = False,
    ):
        self.name = name.upper()
        self.args = tuple(args)
        self.distinct = distinct
        self.star = star

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def sql(self) -> str:
        if self.star:
            return f"{self.name}(*)"
        inner = ", ".join(a.sql() for a in self.args)
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.name}({prefix}{inner})"


# ---------------------------------------------------------------------------
# Analysis helpers used by the planner
# ---------------------------------------------------------------------------


def contains_aggregate(expr: Expr) -> bool:
    from repro.db.sql.functions import AGGREGATE_NAMES

    return any(
        isinstance(node, FuncCall) and node.name in AGGREGATE_NAMES
        for node in expr.walk()
    )


def split_conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a WHERE tree into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: Sequence[Expr]) -> Expr | None:
    """Rebuild an AND tree from conjuncts (None when empty)."""
    result: Expr | None = None
    for conjunct in conjuncts:
        result = conjunct if result is None else BinaryOp("AND", result, conjunct)
    return result


def assign_param_indexes(exprs: Iterable[Expr | None]) -> int:
    """Number ``?`` placeholders left-to-right across the statement.

    The parser creates :class:`Param` nodes with index -1; this pass
    assigns final positions and returns the parameter count.
    """
    count = 0
    for expr in exprs:
        if expr is None:
            continue
        for node in expr.walk():
            if isinstance(node, Param):
                node.index = count
                count += 1
    return count
