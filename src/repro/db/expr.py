"""Expression AST shared by the SQL parser, planner, and executor.

Expressions evaluate against a :class:`Scope` (column name -> value
bindings, plus statement parameters). SQL three-valued logic is
implemented faithfully: comparisons involving NULL yield NULL, ``AND`` /
``OR`` follow Kleene logic, and WHERE treats anything but TRUE as
filtered out.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import Any, Callable, Iterable, Sequence

from repro.db.types import compare_values
from repro.errors import ExecutionError


class Scope:
    """Column bindings for one logical row during evaluation.

    Bindings are keyed by ``(qualifier, column)`` with lowercase strings;
    unqualified lookups succeed only when unambiguous. ``params`` holds
    positional statement parameters (``?`` placeholders).
    """

    __slots__ = ("_qualified", "_unqualified", "params")

    _AMBIGUOUS = object()

    def __init__(self, params: Sequence[Any] = ()):
        self._qualified: dict[tuple[str, str], Any] = {}
        self._unqualified: dict[str, Any] = {}
        self.params = params

    def bind(self, qualifier: str | None, column: str, value: Any) -> None:
        col = column.lower()
        if qualifier is not None:
            self._qualified[(qualifier.lower(), col)] = value
        if col in self._unqualified and self._unqualified[col] is not value:
            self._unqualified[col] = Scope._AMBIGUOUS
        else:
            self._unqualified[col] = value

    def bind_row(
        self, qualifier: str | None, columns: Iterable[str], values: Sequence[Any]
    ) -> None:
        for column, value in zip(columns, values):
            self.bind(qualifier, column, value)

    def lookup(self, qualifier: str | None, column: str) -> Any:
        col = column.lower()
        if qualifier is not None:
            key = (qualifier.lower(), col)
            if key in self._qualified:
                return self._qualified[key]
            raise ExecutionError(f"unknown column {qualifier}.{column}")
        if col in self._unqualified:
            value = self._unqualified[col]
            if value is Scope._AMBIGUOUS:
                raise ExecutionError(f"ambiguous column reference: {column}")
            return value
        raise ExecutionError(f"unknown column {column}")

    def child(self) -> "Scope":
        """A copy sharing params; used for nested evaluation contexts."""
        scope = Scope(self.params)
        scope._qualified = dict(self._qualified)
        scope._unqualified = dict(self._unqualified)
        return scope


class Expr:
    """Base class for expression nodes."""

    def eval(self, scope: Scope) -> Any:
        raise NotImplementedError

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

    def eval(self, scope: Scope) -> Any:
        return self.value

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

    def eval(self, scope: Scope) -> Any:
        try:
            return scope.params[self.index]
        except IndexError:
            raise ExecutionError(
                f"statement uses parameter #{self.index + 1} but only "
                f"{len(scope.params)} were supplied"
            ) from None

    def sql(self) -> str:
        return "?"


class ColumnRef(Expr):
    __slots__ = ("qualifier", "column")

    def __init__(self, column: str, qualifier: str | None = None):
        self.qualifier = qualifier
        self.column = column

    def eval(self, scope: Scope) -> Any:
        return scope.lookup(self.qualifier, self.column)

    def sql(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.column}"
        return self.column


class Star(Expr):
    """``*`` in a projection or ``COUNT(*)``; never evaluated directly."""

    __slots__ = ("qualifier",)

    def __init__(self, qualifier: str | None = None):
        self.qualifier = qualifier

    def eval(self, scope: Scope) -> Any:  # pragma: no cover - guarded upstream
        raise ExecutionError("'*' cannot be evaluated as a scalar expression")

    def sql(self) -> str:
        return f"{self.qualifier}.*" if self.qualifier else "*"


def _null_if_any_null(fn: Callable[..., Any]) -> Callable[..., Any]:
    def wrapped(*args: Any) -> Any:
        if any(a is None for a in args):
            return None
        return fn(*args)

    return wrapped


def _div(a: Any, b: Any) -> Any:
    if b == 0:
        raise ExecutionError("division by zero")
    result = a / b
    if isinstance(a, int) and isinstance(b, int) and result == int(result):
        return int(result)
    return result


def _mod(a: Any, b: Any) -> Any:
    if isinstance(a, str) or isinstance(b, str):
        # ``str % x`` is printf formatting in Python — it can "succeed" or
        # raise ValueError depending on the string's contents. SQL modulo
        # is numeric only; fail like every other operand-type mismatch.
        raise TypeError("modulo requires numeric operands")
    if b == 0:
        raise ExecutionError("modulo by zero")
    if isinstance(a, float) or isinstance(b, float):
        # Truncated division's remainder, as Postgres computes it (SQLite
        # truncates float operands to integers first).
        return math.fmod(a, b)
    # The remainder takes the dividend's sign, as in SQLite, Postgres and
    # MySQL: -7 % 3 is -1, 7 % -3 is 1.
    remainder = abs(a) % abs(b)
    return -remainder if a < 0 else remainder


def _concat(a: Any, b: Any) -> Any:
    return f"{a}{b}"


_ARITH_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": _null_if_any_null(lambda a, b: a + b),
    "-": _null_if_any_null(lambda a, b: a - b),
    "*": _null_if_any_null(lambda a, b: a * b),
    "/": _null_if_any_null(_div),
    "%": _null_if_any_null(_mod),
    "||": _null_if_any_null(_concat),
}

_COMPARISONS: dict[str, Callable[[int], bool]] = {
    "=": lambda c: c == 0,
    "==": lambda c: c == 0,
    "!=": lambda c: c != 0,
    "<>": lambda c: c != 0,
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}


class BinaryOp(Expr):
    """Arithmetic, comparison, and logical binary operators."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op.upper() if op.upper() in ("AND", "OR") else op
        self.left = left
        self.right = right

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def eval(self, scope: Scope) -> Any:
        op = self.op
        if op == "AND":
            left = self.left.eval(scope)
            if left is False:
                return False
            right = self.right.eval(scope)
            if right is False:
                return False
            if left is None or right is None:
                return None
            return True
        if op == "OR":
            left = self.left.eval(scope)
            if left is True:
                return True
            right = self.right.eval(scope)
            if right is True:
                return True
            if left is None or right is None:
                return None
            return False
        left = self.left.eval(scope)
        right = self.right.eval(scope)
        if op in _COMPARISONS:
            if left is None or right is None:
                return None
            return _COMPARISONS[op](compare_values(left, right))
        if op in _ARITH_OPS:
            try:
                return _ARITH_OPS[op](left, right)
            except TypeError:
                raise ExecutionError(f"invalid operands for {op}") from None
        raise ExecutionError(f"unknown operator {op!r}")  # pragma: no cover

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


class UnaryOp(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        self.op = op.upper() if op.upper() == "NOT" else op
        self.operand = operand

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def eval(self, scope: Scope) -> Any:
        value = self.operand.eval(scope)
        if self.op == "NOT":
            if value is None:
                return None
            return not value
        if value is None:
            return None
        if self.op == "-":
            try:
                return -value
            except TypeError:
                raise ExecutionError("invalid operand for -") from None
        if self.op == "+":
            return value
        raise ExecutionError(f"unknown unary operator {self.op!r}")  # pragma: no cover

    def sql(self) -> str:
        return f"({self.op} {self.operand.sql()})"


class IsNull(Expr):
    __slots__ = ("operand", "negated")

    def __init__(self, operand: Expr, negated: bool = False):
        self.operand = operand
        self.negated = negated

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def eval(self, scope: Scope) -> Any:
        is_null = self.operand.eval(scope) is None
        return not is_null if self.negated else is_null

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

    def eval(self, scope: Scope) -> Any:
        value = self.operand.eval(scope)
        if value is None:
            return None
        saw_null = False
        found = False
        for item in self.items:
            candidate = item.eval(scope)
            if candidate is None:
                saw_null = True
            elif compare_values(value, candidate) == 0:
                found = True
                break
        if found:
            return not self.negated
        if saw_null:
            return None
        return self.negated

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

    def eval(self, scope: Scope) -> Any:
        """Three-valued ``low <= value AND value <= high``: a NULL bound
        leaves the answer NULL only while the other bound does not already
        make it false."""
        value = self.operand.eval(scope)
        low = self.low.eval(scope)
        high = self.high.eval(scope)
        if value is None:
            return None
        above = None if low is None else compare_values(value, low) >= 0
        below = None if high is None else compare_values(value, high) <= 0
        if above is False or below is False:
            inside = False
        elif above is None or below is None:
            return None
        else:
            inside = True
        return not inside if self.negated else inside

    def sql(self) -> str:
        word = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.operand.sql()} {word} {self.low.sql()} AND {self.high.sql()})"


@lru_cache(maxsize=512)
def like_regex(pattern: str) -> re.Pattern:
    """The regex a LIKE pattern means: ``%`` any run, ``_`` any one character.

    Kept per pattern text, so a pattern that arrives as a parameter or a
    column value is translated once, not once per row it is matched against.
    """
    out = []
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    return re.compile("".join(out), re.DOTALL)


class Like(Expr):
    __slots__ = ("operand", "pattern", "negated")

    def __init__(self, operand: Expr, pattern: Expr, negated: bool = False):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated

    def children(self) -> tuple[Expr, ...]:
        return (self.operand, self.pattern)

    def eval(self, scope: Scope) -> Any:
        value = self.operand.eval(scope)
        pattern = self.pattern.eval(scope)
        if value is None or pattern is None:
            return None
        matched = bool(like_regex(str(pattern)).fullmatch(str(value)))
        return not matched if self.negated else matched

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

    def eval(self, scope: Scope) -> Any:
        for cond, value in self.branches:
            if cond.eval(scope) is True:
                return value.eval(scope)
        if self.default is not None:
            return self.default.eval(scope)
        return None

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
    never reach :meth:`eval`; scalar functions dispatch through the
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

    def eval(self, scope: Scope) -> Any:
        from repro.db.sql.functions import AGGREGATE_NAMES, call_scalar

        if self.name in AGGREGATE_NAMES:
            raise ExecutionError(
                f"aggregate {self.name} used outside an aggregating query"
            )
        return call_scalar(self.name, [a.eval(scope) for a in self.args])

    def sql(self) -> str:
        if self.star:
            return f"{self.name}(*)"
        inner = ", ".join(a.sql() for a in self.args)
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.name}({prefix}{inner})"


# ---------------------------------------------------------------------------
# Analysis helpers used by the planner
# ---------------------------------------------------------------------------


def column_refs(expr: Expr) -> list[ColumnRef]:
    return [node for node in expr.walk() if isinstance(node, ColumnRef)]


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


def truthy(value: Any) -> bool:
    """SQL WHERE semantics: only TRUE passes (NULL and FALSE do not)."""
    return value is True


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
