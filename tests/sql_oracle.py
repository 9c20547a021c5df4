"""The engine's SQL held to stdlib ``sqlite3``: the dialect table and a
node-by-node reference.

The engine has one expression semantics, the programs of
``repro.db.sql.compile``. They answer to two references:

* SQLite (``sqlite3.connect(":memory:")``) for the dialect both share;
* :data:`DIFFERENCES`, the one list of where the engine deliberately
  differs. Each row says what the engine does, what SQLite does, how
  ``tests/db/test_sqlite_differential.py`` avoids or normalises it, and
  shows both sides with examples that the differential runs.

:func:`reference` evaluates an expression tree over a row one node at a
time. A node's operands run in the engine's order (the "Errors" row), then
its value comes from the first row of :data:`DIFFERENCES` whose ``model``
covers it, or else from SQLite running that one operator over the operand
values. A model is a small rule for one declared difference, not a second
evaluator: everything the dialects share is SQLite's answer.
"""

from __future__ import annotations

import math
import sqlite3
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.db.expr import (
    Between,
    BinaryOp,
    Case,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Param,
    UnaryOp,
)
from repro.db.sql.functions import _SCALARS
from repro.db.sql.planner import NO_COLUMNS, Layout, SlotRef
from repro.errors import ExecutionError

#: A model's answer when its difference does not cover the node.
PASS = object()
#: An example answer: the statement fails (``ExecutionError`` from the
#: engine, ``sqlite3.Error`` from SQLite).
ERROR = "<error>"

_COMPARISONS = ("=", "==", "!=", "<>", "<", "<=", ">", ">=")
_ARITHMETIC = ("+", "-", "*", "/", "%")
#: Arguments a function reads as numbers: position -> how it reads TEXT
#: (None: it does not).
_NUMERIC_ARGS = {
    "ABS": {0: None},
    "ROUND": {0: float, 1: int},
    "SUBSTR": {1: int, 2: int},
    "SUBSTRING": {1: int, 2: int},
}
#: Arguments a function reads as text, by position (None: all of them).
_TEXT_ARGS = {
    "UPPER": (0,), "LOWER": (0,), "LENGTH": (0,), "TRIM": (0,),
    "SUBSTR": (0,), "SUBSTRING": (0,), "REPLACE": None, "CONCAT": None,
}


class Truth(Expr):
    """A value in boolean position (AND, OR, NOT, CASE WHEN, WHERE, HAVING,
    ON): the reference's name for the truth rule, so a row can cover it."""

    def sql(self) -> str:
        return "<truth>"


TRUTH = Truth()
#: Operators the reference asks about by themselves (their operands unused).
_EQUALS = BinaryOp("=", Literal(None), Literal(None))
_AND = BinaryOp("AND", Literal(None), Literal(None))
_OR = BinaryOp("OR", Literal(None), Literal(None))
_NOT = UnaryOp("NOT", Literal(None))


# ---------------------------------------------------------------------------
# SQLite, one operator at a time
# ---------------------------------------------------------------------------

_LITE = sqlite3.connect(":memory:")
# The "LIKE" row: SQLite folds ASCII case in LIKE unless told not to.
_LITE.execute("PRAGMA case_sensitive_like = ON")


def _node_sql(node: Expr, arity: int) -> str:
    """``node`` as one SQLite operator over ``arity`` ``?`` operands."""
    marks = ", ".join("?" * arity)
    if isinstance(node, Truth):
        return "CASE WHEN ?1 THEN 1 WHEN NOT ?1 THEN 0 END"
    if isinstance(node, BinaryOp):
        return f"? {node.op} ?"
    if isinstance(node, UnaryOp):
        return f"{node.op} ?"
    if isinstance(node, IsNull):
        return "? IS NOT NULL" if node.negated else "? IS NULL"
    if isinstance(node, Between):
        return f"? {'NOT ' * node.negated}BETWEEN ? AND ?"
    if isinstance(node, InList):
        return f"? {'NOT ' * node.negated}IN ({', '.join('?' * (arity - 1))})"
    if isinstance(node, Like):
        return f"? {'NOT ' * node.negated}LIKE ?"
    if isinstance(node, FuncCall):
        return f"{node.name}({marks})"
    raise AssertionError(f"no SQLite operator for {node!r}")


def _is_predicate(node: Expr) -> bool:
    if isinstance(node, BinaryOp):
        return node.op in _COMPARISONS or node.op in ("AND", "OR")
    if isinstance(node, UnaryOp):
        return node.op == "NOT"
    return isinstance(node, (Truth, IsNull, Between, InList, Like))


def _passes_through(node: Expr) -> bool:
    """Whether ``node``'s value is one of its operands."""
    if isinstance(node, UnaryOp):
        return node.op == "+"
    return isinstance(node, FuncCall) and node.name in (
        "COALESCE", "IFNULL", "NULLIF", "REPLACE"
    )


def lite_sql(sql: str, values: Sequence[Any]) -> Any:
    """The one value ``SELECT sql`` gives on SQLite with ``values`` bound."""
    try:
        return _LITE.execute(f"SELECT {sql}", tuple(values)).fetchone()[0]
    except sqlite3.Error as exc:  # a reference bug, not an engine answer
        raise AssertionError(f"SQLite refused SELECT {sql} {values!r}: {exc}")


def lite(node: Expr, values: Sequence[Any]) -> Any:
    """SQLite's value for ``node`` over ``values``, typed as the engine
    types it (the "BOOLEAN" row): a predicate's 1/0 is TRUE/FALSE, and an
    operator that returns an operand returns that operand as it came."""
    result = lite_sql(_node_sql(node, len(values)), values)
    if result is None:
        return None
    if _is_predicate(node):
        return bool(result)
    if _passes_through(node):
        for value in values:
            image = int(value) if value.__class__ is bool else value
            if value is not None and image.__class__ is result.__class__ and image == result:
                return value
    return result


# ---------------------------------------------------------------------------
# The declared differences
# ---------------------------------------------------------------------------


def _nonnull(values: Sequence[Any]) -> bool:
    return all(v is not None for v in values)


def _errors(node: Expr, values: Sequence[Any]) -> Any:
    if not isinstance(node, FuncCall):
        return PASS
    spec = _SCALARS.get(node.name)
    if spec is None:
        raise ExecutionError(f"unknown function {node.name}()")
    _fn, lo, hi = spec
    if len(values) < lo or (hi is not None and len(values) > hi):
        raise ExecutionError(
            f"{node.name}() takes {lo}{'+' if hi is None else f'..{hi}'} "
            f"arguments, got {len(values)}"
        )
    return PASS


def _text_as_number(node: Expr, values: Sequence[Any]) -> Any:
    if not _nonnull(values):
        return PASS
    if isinstance(node, BinaryOp) and node.op in _ARITHMETIC:
        if any(isinstance(v, str) for v in values):
            raise ExecutionError(f"invalid operands for {node.op}")
    elif isinstance(node, UnaryOp) and node.op == "-" and isinstance(values[0], str):
        raise ExecutionError("invalid operand for -")
    elif isinstance(node, FuncCall) and node.name in _NUMERIC_ARGS:
        name = "SUBSTR" if node.name == "SUBSTRING" else node.name
        numbers, read_text = list(values), False
        for position, read in _NUMERIC_ARGS[node.name].items():
            if position < len(values) and isinstance(values[position], str):
                try:
                    numbers[position] = read(values[position])
                except (TypeError, ValueError):
                    raise ExecutionError(f"{name}() cannot take {values[position]!r}")
                read_text = True
        if read_text:
            return step(node, numbers)
    return PASS


def _text_as_truth(node: Expr, values: Sequence[Any]) -> Any:
    if isinstance(node, Truth) and isinstance(values[0], str):
        raise ExecutionError(f"TEXT {values[0]!r} is not a truth value")
    return PASS


def _division_by_zero(node: Expr, values: Sequence[Any]) -> Any:
    if isinstance(node, BinaryOp) and node.op in ("/", "%") and _nonnull(values):
        if values[1] == 0:
            word = "division" if node.op == "/" else "modulo"
            raise ExecutionError(f"{word} by zero")
    return PASS


def _infinities(node: Expr, values: Sequence[Any]) -> Any:
    if not _nonnull(values) or not any(isinstance(v, float) and math.isinf(v) for v in values):
        return PASS
    if isinstance(node, BinaryOp) and node.op == "%" and values[1] != 0:
        if isinstance(values[0], float) and math.isinf(values[0]):
            return None
    elif isinstance(node, FuncCall) and node.name == "ROUND" and math.isinf(values[0]):
        raise ExecutionError(f"ROUND() cannot take {values[0]!r}")
    return PASS


def _boolean(node: Expr, values: Sequence[Any]) -> Any:
    """Where a BOOLEAN meets a number or TEXT: it sorts below both. BETWEEN,
    IN and NULLIF are then their standard definitions over ``=``/``<=``."""
    kinds = {v.__class__ is bool for v in values if v is not None}
    if isinstance(node, FuncCall) and node.name == "TYPEOF" and values[0].__class__ is bool:
        return "BOOLEAN"
    if kinds != {True, False}:
        return PASS
    if isinstance(node, BinaryOp) and node.op in _COMPARISONS:
        bool_first = values[0].__class__ is bool
        return {
            "=": False, "==": False, "!=": True, "<>": True,
            "<": bool_first, "<=": bool_first, ">": not bool_first, ">=": not bool_first,
        }[node.op]
    if isinstance(node, Between):
        value, low, high = values
        inside = step(_AND, [_compare("<=", low, value), _compare("<=", value, high)])
        return step(_NOT, [inside]) if node.negated else inside
    if isinstance(node, InList):
        found: Any = False
        for item in values[1:]:
            found = step(_OR, [found, _compare("=", values[0], item)])
        return step(_NOT, [found]) if node.negated else found
    if isinstance(node, FuncCall) and node.name == "NULLIF":
        return None if _compare("=", *values) is True else values[0]
    return PASS


def _compare(op: str, a: Any, b: Any) -> Any:
    return step(BinaryOp(op, Literal(a), Literal(b)), [a, b])


def _as_text(value: Any) -> Any:
    return str(value) if isinstance(value, (float, bool)) else value


def _value_as_text(node: Expr, values: Sequence[Any]) -> Any:
    if isinstance(node, FuncCall) and node.name == "REPLACE" and _as_text(values[1]) == "":
        return PASS  # an empty search returns the value as it came
    if isinstance(node, BinaryOp) and node.op == "||":
        positions: Sequence[int] = range(2)
    elif isinstance(node, Like):
        positions = range(2)
    elif isinstance(node, FuncCall) and node.name in _TEXT_ARGS:
        positions = _TEXT_ARGS[node.name] or range(len(values))
    else:
        return PASS
    if not any(isinstance(values[p], (float, bool)) for p in positions):
        return PASS
    texts = [_as_text(v) if p in positions else v for p, v in enumerate(values)]
    return step(node, texts)


def _integer_division(node: Expr, values: Sequence[Any]) -> Any:
    if isinstance(node, BinaryOp) and node.op == "/" and _nonnull(values):
        a, b = values
        if isinstance(a, int) and isinstance(b, int):
            quotient = a / b
            return int(quotient) if quotient == int(quotient) else quotient
    return PASS


def _float_modulo(node: Expr, values: Sequence[Any]) -> Any:
    if isinstance(node, BinaryOp) and node.op == "%" and _nonnull(values):
        if any(isinstance(v, float) for v in values):
            return math.fmod(*values)
    return PASS


def _round(node: Expr, values: Sequence[Any]) -> Any:
    if isinstance(node, FuncCall) and node.name == "ROUND" and _nonnull(values):
        places = int(values[1]) if len(values) > 1 else 0
        result = round(float(values[0]), places)
        return int(result) if places == 0 else result
    return PASS


def _typeof(node: Expr, values: Sequence[Any]) -> Any:
    if isinstance(node, FuncCall) and node.name == "TYPEOF":
        return {"integer": "INTEGER", "real": "FLOAT", "text": "TEXT", "null": "NULL"}[
            lite(node, values)
        ]
    return PASS


def _coalesce_of_one(node: Expr, values: Sequence[Any]) -> Any:
    if isinstance(node, FuncCall) and node.name == "COALESCE" and len(values) == 1:
        return lite(node, [*values, None])
    return PASS


def _concat(node: Expr, values: Sequence[Any]) -> Any:
    if isinstance(node, FuncCall) and node.name == "CONCAT":
        return lite_sql(" || ".join(["COALESCE(?, '')"] * len(values)), values)
    return PASS


@dataclass(frozen=True)
class Difference:
    """One declared difference between the engine's SQL and SQLite's."""

    name: str
    engine: str
    sqlite: str
    #: What the differential does about it: "avoid: ..." or "normalise: ...".
    handling: str
    #: ``(SELECT text, engine answer, SQLite answer)``; run on a database
    #: holding :data:`EXAMPLE_TABLE`.
    examples: tuple[tuple[str, Any, Any], ...]
    #: ``(node, operand values) -> value``, or :data:`PASS` when the
    #: difference does not cover the node; None for rows no single
    #: expression node shows.
    model: Callable[[Expr, Sequence[Any]], Any] | None = None


#: The table the examples read: one row, ``(5, '5')``.
EXAMPLE_TABLE = ("CREATE TABLE t (i INTEGER, s TEXT)", "INSERT INTO t VALUES (5, '5')")

#: Every declared difference, in the order the reference consults them.
DIFFERENCES: tuple[Difference, ...] = (
    Difference(
        "Errors",
        "A failing operator raises an error and stops the statement. Operands "
        "run left to right; AND and OR skip the right side once the left "
        "decides, CASE stops at its first TRUE branch, IN at its first match "
        "and runs no item for a NULL operand. An unknown function or a wrong "
        "argument count fails when the call runs.",
        "An unknown function or a wrong argument count refuses the statement; "
        "no other expression here fails.",
        "avoid: the generator writes known functions, and no statement that can fail",
        (("SELECT CASE WHEN 1 = 1 THEN 1 ELSE NO_SUCH_FN(1) END", 1, ERROR),),
        _errors,
    ),
    Difference(
        "TEXT as a number",
        "TEXT in arithmetic or ABS is an error. ROUND and SUBSTR's positions "
        "take TEXT that Python reads as the number they want (ROUND('2.5'), "
        "SUBSTR(s, '2')), and fail on any other.",
        "Reads a number off the front of the text: 'a' is 0, '3x' is 3.",
        "avoid: the generator types its expressions",
        (("SELECT 'a' + 1", ERROR, 1), ("SELECT ABS('-5')", ERROR, 5.0),
         ("SELECT SUBSTR('abc', '2x')", ERROR, "bc")),
        _text_as_number,
    ),
    Difference(
        "TEXT as a truth value",
        "TEXT in boolean position (AND, OR, NOT, CASE WHEN, WHERE, HAVING, ON) "
        "is an error. A number is TRUE exactly when it is nonzero, as in SQLite.",
        "Reads a number off the front of the text, then tests it.",
        "avoid: only numbers and predicates stand in boolean position",
        (("SELECT CASE WHEN '1' THEN 1 ELSE 0 END", ERROR, 1),),
        _text_as_truth,
    ),
    Difference(
        "Division by zero",
        "x / 0 and x % 0 raise an error.",
        "NULL.",
        "avoid: every divisor is a nonzero literal",
        (("SELECT 1 / 0", ERROR, None), ("SELECT 1 % 0", ERROR, None)),
        _division_by_zero,
    ),
    Difference(
        "Infinities",
        "A FLOAT past the largest double is an infinity, as in SQLite. Where "
        "infinities meet in a NaN (inf - inf, inf * 0, inf / inf, a SUM or "
        "AVG of both) the value is NULL, and a NaN parameter binds as NULL, "
        "both as in SQLite. But an infinite dividend of % gives NULL, and "
        "ROUND of an infinity is an error.",
        "% truncates an infinite dividend to an integer first; ROUND keeps "
        "an infinity.",
        "avoid: values stay small, so no expression reaches an infinity",
        (("SELECT 1e308 * 10 - 1e308 * 10", None, None),
         ("SELECT (1e308 * 10) * 0", None, None),
         ("SELECT (1e308 * 10) / (1e308 * 10)", None, None),
         ("SELECT (1e308 * 10) % 2", None, 1.0),
         ("SELECT ROUND(1e308 * 10)", ERROR, math.inf)),
        _infinities,
    ),
    Difference(
        "BOOLEAN",
        "TRUE and FALSE are a type of their own. Predicates return them; they "
        "sort below every number and TEXT and equal none of them (TRUE = 1 is "
        "FALSE); a function that returns an argument returns it as it came.",
        "TRUE and FALSE are the integers 1 and 0.",
        "normalise: an answer's TRUE/FALSE compares (and sorts) as 1/0; avoid: "
        "a BOOLEAN is an operand of AND, OR, NOT and CASE WHEN only",
        (("SELECT TRUE = 1", False, 1), ("SELECT 1 < 2", True, 1),
         ("SELECT COALESCE(NULL, TRUE)", True, 1)),
        _boolean,
    ),
    Difference(
        "Values as TEXT",
        "A FLOAT or BOOLEAN used as TEXT (||, LIKE, LENGTH, UPPER, SUBSTR, ...) "
        "is Python's str of it: TRUE is 'True', 0.00001 is '1e-05'. An INTEGER "
        "reads as in SQLite.",
        "'1' and '1.0e-05' (15 significant digits).",
        "avoid: text operators take TEXT and INTEGER operands only, which read alike",
        (("SELECT TRUE || ''", "True", "1"), ("SELECT 0.00001 || ''", "1e-05", "1.0e-05")),
        _value_as_text,
    ),
    Difference(
        "INTEGER /",
        "A quotient of two INTEGERs that is not whole is a FLOAT: 7 / 2 is 3.5.",
        "Truncates: 7 / 2 is 3.",
        "avoid: the generator divides only by a FLOAT literal",
        (("SELECT 7 / 2", 3.5, 3),),
        _integer_division,
    ),
    Difference(
        "FLOAT %",
        "math.fmod, as Postgres: 7.5 % 2 is 1.5.",
        "Truncates the operands to integers first: 1.0.",
        "avoid: % takes INTEGER operands only",
        (("SELECT 7.5 % 2", 1.5, 1.0),),
        _float_modulo,
    ),
    Difference(
        "ROUND",
        "Python's round on the binary value, half to even, and an INTEGER for "
        "0 digits: ROUND(2.5) is 2, ROUND(2.675, 2) is 2.67, ROUND(15, -1) is 20.0.",
        "Half away from zero on the decimal text, always a REAL, negative "
        "digits read as 0: 3.0, 2.68, 15.0.",
        "avoid: the generator does not call ROUND",
        (("SELECT ROUND(2.5)", 2, 3.0), ("SELECT ROUND(2.675, 2)", 2.67, 2.68),
         ("SELECT ROUND(15, -1)", 20.0, 15.0)),
        _round,
    ),
    Difference(
        "TYPEOF",
        "Upper-case names: INTEGER, FLOAT, TEXT, BOOLEAN, NULL.",
        "integer, real, text, null.",
        "avoid: the generator does not call TYPEOF",
        (("SELECT TYPEOF(1.5)", "FLOAT", "real"), ("SELECT TYPEOF(TRUE)", "BOOLEAN", "integer")),
        _typeof,
    ),
    Difference(
        "COALESCE of one argument",
        "COALESCE(x) is x.",
        "Wants at least two arguments.",
        "avoid: the generator passes two",
        (("SELECT COALESCE(1)", 1, ERROR),),
        _coalesce_of_one,
    ),
    Difference(
        "CONCAT",
        "CONCAT(a, ...) joins the text of its non-NULL arguments.",
        "No such function (3.44 added one).",
        "avoid: the generator writes ||",
        (("SELECT CONCAT('a', NULL, 1)", "a1", ERROR),),
        _concat,
    ),
    Difference(
        "LIKE",
        "Case-sensitive.",
        "Folds ASCII case unless PRAGMA case_sensitive_like = ON.",
        "normalise: the oracle runs that PRAGMA",
        (("SELECT 'A' LIKE 'a'", False, 1),),
    ),
    Difference(
        "TEXT against a number",
        "A number never equals TEXT; numbers sort below all TEXT.",
        "The same for values, but a column's affinity first turns '5' into 5 "
        "when compared with an INTEGER column.",
        "avoid: every comparison, IN and BETWEEN has operands of one kind, "
        "save a span's TEXT bound on an INTEGER column, never numeric text",
        (("SELECT i = '5' FROM t", False, 1),),
    ),
    Difference(
        "Positions in GROUP BY and ORDER BY",
        "A number there is a constant: it groups or sorts nothing.",
        "The output column at that position (as in Postgres).",
        "avoid: every GROUP BY key reads a column, and ORDER BY names output aliases",
        (("SELECT COUNT(*) FROM t GROUP BY 2", 1, ERROR),),
    ),
    Difference(
        "INTEGER range",
        "Python ints: no overflow.",
        "64 bits: an overflowing sum turns REAL, SUM raises.",
        "avoid: values stay small",
        (("SELECT 9223372036854775807 + 1", 9223372036854775808, 9.223372036854776e18),),
    ),
    Difference(
        "Letter case outside ASCII",
        "UPPER and LOWER change every Unicode letter.",
        "ASCII letters only.",
        "avoid: generated text is ASCII",
        (("SELECT UPPER('é')", "É", "é"),),
    ),
)


def step(node: Expr, values: Sequence[Any]) -> Any:
    """``node``'s value over its evaluated operands: the first declared
    difference that covers it, else SQLite."""
    for row in DIFFERENCES:
        if row.model is not None:
            got = row.model(node, values)
            if got is not PASS:
                return got
    return lite(node, values)


def truth(value: Any) -> Any:
    """``value`` in boolean position: TRUE, FALSE or NULL."""
    return step(TRUTH, [value])


def equal(a: Any, b: Any) -> Any:
    """``a = b``: TRUE, FALSE or NULL."""
    return step(_EQUALS, [a, b])


# ---------------------------------------------------------------------------
# Whole trees
# ---------------------------------------------------------------------------


def reference(
    expr: Expr,
    row: Sequence[Any] = (),
    params: Sequence[Any] = (),
    layout: Layout = NO_COLUMNS,
) -> Any:
    """``expr`` over ``row`` (laid out by ``layout``), node by node."""

    def value(node: Expr) -> Any:
        if isinstance(node, Literal):
            return node.value
        if isinstance(node, Param):
            if node.index >= len(params):
                raise ExecutionError(
                    f"statement uses parameter #{node.index + 1} but only "
                    f"{len(params)} were supplied"
                )
            return params[node.index]
        if isinstance(node, SlotRef):
            return row[node.index]
        if isinstance(node, ColumnRef):
            return row[layout.slot(node.qualifier, node.column)]
        if isinstance(node, BinaryOp) and node.op in ("AND", "OR"):
            left = truth(value(node.left))
            if left is (node.op == "OR"):  # FALSE decides AND, TRUE decides OR
                return left
            return step(node, [left, truth(value(node.right))])
        if isinstance(node, UnaryOp) and node.op == "NOT":
            return step(node, [truth(value(node.operand))])
        if isinstance(node, Case):
            for cond, then in node.branches:
                if truth(value(cond)) is True:
                    return value(then)
            return None if node.default is None else value(node.default)
        if isinstance(node, InList):
            operand = value(node.operand)
            if operand is None:  # no item runs; SQLite's NULL IN (...) is NULL
                return step(node, [None] * (1 + len(node.items)))
            items = []
            for item in node.items:
                items.append(value(item))
                if equal(operand, items[-1]) is True:
                    break
            return step(node, [operand, *items])
        return step(node, [value(child) for child in node.children()])

    return value(expr)
