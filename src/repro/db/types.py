"""Column types and value handling for the database engine.

The engine supports a small but complete set of scalar types. Values are
plain Python objects (``int``, ``float``, ``str``, ``bool``, ``None``); this
module centralizes coercion, inference, comparison, and rendering so the
rest of the engine never special-cases type logic.
"""

from __future__ import annotations

import enum
from typing import Any, Iterable

from repro.errors import TypeCoercionError


class ColumnType(enum.Enum):
    """Scalar column types supported by the engine."""

    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    TEXT = "TEXT"
    BOOLEAN = "BOOLEAN"
    TIMESTAMP = "TIMESTAMP"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: SQL type-name spellings accepted by ``CREATE TABLE``.
SQL_TYPE_NAMES: dict[str, ColumnType] = {
    "INT": ColumnType.INTEGER,
    "INTEGER": ColumnType.INTEGER,
    "BIGINT": ColumnType.INTEGER,
    "SMALLINT": ColumnType.INTEGER,
    "FLOAT": ColumnType.FLOAT,
    "DOUBLE": ColumnType.FLOAT,
    "REAL": ColumnType.FLOAT,
    "DECIMAL": ColumnType.FLOAT,
    "NUMERIC": ColumnType.FLOAT,
    "TEXT": ColumnType.TEXT,
    "VARCHAR": ColumnType.TEXT,
    "CHAR": ColumnType.TEXT,
    "STRING": ColumnType.TEXT,
    "BOOL": ColumnType.BOOLEAN,
    "BOOLEAN": ColumnType.BOOLEAN,
    "TIMESTAMP": ColumnType.TIMESTAMP,
    "DATETIME": ColumnType.TIMESTAMP,
}


#: The Python type a non-NULL value of each column type is stored as:
#: :func:`coerce` returns a value of exactly this type unchanged.
STORAGE_TYPES: dict[ColumnType, type] = {
    ColumnType.INTEGER: int,
    ColumnType.FLOAT: float,
    ColumnType.TEXT: str,
    ColumnType.BOOLEAN: bool,
    ColumnType.TIMESTAMP: int,
}


def type_from_sql_name(name: str) -> ColumnType:
    """Resolve a SQL type spelling (case-insensitive) to a :class:`ColumnType`."""
    try:
        return SQL_TYPE_NAMES[name.upper()]
    except KeyError:
        raise TypeCoercionError(f"unknown SQL type name: {name!r}") from None


def infer_type(value: Any) -> ColumnType:
    """Infer the narrowest :class:`ColumnType` for a Python value.

    ``bool`` is checked before ``int`` because it is an ``int`` subclass.
    ``None`` has no type; callers must handle it before inferring.
    """
    if value is None:
        raise TypeCoercionError("cannot infer a column type for NULL")
    if isinstance(value, bool):
        return ColumnType.BOOLEAN
    if isinstance(value, int):
        return ColumnType.INTEGER
    if isinstance(value, float):
        return ColumnType.FLOAT
    if isinstance(value, str):
        return ColumnType.TEXT
    raise TypeCoercionError(f"unsupported Python value type: {type(value).__name__}")


def coerce(value: Any, col_type: ColumnType) -> Any:
    """Coerce ``value`` to ``col_type``, raising :class:`TypeCoercionError`.

    ``None`` passes through (nullability is enforced by the schema, not
    here), and a float NaN is stored as NULL, as a NaN parameter binds.
    Lossless widenings are allowed (int -> float); lossy or cross-kind
    conversions (str -> int) are rejected to keep the engine predictable.
    """
    if value is None:
        return None
    if col_type is ColumnType.BOOLEAN:
        if isinstance(value, bool):
            return value
        raise TypeCoercionError(f"expected BOOLEAN, got {value!r}")
    if col_type is ColumnType.INTEGER or col_type is ColumnType.TIMESTAMP:
        if isinstance(value, bool):
            raise TypeCoercionError(f"expected {col_type}, got BOOLEAN {value!r}")
        if isinstance(value, int):
            return value if type(value) is int else int(value)  # an exact int
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise TypeCoercionError(f"expected {col_type}, got {value!r}")
    if col_type is ColumnType.FLOAT:
        if isinstance(value, bool):
            raise TypeCoercionError(f"expected FLOAT, got BOOLEAN {value!r}")
        if isinstance(value, (int, float)):
            value = float(value)
            return value if value == value else None
        raise TypeCoercionError(f"expected FLOAT, got {value!r}")
    if col_type is ColumnType.TEXT:
        if isinstance(value, str):
            return value
        raise TypeCoercionError(f"expected TEXT, got {value!r}")
    raise TypeCoercionError(f"unknown column type {col_type!r}")  # pragma: no cover


#: Cross-type ordering class: NULL < BOOLEAN < numbers < TEXT. A
#: ``(SORT_CLASS[type(v)], v)`` pair orders, hashes and tests equal as
#: :func:`compare_values` does ``v`` — but entirely in C, because a value
#: only ever meets one of its own class: the class in front decides
#: first. ORDER BY, DISTINCT, GROUP BY, literal IN lists and sorted
#: indexes all key on these pairs.
SORT_CLASS = {type(None): -1, bool: 0, int: 1, float: 1, str: 2}


def compare_values(a: Any, b: Any) -> int:
    """Total-order comparison used by ORDER BY and sorted indexes.

    Returns -1, 0, or 1. NULL sorts before every non-NULL value; values of
    different kinds order by kind (bool < numeric < text) so mixed columns
    still sort deterministically.
    """
    ka, kb = SORT_CLASS[type(a)], SORT_CLASS[type(b)]
    if ka != kb:
        return -1 if ka < kb else 1
    if a is None and b is None:
        return 0
    if a == b:
        return 0
    return -1 if a < b else 1


def index_key(values: Iterable[Any]) -> tuple:
    """Flat ``(class, value, class, value, ...)`` key of a column tuple.

    Tuples of these order exactly as :func:`compare_values` orders the
    columns left to right (see :data:`SORT_CLASS`), so ``sort``,
    ``insort``, ``bisect`` and hashing never call back into Python.
    """
    key: tuple = ()
    for value in values:
        key += (SORT_CLASS[type(value)], value)
    return key


def render_value(value: Any) -> str:
    """Render a value the way result tables display it (NULL as ``null``)."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def sql_literal(value: Any) -> str:
    """Render a value as a SQL literal (used by tooling that emits SQL)."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)
