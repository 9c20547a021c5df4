"""Scalar and aggregate SQL functions.

Every scalar function is deterministic: a traced whole-table scan keeps
its pushed filter to re-run it over the same rows later (a
:class:`~repro.db.txn.manager.ScanRead`), so a function whose result
could change between two calls must not be added without excluding its
filters there (``ScanNode._reenactable``).
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Sequence

from repro.db.types import compare_values
from repro.errors import ExecutionError

# ---------------------------------------------------------------------------
# Scalar functions
# ---------------------------------------------------------------------------


def _upper(value: Any) -> Any:
    return None if value is None else str(value).upper()


def _lower(value: Any) -> Any:
    return None if value is None else str(value).lower()


def _length(value: Any) -> Any:
    return None if value is None else len(str(value))


def _arg(name: str, value: Any, convert: Callable[[Any], Any]) -> Any:
    """``convert(value)``; a value it rejects is an ``ExecutionError``."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ExecutionError(f"{name}() cannot take {value!r}") from None


def _abs(value: Any) -> Any:
    return None if value is None else _arg("ABS", value, abs)


def _round(value: Any, digits: Any = 0) -> Any:
    """Python's ``round`` on the binary value (half to even), an INTEGER
    for 0 digits: a declared difference from SQLite, which rounds half
    away from zero on the decimal text and always returns a REAL."""
    if value is None or digits is None:
        return None
    number, places = _arg("ROUND", value, float), _arg("ROUND", digits, int)
    result = round(number, places)
    return _arg("ROUND", result, int) if places == 0 else result


def _coalesce(*args: Any) -> Any:
    for arg in args:
        if arg is not None:
            return arg
    return None


def _nullif(a: Any, b: Any) -> Any:
    if a is not None and b is not None and compare_values(a, b) == 0:
        return None
    return a


def _ifnull(a: Any, b: Any) -> Any:
    return b if a is None else a


def _substr(value: Any, start: Any, *length: Any) -> Any:
    """1-based SUBSTR, as SQLite computes it.

    Positions before the first character count against the length
    (``SUBSTR('hello', 0, 2)`` is ``'h'``), a negative start counts from
    the end (``SUBSTR('hello', -3)`` is ``'llo'``), and a negative length
    takes the characters before the start (``SUBSTR('hello', 3, -2)`` is
    ``'he'``; Postgres raises an error there). A NULL length is NULL.
    """
    if value is None or start is None or None in length:
        return None
    text = str(value)
    begin = _arg("SUBSTR", start, int)
    count = _arg("SUBSTR", length[0], int) if length else sys.maxsize
    if begin < 0:  # from the end; what falls before the text is lost
        begin += len(text)
        count, begin = (max(count + begin, 0), 0) if begin < 0 else (count, begin)
    elif begin > 0:
        begin -= 1
    elif count > 0:
        count -= 1  # position 0 is before the first character
    if count < 0:  # the characters before the start
        begin, count = max(begin + count, 0), min(-count, begin)
    return text[begin : begin + count]


def _trim(value: Any) -> Any:
    """Spaces off both ends (not tabs or newlines), as SQLite and Postgres."""
    return None if value is None else str(value).strip(" ")


def _replace(value: Any, old: Any, new: Any) -> Any:
    """Every ``old`` in ``value``'s text made ``new``. An empty ``old``
    returns ``value`` as it is, as SQLite does (Python's ``str.replace``
    would insert ``new`` between every two characters)."""
    if value is None or old is None or new is None:
        return None
    old = str(old)
    return str(value).replace(old, str(new)) if old else value


def _concat(*args: Any) -> Any:
    return "".join("" if a is None else str(a) for a in args)


def _typeof(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "BOOLEAN"
    if isinstance(value, int):
        return "INTEGER"
    if isinstance(value, float):
        return "FLOAT"
    return "TEXT"


#: name -> (callable, min arity, max arity or None for variadic)
_SCALARS: dict[str, tuple[Callable[..., Any], int, int | None]] = {
    "UPPER": (_upper, 1, 1),
    "LOWER": (_lower, 1, 1),
    "LENGTH": (_length, 1, 1),
    "ABS": (_abs, 1, 1),
    "ROUND": (_round, 1, 2),
    "COALESCE": (_coalesce, 1, None),
    "NULLIF": (_nullif, 2, 2),
    "IFNULL": (_ifnull, 2, 2),
    "SUBSTR": (_substr, 2, 3),
    "SUBSTRING": (_substr, 2, 3),
    "TRIM": (_trim, 1, 1),
    "REPLACE": (_replace, 3, 3),
    "CONCAT": (_concat, 1, None),
    "TYPEOF": (_typeof, 1, 1),
}


def is_scalar_function(name: str) -> bool:
    return name.upper() in _SCALARS


def call_scalar(name: str, args: Sequence[Any]) -> Any:
    try:
        fn, lo, hi = _SCALARS[name.upper()]
    except KeyError:
        raise ExecutionError(f"unknown function {name}()") from None
    if len(args) < lo or (hi is not None and len(args) > hi):
        raise ExecutionError(
            f"{name}() takes {lo}{'+' if hi is None else f'..{hi}'} "
            f"arguments, got {len(args)}"
        )
    return fn(*args)


# ---------------------------------------------------------------------------
# Aggregate functions
# ---------------------------------------------------------------------------

AGGREGATE_NAMES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


class Accumulator:
    """Streaming accumulator for one aggregate over one group."""

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError


class _CountAcc(Accumulator):
    def __init__(self, star: bool, distinct: bool):
        self._star = star
        self._distinct = distinct
        self._count = 0
        self._seen: set[Any] = set()

    def add(self, value: Any) -> None:
        if self._star:
            self._count += 1
            return
        if value is None:
            return
        if self._distinct:
            self._seen.add(value)
        else:
            self._count += 1

    def result(self) -> int:
        return len(self._seen) if self._distinct else self._count


class _SumAcc(Accumulator):
    def __init__(self, distinct: bool, average: bool):
        self._distinct = distinct
        self._average = average
        self._values: list[Any] = []
        self._seen: set[Any] = set()

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._distinct:
            if value in self._seen:
                return
            self._seen.add(value)
        self._values.append(value)

    def result(self) -> Any:
        if not self._values:
            return None
        total = sum(self._values)
        if self._average:
            total /= len(self._values)
        return None if total != total else total  # inf + -inf is NaN: NULL


class _MinMaxAcc(Accumulator):
    def __init__(self, want_max: bool):
        self._want_max = want_max
        self._best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._best is None:
            self._best = value
            return
        cmp = compare_values(value, self._best)
        if (cmp > 0) if self._want_max else (cmp < 0):
            self._best = value

    def result(self) -> Any:
        return self._best


def make_accumulator(name: str, star: bool, distinct: bool) -> Accumulator:
    upper = name.upper()
    if upper == "COUNT":
        return _CountAcc(star=star, distinct=distinct)
    if upper == "SUM":
        return _SumAcc(distinct=distinct, average=False)
    if upper == "AVG":
        return _SumAcc(distinct=distinct, average=True)
    if upper == "MIN":
        return _MinMaxAcc(want_max=False)
    if upper == "MAX":
        return _MinMaxAcc(want_max=True)
    raise ExecutionError(f"unknown aggregate {name}()")  # pragma: no cover
