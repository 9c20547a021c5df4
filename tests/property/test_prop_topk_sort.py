"""Property test: a bounded ORDER BY returns what the full sort returns.

Under a LIMIT, ``SortNode`` sorts only the head the LIMIT can return —
the rows whose leading key is at or before the ``(limit + offset)``-th
best, ties included — and the rest only if a consumer pulls again. Its
output must be the full stable multi-key sort, byte for byte, under every
consumer: a materialized read, a streamed cursor's ``first()``,
``fetchmany()`` and full iteration (row budgets 1, 2, 4, ...), with and
without LIMIT and OFFSET.

Rows repeat keys and hold NULLs; keys are INTEGER, FLOAT and TEXT columns
and expressions whose values mix those classes, one to three of them in
mixed directions. Every LIMIT below the input's size takes the bounded
path. Each statement is compared with the rows sorted whole in Python — a
stable sort under ``compare_values``, the order ORDER BY defines — and
sliced. One key, ``10 / (a - 1)``, raises on a row whose ``a`` is 1: then
the statement must fail whatever its LIMIT, as the whole sort does. NaN
keys are out of scope: they do not order, so no sort of them has a
defined order to compare with.
"""

from __future__ import annotations

import random
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.db import Database
from repro.db.types import compare_values
from repro.errors import ExecutionError

ints = st.one_of(st.none(), st.integers(-3, 3))
floats = st.one_of(st.none(), st.sampled_from([-1.5, 0.0, 0.5, 2.0, 3.25]))
texts = st.one_of(st.none(), st.sampled_from(["", "a", "ab", "b", "B"]))
rows = st.lists(st.tuples(ints, floats, texts), max_size=40)

#: ORDER BY keys over ``(id, a, f, s)``, each with its Python twin: plain
#: columns of each class, and expressions whose values mix classes (and so
#: order by ``SORT_CLASS`` first).
KEYS = {
    "a": lambda r: r[1],
    "f": lambda r: r[2],
    "s": lambda r: r[3],
    "id": lambda r: r[0],
    "a + f": lambda r: None if r[1] is None or r[2] is None else r[1] + r[2],
    "COALESCE(s, a)": lambda r: r[1] if r[3] is None else r[3],
    "CASE WHEN a > 0 THEN s ELSE f END": (
        lambda r: r[3] if r[1] is not None and r[1] > 0 else r[2]
    ),
    "10 / (a - 1)": lambda r: None if r[1] is None else 10 / (r[1] - 1),
}
#: The key that raises on a row whose ``a`` is 1.
RAISING = "10 / (a - 1)"
order_by = st.lists(
    st.tuples(st.sampled_from(sorted(KEYS)), st.sampled_from(["ASC", "DESC"])),
    min_size=1,
    max_size=3,
)
#: A LIMIT / OFFSET value: from 0 to past any row count; None leaves it out.
bounds = st.one_of(st.none(), st.integers(0, 45))
CONSUMERS = ("rows", "first", "fetchmany", "iterate")


def loaded(data: list[tuple]) -> tuple[Database, list[tuple]]:
    """A table of ``data`` (ids repeating), and its rows in scan order."""
    table = [(i % 7, *row) for i, row in enumerate(data)]
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER, a INTEGER, f FLOAT, s TEXT)")
    for row in table:
        db.execute("INSERT INTO t VALUES (?, ?, ?, ?)", row)
    return db, table


def sorted_in_python(table: list[tuple], keys: list[tuple[str, str]]) -> list[tuple]:
    def compare(x: tuple, y: tuple) -> int:
        for key, direction in keys:
            order = compare_values(KEYS[key](x), KEYS[key](y))
            if order:
                return order if direction == "ASC" else -order
        return 0

    return sorted(table, key=cmp_to_key(compare))


def raises(table: list[tuple], keys: list[tuple[str, str]]) -> bool:
    """Whether a key raises on some row, failing the whole sort."""
    return any(key == RAISING for key, _direction in keys) and any(
        row[1] == 1 for row in table
    )


def consume(db: Database, sql: str, consumer: str, size: int) -> list[tuple]:
    if consumer == "rows":
        return db.execute(sql).rows
    conn = repro.connect(db)
    if consumer == "first":
        row = conn.execute(sql).first()
        return [] if row is None else [row]
    if consumer == "fetchmany":
        cursor = conn.cursor()
        cursor.execute(sql)
        return [tuple(row) for row in cursor.fetchmany(size)]
    return [tuple(row) for row in conn.execute(sql)]


@settings(max_examples=300, deadline=None)
@given(
    data=rows,
    keys=order_by,
    limit=bounds,
    offset=bounds,
    consumer=st.sampled_from(CONSUMERS),
    size=st.integers(1, 45),
)
def test_bounded_sort_returns_the_full_sort_sliced(data, keys, limit, offset, consumer, size):
    db, table = loaded(data)
    order = ", ".join(f"{key} {direction}" for key, direction in keys)
    sql = f"SELECT id, a, f, s FROM t ORDER BY {order}"
    if limit is not None or offset is not None:
        sql += f" LIMIT {45 if limit is None else limit}"
        if offset is not None:
            sql += f" OFFSET {offset}"
    if raises(table, keys):
        if limit == 0:  # LIMIT 0 never pulls the sort
            assert consume(db, sql, consumer, size) == []
        else:
            with pytest.raises(ExecutionError, match="division by zero"):
                consume(db, sql, consumer, size)
        return
    full = sorted_in_python(table, keys)
    got = consume(db, sql, consumer, size)
    start = offset or 0
    expected = full[start:] if limit is None else full[start:start + limit]
    if consumer == "first":
        expected = expected[:1]
    elif consumer == "fetchmany":
        expected = expected[:size]
    assert got == expected


@settings(max_examples=50, deadline=None)
@given(
    keys=order_by,
    limit=st.integers(1, 40),
    consumer=st.sampled_from(CONSUMERS),
    seed=st.integers(0, 2**16),
)
def test_bounded_sort_over_a_larger_table(keys, limit, consumer, seed):
    """A few hundred rows under a small LIMIT, most of them outside the
    head, stay byte-identical."""
    rng = random.Random(seed)
    data = [
        (
            rng.choice([None, *range(-20, 20)]),
            rng.choice([None, 0.5, 1.0, 2.5]),
            rng.choice([None, "a", "b", "c"]),
        )
        for _ in range(300)
    ]
    db, table = loaded(data)
    order = ", ".join(f"{key} {direction}" for key, direction in keys)
    sql = f"SELECT id, a, f, s FROM t ORDER BY {order} LIMIT {limit}"
    if raises(table, keys):
        with pytest.raises(ExecutionError, match="division by zero"):
            consume(db, sql, consumer, limit)
        return
    got = consume(db, sql, consumer, limit)
    expected = sorted_in_python(table, keys)[:limit]
    if consumer == "first":
        expected = expected[:1]
    assert got == expected
