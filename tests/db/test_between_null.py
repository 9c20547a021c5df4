"""``BETWEEN`` with a NULL bound, against stdlib ``sqlite3``.

``x BETWEEN lo AND hi`` is three-valued ``lo <= x AND x <= hi``: a bound
that is not NULL and fails makes it false (so its NOT true) whatever the
other bound is, and it is NULL only when no bound fails and one is NULL.
Every case runs as a rowless program (constant ``SELECT`` lists and
``evaluate_rowless``) and as a per-row program (``WHERE`` filters and
computed columns over a table).
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.db import Database
from repro.db.expr import Between, Literal
from repro.db.sql.planner import evaluate_rowless

ROWS = [
    (1, 5, None, 3),
    (2, 5, 1, None),
    (3, 5, None, None),
    (4, None, 1, 9),
    (5, 2, None, 3),
    (6, 5, 7, None),
    (7, 5, 1, 9),
    (8, 0, 1, 9),
]

EXPRESSIONS = [
    "a BETWEEN b AND c",
    "a NOT BETWEEN b AND c",
    "a BETWEEN b AND 3",
    "a NOT BETWEEN b AND 3",
    "a BETWEEN 1 AND c",
    "a NOT BETWEEN 6 AND c",
    "a BETWEEN NULL AND c",
    "a NOT BETWEEN b AND NULL",
]

CONSTANTS = [
    "5 BETWEEN NULL AND 3",
    "5 NOT BETWEEN NULL AND 3",
    "5 BETWEEN NULL AND 9",
    "5 NOT BETWEEN NULL AND 9",
    "5 BETWEEN 7 AND NULL",
    "5 NOT BETWEEN 7 AND NULL",
    "5 BETWEEN 1 AND NULL",
    "5 BETWEEN NULL AND NULL",
    "NULL BETWEEN 1 AND 9",
    "NULL NOT BETWEEN 9 AND 1",
]


def as_sqlite(value):
    """A truth value as sqlite3 spells it."""
    return int(value) if isinstance(value, bool) else value


@pytest.fixture(scope="module")
def pair():
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE t (id INTEGER, a INTEGER, b INTEGER, c INTEGER)")
    lite.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", ROWS)
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER, a INTEGER, b INTEGER, c INTEGER)")
    db.insert_rows("t", ROWS)
    yield db, lite
    lite.close()


@pytest.mark.parametrize("expression", EXPRESSIONS)
def test_a_where_filter_keeps_what_sqlite_keeps(pair, expression):
    db, lite = pair
    sql = f"SELECT id FROM t WHERE {expression} ORDER BY id"
    assert db.execute(sql).rows == [tuple(row) for row in lite.execute(sql)]


@pytest.mark.parametrize("expression", EXPRESSIONS)
def test_a_computed_column_is_what_sqlite_computes(pair, expression):
    db, lite = pair
    sql = f"SELECT id, {expression} FROM t ORDER BY id"
    got = [(row[0], as_sqlite(row[1])) for row in db.execute(sql).rows]
    assert got == [tuple(row) for row in lite.execute(sql)]


@pytest.mark.parametrize("expression", CONSTANTS)
def test_a_constant_is_what_sqlite_computes(pair, expression):
    db, lite = pair
    sql = f"SELECT {expression}"
    assert as_sqlite(db.execute(sql).scalar()) == lite.execute(sql).fetchone()[0]


@pytest.mark.parametrize("negated", [False, True])
def test_the_rowless_program_agrees(pair, negated):
    _db, lite = pair
    for value in (5, None):
        for low in (1, 7, None):
            for high in (3, 9, None):
                got = evaluate_rowless(
                    Between(Literal(value), Literal(low), Literal(high), negated), ()
                )
                word = "NOT BETWEEN" if negated else "BETWEEN"
                want = lite.execute(f"SELECT ? {word} ? AND ?", (value, low, high))
                assert as_sqlite(got) == want.fetchone()[0], (value, low, high)
