"""``%`` against stdlib ``sqlite3``: the remainder takes the dividend's sign.

``-7 % 3`` is -1 and ``7 % -3`` is 1 in SQLite, Postgres and MySQL (a
floored remainder would give 2 and -2). Integer operands are held to
SQLite. Every case runs as a rowless program (constant ``SELECT`` lists
and ``evaluate_rowless``) and as a per-row program (``WHERE`` filters and
computed columns over a table).

Float operands follow ``math.fmod``, as Postgres does; that is a declared
difference from SQLite, which truncates float operands to integers first
(``7.5 % 2`` is 1.0 there, 1.5 here).
"""

from __future__ import annotations

import math
import sqlite3

import pytest

from repro.db import Database
from repro.db.expr import BinaryOp, Literal
from repro.db.sql.planner import evaluate_rowless

PAIRS = [
    (-7, 3),
    (7, -3),
    (-7, -3),
    (7, 3),
    (-6, 3),
    (6, -3),
    (0, -5),
    (-1, 10),
    (-(2**40) - 3, 7),
    (2**40 + 3, -7),
    (None, 3),
    (-7, None),
]


@pytest.fixture(scope="module")
def pair():
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE t (id INTEGER, a INTEGER, b INTEGER)")
    rows = [(i, a, b) for i, (a, b) in enumerate(PAIRS)]
    lite.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER, a INTEGER, b INTEGER)")
    db.insert_rows("t", rows)
    yield db, lite
    lite.close()


def test_a_computed_column_is_what_sqlite_computes(pair):
    db, lite = pair
    sql = "SELECT id, a % b, -a % b FROM t ORDER BY id"
    assert db.execute(sql).rows == [tuple(row) for row in lite.execute(sql)]


@pytest.mark.parametrize("remainder", [-2, -1, 0, 1, 2])
def test_a_where_filter_keeps_what_sqlite_keeps(pair, remainder):
    db, lite = pair
    sql = "SELECT id FROM t WHERE a % b = ? ORDER BY id"
    got = db.execute(sql, (remainder,)).rows
    assert got == [tuple(row) for row in lite.execute(sql, (remainder,))]


@pytest.mark.parametrize("a, b", PAIRS)
def test_a_constant_is_what_sqlite_computes(pair, a, b):
    db, lite = pair
    literal = {None: "NULL"}
    sql = f"SELECT {literal.get(a, a)} % {literal.get(b, b)}"
    assert db.execute(sql).scalar() == lite.execute(sql).fetchone()[0]


@pytest.mark.parametrize("a, b", PAIRS)
def test_the_rowless_program_agrees(pair, a, b):
    _db, lite = pair
    got = evaluate_rowless(BinaryOp("%", Literal(a), Literal(b)), ())
    assert got == lite.execute("SELECT ? % ?", (a, b)).fetchone()[0]


@pytest.mark.parametrize("a, b", [(7.5, 2), (-7.5, 2), (7.5, -2), (-7, 2.5), (6.0, 3)])
def test_float_operands_follow_fmod(pair, a, b):
    db, _lite = pair
    rowless = db.execute(f"SELECT {a} % {b}").scalar()
    compiled = db.execute("SELECT ? % ? FROM t WHERE id = 0", (a, b)).scalar()
    assert rowless == compiled == math.fmod(a, b)
