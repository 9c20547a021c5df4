"""Range probes on a sorted index over a column that holds NULLs.

A sorted index files no row whose leading column is NULL: its one reader
is a range probe, and no comparison with NULL is true. Whatever the plan,
a statement must do exactly what it does on a twin database that has no
index and scans. The twin's answer is the oracle here, for:

    predicate    <, <=, >, >=, BETWEEN (literals and parameters), and
                 IS NULL / IS NOT NULL, which stay filtered scans
    statement    SELECT | the match phase of UPDATE and DELETE
    history      as loaded | after rows moved between NULL and a value
    storage      in-memory | paged | segment
"""

from __future__ import annotations

import pytest

from repro.db import Database

DDL = "CREATE TABLE t (id INTEGER, x INTEGER, v TEXT)"
INDEX = "CREATE SORTED INDEX ix_x ON t (x)"


def initial_rows(n: int = 30) -> list[tuple]:
    """``x`` is NULL every third row, else spread over -4..5."""
    return [(i, None if i % 3 == 0 else i % 10 - 4, f"v{i}") for i in range(n)]


def open_db(storage: str, tmp_path, indexed: bool) -> Database:
    if storage == "paged":
        db = Database(
            storage="paged",
            data_dir=str(tmp_path / f"data-{indexed}"),
            buffer_pool_pages=4,
            page_size=512,
        )
    else:
        db = Database(storage=storage)
    db.execute(DDL)
    if indexed:
        db.execute(INDEX)
    db.insert_rows("t", initial_rows())
    return db


#: where clause -> (parameters, whether the indexed table plans a probe).
PREDICATES = {
    "x < 1": ((), True),
    "x <= ?": ((1,), True),
    "x > -2": ((), True),
    "x >= ?": ((-2,), True),
    "x > -3 AND x < 3": ((), True),
    "x BETWEEN -1 AND 2": ((), True),
    "x BETWEEN ? AND ?": ((0, 4), True),
    "x < ?": ((None,), True),
    "x IS NULL": ((), False),
    "x IS NOT NULL": ((), False),
}

STATEMENTS = {
    "select": "SELECT id, x, v FROM t WHERE {}",
    "update": "UPDATE t SET v = 'hit' WHERE {}",
    "delete": "DELETE FROM t WHERE {}",
}


def everything(db: Database) -> list[tuple]:
    return sorted(db.execute("SELECT id, x, v FROM t").rows)


def run(db: Database, statement: str, where: str, params: tuple):
    """A SELECT's rows, or a write's count and the table after it."""
    result = db.execute(STATEMENTS[statement].format(where), params)
    if statement == "select":
        return sorted(result.rows)
    return result.rowcount, everything(db)


def move_nulls(db: Database) -> None:
    """Rows leave NULL for a value and a value for NULL; one NULL row goes."""
    db.execute("UPDATE t SET x = 2 WHERE id IN (0, 3)")
    db.execute("UPDATE t SET x = NULL WHERE id IN (1, 8)")
    db.execute("DELETE FROM t WHERE id = 6")
    db.execute("INSERT INTO t VALUES (100, NULL, 'new'), (101, -4, 'new')")


@pytest.mark.parametrize("storage", ["memory", "paged", "segment"])
@pytest.mark.parametrize("statement", sorted(STATEMENTS))
@pytest.mark.parametrize("moved", [False, True])
@pytest.mark.parametrize("where", sorted(PREDICATES))
def test_range_probe_matches_the_unindexed_twin(
    storage, statement, moved, where, tmp_path
):
    params, probes = PREDICATES[where]
    probed, twin = (open_db(storage, tmp_path, indexed) for indexed in (True, False))
    if moved:
        for db in (probed, twin):
            move_nulls(db)
    explained = STATEMENTS[statement].format(where)
    assert ("range=ix_x[x]" in probed.explain(explained)[-1]) is probes
    assert "range=" not in twin.explain(explained)[-1]
    answer = run(probed, statement, where, params)
    assert answer == run(twin, statement, where, params)
    if params != (None,):
        assert answer and (statement == "select" or answer[0])
    probed.close()
    twin.close()


@pytest.mark.parametrize("storage", ["memory", "paged", "segment"])
def test_null_rows_cost_no_entry(storage, tmp_path):
    db = open_db(storage, tmp_path, indexed=True)
    index = db.index_set("t").indexes["ix_x"]
    non_null = [row for row in initial_rows() if row[1] is not None]
    assert len(index) == len(non_null)
    db.execute("UPDATE t SET x = NULL WHERE id = 1")
    db.execute("UPDATE t SET x = 7 WHERE id = 0")
    assert len(index) == len(non_null)
    db.close()
