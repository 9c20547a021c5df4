"""Edge sizes of ``Cursor.fetchmany`` on streamed and materialized results.

The cursor reads both kinds through the result's iterator; a size that
asks for nothing returns nothing and moves the cursor by no row.
"""

import pytest

from repro.db import Database, connect

from eager_reads import ReadLog


@pytest.fixture(params=["streamed", "materialized"])
def cursor(request):
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER)")
    for k in range(5):
        db.execute("INSERT INTO t VALUES (?)", (k,))
    if request.param == "materialized":
        db.add_observer(ReadLog())  # a statement trace needs the full drain
    cur = connect(db).cursor()
    cur.execute("SELECT k FROM t ORDER BY k")
    assert cur.result.streaming is (request.param == "streamed")
    return cur


@pytest.mark.parametrize("size", [0, -1, -7])
def test_a_size_below_one_fetches_nothing(cursor, size):
    assert cursor.fetchmany(size) == []
    assert [row[0] for row in cursor.fetchall()] == [0, 1, 2, 3, 4]
    assert cursor.rowcount == 5


def test_fetchmany_takes_arraysize_by_default(cursor):
    cursor.arraysize = 2
    assert [row[0] for row in cursor.fetchmany()] == [0, 1]
    assert [row[0] for row in cursor.fetchmany(10)] == [2, 3, 4]
    assert cursor.fetchmany() == []
