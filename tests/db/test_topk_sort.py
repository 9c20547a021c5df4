"""ORDER BY under a LIMIT sorts only the rows the LIMIT can return.

``SortNode`` evaluates its leading key, and every later key that can
raise, over every row. Under a LIMIT wanting ``k`` rows (``limit +
offset``), fewer than its input, a pull then hands the full multi-key
sort only the head: the rows at or before the ``k``-th best leading key,
ties included. The rest is sorted only if a consumer pulls again. A
streamed cursor's priming pull sorts nothing, and ``first()`` (one row)
or ``one()`` (two) set the limit of the pull after it. These tests spy on ``SortNode._ordered`` to see how many rows each sort was
given, hold a key that raises outside the head to failing the statement,
and hold a traced top-k to the read provenance a whole sort records.
"""

from __future__ import annotations

import random

import pytest

import repro
from repro.core import Trod
from repro.db import Database
from repro.db.sql import executor
from repro.db.sql.parser import parse_sql
from repro.errors import ExecutionError

N_ROWS = 5000
SQL = "SELECT id, val FROM items ORDER BY val DESC, id LIMIT 10"


def items() -> list[tuple[int, int]]:
    rng = random.Random(7)
    return [(i, rng.randrange(1000)) for i in range(N_ROWS)]


def loaded() -> Database:
    db = Database(storage="memory")
    db.execute("CREATE TABLE items (id INTEGER, val INTEGER)")
    txn = db.begin()
    for row in items():
        db.execute("INSERT INTO items VALUES (?, ?)", row, txn=txn)
    txn.commit()
    return db


def expected(limit: int) -> list[tuple[int, int]]:
    return sorted(items(), key=lambda r: (-r[1], r[0]))[:limit]


def head_size(limit: int) -> int:
    """Rows whose val is at or above the ``limit``-th largest."""
    bound = expected(limit)[-1][1]
    return sum(1 for _i, v in items() if v >= bound)


#: LIMIT 10's head.
HEAD = head_size(10)


@pytest.fixture
def sorted_sizes(monkeypatch) -> list[int]:
    """How many rows each multi-key sort was given, in call order."""
    sizes: list[int] = []
    ordered = executor.SortNode._ordered

    def spy(self, rows, params, known=None):
        sizes.append(len(rows))
        return ordered(self, rows, params, known)

    monkeypatch.setattr(executor.SortNode, "_ordered", spy)
    return sizes


def test_a_top_k_sorts_only_its_head(sorted_sizes):
    db = loaded()
    assert db.execute(SQL).rows == expected(10)
    assert sorted_sizes == [HEAD]
    assert HEAD < 20


#: The head of a stream's first row: every row with the largest val.
FIRST_HEAD = head_size(1)
BARE = "SELECT id, val FROM items ORDER BY val DESC, id"


def test_a_streamed_limit_sorts_its_head(sorted_sizes):
    conn = repro.connect(loaded())
    # The stream's first pull asks for one row; the LIMIT's ten bound the head.
    assert [tuple(row) for row in conn.execute(SQL)] == expected(10)
    assert sorted_sizes == [HEAD]


def test_first_on_a_bare_stream_sorts_only_the_first_rows_head(sorted_sizes):
    """No LIMIT: priming pins the stream and sorts nothing, then
    ``first()`` asks for one row, so the sort orders only that row's
    head."""
    conn = repro.connect(loaded())
    assert conn.execute(BARE).first() == expected(1)[0]
    assert sorted_sizes == [FIRST_HEAD]
    assert FIRST_HEAD < 20


def test_one_on_a_bare_stream_sorts_a_two_row_head_and_fails(sorted_sizes):
    db = loaded()
    with pytest.raises(ExecutionError, match="several"):
        db.execute(BARE, stream=True).one()
    assert sorted_sizes == [head_size(2)]
    assert head_size(2) < 20


def test_a_bare_stream_taken_whole_sorts_whole(sorted_sizes):
    conn = repro.connect(loaded())
    assert [tuple(row) for row in conn.execute(BARE)] == expected(N_ROWS)
    assert sorted_sizes == [N_ROWS]


def test_the_rest_is_sorted_when_pulled(sorted_sizes):
    """A consumer that pulls past the head gets the rest, in order."""
    db = loaded()
    plan, _names = db.select_plan(parse_sql(SQL))
    while not isinstance(plan, executor.SortNode):
        plan = plan.child
    txn = db.begin()
    ctx = executor.ExecContext(db, txn, (), SQL, False, row_budget=10, row_limit=10)
    chunks = list(plan.batches(ctx))
    txn.abort()
    assert [len(chunk) for chunk in chunks] == [HEAD, N_ROWS - HEAD]
    assert [row[:2] for chunk in chunks for row in chunk] == expected(N_ROWS)
    assert sorted_sizes == [HEAD, N_ROWS - HEAD]


def test_a_limit_at_or_past_its_input_sorts_whole(sorted_sizes):
    db = loaded()
    for limit in (N_ROWS, N_ROWS + 1):
        sql = f"SELECT id, val FROM items ORDER BY val DESC, id LIMIT {limit}"
        assert db.execute(sql).rows == expected(N_ROWS)
    assert sorted_sizes == [N_ROWS, N_ROWS]


@pytest.mark.parametrize("limit", ["", " LIMIT 1", " LIMIT 3 OFFSET 2"])
@pytest.mark.parametrize("n_rows", [3, 64, N_ROWS])
def test_a_key_that_raises_outside_the_head_fails_the_statement(limit, n_rows):
    """The failing row has the lowest ``val``: far outside any head."""
    db = Database()
    db.execute("CREATE TABLE items (id INTEGER, val INTEGER)")
    rows = [(i, i + 1) for i in range(n_rows)]
    rows[n_rows // 2] = (n_rows // 2, 0)
    for row in rows:
        db.execute("INSERT INTO items VALUES (?, ?)", row)
    sql = f"SELECT id FROM items ORDER BY val DESC, 10 / val{limit}"
    with pytest.raises(ExecutionError, match="division by zero"):
        db.execute(sql)
    with pytest.raises(ExecutionError, match="division by zero"):
        repro.connect(db).execute(sql).first()


def staged_scans(sql: str) -> tuple[list[tuple], list[tuple], dict]:
    """The rows ``sql`` returns traced, its staged scan headers with their
    Query text blanked, and its scans' params and filters."""
    db = loaded()
    trod = Trod(db, buffer_capacity=10**9)
    conn = repro.connect(db, trod=trod)
    trod.buffer.drain()
    rows = conn.execute(sql).rows
    _rows, batches, scans = trod.buffer.drain()
    assert not batches.get("items")  # no Read rows: one predicate
    headers, params, filters = scans["items"]
    headers = [(*header[:3], None, *header[4:]) for header in headers]
    return rows, headers, (params, filters)


def test_a_traced_top_k_stages_the_scan_a_whole_sort_stages(sorted_sizes):
    rows, headers, rest = staged_scans(SQL)
    assert sorted_sizes == [HEAD]
    sorted_sizes.clear()
    whole_rows, whole_headers, whole_rest = staged_scans(
        "SELECT id, val FROM items ORDER BY val DESC, id"
    )
    assert sorted_sizes == [N_ROWS]
    assert rows == expected(10) == whole_rows[:10]
    assert (headers, rest) == (whole_headers, whole_rest)
    assert [header[6] for header in headers] == [N_ROWS]  # one ScanRead of every row
