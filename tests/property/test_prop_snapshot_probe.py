"""Property test: index probes below the latest state, over random histories.

A read at an old CSN probes the latest-state index and widens it by the
rows that left their key since (``TableStore.moved_after``): an equality
or IN probe by the entries filed under its own keys, a range probe by
every entry. Each example writes a random history to ``t (id, k, v)`` —
inserts, re-keys (``A -> B -> A`` among them), value-only updates,
deletes, a delete then a re-insert under the old row id, vacuums, and an
``AS OF`` read part-way through, so the log is built from the version
chains and then extended by the write path — on memory or paged storage,
then holds every probe at every readable CSN to a full versioned scan
filtered in Python.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings, strategies as st

from repro.db import Database

N_IDS = 8
KEYS = st.integers(0, 4)
idents = st.integers(0, N_IDS - 1)

steps = st.one_of(
    st.tuples(st.just("insert"), idents, KEYS),
    st.tuples(st.just("rekey"), idents, KEYS),
    st.tuples(st.just("rekey_back"), idents, KEYS),
    st.tuples(st.just("value"), idents, st.just(0)),
    st.tuples(st.just("delete"), idents, st.just(0)),
    st.tuples(st.just("reinsert"), idents, KEYS),
    st.tuples(st.just("vacuum"), st.just(0), st.just(0)),
    st.tuples(st.just("read"), st.just(0), KEYS),
)

#: (sql, params, Python twin of the WHERE clause over (id, k, v)).
QUERIES = [
    *(("SELECT id, k, v FROM t WHERE k = ?", (key,), lambda r, p: r[1] == p[0]) for key in range(5)),
    ("SELECT id, k, v FROM t WHERE k IN (1, 3, NULL)", (), lambda r, p: r[1] in (1, 3)),
    ("SELECT id, k, v FROM t WHERE k >= ? AND k < ?", (1, 3), lambda r, p: p[0] <= r[1] < p[1]),
]


def open_db(storage: str, data_dir: str) -> Database:
    if storage == "paged":
        return Database(
            storage="paged", data_dir=data_dir, buffer_pool_pages=4, page_size=512
        )
    return Database(storage="memory")


def live_row_id(db: Database, ident: int) -> int | None:
    for row_id, row in db.store("t").scan(None):
        if row[0] == ident:
            return row_id
    return None


def apply(db: Database, step: tuple, gone: dict[int, int]) -> None:
    """Run one step; ``gone`` maps a deleted ident to its old row id."""
    kind, ident, key = step
    row_id = live_row_id(db, ident)
    if kind == "insert" and row_id is None and ident not in gone:
        db.execute("INSERT INTO t VALUES (?, ?, ?)", (ident, key, "new"))
    elif kind == "rekey" and row_id is not None:
        db.execute("UPDATE t SET k = ? WHERE id = ?", (key, ident))
    elif kind == "rekey_back" and row_id is not None:
        (old,) = db.execute("SELECT k FROM t WHERE id = ?", (ident,)).rows[0]
        db.execute("UPDATE t SET k = ? WHERE id = ?", ((key + 1) % 5, ident))
        db.execute("UPDATE t SET k = ? WHERE id = ?", (old, ident))
    elif kind == "value" and row_id is not None:
        db.execute("UPDATE t SET v = v || 'x' WHERE id = ?", (ident,))
    elif kind == "delete" and row_id is not None:
        db.execute("DELETE FROM t WHERE id = ?", (ident,))
        gone[ident] = row_id
    elif kind == "reinsert" and ident in gone:
        txn = db.begin()
        txn.insert_with_id("t", (ident, key, "back"), gone.pop(ident))
        txn.commit()
    elif kind == "vacuum" and db.last_csn > 2:
        db.vacuum(keep_after_csn=db.last_csn - 2)
    elif kind == "read":
        db.execute("SELECT id FROM t WHERE k = ? AS OF ?", (key, max(db.last_csn - 1, 0)))


def check_every_csn(db: Database) -> None:
    store = db.store("t")
    last = db.last_csn  # SELECTs below consume CSNs; fix the range first
    for csn in range(db.history_horizon, last + 1):
        for sql, params, pred in QUERIES:
            got = db.execute(f"{sql} AS OF ?", (*params, csn)).rows
            expected = sorted(row for _rid, row in store.scan(csn) if pred(row, params))
            assert sorted(got) == expected, (sql, params, csn)


@settings(max_examples=60, deadline=None)
@given(
    storage=st.sampled_from(["memory", "paged"]),
    sorted_index=st.booleans(),
    history=st.lists(steps, min_size=1, max_size=25),
)
def test_every_probe_at_every_csn_matches_the_versioned_scan(storage, sorted_index, history):
    with tempfile.TemporaryDirectory() as data_dir:
        db = open_db(storage, data_dir)
        db.execute("CREATE TABLE t (id INTEGER, k INTEGER, v TEXT)")
        db.create_index("ix_k", "t", ["k"], sorted_index=sorted_index)
        for ident in range(N_IDS // 2):
            db.execute("INSERT INTO t VALUES (?, ?, ?)", (ident, ident % 5, "v"))
        gone: dict[int, int] = {}
        for step in history:
            apply(db, step, gone)
        check_every_csn(db)
        db.close()
