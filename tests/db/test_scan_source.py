"""Where a traced scan gets its rows.

``Transaction.scan`` hands out the store's pinned row source itself when
the transaction has written nothing to the table, and overlays its own
writes through ``_scan_pinned`` otherwise. The oracle here is a scan
that goes through ``_scan_pinned`` every time: a traced SELECT, UPDATE
or DELETE must return, record and leave in provenance exactly what it
does there, with and without an own pending insert, update or delete on
the table — recorded by the eager read recorder (``eager_reads.py``)
where the scan under test records its predicate. A pinned
source keeps serving its rows after a concurrent commit, and nothing
written to a read set or a provenance flush alters the store's
published row list.
"""

from __future__ import annotations

import pytest

from repro.core import Trod
from repro.db import Database, IsolationLevel
from repro.db.txn.manager import Transaction
from repro.runtime.scheduler import CooperativeScheduler

from eager_reads import ReadLog, eager_reads, read_rows

N_ROWS = 40

#: Own write made before the statement, in the same transaction.
OWN_WRITES = {
    "none": None,
    "insert": "INSERT INTO t VALUES (100, 7, 'own')",
    "update": "UPDATE t SET v = 'own', k = 5 WHERE id = 3",
    "delete": "DELETE FROM t WHERE id = 4",
}

STATEMENTS = {
    "select": "SELECT id, k, v FROM t WHERE k >= 2",
    "select all": "SELECT * FROM t",
    "update": "UPDATE t SET v = 'hit' WHERE k >= 2",
    "delete": "DELETE FROM t WHERE k < 3",
}


def seeded(storage: str = "memory") -> tuple[Database, Trod]:
    db = Database(storage=storage)
    db.execute("CREATE TABLE t (id INTEGER, k INTEGER, v TEXT)")
    db.insert_rows("t", [(i, i % 6, f"v{i}") for i in range(N_ROWS)])
    return db, Trod(db).attach()


def overlay_always(self: Transaction, table: str):
    """A scan that overlays the transaction's writes whatever they are."""
    canonical = self.read_lock(table)
    return Transaction._scan_pinned(
        self._database.store(canonical).scan(self._read_csn()),
        self._own_writes(canonical) or {},
        self._inserted.get(canonical, ()),
    )


def run(storage: str, own: str, statement: str, isolation: IsolationLevel):
    """Everything observable: the answer, the read sets, the table after
    commit and every event row provenance holds."""
    db, trod = seeded(storage)
    log = ReadLog.on(db)
    txn = db.begin(isolation)
    if OWN_WRITES[own]:
        db.execute(OWN_WRITES[own], txn=txn)
    result = db.execute(STATEMENTS[statement], txn=txn)
    answer = result.rows if result.kind == "select" else result.rowcount
    reads = read_rows(log[txn], db)
    txn.commit()
    events = trod.query(
        f"SELECT * FROM {trod.provenance.event_table_of('t')} ORDER BY Seq"
    ).rows
    return answer, reads, db.snapshot_rows("t"), events


@pytest.mark.parametrize("storage", ["memory", "paged", "segment"])
@pytest.mark.parametrize(
    "isolation", [IsolationLevel.SERIALIZABLE, IsolationLevel.SNAPSHOT]
)
@pytest.mark.parametrize("statement", sorted(STATEMENTS))
@pytest.mark.parametrize("own", sorted(OWN_WRITES))
def test_store_source_matches_the_overlay_path(
    own, statement, isolation, storage, monkeypatch
):
    overlaid = []
    pinned = Transaction._scan_pinned

    def counted(*args):
        overlaid.append(args[1])
        return pinned(*args)

    monkeypatch.setattr(Transaction, "_scan_pinned", staticmethod(counted))
    got = run(storage, own, statement, isolation)
    # Only a transaction with its own writes on the table overlays them.
    assert bool(overlaid) is (own != "none")
    monkeypatch.setattr(Transaction, "scan", overlay_always)
    with eager_reads():
        assert got == run(storage, own, statement, isolation)
    answer, reads, _table, events = got
    if statement.startswith("select"):
        assert answer == [values for _t, _rid, values, _q in reads]
    else:
        assert answer and not reads  # a write's provenance is its writes
    assert any(row[2] != "Snapshot" for row in events)


def test_own_writes_are_seen_in_scan_order():
    db, _trod = seeded()
    txn = db.begin()
    db.execute(OWN_WRITES["insert"], txn=txn)
    db.execute(OWN_WRITES["update"], txn=txn)
    db.execute(OWN_WRITES["delete"], txn=txn)
    rows = db.execute("SELECT id, k, v FROM t", txn=txn).rows
    expected = [(i, i % 6, f"v{i}") for i in range(N_ROWS) if i != 4]
    expected[3] = (3, 5, "own")
    assert rows == expected + [(100, 7, "own")]
    txn.abort()


def test_pinned_source_survives_a_concurrent_commit():
    """A traced reader parked between scan chunks keeps serving the rows
    it pinned while a writer commits, and records exactly those."""
    db, trod = seeded()
    log = ReadLog.on(db)
    db.scan_batch_size = 8
    before = db.snapshot_rows("t")
    seen = {}

    def reader():
        txn = db.begin(IsolationLevel.SNAPSHOT)
        result = db.execute("SELECT id, k, v FROM t", txn=txn)
        seen["rows"] = result.rows
        seen["reads"] = [
            (rid, values) for read_set in log[txn]
            for _t, rid, values, _q in read_set.rows()
        ]
        txn.commit()

    def writer():
        db.execute("INSERT INTO t VALUES (200, 1, 'late')")
        db.execute("UPDATE t SET v = 'late' WHERE id = 30")
        db.execute("DELETE FROM t WHERE id = 2")

    scheduler = CooperativeScheduler(schedule=[0, 1, 0], granularity="batch")
    outcomes = scheduler.run([reader, writer])
    assert all(outcome.ok for outcome in outcomes)
    # The writer committed while the reader was parked mid-scan.
    steps = [entry.worker for entry in scheduler.record]
    assert steps.index(1) < len(steps) - 1 - steps[::-1].index(0)
    assert seen["rows"] == [values for _rid, values in before]
    assert seen["reads"] == before
    trod.flush()
    events = trod.provenance.query(
        f"SELECT RowId, id, k, v FROM {trod.provenance.event_table_of('t')}"
        " WHERE Type = 'Read' ORDER BY Seq"
    ).rows
    assert [(rid, *values) for rid, values in before] == events
    assert db.snapshot_rows("t") != before


def test_published_rows_are_never_written():
    """An unfiltered traced scan hands its read set the store's rows; the
    flush and a later write leave the published list as it was."""
    db, trod = seeded()
    published = db.store("t").latest_rows()
    copy = list(published)
    assert db.execute("SELECT * FROM t").rows == [values for _rid, values in copy]
    trod.flush()
    db.execute("UPDATE t SET v = 'changed' WHERE id = 1")
    db.execute("DELETE FROM t WHERE id = 2")
    assert published == copy
    assert db.store("t").latest_rows() is not published
    assert db.execute("SELECT v FROM t WHERE id = 1").scalar() == "changed"
