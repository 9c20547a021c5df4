"""Erasure when the erased rows share a run-length header.

A traced scan stages one read set: one header ``(TxnId, TxnNum, Type,
Query, Csn)`` over every pair it read. The provenance store keeps that
header once, as one stretch of its event run, not once per row. When a
redaction rewrites the ``Query`` of some of those rows, the stretch can no
longer describe them: the run turns its stretches into plain columns
before the slots are overwritten. Afterwards the erasure oracle finds the
value nowhere, and no stretch (of any run of any provenance table) is
left over the redacted rows. The store keeps no value dictionary, so a
stretch is the only representation rows share.

A scan recorded as its predicate holds no row, but its params may hold
the erased value: an erasure expands every pending predicate first, and
the oracle searches their params. A table whose history lost values
reenacts short of its live rows, so its later scans stage their rows.
"""

from __future__ import annotations

import pytest

from repro.core import Trod
from repro.core.provenance import REDACTED
from repro.db import Database

from eager_reads import eager_reads, provenance_tables

USERS = ("U1", "U2", "U3")


def traced_scan() -> Trod:
    db = Database(name="app")
    db.execute("CREATE TABLE subs (user TEXT NOT NULL, item INTEGER)")
    db.insert_rows("subs", [(USERS[i % 3], i) for i in range(60)])
    trod = Trod(db).attach()
    db.execute("SELECT * FROM subs WHERE item >= 0").rows
    trod.flush()
    trod.provenance.expand_reads()  # the store is read directly below
    return trod


def read_runs(trod: Trod) -> list:
    """The runs of the event table that hold the scan's Read events."""
    store = trod.provenance.db.store(trod.provenance.event_table_of("subs"))
    return [
        run for run in store._runs
        if any(row[2] == "Read" for row in run.rows())
    ]


def test_a_read_set_is_one_stretch_of_its_run():
    trod = traced_scan()
    (run,) = read_runs(trod)
    assert run.count == 60 and run.heads is not None and len(run.heads) == 1
    assert run.heads[0][2:4] == ("Read", "SELECT * FROM subs WHERE item >= 0")
    # RowId and item are INTEGER columns with no NULL: arrays.
    assert [type(column).__name__ for column in run.columns] == [
        "array", "array", "tuple", "array"
    ]


def test_erasing_a_value_under_a_stretch_leaves_no_trace(erasure_oracle):
    trod = traced_scan()
    report = trod.privacy.forget_value("subs", "user", "U1")
    assert report.events_redacted == 40  # 20 snapshot rows and 20 reads
    erasure_oracle(trod, "U1")
    (run,) = read_runs(trod)
    assert run.heads is None  # the redaction turned the stretch into columns
    reads = [row for row in run.rows() if row[2] == "Read"]
    redacted = [row for row in reads if row[3] == REDACTED]
    assert len(redacted) == 20 and all(row[7:] == (None, None) for row in redacted)
    # The rows the redaction did not touch read as before.
    kept = [row for row in reads if row[3] != REDACTED]
    assert sorted(row[7] for row in kept) == ["U2"] * 20 + ["U3"] * 20
    provenance_db = trod.provenance.db
    for table in provenance_db.catalog.table_names():
        for stored in provenance_db.store(table)._runs:
            assert stored.heads is None or all(
                REDACTED not in head for head in stored.heads
            )


def scan_by_user() -> Trod:
    """A traced scan with the value to erase among its params."""
    db = Database(name="app")
    db.execute("CREATE TABLE subs (user TEXT NOT NULL, item INTEGER)")
    db.insert_rows("subs", [(USERS[i % 3], i) for i in range(60)])
    trod = Trod(db).attach()
    db.execute("SELECT item FROM subs WHERE user = ?", ("U1",)).rows
    return trod


def erase_then_scan() -> Trod:
    trod = scan_by_user()
    trod.privacy.forget_value("subs", "user", "U1")
    trod.database.execute("SELECT * FROM subs WHERE item >= ?", (30,)).rows
    return trod


def test_an_erasure_expands_the_predicates_that_hold_the_value(erasure_oracle):
    trod = scan_by_user()
    report = trod.privacy.forget_value("subs", "user", "U1")
    assert report.events_redacted == 40  # 20 snapshot rows and 20 reads
    erasure_oracle(trod, "U1")


def test_a_scan_after_an_erasure_stages_its_rows():
    trod = erase_then_scan()
    with eager_reads():
        eager = erase_then_scan()
    assert trod.privacy.reports == eager.privacy.reports
    # The live table still holds U1's rows, and their history no longer
    # does: the scan staged its 30 rows, not its predicate.
    _rows, batches, scans = staged = trod.buffer.drain()
    assert not scans and [len(pairs) for _h, pairs in batches.values()] == [30]
    trod.provenance.ingest(staged)
    assert provenance_tables(trod) == provenance_tables(eager)


def test_a_self_insert_select_after_an_erasure_stages_the_rows_it_read():
    def run() -> Trod:
        trod = erase_then_scan()
        trod.database.execute(
            "INSERT INTO subs SELECT user, item + 100 FROM subs WHERE item >= ?", (50,)
        )
        return trod

    trod = run()
    with eager_reads():
        eager = run()
    assert provenance_tables(trod) == provenance_tables(eager)


def test_an_erasure_proceeds_past_a_table_it_cannot_expand(erasure_oracle):
    trod = scan_by_user()
    db = trod.database
    db.execute("CREATE TABLE t (a TEXT)")
    db.execute("INSERT INTO t VALUES ('p'), ('q')")
    db.execute("SELECT * FROM t WHERE a > ?", ("a",))
    db.execute("SELECT * FROM t WHERE a <> ?", ("U1",))
    trod.flush()
    stale = next(read for read in trod.provenance.pending_scans() if read.table == "t")
    # A write the history holds at that CSN and the live table never had.
    late = Trod(db).buffer
    late.add_batch("t", "TXN99", 99, "Insert", "late", stale.csn, [(9, ("z",))])
    trod.provenance.ingest(late.drain())
    report = trod.privacy.forget_value("subs", "user", "U1")
    assert report.events_redacted == 40
    # t's predicates stay pending, the erased value gone from their params.
    assert [read.params for read in trod.provenance.pending_scans()] == [
        ("a",), (REDACTED,)
    ]
    erasure_oracle(trod, "U1")


def test_the_oracle_searches_pending_predicates(erasure_oracle, monkeypatch):
    trod = scan_by_user()
    trod.flush()
    assert [read.params for read in trod.provenance.pending_scans()] == [("U1",)]
    # An erasure that leaves the pending predicates alone.
    monkeypatch.setattr(trod.provenance, "expand_reads", lambda tables=None: 0)
    trod.privacy.forget_value("subs", "user", "U1")
    monkeypatch.undo()
    with pytest.raises(AssertionError, match="pending"):
        erasure_oracle(trod, "U1")
