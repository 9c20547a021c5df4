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
"""

from __future__ import annotations

from repro.core import Trod
from repro.core.provenance import REDACTED
from repro.db import Database

USERS = ("U1", "U2", "U3")


def traced_scan() -> Trod:
    db = Database(name="app")
    db.execute("CREATE TABLE subs (user TEXT NOT NULL, item INTEGER)")
    db.insert_rows("subs", [(USERS[i % 3], i) for i in range(60)])
    trod = Trod(db).attach()
    db.execute("SELECT * FROM subs WHERE item >= 0").rows
    trod.flush()
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
