"""Segment tables (``Database(storage="segment")``) against a memory twin.

The same statements run on a segment database and on an MVCC database in
memory, and must answer alike: probes, scans, aggregates, top-k, UPDATE
and DELETE, holes left by aborted inserts, SNAPSHOT readers and pinned
streams across later writes. The one documented difference is pinned
too: a segment table keeps no history, so ``AS OF`` sees current values
and no deleted row. The mechanism test counts what an ingest leaves
behind for the cyclic collector: about nothing per row, where row
versions, chain lists and per-row WAL changes cost three.
"""

from __future__ import annotations

import gc
import random

import pytest

import repro
from repro.core import Trod
from repro.core.provenance import ProvenanceStore
from repro.db import Database
from repro.db import segments
from repro.db.segments import SegmentStore
from repro.db.txn.manager import IsolationLevel
from repro.errors import SerializationError, StorageError

from eager_reads import eager_reads

QUERIES = [
    ("SELECT id, val FROM ev WHERE grp = ?", (2,)),  # hash probe
    ("SELECT id FROM ev WHERE val >= ? AND val < ?", (200, 400)),  # range probe
    ("SELECT * FROM ev", ()),
    ("SELECT grp, COUNT(*), SUM(val) FROM ev GROUP BY grp ORDER BY grp", ()),
    ("SELECT id, val FROM ev ORDER BY val DESC, id LIMIT 5", ()),
    ("SELECT tag, COUNT(*) FROM ev WHERE val < ? GROUP BY tag ORDER BY tag", (500,)),
]


def rows(start: int, count: int, seed: int = 0) -> list[tuple]:
    rng = random.Random(seed + start)
    return [
        (i, rng.randrange(5), rng.randrange(1000), f"t{i % 3}")
        for i in range(start, start + count)
    ]


def open_db(storage: str) -> Database:
    db = Database(name=storage, storage=storage)
    db.execute("CREATE TABLE ev (id INTEGER, grp INTEGER, val INTEGER, tag TEXT)")
    db.create_index("ix_grp", "ev", ["grp"])
    db.create_index("ix_val", "ev", ["val"], sorted_index=True)
    return db


@pytest.fixture
def twins():
    """(segment, memory), loaded alike: three batch runs and SQL inserts."""
    pair = (open_db("segment"), open_db("memory"))
    for db in pair:
        for start in (0, 40, 80):
            db.insert_rows("ev", rows(start, 40))
        for row in rows(120, 5):
            db.execute("INSERT INTO ev VALUES (?, ?, ?, ?)", row)
    return pair


def answers(db: Database) -> list:
    return [db.execute(sql, params).rows for sql, params in QUERIES]


def assert_alike(segment: Database, memory: Database) -> None:
    assert segment.snapshot_rows("ev") == memory.snapshot_rows("ev")
    expected = answers(memory)
    assert all(expected[:3])
    assert answers(segment) == expected


class TestSqlConformance:
    def test_probes_scans_aggregates_and_top_k(self, twins):
        segment, memory = twins
        assert isinstance(segment.store("ev"), SegmentStore)
        assert "probe=ix_grp[grp]" in segment.explain(QUERIES[0][0])[1]
        assert "range=ix_val[val]" in segment.explain(QUERIES[1][0])[1]
        assert_alike(segment, memory)

    def test_update_and_delete(self, twins):
        for db in twins:
            db.execute("UPDATE ev SET val = val + 1000, tag = 'moved' WHERE grp = ?", (2,))
            db.execute("DELETE FROM ev WHERE val < ?", (150,))
            db.execute("UPDATE ev SET grp = 9 WHERE id = ?", (7,))
        assert_alike(*twins)
        segment, _memory = twins
        assert segment.execute("SELECT COUNT(*) FROM ev WHERE grp = 9").scalar() == 1

    def test_an_aborted_insert_leaves_a_hole_in_the_row_ids(self, twins):
        for db in twins:
            txn = db.begin()
            db.insert_rows("ev", rows(500, 10), txn=txn)
            txn.abort()
            db.insert_rows("ev", rows(600, 10))
        assert_alike(*twins)
        segment, _memory = twins
        store = segment.store("ev")
        ids = [row_id for row_id, _values in store.scan()]
        hole = range(126, 136)
        assert ids[-11:] == [125, *range(136, 146)]
        assert all(store.get(row_id) is None for row_id in hole)
        assert store.get(136) == rows(600, 1)[0]

    def test_a_snapshot_reader_does_not_see_a_later_append(self, twins):
        seen = []
        for db in twins:
            reader = db.begin(IsolationLevel.SNAPSHOT)
            db.insert_rows("ev", rows(700, 20))
            seen.append(
                [db.execute(sql, params, txn=reader).rows for sql, params in QUERIES]
            )
            reader.commit()
        assert seen[0] == seen[1]
        assert [row[0] for row in seen[0][2]] == list(range(125))
        segment, memory = twins
        csn = segment.last_csn - 1  # before the append
        sql = "SELECT COUNT(*) FROM ev AS OF ? WHERE grp = ?"
        assert segment.execute(sql, (csn, 2)).rows == memory.execute(sql, (csn, 2)).rows

    def test_a_pinned_stream_survives_a_later_append_and_update(self, twins):
        streamed = []
        for db in twins:
            reader = db.begin(IsolationLevel.SNAPSHOT)
            db.insert_rows("ev", rows(800, 5))  # the reader's snapshot is now old
            result = db.execute("SELECT id, val FROM ev", txn=reader, stream=True)
            head = [result.next_row() for _ in range(3)]
            db.insert_rows("ev", rows(900, 5))
            db.execute("UPDATE ev SET val = -1 WHERE id < ?", (60,))
            db.execute("DELETE FROM ev WHERE id = ?", (100,))
            streamed.append(head + list(result))
            reader.abort()
        assert streamed[0] == streamed[1]
        assert [row[0] for row in streamed[0]] == list(range(125))
        assert -1 not in {row[1] for row in streamed[0]}
        assert_alike(*twins)


class TestNoHistory:
    """The documented difference: one copy of each row, no old version."""

    def test_as_of_sees_current_values_and_no_deleted_row(self, twins):
        segment, memory = twins
        before = segment.last_csn
        assert before == memory.last_csn
        for db in twins:
            db.execute("UPDATE ev SET val = -5 WHERE id = ?", (3,))
            db.execute("DELETE FROM ev WHERE id = ?", (4,))
        sql = "SELECT id, val FROM ev AS OF ? WHERE id < ? ORDER BY id"
        old = memory.execute(sql, (before, 5)).rows
        assert [row[0] for row in old] == [0, 1, 2, 3, 4] and old[3][1] != -5
        assert segment.execute(sql, (before, 5)).rows == [*old[:3], (3, -5)]
        store = segment.store("ev")
        assert store.moved_after(before, (1,)) == ()
        assert segment.vacuum(keep_after_csn=segment.last_csn) == 0
        assert store.version_count() == store.row_count() == 124

    def test_a_snapshot_writer_conflicts_on_any_later_write_to_its_run(self):
        db = open_db("segment")
        db.insert_rows("ev", rows(0, 10))
        writer = db.begin(IsolationLevel.SNAPSHOT)
        db.execute("UPDATE ev SET val = 0 WHERE id = ?", (1,))
        db.execute("UPDATE ev SET val = 1 WHERE id = ?", (2,), txn=writer)
        with pytest.raises(SerializationError):
            writer.commit()


class TestMechanism:
    def test_a_batch_insert_is_one_append_change_and_one_run(self, commit_tap):
        db = open_db("segment")
        tap = commit_tap(db)
        db.insert_rows("ev", rows(0, 50))
        ((change,),) = [commit.changes for commit in tap]
        assert (change.op, change.row_id, len(change.values)) == ("append", 1, 50)
        store = db.store("ev")
        assert store.stats() == {
            "live_rows": 50, "versions": 50, "next_row_id": 51, "runs": 1
        }
        # One commit's single-row inserts extend one run.
        txn = db.begin()
        for row in rows(50, 3):
            db.execute("INSERT INTO ev VALUES (?, ?, ?, ?)", row, txn=txn)
        txn.commit()
        assert store.stats()["runs"] == 2
        assert db.execute("SELECT COUNT(*) FROM ev WHERE id >= 50").scalar() == 3

    def test_interleaved_single_row_inserts_build_one_run_per_table(
        self, commit_tap, monkeypatch
    ):
        """A commit's appends install per table, however they interleave
        with another table's: one run each, and no run is re-encoded."""
        db = open_db("segment")
        db.execute("CREATE TABLE other (id INTEGER, note TEXT)")
        tap = commit_tap(db)
        built = []
        build = segments._Run.__init__

        def spy(run, first, csn, batch, kinds):
            built.append((first, len(batch)))
            build(run, first, csn, batch, kinds)

        monkeypatch.setattr(segments._Run, "__init__", spy)
        txn = db.begin()
        for i, row in enumerate(rows(0, 20)):
            db.insert_row("ev", row, txn=txn)
            db.insert_row("other", (i, f"n{i}"), txn=txn)
        txn.commit()
        assert built == [(1, 20), (1, 20)]
        assert db.store("ev").stats()["runs"] == db.store("other").stats()["runs"] == 1
        # The commit's changes stay in the order they were made.
        ((*changes,),) = [commit.changes for commit in tap]
        assert [(c.table, c.row_id) for c in changes] == [
            (table, i) for i in range(1, 21) for table in ("ev", "other")
        ]
        assert db.execute("SELECT COUNT(*) FROM other").scalar() == 20

    def test_unique_tables_and_explicit_ids_log_row_inserts(self, commit_tap):
        db = Database(storage="segment")
        db.execute("CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)")
        tap = commit_tap(db)
        db.insert_rows("kv", [(1, "a"), (2, "b")])
        assert [c.op for c in tap[-1].changes] == ["insert"] * 2
        txn = db.begin()
        txn.insert_with_id("kv", (9, "z"), 9)
        txn.commit()
        assert db.snapshot_rows("kv") == [(1, (1, "a")), (2, (2, "b")), (9, (9, "z"))]
        assert db.store("kv").stats()["runs"] == 2

    def test_memory_only(self, tmp_path):
        with pytest.raises(StorageError):
            Database(storage="segment", data_dir=str(tmp_path))
        with pytest.raises(StorageError):
            Database(storage="segment", wal_path=str(tmp_path / "wal.jsonl"))

    def test_the_provenance_database_is_segments_unless_given_one(self):
        assert ProvenanceStore().db.storage == "segment"
        mvcc = Database(storage="memory")
        assert ProvenanceStore(db=mvcc).db is mvcc

    @staticmethod
    def tracked_per_ingested_row(provenance: ProvenanceStore | None) -> float:
        """Collector-tracked objects one ingest of read batches leaves."""
        db = Database(storage="memory")
        conn = repro.connect(db)
        conn.execute("CREATE TABLE items (id INTEGER, grp INTEGER, val INTEGER)")
        db.insert_rows("items", [(i, i % 7, i * 3 % 100) for i in range(500)])
        trod = Trod(db, provenance=provenance, buffer_capacity=1 << 30)
        traced = repro.connect(db, trod=trod)
        trod.flush()
        with eager_reads():  # the scans stage their rows
            for _ in range(20):
                traced.execute("SELECT grp, SUM(val) FROM items GROUP BY grp").rows
        staged = trod.buffer.drain()  # kept alive past the second count
        gc.collect()
        before = len(gc.get_objects())
        ingested = trod.provenance.ingest(staged)
        gc.collect()
        after = len(gc.get_objects())
        assert ingested >= 10_000 and staged
        return (after - before) / ingested

    def test_an_ingest_leaves_almost_nothing_for_the_collector(self):
        assert self.tracked_per_ingested_row(None) <= 0.05
        # The MVCC twin keeps a row version and a chain list (its WAL
        # keeps no change).
        mvcc = ProvenanceStore(db=Database(name="provenance", storage="memory"))
        assert self.tracked_per_ingested_row(mvcc) >= 1.9
