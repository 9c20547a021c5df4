"""WAL tests: durability, recovery, and the commit record observers receive."""

import pytest

from repro.db import Database
from repro.db.schema import Column, TableSchema
from repro.db.storage import TableStore
from repro.db.types import ColumnType
from repro.db.txn.wal import (
    WalAbort,
    WalChange,
    WalCommit,
    WalPrepare,
    WriteAheadLog,
    redo_change,
)
from repro.errors import WalError


class TestWal:
    def test_commit_order_enforced(self):
        wal = WriteAheadLog()
        wal.append(WalCommit(csn=1, txn_id=1, changes=()))
        with pytest.raises(WalError):
            wal.append(WalCommit(csn=1, txn_id=2, changes=()))

    def test_last_csn_is_the_last_append(self):
        wal = WriteAheadLog()
        for csn in (1, 2, 3):
            wal.append(WalCommit(csn=csn, txn_id=csn, changes=()))
        assert wal.last_csn == 3

    def test_a_commit_or_abort_record_settles_a_prepare(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path)
        for txn_id in (5, 6, 7):
            wal.append_prepare(WalPrepare(gtxn_id=1, txn_id=txn_id, changes=()))
        wal.append(WalCommit(csn=1, txn_id=5, changes=()))
        wal.append_abort(WalAbort(txn_id=6, gtxn_id=1))
        assert [p.txn_id for p in wal.in_doubt()] == [7]
        wal.close()
        assert [p.txn_id for p in WriteAheadLog.load(path)[0].in_doubt()] == [7]

    def test_json_roundtrip(self):
        change = WalChange(
            op="update", table="t", row_id=3, values=("a", 1), old_values=("a", 0)
        )
        commit = WalCommit(csn=5, txn_id=7, changes=(change,))
        restored = WalCommit.from_json(commit.to_json())
        assert restored == commit

    def test_file_persistence_and_load(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path)
        wal.append(
            WalCommit(
                csn=1,
                txn_id=1,
                changes=(
                    WalChange("insert", "t", 1, ("a", 1), None),
                ),
            )
        )
        wal.close()
        loaded, commits = WriteAheadLog.load(path)
        assert len(commits) == 1 and loaded.last_csn == 1
        assert commits[0].changes[0].values == ("a", 1)

    def test_redo_change_replays_ops(self):
        schema = TableSchema(
            "t", [Column("k", ColumnType.TEXT), Column("v", ColumnType.INTEGER)]
        )
        store = TableStore(schema)
        commits = [
            WalCommit(1, 1, (WalChange("insert", "t", 1, ("a", 1), None),)),
            WalCommit(2, 2, (WalChange("update", "t", 1, ("a", 2), ("a", 1)),)),
            WalCommit(3, 3, (WalChange("insert", "t", 2, ("b", 9), None),)),
            WalCommit(4, 4, (WalChange("delete", "t", 2, None, ("b", 9)),)),
        ]
        for commit in commits:
            for change in commit.changes:
                assert redo_change(store, change, commit.csn)
        assert list(store.scan(None)) == [(1, ("a", 2))]

    def test_recover_unknown_table(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path)
        wal.append(WalCommit(1, 1, (WalChange("insert", "x", 1, ("a",), None),)))
        wal.close()
        with pytest.raises(WalError, match="unknown table"):
            Database.recover([], path)


class TestTornTail:
    """A crash mid-append leaves a truncated final record; ``load`` must
    treat it as a clean recovery point, not corruption."""

    def _write_commits(self, path: str, n: int) -> None:
        wal = WriteAheadLog(path)
        for csn in range(1, n + 1):
            wal.append(
                WalCommit(
                    csn=csn,
                    txn_id=csn,
                    changes=(WalChange("insert", "t", csn, (csn,), None),),
                )
            )
        wal.close()

    def test_truncated_final_record_is_dropped(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        self._write_commits(path, 3)
        with open(path, "ab") as fh:
            fh.write(b'{"csn": 4, "txn_id": 4, "chan')  # torn mid-write
        loaded, commits = WriteAheadLog.load(path)
        assert [c.csn for c in commits] == [1, 2, 3]
        assert loaded.torn_tail_dropped
        # A clean file does not claim a drop.
        clean = str(tmp_path / "clean.jsonl")
        self._write_commits(clean, 2)
        assert not WriteAheadLog.load(clean)[0].torn_tail_dropped

    def test_torn_json_but_complete_line_also_dropped(self, tmp_path):
        """Truncation can land exactly on a newline boundary from a prior
        buffered write — the partial record still parses as broken JSON."""
        path = str(tmp_path / "wal.jsonl")
        self._write_commits(path, 2)
        with open(path, "ab") as fh:
            fh.write(b'{"csn": 3}\n')  # missing required fields
        loaded, commits = WriteAheadLog.load(path)
        assert [c.csn for c in commits] == [1, 2]
        assert loaded.torn_tail_dropped

    def test_mid_file_corruption_still_raises(self, tmp_path):
        """A bad record *followed by valid records* cannot be a torn tail
        — dropping it would silently lose acknowledged commits."""
        path = str(tmp_path / "wal.jsonl")
        self._write_commits(path, 3)
        lines = open(path, "rb").read().splitlines(keepends=True)
        lines[1] = b'{"broken\n'
        with open(path, "wb") as fh:
            fh.writelines(lines)
        with pytest.raises(WalError, match="followed by valid records"):
            WriteAheadLog.load(path)

    def test_attach_truncates_tail_and_keeps_appending(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        self._write_commits(path, 2)
        with open(path, "ab") as fh:
            fh.write(b'{"torn')
        wal, _commits = WriteAheadLog.load(path, attach=True)
        assert wal.torn_tail_dropped
        wal.append(
            WalCommit(
                csn=3,
                txn_id=3,
                changes=(WalChange("insert", "t", 3, (3,), None),),
            )
        )
        wal.close()
        # The dead bytes are physically gone; the file replays cleanly.
        reread, commits = WriteAheadLog.load(path)
        assert [c.csn for c in commits] == [1, 2, 3]
        assert not reread.torn_tail_dropped


class TestCrashRecovery:
    def test_database_recover_from_wal_file(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = Database(wal_path=path)
        db.execute("CREATE TABLE t (k TEXT, v INTEGER)")
        db.execute("INSERT INTO t VALUES ('a', 1), ('b', 2)")
        db.execute("UPDATE t SET v = 10 WHERE k = 'a'")
        db.execute("DELETE FROM t WHERE k = 'b'")
        schemas = [db.catalog.get("t")]
        db.wal.close()

        recovered = Database.recover(schemas, path)
        # CSNs continue after recovery (checked before any new statements,
        # since read-only autocommits also consume CSNs).
        assert recovered.last_csn == db.last_csn
        rows = recovered.execute("SELECT k, v FROM t").rows
        assert rows == [("a", 10)]
        recovered.execute("INSERT INTO t VALUES ('c', 3)")
        assert recovered.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_aborted_txns_never_reach_wal(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = Database(wal_path=path)
        db.execute("CREATE TABLE t (k TEXT)")
        txn = db.begin()
        db.execute("INSERT INTO t VALUES ('x')", txn=txn)
        txn.abort()
        db.execute("INSERT INTO t VALUES ('y')")
        db.wal.close()
        recovered = Database.recover([db.catalog.get("t")], path)
        assert recovered.execute("SELECT k FROM t").column("k") == ["y"]


class TestCdc:
    """A commit's ``WalCommit`` is its one record: the WAL writes it (and
    keeps none), and observers and the replication log receive its
    ``changes`` tuple."""

    def test_records_carry_before_and_after_images(self, commit_tap):
        db = Database()
        db.execute("CREATE TABLE t (k TEXT, v INTEGER)")
        tap = commit_tap(db)
        db.execute("INSERT INTO t VALUES ('a', 1)")
        db.execute("UPDATE t SET v = 2 WHERE k = 'a'")
        db.execute("DELETE FROM t WHERE k = 'a'")
        ops = [
            (c.op, c.values, c.old_values)
            for commit in tap
            for c in commit.changes
        ]
        assert ops == [
            ("insert", ("a", 1), None),
            ("update", ("a", 2), ("a", 1)),
            ("delete", None, ("a", 2)),
        ]

    def test_emission_in_commit_order(self, commit_tap):
        from repro.db import IsolationLevel

        db = Database()
        db.execute("CREATE TABLE t (k TEXT)")
        tap = commit_tap(db)
        # SNAPSHOT so the two writers do not block each other under 2PL.
        t1 = db.begin(IsolationLevel.SNAPSHOT)
        t2 = db.begin(IsolationLevel.SNAPSHOT)
        db.execute("INSERT INTO t VALUES ('late')", txn=t1)
        db.execute("INSERT INTO t VALUES ('early')", txn=t2)
        t2.commit()
        t1.commit()
        commits = list(tap)
        assert [c.changes[0].values[0] for c in commits] == ["early", "late"]
        assert [c.txn_id for c in commits] == [t2.txn_id, t1.txn_id]
        csns = [c.csn for c in commits]
        assert csns == sorted(csns)

    def test_aborted_txn_emits_nothing(self, commit_tap):
        db = Database()
        db.execute("CREATE TABLE t (k TEXT)")
        tap = commit_tap(db)
        txn = db.begin()
        db.execute("INSERT INTO t VALUES ('x')", txn=txn)
        txn.abort()
        assert tap == [] and db.wal.last_csn == 0

    def test_observers_and_ship_log_share_the_wal_record(self, commit_tap):
        from repro.db.replication import ReplicaSet

        db = Database()
        db.execute("CREATE TABLE t (k INTEGER)")
        rs = ReplicaSet(db, n_replicas=1, mode="sync")
        received: list[tuple] = []

        class Observer:
            events = ("txn_committed",)

            def txn_committed(self, txn, csn, changes):
                received.append(changes)

        db.add_observer(Observer())
        tap = commit_tap(db)
        shipped = []
        rs.log.subscribe(shipped.append)
        db.execute("INSERT INTO t VALUES (1), (2)")
        db.execute("DELETE FROM t WHERE k = 3")  # matches nothing: an empty commit
        db.execute("SELECT k FROM t")  # a read: no commit at all
        (commit,) = tap
        assert received[0] is commit.changes
        assert shipped[0].changes is commit.changes
        assert [c.row_id for c in commit.changes] == [1, 2]
        assert received[1] == () and shipped[1].changes == ()
        assert len(received) == len(shipped) == 2


class TestGroupCommit:
    def _commit(self, csn: int) -> WalCommit:
        return WalCommit(
            csn=csn,
            txn_id=csn,
            changes=(WalChange("insert", "t", csn, (csn,), None),),
        )

    def test_batches_flush_once_per_group(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path, group_size=4)
        for csn in (1, 2, 3):
            wal.append(self._commit(csn))
        # Nothing durable yet: the group is still open.
        assert wal.pending_count == 3
        assert wal.flush_stats == {"appends": 3, "flushes": 0}
        assert WriteAheadLog.load(path)[1] == []
        wal.append(self._commit(4))  # fills the group: one drain
        assert wal.pending_count == 0
        assert wal.flush_stats == {"appends": 4, "flushes": 1}
        assert [c.csn for c in WriteAheadLog.load(path)[1]] == [1, 2, 3, 4]
        wal.close()

    def test_close_drains_partial_group(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path, group_size=64)
        for csn in (1, 2):
            wal.append(self._commit(csn))
        wal.close()
        assert [c.csn for c in WriteAheadLog.load(path)[1]] == [1, 2]

    def test_explicit_flush_narrows_the_window(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path, group_size=64)
        wal.append(self._commit(1))
        wal.flush()
        assert len(WriteAheadLog.load(path)[1]) == 1
        assert wal.flush_stats["flushes"] == 1
        wal.flush()  # empty flush is a no-op, not a counted fsync
        assert wal.flush_stats["flushes"] == 1
        wal.close()

    def test_default_group_size_flushes_per_append(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path)
        for csn in (1, 2, 3):
            wal.append(self._commit(csn))
        assert wal.flush_stats == {"appends": 3, "flushes": 3}
        assert len(WriteAheadLog.load(path)[1]) == 3
        wal.close()

    def test_database_passes_group_size_through(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = Database(wal_path=path, wal_group_size=8)
        db.execute("CREATE TABLE t (k INTEGER)")
        for i in range(5):
            db.execute("INSERT INTO t VALUES (?)", (i,))
        assert db.wal.pending_count == 5  # buffered: group still open
        db.wal.close()
        assert len(WriteAheadLog.load(path)[1]) == 5

    def test_in_memory_order_check_unaffected(self):
        wal = WriteAheadLog(group_size=4)
        wal.append(WalCommit(csn=1, txn_id=1, changes=()))
        with pytest.raises(WalError):
            wal.append(WalCommit(csn=1, txn_id=2, changes=()))

    def test_group_size_must_be_positive(self):
        with pytest.raises(WalError):
            WriteAheadLog(group_size=0)


class TestCdcRetentionEdges:
    """What the replication log, which taps commits directly, holds."""

    def test_replication_tap_survives_cdc_truncation(self):
        """An async replica catches up from the ship log alone: no
        resync is needed while the log retains every record."""
        from repro.db.replication import ReplicaSet

        db = Database()
        db.execute("CREATE TABLE t (k INTEGER)")
        rs = ReplicaSet(db, n_replicas=1, mode="async")
        for i in range(10):
            db.execute("INSERT INTO t VALUES (?)", (i,))
        rs.catch_up()
        replica = rs.replicas[0].database
        assert replica.execute("SELECT COUNT(*) FROM t").scalar() == 10
        assert rs.stats["resyncs"] == 0  # no resync was needed

    def test_replication_log_holds_records_until_released(self):
        from repro.db.replication import ReplicationLog

        db = Database()
        db.execute("CREATE TABLE t (k INTEGER)")
        log = ReplicationLog(db)
        for i in range(5):
            db.execute("INSERT INTO t VALUES (?)", (i,))
        assert [r.seq for r in log.since(0)] == [1, 2, 3, 4, 5]
        log.release(3)
        assert [r.seq for r in log.since(0)] == [4, 5]
        assert [r.seq for r in log.since(4)] == [5]
        log.release(9)
        assert log.since(0) == [] and log.last_seq == 5
