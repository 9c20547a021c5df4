"""Transaction lifecycle tests: buffering, commit, abort, visibility."""

import pytest

from repro.db import Database, IsolationLevel, TransactionStatus
from repro.db.txn.manager import Transaction
from repro.errors import (
    IntegrityError,
    TransactionAborted,
    TransactionError,
)

from eager_reads import ReadLog


@pytest.fixture
def db() -> Database:
    database = Database()
    database.execute("CREATE TABLE t (k TEXT NOT NULL, v INTEGER)")
    return database


class TestLifecycle:
    def test_commit_assigns_increasing_csns(self, db):
        t1 = db.begin()
        db.execute("INSERT INTO t VALUES ('a', 1)", txn=t1)
        csn1 = t1.commit()
        t2 = db.begin()
        db.execute("INSERT INTO t VALUES ('b', 2)", txn=t2)
        csn2 = t2.commit()
        assert csn2 == csn1 + 1
        assert t1.commit_csn == csn1

    def test_txn_names(self, db):
        txn = db.begin()
        assert txn.name == f"TXN{txn.txn_id}"
        txn.abort()

    def test_operations_after_commit_rejected(self, db):
        txn = db.begin()
        txn.commit()
        with pytest.raises(TransactionAborted):
            db.execute("INSERT INTO t VALUES ('a', 1)", txn=txn)

    def test_double_commit_rejected(self, db):
        txn = db.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()

    def test_abort_discards_writes(self, db):
        txn = db.begin()
        db.execute("INSERT INTO t VALUES ('a', 1)", txn=txn)
        txn.abort()
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 0
        assert txn.status is TransactionStatus.ABORTED

    def test_abort_is_idempotent(self, db):
        txn = db.begin()
        txn.abort()
        txn.abort()

    def test_stats(self, db):
        before = dict(db.txn_manager.stats)
        txn = db.begin()
        txn.commit()
        txn2 = db.begin()
        txn2.abort()
        assert db.txn_manager.stats["committed"] == before["committed"] + 1
        assert db.txn_manager.stats["aborted"] == before["aborted"] + 1


class TestReadYourOwnWrites:
    def test_uncommitted_insert_visible_to_self_only(self, db):
        txn = db.begin()
        db.execute("INSERT INTO t VALUES ('a', 1)", txn=txn)
        assert db.execute("SELECT COUNT(*) FROM t", txn=txn).scalar() == 1
        # A concurrent snapshot reader sees nothing (a SERIALIZABLE reader
        # would block on the 2PL table lock instead).
        reader = db.begin(IsolationLevel.SNAPSHOT)
        assert db.execute("SELECT COUNT(*) FROM t", txn=reader).scalar() == 0
        reader.commit()
        txn.commit()
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 1

    def test_update_own_insert(self, db):
        txn = db.begin()
        db.execute("INSERT INTO t VALUES ('a', 1)", txn=txn)
        db.execute("UPDATE t SET v = 2 WHERE k = 'a'", txn=txn)
        assert db.execute("SELECT v FROM t", txn=txn).scalar() == 2
        txn.commit()
        assert db.execute("SELECT v FROM t").scalar() == 2

    def test_delete_own_insert(self, db):
        txn = db.begin()
        db.execute("INSERT INTO t VALUES ('a', 1)", txn=txn)
        db.execute("DELETE FROM t WHERE k = 'a'", txn=txn)
        assert db.execute("SELECT COUNT(*) FROM t", txn=txn).scalar() == 0
        txn.commit()
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_update_then_delete_committed_row(self, db):
        db.execute("INSERT INTO t VALUES ('a', 1)")
        txn = db.begin()
        db.execute("UPDATE t SET v = 9 WHERE k = 'a'", txn=txn)
        db.execute("DELETE FROM t WHERE k = 'a'", txn=txn)
        txn.commit()
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 0


    @pytest.mark.parametrize(
        "isolation", [IsolationLevel.SERIALIZABLE, IsolationLevel.SNAPSHOT]
    )
    def test_get_many_is_a_loop_of_get(self, db, isolation):
        ids = list(db.insert_rows("t", [(f"k{i}", i) for i in range(6)]))
        txn = db.begin(isolation)
        if isolation is IsolationLevel.SNAPSHOT:
            # Committed after the snapshot: neither get may see it.
            db.execute("UPDATE t SET v = 50 WHERE k = 'k5'")
            ids += db.insert_rows("t", [("late", 7)])
        txn.update("t", ids[1], ("k1", 100))
        txn.delete("t", ids[2])
        ids.append(txn.insert("t", ("own", 8)))
        doomed = txn.insert("t", ("own-deleted", 9))
        txn.delete("t", doomed)
        asked = [ids[3], doomed, 999, *reversed(ids), ids[3]]
        expected = [
            (rid, values)
            for rid in asked
            if (values := txn.get("t", rid)) is not None
        ]
        assert txn.get_many("T", asked) == expected
        found = dict(expected)
        assert found[ids[1]] == ("k1", 100) and found[ids[-1]] == ("own", 8)
        assert ids[2] not in found and doomed not in found and 999 not in found
        assert found[ids[5]] == ("k5", 5)
        txn.commit()
        with pytest.raises(TransactionAborted):
            txn.get_many("t", asked)


class TestConstraints:
    def test_unique_checked_within_txn(self):
        db = Database()
        db.execute("CREATE TABLE u (k TEXT UNIQUE)")
        txn = db.begin()
        db.execute("INSERT INTO u VALUES ('x')", txn=txn)
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO u VALUES ('x')", txn=txn)

    def test_unique_check_allows_replacing_own_update(self):
        db = Database()
        db.execute("CREATE TABLE u (k TEXT UNIQUE, v INTEGER)")
        db.execute("INSERT INTO u VALUES ('x', 1)")
        txn = db.begin()
        db.execute("UPDATE u SET v = 2 WHERE k = 'x'", txn=txn)  # same key OK
        txn.commit()

    @pytest.mark.parametrize(
        "isolation", [IsolationLevel.SERIALIZABLE, IsolationLevel.SNAPSHOT]
    )
    def test_unique_probe_reads_no_scan(self, monkeypatch, isolation):
        """The local check probes the constraint's index; a PRIMARY KEY
        insert or update never walks the table."""
        db = Database()
        db.execute("CREATE TABLE p (id INTEGER PRIMARY KEY, v TEXT)")
        db.insert_rows("p", [(i, f"v{i}") for i in range(200)])
        scans = []
        original = Transaction.scan
        monkeypatch.setattr(
            Transaction, "scan", lambda self, table: scans.append(table) or original(self, table)
        )
        txn = db.begin(isolation)
        db.execute("INSERT INTO p VALUES (500, 'new')", txn=txn)
        db.insert_rows("p", [(501, "a"), (502, "b")], txn=txn)
        txn.update("p", 1, (600, "moved"))
        with pytest.raises(IntegrityError, match=r"p\(id\): key \(7,\)"):
            db.execute("INSERT INTO p VALUES (7, 'dup')", txn=txn)
        with pytest.raises(IntegrityError, match=r"key \(501,\)"):
            txn.update("p", 2, (501, "dup of own insert"))
        txn.commit()
        assert scans == []
        assert db.execute("SELECT v FROM p WHERE id = 600").scalar() == "moved"

    def test_snapshot_writer_sees_a_key_a_later_commit_moved_away(self):
        db = Database()
        db.execute("CREATE TABLE u (k TEXT UNIQUE, v INTEGER)")
        db.execute("INSERT INTO u VALUES ('x', 1)")
        writer = db.begin(IsolationLevel.SNAPSHOT)
        # Committed after the snapshot: the index files the row under 'y',
        # but the writer's snapshot still holds it under 'x'.
        db.execute("UPDATE u SET k = 'y' WHERE k = 'x'")
        with pytest.raises(IntegrityError, match=r"key \('x',\)"):
            db.execute("INSERT INTO u VALUES ('x', 2)", txn=writer)
        writer.abort()

    @pytest.mark.parametrize(
        "isolation", [IsolationLevel.SERIALIZABLE, IsolationLevel.SNAPSHOT]
    )
    def test_delete_then_reinsert_same_key_in_one_txn(self, isolation):
        db = Database()
        db.execute("CREATE TABLE u (k TEXT UNIQUE, v INTEGER)")
        db.execute("INSERT INTO u VALUES ('x', 1), ('y', 2)")
        txn = db.begin(isolation)
        db.execute("DELETE FROM u WHERE k = 'x'", txn=txn)
        db.execute("INSERT INTO u VALUES ('x', 3)", txn=txn)
        # A swap through a third key commits too.
        db.execute("UPDATE u SET k = 'tmp' WHERE k = 'y'", txn=txn)
        db.execute("UPDATE u SET k = 'y' WHERE v = 3", txn=txn)
        db.execute("UPDATE u SET k = 'x' WHERE k = 'tmp'", txn=txn)
        txn.commit()
        assert db.execute("SELECT k, v FROM u ORDER BY k").rows == [("x", 2), ("y", 3)]
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO u VALUES ('y', 4)")

    def test_own_key_deleted_or_moved_away_can_be_taken_again(self):
        db = Database()
        db.execute("CREATE TABLE u (k TEXT UNIQUE, v INTEGER)")
        txn = db.begin()
        db.execute("INSERT INTO u VALUES ('x', 1)", txn=txn)
        db.execute("DELETE FROM u WHERE k = 'x'", txn=txn)
        db.execute("INSERT INTO u VALUES ('x', 2)", txn=txn)
        db.execute("UPDATE u SET k = 'z' WHERE v = 2", txn=txn)
        db.execute("INSERT INTO u VALUES ('x', 3)", txn=txn)
        with pytest.raises(IntegrityError, match=r"key \('z',\)"):
            db.execute("INSERT INTO u VALUES ('z', 4)", txn=txn)
        txn.commit()
        assert db.execute("SELECT k, v FROM u ORDER BY v").rows == [("z", 2), ("x", 3)]

    @pytest.mark.parametrize(
        "isolation", [IsolationLevel.SERIALIZABLE, IsolationLevel.SNAPSHOT]
    )
    def test_unique_check_rereads_a_bounded_number_of_own_rows(
        self, monkeypatch, isolation
    ):
        """An insert's local check re-reads only the own rows filed under
        its key, so one transaction writing N keyed rows is O(N), not
        O(N^2): the ids each check asks ``get_many`` for do not grow."""
        asked = []
        original = Transaction.get_many

        def counting(self, table, row_ids):
            row_ids = list(row_ids)
            asked.append(len(row_ids))
            return original(self, table, row_ids)

        monkeypatch.setattr(Transaction, "get_many", counting)
        db = Database()
        db.execute("CREATE TABLE p (id INTEGER PRIMARY KEY, v TEXT)")
        txn = db.begin(isolation)
        for i in range(300):
            db.execute("INSERT INTO p VALUES (?, 'v')", (i,), txn=txn)
        txn.commit()
        assert len(asked) == 300 and max(asked) == 0
        assert db.execute("SELECT COUNT(*) FROM p").scalar() == 300

    def test_read_committed_own_row_rekeyed_by_a_concurrent_commit(self):
        """READ_COMMITTED has no first-committer check: a row this writer
        also wrote may hold its new key in the committed state. The commit
        is refused whole rather than failing half-applied."""
        db = Database()
        db.execute("CREATE TABLE u (k TEXT UNIQUE, v INTEGER)")
        db.execute("INSERT INTO u VALUES ('a', 1), ('b', 2)")
        writer = db.begin(IsolationLevel.READ_COMMITTED)
        db.execute("INSERT INTO u VALUES ('k', 3)", txn=writer)
        db.execute("UPDATE u SET k = 'k' WHERE k = 'a'")  # another commit
        # The writer moves that row back: its own rows then look distinct,
        # but the committed row still holds 'k' until this applies.
        db.execute("UPDATE u SET k = 'a', v = 9 WHERE v = 1", txn=writer)
        with pytest.raises(IntegrityError, match=r"key \('k',\)"):
            writer.commit()
        assert db.execute("SELECT k, v FROM u ORDER BY v").rows == [("k", 1), ("b", 2)]

    @staticmethod
    def _assert_refused_whole(db, txn, rows, index, keys):
        """``txn`` is aborted with nothing applied: table ``u`` holds
        ``rows`` and its unique ``index`` files exactly ``keys``."""
        assert txn.status is TransactionStatus.ABORTED
        assert txn.commit_csn is None
        assert db.execute("SELECT k, v FROM u ORDER BY v").rows == rows
        filed = db.index_set("u").indexes[index]
        assert {k: len(filed.lookup((k,))) for k in keys} == keys
        assert len(filed) == sum(keys.values())  # and under no other key
        # The next commit takes the CSN a half-applied commit would have
        # left versions at; it sees none of them, and no lock blocks it.
        db.execute("UPDATE u SET v = v + 10")
        assert db.execute("SELECT k, v FROM u ORDER BY v").rows == [
            (k, v + 10) for k, v in rows
        ]

    @pytest.mark.parametrize(
        "isolation", [IsolationLevel.SERIALIZABLE, IsolationLevel.SNAPSHOT]
    )
    def test_create_unique_index_clash_refused_before_apply(self, isolation):
        """A ``CREATE UNIQUE INDEX`` index is checked only at commit. A
        write that takes a key before its holder leaves it would fail
        while applying, so the commit is refused whole instead."""
        db = Database()
        db.execute("CREATE TABLE u (k TEXT, v INTEGER)")
        db.execute("CREATE UNIQUE INDEX ux_k ON u (k)")
        db.execute("INSERT INTO u VALUES ('a', 1), ('b', 2)")
        txn = db.begin(isolation)
        db.execute("UPDATE u SET k = 'a' WHERE v = 2", txn=txn)
        db.execute("UPDATE u SET k = 'c' WHERE v = 1", txn=txn)
        with pytest.raises(IntegrityError, match=r"u\(k\): key \('a',\)"):
            txn.commit()
        self._assert_refused_whole(db, txn, [("a", 1), ("b", 2)], "ux_k", {"a": 1, "b": 1})

    def test_snapshot_swap_through_a_key_another_commit_took(self):
        """Each intermediate key is checked, not only the final ones: the
        swap's temporary key, taken by a commit after the snapshot, is
        refused at commit with nothing applied."""
        db = Database()
        db.execute("CREATE TABLE u (k TEXT UNIQUE, v INTEGER)")
        db.execute("INSERT INTO u VALUES ('x', 1), ('y', 2)")
        writer = db.begin(IsolationLevel.SNAPSHOT)
        db.execute("INSERT INTO u VALUES ('tmp', 3)")  # invisible to the writer
        db.execute("UPDATE u SET k = 'tmp' WHERE v = 1", txn=writer)
        db.execute("UPDATE u SET k = 'x' WHERE v = 2", txn=writer)
        db.execute("UPDATE u SET k = 'y' WHERE v = 1", txn=writer)
        with pytest.raises(IntegrityError, match=r"key \('tmp',\)"):
            writer.commit()
        self._assert_refused_whole(
            db, writer, [("x", 1), ("y", 2), ("tmp", 3)], "uq_u_0_k",
            {"x": 1, "y": 1, "tmp": 1},
        )

    def test_direct_api_update_missing_row(self, db):
        txn = db.begin()
        with pytest.raises(TransactionError):
            txn.update("t", 999, ("a", 1))

    def test_direct_api_delete_missing_row(self, db):
        txn = db.begin()
        with pytest.raises(TransactionError):
            txn.delete("t", 999)

    def test_insert_with_id_conflict(self, db):
        db.execute("INSERT INTO t VALUES ('a', 1)")
        txn = db.begin()
        with pytest.raises(TransactionError):
            txn.insert_with_id("t", ("b", 2), row_id=1)

    def test_insert_with_id_preserves_identity(self, db):
        txn = db.begin()
        txn.insert_with_id("t", ("a", 1), row_id=77)
        txn.commit()
        assert db.store("t").get(77, None) == ("a", 1)


class TestInfoAndFootprints:
    def test_info_propagates(self, db):
        txn = db.begin(info={"req_id": "R1", "handler": "h"})
        assert txn.info["req_id"] == "R1"
        txn.abort()

    def test_tables_written(self, db):
        db.execute("CREATE TABLE other (x INTEGER)")
        txn = db.begin()
        db.execute("INSERT INTO t VALUES ('a', 1)", txn=txn)
        db.execute("INSERT INTO other VALUES (5)", txn=txn)
        assert txn.tables_written == {"t", "other"}
        txn.commit()

    def test_tables_read_tracks_scans(self, db):
        log = ReadLog.on(db)
        db.execute("INSERT INTO t VALUES ('a', 1)")
        txn = db.begin()
        db.execute("SELECT * FROM t", txn=txn)
        assert log.tables(txn) == {"t"}
        txn.commit()

    def test_pending_rows(self, db):
        txn = db.begin()
        rid = txn.insert("t", ("a", 1))
        assert txn.pending_rows("t") == [(rid, ("a", 1))]
        txn.commit()
