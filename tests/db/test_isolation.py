"""Isolation level semantics: SERIALIZABLE (2PL), SNAPSHOT, READ_COMMITTED."""

import pytest

from repro.db import Database, IsolationLevel
from repro.errors import IntegrityError, LockTimeoutError, SerializationError


@pytest.fixture
def db() -> Database:
    database = Database()
    database.execute("CREATE TABLE t (k TEXT NOT NULL, v INTEGER)")
    database.execute("INSERT INTO t VALUES ('a', 1)")
    return database


class TestSnapshotIsolation:
    def test_repeatable_reads_within_snapshot(self, db):
        reader = db.begin(IsolationLevel.SNAPSHOT)
        assert db.execute("SELECT v FROM t", txn=reader).scalar() == 1
        db.execute("UPDATE t SET v = 2")  # concurrent committed update
        # The snapshot still sees the old value.
        assert db.execute("SELECT v FROM t", txn=reader).scalar() == 1
        reader.commit()
        assert db.execute("SELECT v FROM t").scalar() == 2

    def test_snapshot_does_not_see_later_inserts(self, db):
        reader = db.begin(IsolationLevel.SNAPSHOT)
        db.execute("INSERT INTO t VALUES ('b', 2)")
        assert db.execute("SELECT COUNT(*) FROM t", txn=reader).scalar() == 1
        reader.commit()

    def test_first_committer_wins(self, db):
        t1 = db.begin(IsolationLevel.SNAPSHOT)
        t2 = db.begin(IsolationLevel.SNAPSHOT)
        db.execute("UPDATE t SET v = 10 WHERE k = 'a'", txn=t1)
        db.execute("UPDATE t SET v = 20 WHERE k = 'a'", txn=t2)
        t1.commit()
        with pytest.raises(SerializationError):
            t2.commit()
        assert db.execute("SELECT v FROM t").scalar() == 10

    def test_write_write_conflict_carries_its_facts(self, db):
        t1 = db.begin(IsolationLevel.SNAPSHOT)
        t2 = db.begin(IsolationLevel.SNAPSHOT)
        snapshot = t2.snapshot_csn
        db.execute("UPDATE t SET v = 10 WHERE k = 'a'", txn=t1)
        db.execute("UPDATE t SET v = 20 WHERE k = 'a'", txn=t2)
        t1.commit()
        changed = db.last_csn
        with pytest.raises(SerializationError) as raised:
            t2.commit()
        error = raised.value
        assert (error.table, error.row_id) == ("t", 1)
        assert (error.changed_csn, error.snapshot_csn) == (changed, snapshot)
        assert str(error) == (
            f"{t2.name}: write-write conflict on t row 1 "
            f"(changed at csn {changed}, snapshot was {snapshot})"
        )

    def test_delete_delete_conflict(self, db):
        t1 = db.begin(IsolationLevel.SNAPSHOT)
        t2 = db.begin(IsolationLevel.SNAPSHOT)
        db.execute("DELETE FROM t WHERE k = 'a'", txn=t1)
        db.execute("DELETE FROM t WHERE k = 'a'", txn=t2)
        t1.commit()
        with pytest.raises(SerializationError):
            t2.commit()

    def test_disjoint_writes_both_commit(self, db):
        db.execute("INSERT INTO t VALUES ('b', 2)")
        t1 = db.begin(IsolationLevel.SNAPSHOT)
        t2 = db.begin(IsolationLevel.SNAPSHOT)
        db.execute("UPDATE t SET v = 10 WHERE k = 'a'", txn=t1)
        db.execute("UPDATE t SET v = 20 WHERE k = 'b'", txn=t2)
        t1.commit()
        t2.commit()
        assert sorted(db.execute("SELECT v FROM t").column("v")) == [10, 20]

    def test_write_skew_is_allowed_under_si(self, db):
        """The classic SI anomaly — present by design (not serializable)."""
        db.execute("INSERT INTO t VALUES ('b', 1)")
        t1 = db.begin(IsolationLevel.SNAPSHOT)
        t2 = db.begin(IsolationLevel.SNAPSHOT)
        # Each txn reads the OTHER row's value and writes its own row.
        v_b = db.execute("SELECT v FROM t WHERE k = 'b'", txn=t1).scalar()
        v_a = db.execute("SELECT v FROM t WHERE k = 'a'", txn=t2).scalar()
        db.execute("UPDATE t SET v = ? WHERE k = 'a'", (v_b * 10,), txn=t1)
        db.execute("UPDATE t SET v = ? WHERE k = 'b'", (v_a * 10,), txn=t2)
        t1.commit()
        t2.commit()  # no conflict: disjoint write sets
        assert sorted(db.execute("SELECT v FROM t").column("v")) == [10, 10]

    def test_si_insert_unique_conflict_caught_at_commit(self):
        db = Database()
        db.execute("CREATE TABLE u (k TEXT UNIQUE)")
        t1 = db.begin(IsolationLevel.SNAPSHOT)
        t2 = db.begin(IsolationLevel.SNAPSHOT)
        db.execute("INSERT INTO u VALUES ('x')", txn=t1)
        db.execute("INSERT INTO u VALUES ('x')", txn=t2)  # invisible to t1
        t1.commit()
        with pytest.raises(IntegrityError):
            t2.commit()

    def test_toctou_duplicates_possible_without_constraint(self):
        """The MDL-59854 anatomy at the isolation level: two SI check+insert
        transactions on an unconstrained table both insert."""
        db = Database()
        db.execute("CREATE TABLE sub (u TEXT, f TEXT)")
        t1 = db.begin(IsolationLevel.SNAPSHOT)
        t2 = db.begin(IsolationLevel.SNAPSHOT)
        n1 = db.execute("SELECT COUNT(*) FROM sub", txn=t1).scalar()
        n2 = db.execute("SELECT COUNT(*) FROM sub", txn=t2).scalar()
        assert n1 == n2 == 0
        db.execute("INSERT INTO sub VALUES ('U1', 'F2')", txn=t1)
        db.execute("INSERT INTO sub VALUES ('U1', 'F2')", txn=t2)
        t1.commit()
        t2.commit()
        assert db.execute("SELECT COUNT(*) FROM sub").scalar() == 2


class TestReadCommitted:
    def test_sees_commits_between_statements(self, db):
        reader = db.begin(IsolationLevel.READ_COMMITTED)
        assert db.execute("SELECT v FROM t", txn=reader).scalar() == 1
        db.execute("UPDATE t SET v = 2")
        # Unlike SNAPSHOT, the next statement sees the new value.
        assert db.execute("SELECT v FROM t", txn=reader).scalar() == 2
        reader.commit()

    def test_lost_update_possible(self, db):
        """READ_COMMITTED permits last-writer-wins lost updates."""
        t1 = db.begin(IsolationLevel.READ_COMMITTED)
        t2 = db.begin(IsolationLevel.READ_COMMITTED)
        db.execute("UPDATE t SET v = 10 WHERE k = 'a'", txn=t1)
        t1.commit()
        db.execute("UPDATE t SET v = 20 WHERE k = 'a'", txn=t2)
        t2.commit()  # no SerializationError: RC does not check
        assert db.execute("SELECT v FROM t").scalar() == 20


class TestSerializable2PL:
    def test_writers_block_writers(self, db):
        t1 = db.begin(IsolationLevel.SERIALIZABLE)
        db.execute("UPDATE t SET v = 10 WHERE k = 'a'", txn=t1)
        t2 = db.begin(IsolationLevel.SERIALIZABLE)
        with pytest.raises(LockTimeoutError):
            db.execute("UPDATE t SET v = 20 WHERE k = 'a'", txn=t2)

    def test_readers_block_writers(self, db):
        t1 = db.begin(IsolationLevel.SERIALIZABLE)
        db.execute("SELECT * FROM t", txn=t1)
        t2 = db.begin(IsolationLevel.SERIALIZABLE)
        with pytest.raises(LockTimeoutError):
            db.execute("INSERT INTO t VALUES ('b', 2)", txn=t2)

    def test_readers_share(self, db):
        t1 = db.begin(IsolationLevel.SERIALIZABLE)
        t2 = db.begin(IsolationLevel.SERIALIZABLE)
        db.execute("SELECT * FROM t", txn=t1)
        db.execute("SELECT * FROM t", txn=t2)
        t1.commit()
        t2.commit()

    def test_locks_released_on_commit(self, db):
        t1 = db.begin(IsolationLevel.SERIALIZABLE)
        db.execute("UPDATE t SET v = 10 WHERE k = 'a'", txn=t1)
        t1.commit()
        db.execute("UPDATE t SET v = 20 WHERE k = 'a'")  # no conflict now
        assert db.execute("SELECT v FROM t").scalar() == 20

    def test_locks_released_on_abort(self, db):
        t1 = db.begin(IsolationLevel.SERIALIZABLE)
        db.execute("UPDATE t SET v = 10 WHERE k = 'a'", txn=t1)
        t1.abort()
        db.execute("UPDATE t SET v = 20 WHERE k = 'a'")
        assert db.execute("SELECT v FROM t").scalar() == 20


class TestIndexProbeTakesTheTableLock:
    """A read served by an index probe locks like the scan it replaces.

    Without the shared lock, ``SELECT v FROM t WHERE k = 1`` twice in one
    SERIALIZABLE transaction read 10, then 20: another transaction's
    UPDATE committed in between, where the same read with no index to
    probe blocks the writer.
    """

    #: access path -> (index DDL, WHERE template over one key)
    PATHS = {
        "hash probe": ("CREATE INDEX ix_k ON t (k)", "k = {0}"),
        "range probe": ("CREATE SORTED INDEX ix_k ON t (k)", "k BETWEEN {0} AND {0}"),
        "scan": (None, "k = {0}"),
    }

    @pytest.fixture(params=sorted(PATHS))
    def case(self, request):
        """(database, where) with the access path proven by explain."""
        ddl, where = self.PATHS[request.param]
        database = Database()
        database.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
        database.execute("INSERT INTO t VALUES (1, 10)")
        if ddl is not None:
            database.execute(ddl)
        scan_line = database.explain(f"SELECT v FROM t WHERE {where.format(1)}")[-1]
        assert ("=ix_k" in scan_line) == (ddl is not None)
        return database, where.format

    def test_point_read_is_repeatable(self, case):
        db, where = case
        sql = f"SELECT v FROM t WHERE {where(1)}"
        reader = db.begin(IsolationLevel.SERIALIZABLE)
        assert db.execute(sql, txn=reader).scalar() == 10
        assert db.txn_manager.locks.held_by(reader.txn_id) == {"table:t"}
        with pytest.raises(LockTimeoutError):
            db.execute("UPDATE t SET v = 20 WHERE k = 1")
        assert db.execute(sql, txn=reader).scalar() == 10
        reader.commit()
        db.execute("UPDATE t SET v = 20 WHERE k = 1")
        assert db.execute(sql).scalar() == 20

    def test_read_that_matches_nothing_still_locks(self, case):
        """Phantom protection: the empty answer must stay empty."""
        db, where = case
        sql = f"SELECT v FROM t WHERE {where(7)}"
        reader = db.begin(IsolationLevel.SERIALIZABLE)
        assert db.execute(sql, txn=reader).rows == []
        with pytest.raises(LockTimeoutError):
            db.execute("INSERT INTO t VALUES (7, 70)")
        assert db.execute(sql, txn=reader).rows == []
        reader.commit()

    def test_update_matching_nothing_holds_its_shared_lock(self, case):
        db, where = case
        writer = db.begin(IsolationLevel.SERIALIZABLE)
        sql = f"UPDATE t SET v = 0 WHERE {where(7)}"
        assert db.execute(sql, txn=writer).rowcount == 0
        locks = db.txn_manager.locks
        assert locks.held_by(writer.txn_id) == {"table:t"}
        assert locks.mode_of("table:t").value == "S"
        other = db.begin(IsolationLevel.SERIALIZABLE)
        db.execute("SELECT * FROM t", txn=other)  # readers still share
        with pytest.raises(LockTimeoutError):
            db.execute("INSERT INTO t VALUES (7, 70)", txn=other)
        writer.commit()

    def test_snapshot_reads_take_no_lock(self, case):
        db, where = case
        reader = db.begin(IsolationLevel.SNAPSHOT)
        db.execute(f"SELECT v FROM t WHERE {where(1)}", txn=reader)
        assert db.txn_manager.locks.held_by(reader.txn_id) == set()
        db.execute("UPDATE t SET v = 20 WHERE k = 1")  # not blocked
        reader.commit()
