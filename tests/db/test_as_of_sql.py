"""Time travel: the SELECT ... AS OF <csn> clause, the one reader of the past."""

import pytest

from repro.db import Database, ReplicaSet, ShardedDatabase, connect
from repro.db.sql.parser import parse_sql
from repro.errors import ExecutionError, SqlSyntaxError, TimeTravelError


def history_db() -> Database:
    """Three committed versions of row id=1: v at csn 1, then 2, then 3."""
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER, v TEXT)")
    db.execute("INSERT INTO t VALUES (1, 'first')")   # csn 1
    db.execute("UPDATE t SET v = 'second' WHERE id = 1")  # csn 2
    db.execute("UPDATE t SET v = 'third' WHERE id = 1")   # csn 3
    return db


class TestParsing:
    def test_trailing_clause_with_literal(self):
        stmt = parse_sql("SELECT * FROM t WHERE id = 1 AS OF 7")
        assert stmt.as_of is not None

    def test_from_position_before_where(self):
        stmt = parse_sql("SELECT * FROM t AS OF 7 WHERE id = 1")
        assert stmt.as_of is not None
        assert stmt.from_table.alias is None  # not an alias named "of"

    def test_parameterized(self):
        stmt = parse_sql("SELECT * FROM t AS OF ?")
        assert stmt.param_count == 1

    def test_alias_named_of_still_works(self):
        # Without a CSN operand, AS OF is just an alias.
        stmt = parse_sql("SELECT of.id FROM t AS of")
        assert stmt.from_table.alias == "of"

    def test_after_order_and_limit(self):
        stmt = parse_sql("SELECT * FROM t ORDER BY id LIMIT 2 AS OF 3")
        assert stmt.as_of is not None and stmt.limit is not None

    def test_duplicate_clause_rejected(self):
        with pytest.raises(SqlSyntaxError, match="duplicate AS OF"):
            parse_sql("SELECT * FROM t AS OF 1 AS OF 2")


class TestSingleNode:
    def test_reads_each_historical_version(self):
        db = history_db()
        read = lambda csn: db.execute(
            "SELECT v FROM t WHERE id = 1 AS OF ?", (csn,)
        ).scalar()
        assert [read(1), read(2), read(3)] == ["first", "second", "third"]

    def test_equivalent_to_version_store_scan(self):
        db = history_db()
        via_sql = db.execute("SELECT id, v FROM t AS OF 2").rows
        assert via_sql == [values for _rid, values in db.store("t").scan(2)]

    def test_consumes_no_csn(self):
        db = history_db()
        before = db.last_csn
        db.execute("SELECT * FROM t AS OF 1")
        assert db.last_csn == before

    def test_future_csn_rejected(self):
        db = history_db()
        with pytest.raises(TimeTravelError, match="future"):
            db.execute("SELECT * FROM t AS OF 99")

    def test_vacuumed_csn_rejected(self):
        db = history_db()
        db.vacuum(keep_after_csn=3)
        with pytest.raises(TimeTravelError, match="vacuum horizon"):
            db.execute("SELECT * FROM t AS OF 1")

    def test_non_integer_csn_rejected(self):
        db = history_db()
        with pytest.raises(ExecutionError, match="non-negative integer"):
            db.execute("SELECT * FROM t AS OF ?", ("soon",))
        with pytest.raises(ExecutionError, match="non-negative integer"):
            db.execute("SELECT * FROM t AS OF ?", (-1,))

    def test_integral_float_csn_accepted(self):
        db = history_db()
        assert (
            db.execute("SELECT v FROM t WHERE id = 1 AS OF ?", (2.0,)).scalar()
            == "second"
        )

    def test_rejected_inside_insert_select(self):
        db = history_db()
        with pytest.raises(ExecutionError, match="INSERT"):
            db.execute("INSERT INTO t SELECT id, v FROM t AS OF 1")

    def test_ignores_enclosing_transaction_snapshot(self):
        db = history_db()
        txn = db.begin()
        try:
            assert (
                db.execute(
                    "SELECT v FROM t WHERE id = 1 AS OF 1", txn=txn
                ).scalar()
                == "first"
            )
        finally:
            txn.abort()


def insert_update_delete_db() -> Database:
    """Commits 1-4: insert a, insert b, update a, delete b."""
    db = Database()
    db.execute("CREATE TABLE t (k TEXT NOT NULL, v INTEGER)")
    db.execute("INSERT INTO t VALUES ('a', 1)")  # csn 1
    db.execute("INSERT INTO t VALUES ('b', 2)")  # csn 2
    db.execute("UPDATE t SET v = 10 WHERE k = 'a'")  # csn 3
    db.execute("DELETE FROM t WHERE k = 'b'")  # csn 4
    return db


class TestHistory:
    """Whole-table reads of a history with an insert, update and delete."""

    def rows_at(self, db: Database, csn: int) -> list[tuple]:
        return db.execute("SELECT k, v FROM t AS OF ?", (csn,)).rows

    def test_state_at_each_csn(self):
        db = insert_update_delete_db()
        assert self.rows_at(db, 1) == [("a", 1)]
        assert self.rows_at(db, 2) == [("a", 1), ("b", 2)]
        assert self.rows_at(db, 3) == [("a", 10), ("b", 2)]
        assert self.rows_at(db, 4) == [("a", 10)]

    def test_csn_zero_is_empty(self):
        assert self.rows_at(insert_update_delete_db(), 0) == []

    def test_state_before_a_transaction(self):
        """The state a transaction saw is ``AS OF`` its CSN minus one."""
        db = insert_update_delete_db()
        txn = db.begin()
        db.execute("UPDATE t SET v = 20 WHERE k = 'a'", txn=txn)
        txn.commit()
        csn = txn.commit_csn
        assert csn == 5
        assert self.rows_at(db, csn - 1) == [("a", 10)]
        assert self.rows_at(db, csn) == [("a", 20)]

    def test_open_transaction_has_no_csn_and_is_not_read(self):
        db = insert_update_delete_db()
        txn = db.begin()
        db.execute("INSERT INTO t VALUES ('c', 3)", txn=txn)
        assert txn.commit_csn is None
        assert self.rows_at(db, db.last_csn) == [("a", 10)]
        csn = txn.commit()
        assert txn.commit_csn == csn
        assert self.rows_at(db, csn - 1) == [("a", 10)]
        assert self.rows_at(db, csn) == [("a", 10), ("c", 3)]

    def test_vacuum_keeps_newer_history(self):
        db = insert_update_delete_db()
        assert db.vacuum(keep_after_csn=3) > 0
        with pytest.raises(TimeTravelError, match="vacuum horizon"):
            self.rows_at(db, 1)
        assert self.rows_at(db, 3) == [("a", 10), ("b", 2)]
        assert self.rows_at(db, 4) == [("a", 10)]

    def test_vacuumed_csn_raises_instead_of_reading_empty(self):
        """Vacuumed to 4, the versions of csn 2 are gone: a read of the
        version store alone answers ``[]`` where the state held two rows."""
        db = insert_update_delete_db()
        db.vacuum(keep_after_csn=4)
        with pytest.raises(TimeTravelError, match="vacuum horizon"):
            self.rows_at(db, 2)

    def test_future_csn_raises_instead_of_reading_latest(self):
        db = insert_update_delete_db()
        db.vacuum(keep_after_csn=4)
        with pytest.raises(TimeTravelError, match="future"):
            self.rows_at(db, 99)

    def test_latest_reads_unaffected_by_vacuum(self):
        db = insert_update_delete_db()
        db.vacuum(keep_after_csn=4)
        assert db.execute("SELECT k, v FROM t").rows == [("a", 10)]
        assert db.table_rows("t") == [{"k": "a", "v": 10}]


class TestSharded:
    def make(self) -> ShardedDatabase:
        sharded = ShardedDatabase(3, shard_keys={"t": "id"})
        sharded.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
        for i in range(9):
            sharded.execute("INSERT INTO t VALUES (?, ?)", (i, 0))  # gcsn i+1
        return sharded

    def test_global_csn_translation(self):
        sharded = self.make()
        # At global CSN 4, exactly rows 0..3 exist, whatever shard owns them.
        assert (
            sharded.execute("SELECT COUNT(*) FROM t AS OF 4").scalar() == 4
        )
        assert sharded.execute("SELECT COUNT(*) FROM t").scalar() == 9

    def test_parameterised_csn_matches_literal(self):
        sharded = self.make()
        sql = "SELECT id FROM t ORDER BY id"
        by_param = sharded.execute(sql + " AS OF ?", (5,)).rows
        assert by_param == sharded.execute(sql + " AS OF 5").rows
        assert by_param == [(i,) for i in range(5)]

    def test_rejected_inside_insert_select(self):
        sharded = self.make()
        with pytest.raises(ExecutionError, match="INSERT"):
            sharded.execute("INSERT INTO t SELECT id, v FROM t AS OF 1")

    def test_served_by_covering_replicas_through_connection(self):
        sharded = self.make()
        sharded.attach_replicas(1)
        sharded.catch_up()
        bookmark = sharded.last_commit_csn
        conn = connect(sharded)
        conn.execute("UPDATE t SET v = 99 WHERE id = 4")
        # Replicas lag behind the update but cover the bookmark.
        assert (
            conn.execute(
                "SELECT v FROM t WHERE id = 4 AS OF ?", (bookmark,)
            ).scalar()
            == 0
        )
        assert conn.execute("SELECT v FROM t WHERE id = 4").scalar() == 99


class TestReplicated:
    def test_covering_replica_serves_the_read(self):
        cluster = ReplicaSet(history_db(), n_replicas=1, mode="async")
        cluster.catch_up()
        bookmark = cluster.last_commit_csn
        conn = connect(cluster)
        conn.execute("UPDATE t SET v = 'fourth' WHERE id = 1")
        assert (
            conn.execute(
                "SELECT v FROM t WHERE id = 1 AS OF ?", (bookmark,)
            ).scalar()
            == "third"
        )
        assert cluster.stats["replica_reads"] == 1

    def test_uncovered_csn_falls_back_to_primary(self):
        cluster = ReplicaSet(history_db(), n_replicas=1, mode="async")
        # The replica bootstrapped at csn 3: history before that is only
        # on the primary.
        conn = connect(cluster)
        assert (
            conn.execute("SELECT v FROM t WHERE id = 1 AS OF 1").scalar()
            == "first"
        )
        assert cluster.stats["primary_reads"] == 1
