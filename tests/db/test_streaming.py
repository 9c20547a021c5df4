"""End-to-end cursor streaming and LIMIT/EXISTS short-circuiting.

Covers the streamed ResultSet contract (lazy rows, snapshot pinning,
rowcount semantics), the cursor's O(fetch)-memory behavior, early scan
termination for LIMIT and one(), per-shard LIMIT pushdown with
coordinator early-stop on ShardedDatabase, and the per-statement
read_preference override.
"""

import pytest

from repro.db import (
    Database,
    ReplicaSet,
    ResultSet,
    Row,
    ShardedDatabase,
    connect,
)
from repro.errors import ExecutionError, InterfaceError

from eager_reads import ReadLog, read_rows


def seeded_db(n: int = 100) -> Database:
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER, v TEXT)")
    txn = db.begin()
    for i in range(n):
        db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"), txn=txn)
    txn.commit()
    return db


def count_scanned_rows(db: Database, table: str) -> dict:
    """Instrument a table's store so every scanned row is counted."""
    store = db.store(table)
    counter = {"rows": 0}
    original = store.scan

    def counting_scan(csn=None):
        inner = original(csn)

        def gen():
            for item in inner:
                counter["rows"] += 1
                yield item

        return gen()

    store.scan = counting_scan  # instance attribute shadows the method
    return counter


class TestStreamedResultSet:
    def test_source_rows_flow_lazily(self):
        pulled = {"n": 0}

        def gen():
            for i in range(10):
                pulled["n"] += 1
                yield (i,)

        rs = ResultSet(columns=["k"], kind="select", source=gen())
        assert rs.streaming
        assert rs.rowcount == -1  # DB-API "unknown" until drained
        assert rs.next_row() == (0,)
        assert pulled["n"] == 1
        assert rs.take(3) == [(1,), (2,), (3,)]
        assert pulled["n"] == 4

    def test_exhaustion_sets_rowcount(self):
        rs = ResultSet(columns=["k"], kind="select", source=iter([(1,), (2,)]))
        assert list(rs) == [(1,), (2,)]
        assert rs.rowcount == 2
        assert not rs.streaming
        assert rs.next_row() is None

    def test_rows_materializes_untouched_stream(self):
        rs = ResultSet(columns=["k"], kind="select", source=iter([(1,), (2,)]))
        assert rs.rows == [(1,), (2,)]
        assert rs.rowcount == 2
        assert rs.rows == [(1,), (2,)]  # second access hits the buffer

    def test_rows_after_partial_stream_raises(self):
        rs = ResultSet(
            columns=["k"], kind="select", source=iter([(1,), (2,), (3,)])
        )
        assert rs.next_row() == (1,)
        with pytest.raises(ExecutionError, match="was streamed"):
            rs.rows

    def test_whole_result_access_after_exhaustion_stays_loud(self):
        """A drained stream must not quietly impersonate an empty result."""
        rs = ResultSet(columns=["k"], kind="select", source=iter([(1,), (2,)]))
        drained = []
        for row in rs:  # true streaming consumption (no len() hint)
            drained.append(row)
        assert drained == [(1,), (2,)]
        assert rs.rowcount == 2 and bool(rs)
        with pytest.raises(ExecutionError, match="was streamed"):
            rs.rows
        with pytest.raises(TypeError, match="unknowable"):
            len(rs)
        with pytest.raises(ExecutionError, match="one-shot"):
            iter(rs)

    def test_list_materializes_via_length_hint_benignly(self):
        """list(result) probes len() first, which materializes the whole
        stream — afterwards the result behaves exactly like a
        materialized one (no silent emptiness, no raising)."""
        rs = ResultSet(columns=["k"], kind="select", source=iter([(1,), (2,)]))
        assert list(rs) == [(1,), (2,)]
        assert rs.rows == [(1,), (2,)] and len(rs) == 2

    def test_prime_holds_the_first_row(self):
        rs = ResultSet(columns=["k"], kind="select", source=iter([(7,), (8,)]))
        rs.prime()
        assert rs.streaming
        assert rs.next_row() == (7,)
        assert rs.next_row() == (8,)
        assert rs.next_row() is None

    def test_close_abandons_the_tail(self):
        rs = ResultSet(
            columns=["k"], kind="select", source=iter([(1,), (2,), (3,)])
        )
        assert rs.next_row() == (1,)
        rs.close()
        assert rs.next_row() is None
        assert not rs.streaming

    def test_bool_on_partially_streamed_result(self):
        rs = ResultSet(columns=["k"], kind="select", source=iter([(1,)]))
        assert rs.next_row() == (1,)
        assert bool(rs)

    def test_materialized_results_are_unchanged(self):
        rs = ResultSet(columns=["k"], rows=[(1,), (2,)])
        assert not rs.streaming
        assert rs.rowcount == 2 and len(rs) == 2 and rs.first() == (1,)


class TestCursorStreaming:
    def test_fetchone_pulls_one_row_at_a_time(self):
        db = seeded_db(50)
        counter = count_scanned_rows(db, "t")
        cur = connect(db).cursor().execute("SELECT k, v FROM t")
        row = cur.fetchone()
        assert isinstance(row, Row) and (row.k, row.v) == (0, "v0")
        # Priming plus the fetch touched the first row only — nothing
        # near the table's 50 rows was materialized: O(fetch) buffering,
        # not O(result).
        assert counter["rows"] <= 2
        assert cur.rowcount == -1  # unknown until the stream ends

    def test_fetch_surface_matches_materialized_semantics(self):
        db = seeded_db(10)
        cur = connect(db).cursor().execute("SELECT k FROM t")
        assert cur.fetchone() == (0,)
        assert cur.fetchmany(3) == [(1,), (2,), (3,)]
        assert cur.fetchall() == [(i,) for i in range(4, 10)]
        assert cur.fetchone() is None
        assert cur.rowcount == 10  # known once exhausted

    def test_iteration_streams(self):
        db = seeded_db(10)
        rows = list(connect(db).cursor().execute("SELECT k FROM t"))
        assert rows == [(i,) for i in range(10)]

    def test_stream_is_pinned_across_concurrent_commits(self):
        db = seeded_db(20)
        conn = connect(db)
        cur = conn.cursor().execute("SELECT k FROM t")
        first = [cur.fetchone(), cur.fetchone()]
        # A write lands while the cursor is mid-stream.
        conn.execute("INSERT INTO t VALUES (?, ?)", (999, "new"))
        conn.execute("DELETE FROM t WHERE k = ?", (5,))
        rest = cur.fetchall()
        # The stream serves its snapshot: all 20 original rows, no new
        # row, the deleted row still present.
        assert first + rest == [(i,) for i in range(20)]
        # A fresh statement sees the new state.
        fresh = [r[0] for r in conn.execute("SELECT k FROM t").rows]
        assert 999 in fresh and 5 not in fresh

    def test_stream_pinned_when_backing_txn_aborts(self):
        db = seeded_db(12)
        txn = db.begin()
        result = db.execute("SELECT k FROM t", txn=txn, stream=True)
        assert result.streaming
        txn.abort()  # the ephemeral reader is long gone by fetch time
        assert [r[0] for r in result] == list(range(12))

    def test_streaming_disabled_under_read_tracking(self):
        db = seeded_db(5)
        log = ReadLog.on(db)
        txn = db.begin()
        result = db.execute("SELECT k FROM t", txn=txn, stream=True)
        assert not result.streaming  # provenance requires the full drain
        assert len(result.rows) == 5
        assert len(read_rows(log[txn], db)) == 5
        txn.abort()

    def test_streaming_disabled_with_observers(self):
        db = seeded_db(5)

        class Observer:
            events = ("statement_executed",)

            def statement_executed(self, txn, trace):
                self.trace = trace

        observer = Observer()
        db.add_observer(observer)
        result = connect(db).execute("SELECT k FROM t")
        assert not result.streaming
        assert observer.trace.rowcount == 5  # trace parity preserved

    def test_new_statement_abandons_previous_stream(self):
        db = seeded_db(10)
        cur = connect(db).cursor()
        cur.execute("SELECT k FROM t")
        cur.fetchone()
        cur.execute("SELECT v FROM t WHERE k = ?", (3,))
        assert cur.fetchone() == ("v3",)

    def test_closed_cursor_drops_stream(self):
        db = seeded_db(10)
        conn = connect(db)
        with conn.cursor() as cur:
            cur.execute("SELECT k FROM t")
            cur.fetchone()
        with pytest.raises(InterfaceError, match="closed"):
            cur.fetchone()

    def test_replicated_reads_stream_too(self):
        cluster = ReplicaSet(seeded_db(15), n_replicas=1, mode="sync")
        conn = connect(cluster)
        result = conn.execute("SELECT k FROM t")
        assert result.streaming
        assert sorted(r[0] for r in result) == list(range(15))
        assert cluster.stats["replica_reads"] == 1


class TestShortCircuit:
    def test_limit_terminates_the_scan_early(self):
        db = seeded_db(200)
        counter = count_scanned_rows(db, "t")
        result = db.execute("SELECT k FROM t LIMIT 5")
        assert result.rows == [(i,) for i in range(5)]
        assert counter["rows"] == 5

    def test_limit_offset_scans_exactly_the_window(self):
        db = seeded_db(200)
        counter = count_scanned_rows(db, "t")
        result = db.execute("SELECT k FROM t LIMIT 5 OFFSET 10")
        assert result.rows == [(i,) for i in range(10, 15)]
        assert counter["rows"] == 15

    def test_limit_zero_scans_nothing(self):
        db = seeded_db(50)
        counter = count_scanned_rows(db, "t")
        assert db.execute("SELECT k FROM t LIMIT 0").rows == []
        assert counter["rows"] == 0

    def test_one_stops_after_disproving_uniqueness(self):
        db = seeded_db(500)
        counter = count_scanned_rows(db, "t")
        conn = connect(db)
        with pytest.raises(ExecutionError, match="exactly one row"):
            conn.execute("SELECT k FROM t").one()
        # Two rows disprove uniqueness; the other 498 were never scanned.
        assert counter["rows"] <= 3

    def test_one_still_returns_the_single_row(self):
        db = seeded_db(50)
        row = connect(db).execute("SELECT k, v FROM t WHERE k = ?", (7,)).one()
        assert (row.k, row.v) == (7, "v7")

    def test_first_pulls_a_single_row(self):
        db = seeded_db(300)
        counter = count_scanned_rows(db, "t")
        assert connect(db).execute("SELECT k FROM t").first() == (0,)
        assert counter["rows"] <= 2


def seeded_sharded(n: int = 400, shards: int = 4) -> ShardedDatabase:
    sdb = ShardedDatabase(shards, shard_keys={"t": "k"})
    sdb.execute("CREATE TABLE t (k INTEGER, v TEXT)")
    gtxn = sdb.begin()
    for i in range(n):
        sdb.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"), txn=gtxn)
    gtxn.commit()
    return sdb


class TestShardedLimitPushdown:
    @pytest.mark.parametrize(
        "base,limit,offset",
        [
            ("SELECT * FROM t", 7, 0),
            ("SELECT * FROM t", 7, 3),
            ("SELECT k FROM t WHERE k < 50", 5, 0),
            ("SELECT k FROM t", 9, 0),
            ("SELECT * FROM t", 0, 0),
            ("SELECT * FROM t ORDER BY k", 4, 0),
            ("SELECT * FROM t ORDER BY k DESC", 4, 2),
            ("SELECT DISTINCT v FROM t", 3, 0),
            ("SELECT COUNT(*) FROM t", 1, 0),
            ("SELECT k FROM t WHERE k IN (1, 2, 3)", 2, 0),
        ],
    )
    def test_limited_rows_are_a_window_of_the_full_result(self, base, limit, offset):
        """Shard streams are concatenated in target order, so a capped
        gather returns the un-LIMITed statement's ``[offset:offset + limit]``."""
        sdb = seeded_sharded()
        window = sdb.execute(base).rows[offset : offset + limit]
        assert sdb.execute(f"{base} LIMIT {limit} OFFSET {offset}").rows == window
        assert sdb.execute(f"{base} LIMIT ? OFFSET ?", (limit, offset)).rows == window

    def test_coordinator_stops_draining_satisfied_shards(self):
        sdb = seeded_sharded()
        begun_before = [s.txn_manager.stats["begun"] for s in sdb.shards]
        result = sdb.execute("SELECT k FROM t LIMIT 3")
        assert len(result.rows) == 3
        begun_after = [s.txn_manager.stats["begun"] for s in sdb.shards]
        # At least one shard was never visited: no read transaction begun.
        untouched = sum(
            1 for b, a in zip(begun_before, begun_after) if b == a
        )
        assert untouched >= 1
        assert sdb.stats["limit_pushdown_queries"] == 1
        assert sdb.stats["limit_shards_skipped"] >= untouched

    def test_order_by_and_aggregates_do_not_push_down(self):
        sdb = seeded_sharded(80)
        sdb.execute("SELECT * FROM t ORDER BY k LIMIT 5")
        sdb.execute("SELECT COUNT(*) FROM t LIMIT 1")
        sdb.execute("SELECT DISTINCT v FROM t LIMIT 5")
        sdb.execute("SELECT v, COUNT(*) FROM t GROUP BY v LIMIT 5")
        assert sdb.stats["limit_pushdown_queries"] == 0

    def test_pushdown_respects_key_routing(self):
        sdb = seeded_sharded()
        result = sdb.execute("SELECT v FROM t WHERE k = ? LIMIT 1", (42,))
        assert result.rows == [("v42",)]
        assert sdb.stats["routed_statements"] >= 1

    def test_pushdown_skipped_when_observed(self):
        """A TROD-observed cluster drains fully — traces stay intact."""
        sdb = seeded_sharded(80)
        traces = []

        class Observer:
            events = ("statement_executed",)

            def statement_executed(self, txn, trace):
                traces.append(trace)

        sdb.add_observer(Observer())
        result = sdb.execute("SELECT k FROM t LIMIT 3")
        assert len(result.rows) == 3
        # Every shard that was scanned reported its full per-shard trace.
        assert sum(t.rowcount for t in traces) >= 3

    def test_limit_pushdown_through_connection_and_replicas(self):
        sdb = seeded_sharded(200)
        sdb.attach_replicas(1, mode="sync")
        conn = connect(sdb)
        rows = conn.execute("SELECT k FROM t LIMIT 6").rows
        assert rows == conn.execute("SELECT k FROM t").rows[:6]
        assert sdb.stats["limit_pushdown_queries"] == 1


class TestPerStatementReadPreference:
    def make_cluster(self) -> ReplicaSet:
        cluster = ReplicaSet(seeded_db(10), n_replicas=2, mode="async")
        cluster.catch_up()
        return cluster

    def test_primary_override_on_replica_connection(self):
        cluster = self.make_cluster()
        conn = connect(cluster)  # default: replica
        conn.execute("SELECT COUNT(*) FROM t")
        assert cluster.stats["replica_reads"] == 1
        conn.execute("SELECT COUNT(*) FROM t", read_preference="primary")
        assert cluster.stats["primary_reads"] == 1
        # The connection default is untouched.
        conn.execute("SELECT COUNT(*) FROM t")
        assert cluster.stats["replica_reads"] == 2

    def test_wait_override_forces_catch_up(self):
        cluster = self.make_cluster()
        conn = connect(cluster)
        conn.execute("UPDATE t SET v = ? WHERE k = ?", ("fresh", 1))
        value = conn.execute(
            "SELECT v FROM t WHERE k = ?", (1,), read_preference="wait"
        ).scalar()
        assert value == "fresh"
        assert cluster.stats["catch_up_waits"] == 1
        assert cluster.stats["stale_fallbacks"] == 0

    def test_cursor_passes_the_override_through(self):
        cluster = self.make_cluster()
        cur = connect(cluster).cursor()
        cur.execute("SELECT COUNT(*) FROM t", read_preference="primary")
        assert cur.fetchone() == (10,)
        assert cluster.stats["primary_reads"] == 1

    def test_unknown_override_rejected(self):
        conn = connect(seeded_db(3))
        with pytest.raises(InterfaceError, match="read_preference"):
            conn.execute("SELECT * FROM t", read_preference="nearest")
        # Validated on writes too — a typo must not wait for a SELECT.
        with pytest.raises(InterfaceError, match="read_preference"):
            conn.execute(
                "INSERT INTO t VALUES (9, 'x')", read_preference="nearest"
            )

    def test_sharded_override_keeps_the_routing_counters(self):
        sdb = seeded_sharded(40, shards=2)
        sdb.attach_replicas(1)
        sdb.catch_up()
        conn = connect(sdb)  # default replica
        conn.execute("SELECT COUNT(*) FROM t")
        assert sdb.cluster_stats["replica_reads"] == 2
        assert sdb.cluster_stats["catch_up_waits"] == 0
        conn.execute("UPDATE t SET v = ? WHERE k = ?", ("x", 1))
        # The override switches this one statement to wait mode; the
        # replicas lag, so it must catch them up rather than fall back.
        value = conn.execute(
            "SELECT v FROM t WHERE k = ?", (1,), read_preference="wait"
        ).scalar()
        assert value == "x"
        assert sdb.cluster_stats["catch_up_waits"] == 1
        assert sdb.cluster_stats["stale_fallbacks"] == 0
        # The counters live on the replica sets: flipping the preference
        # per statement accumulates into them instead of resetting them.
        assert sdb.cluster_stats["replica_reads"] == 3
        # Primary override never asks a replica.
        conn.execute("SELECT COUNT(*) FROM t", read_preference="primary")
        assert sdb.cluster_stats["replica_reads"] == 3
        assert sdb.cluster_stats["primary_reads"] == 2
