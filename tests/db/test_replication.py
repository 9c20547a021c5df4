"""Replication correctness: log shipping, sessions, failover, routing.

The heart of this file is the differential acceptance test: a primary and
its replicas must be *indistinguishable* — every SELECT (point, scan,
aggregate, AS-OF) against a caught-up replica returns byte-identical
results, across hundreds of randomized write/ship interleavings. On top
of that: ship-record/applier mechanics (CSN and row-id preservation, gap
detection), sync vs async ship modes and lag tracking, session
guarantees (read-your-writes under lag), promotion/fencing, and the
replica-aware read path of the sharded facade.
"""

import gc
import random

import pytest

import repro
from repro.db import Database, IsolationLevel, ShardedDatabase
from repro.db.replication import (
    Applier,
    ReplicaSet,
    ReplicationLog,
    Session,
    ShipRecord,
)
from repro.db.schema import Column, ColumnType, TableSchema
from repro.db.txn.wal import WalCommit
from repro.errors import (
    FencedError,
    ReadOnlyError,
    ReplicationError,
    TimeTravelError,
)


def build_primary(rows: int = 0) -> Database:
    db = Database(name="primary")
    db.execute("CREATE TABLE t (k INTEGER, grp TEXT, v FLOAT)")
    if rows:
        txn = db.begin()
        for i in range(rows):
            db.execute(
                "INSERT INTO t VALUES (?, ?, ?)",
                (i, f"g{i % 5}", float(i)),
                txn=txn,
            )
        txn.commit()
    return db


class TestReplicationLog:
    def test_every_commit_recorded_including_empty(self):
        db = build_primary()
        log = ReplicationLog(db)
        db.execute("INSERT INTO t VALUES (1, 'g0', 0.0)")
        db.begin().commit()  # read-only commit: consumes a CSN, must ship
        records = log.since(0)
        assert [r.kind for r in records] == ["commit", "commit"]
        assert [r.csn for r in records] == [db.last_csn - 1, db.last_csn]
        assert records[0].changes and not records[1].changes

    def test_an_autocommitted_select_consumes_no_csn_and_ships_nothing(self):
        db = build_primary(rows=3)
        log = ReplicationLog(db)
        before = db.last_commit_csn
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 3
        assert db.execute("SELECT k FROM t AS OF ?", (before,)).rows
        assert db.last_commit_csn == before
        assert log.since(0) == []
        db.execute("INSERT INTO t VALUES (9, 'g0', 0.0)")
        assert [r.csn for r in log.since(0)] == [before + 1]

    def test_ddl_recorded_in_stream_order(self):
        db = Database()
        log = ReplicationLog(db)
        db.execute("CREATE TABLE a (x INTEGER)")
        db.execute("INSERT INTO a VALUES (1)")
        db.execute("CREATE INDEX ix_a ON a (x)")
        db.execute("DROP INDEX ix_a ON a")
        db.execute("DROP TABLE a")
        kinds = [(r.kind, r.ddl[0] if r.ddl else None) for r in log.since(0)]
        assert kinds == [
            ("ddl", "create_table"),
            ("commit", None),
            ("ddl", "create_index"),
            ("ddl", "drop_index"),
            ("ddl", "drop_table"),
        ]

    def test_a_set_releases_what_every_replica_applied(self):
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=2, mode="async")
        for i in range(6):
            db.execute("INSERT INTO t VALUES (?, 'g0', 0.0)", (i,))
        assert len(rs.log) == 6
        rs.catch_up(rs.replicas[0], limit=4)
        assert len(rs.log) == 6  # the other replica has applied nothing
        rs.catch_up(rs.replicas[1], limit=3)
        assert [r.seq for r in rs.log.since(0)] == [4, 5, 6]
        rs.catch_up()
        assert len(rs.log) == 0 and rs.log.last_seq == 6

    def test_detach_stops_the_tap(self):
        db = build_primary()
        log = ReplicationLog(db)
        db.execute("INSERT INTO t VALUES (1, 'g0', 0.0)")
        log.detach()
        db.execute("INSERT INTO t VALUES (2, 'g0', 0.0)")
        assert len(log) == 1

    def test_subscribers_see_records_in_order(self):
        db = build_primary()
        log = ReplicationLog(db)
        seen = []
        unsubscribe = log.subscribe(lambda r: seen.append(r.seq))
        db.execute("INSERT INTO t VALUES (1, 'g0', 0.0)")
        db.execute("INSERT INTO t VALUES (2, 'g0', 0.0)")
        unsubscribe()
        db.execute("INSERT INTO t VALUES (3, 'g0', 0.0)")
        assert seen == [1, 2]


class TestApplier:
    def test_csn_and_row_id_preservation(self):
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=1)
        db.execute("INSERT INTO t VALUES (1, 'g0', 1.0)")
        db.execute("UPDATE t SET v = 2.0 WHERE k = 1")
        db.execute("DELETE FROM t WHERE k = 1")
        db.execute("INSERT INTO t VALUES (2, 'g1', 3.0)")
        rs.catch_up()
        replica = rs.replicas[0].database
        assert replica.last_csn == db.last_csn
        assert list(replica.store("t").scan(None)) == list(db.store("t").scan(None))
        # Version history (not just latest state) matches from the
        # bootstrap point on: AS-OF reads agree at every CSN.
        for csn in range(db.last_csn + 1):
            assert list(replica.store("t").scan(csn)) == list(db.store("t").scan(csn))

    def test_txn_ids_agree_across_fleet(self, commit_tap):
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=1)
        replica = rs.replicas[0].database
        primary_commits, replica_commits = commit_tap(db), commit_tap(replica)
        result = db.execute("INSERT INTO t VALUES (1, 'g0', 1.0)")
        assert result.rowcount == 1
        rs.catch_up()
        # The same txn id commits at the same csn on both nodes.
        [commit] = primary_commits
        assert (commit.txn_id, commit.csn) == (1, db.last_csn)
        assert [(c.txn_id, c.csn) for c in replica_commits] == [(1, db.last_csn)]

    def test_txn_ids_survive_skewed_txn_counters(self, commit_tap):
        """Aborted primary txns skew local vs primary txn ids; the replica
        applies each commit under the primary's txn id all the same."""
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=1)
        replica = rs.replicas[0].database
        primary_commits, replica_commits = commit_tap(db), commit_tap(replica)
        aborted = db.begin()  # consumes primary txn id 1, never commits
        db.execute("INSERT INTO t VALUES (0, 'g0', 0.0)", txn=aborted)
        aborted.abort()
        db.execute("INSERT INTO t VALUES (1, 'g0', 1.0)")  # txn 2 -> csn 1
        db.execute("INSERT INTO t VALUES (2, 'g0', 2.0)")  # txn 3 -> csn 2
        rs.catch_up()
        expected = [(2, 1), (3, 2)]
        assert [(c.txn_id, c.csn) for c in primary_commits] == expected
        assert [(c.txn_id, c.csn) for c in replica_commits] == expected
        assert replica.txn_manager._next_txn_id == db.txn_manager._next_txn_id

    def test_bootstrap_carries_the_txn_counter(self, commit_tap):
        db = build_primary()
        db.execute("INSERT INTO t VALUES (1, 'g0', 1.0)")
        rs = ReplicaSet(db, n_replicas=1)  # bootstraps after the commit
        replica = rs.replicas[0].database
        assert replica.txn_manager._next_txn_id == db.txn_manager._next_txn_id
        primary_commits, replica_commits = commit_tap(db), commit_tap(replica)
        db.execute("INSERT INTO t VALUES (2, 'g0', 2.0)")
        rs.catch_up()
        assert [(c.txn_id, c.csn) for c in replica_commits] == [
            (c.txn_id, c.csn) for c in primary_commits
        ]
        assert replica.txn_manager._next_txn_id == db.txn_manager._next_txn_id

    def test_a_promoted_replica_continues_the_primarys_txn_ids(self):
        """Read-only commits take txn ids too: the replica's counter moves
        past them, so the promoted node reuses none."""
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=1)
        db.execute("INSERT INTO t VALUES (1, 'g0', 1.0)")
        for _ in range(2):
            reader = db.begin()
            db.execute("SELECT * FROM t", txn=reader)
            reader.commit()
        rs.catch_up()
        rs.promote(rs.replicas[0].name)
        txn = rs.primary.begin()
        assert txn.txn_id == reader.txn_id + 1
        txn.abort()

    def test_gap_detection_behind_and_ahead(self):
        db = build_primary()
        log = ReplicationLog(db)
        db.execute("INSERT INTO t VALUES (1, 'g0', 1.0)")
        db.execute("INSERT INTO t VALUES (2, 'g0', 2.0)")
        replica = Database(name="r")
        replica.execute("CREATE TABLE t (k INTEGER, grp TEXT, v FLOAT)")
        applier = Applier(replica)
        records = log.since(0)
        commits = [r for r in records if r.kind == "commit"]
        with pytest.raises(ReplicationError, match="behind"):
            applier.apply(commits[1])  # skipped the first commit
        applier.apply(commits[0])
        applier.apply(commits[1])
        with pytest.raises(ReplicationError, match="ahead"):
            applier.apply(commits[1])  # replayed twice

    def test_replica_cdc_mirrors_primary_ops(self, commit_tap):
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=1)
        primary_tap = commit_tap(db)
        replica_tap = commit_tap(rs.replicas[0].database)
        db.execute("INSERT INTO t VALUES (1, 'g0', 1.0)")
        db.execute("UPDATE t SET v = 9.0 WHERE k = 1")
        rs.catch_up()
        ops = [(c.csn, c.txn_id, c.changes) for c in replica_tap]
        assert ops == [(c.csn, c.txn_id, c.changes) for c in primary_tap]
        assert [c.op for _, _, changes in ops for c in changes] == ["insert", "update"]

    def test_ddl_applies_on_replicas(self):
        db = Database()
        rs = ReplicaSet(db, n_replicas=1, mode="sync")
        db.execute("CREATE TABLE a (x INTEGER, y TEXT)")
        db.execute("CREATE INDEX ix_ax ON a (x)")
        db.execute("INSERT INTO a VALUES (1, 'one')")
        replica = rs.replicas[0].database
        assert replica.catalog.has_table("a")
        assert "ix_ax" in replica.index_set("a").indexes
        assert replica.execute("SELECT y FROM a WHERE x = 1").scalar() == "one"
        db.execute("DROP TABLE a")
        assert not replica.catalog.has_table("a")


class TestReplicaSet:
    def test_sync_mode_has_zero_lag(self):
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=2, mode="sync")
        for i in range(10):
            db.execute("INSERT INTO t VALUES (?, 'g0', 0.0)", (i,))
        assert rs.max_lag() == 0
        for replica in rs.replicas:
            assert (
                replica.database.execute("SELECT COUNT(*) FROM t").scalar() == 10
            )

    def test_async_lag_then_catch_up(self):
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=2, mode="async")
        for i in range(5):
            db.execute("INSERT INTO t VALUES (?, 'g0', 0.0)", (i,))
        assert rs.max_lag() == 5
        applied = rs.catch_up()
        assert applied == 10  # 5 records x 2 replicas
        assert rs.max_lag() == 0

    def test_catch_up_limit_bounds_apply(self):
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=1, mode="async")
        for i in range(6):
            db.execute("INSERT INTO t VALUES (?, 'g0', 0.0)", (i,))
        rs.catch_up(limit=2)
        assert rs.lag(rs.replicas[0]) == 4
        rs.catch_up()
        assert rs.max_lag() == 0

    def test_least_lagged_and_pick_min_csn(self):
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=2, mode="async")
        for i in range(4):
            db.execute("INSERT INTO t VALUES (?, 'g0', 0.0)", (i,))
        r0, r1 = rs.replicas
        rs.catch_up(r0, limit=3)
        assert rs.least_lagged() is r0
        # The floor excludes the laggard entirely.
        assert rs.pick(min_csn=r0.csn) is r0
        assert rs.pick(min_csn=db.last_csn + 1) is None

    def test_bootstrap_mid_stream_snapshot_and_horizon(self):
        db = build_primary(rows=20)
        base = db.last_csn
        rs = ReplicaSet(db)
        replica = rs.add_replica()
        db.execute("UPDATE t SET v = -1.0 WHERE k < 5")
        rs.catch_up()
        database = replica.database
        assert database.execute("SELECT COUNT(*) FROM t WHERE v = -1.0").scalar() == 5
        # History from the bootstrap point on is reachable...
        assert list(database.store("t").scan(base)) == list(db.store("t").scan(base))
        # ...but the pre-bootstrap past is behind the horizon.
        assert database.history_horizon == base
        with pytest.raises(TimeTravelError):
            database.execute("SELECT * FROM t AS OF ?", (base - 1,))

    def test_replicas_are_read_only(self):
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=1)
        replica = rs.replicas[0].database
        with pytest.raises(ReadOnlyError):
            replica.execute("INSERT INTO t VALUES (1, 'g0', 0.0)")
        with pytest.raises(ReadOnlyError):
            replica.execute("CREATE TABLE u (x INTEGER)")
        with pytest.raises(ReadOnlyError):
            replica.insert_row("t", {"k": 1, "grp": "g0", "v": 0.0})

    def test_replica_reads_do_not_drift_the_csn_clock(self):
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=1)
        db.execute("INSERT INTO t VALUES (1, 'g0', 0.0)")
        rs.catch_up()
        replica = rs.replicas[0].database
        before = replica.last_csn
        for _ in range(5):
            replica.execute("SELECT COUNT(*) FROM t")
        assert replica.last_csn == before
        # And the stream still applies cleanly afterwards.
        db.execute("INSERT INTO t VALUES (2, 'g0', 0.0)")
        rs.catch_up()
        assert replica.last_csn == db.last_csn

    def test_a_crashed_replica_pins_the_log_until_it_catches_up(self):
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=2, mode="sync")
        down = rs.replicas[0]
        down.database.crashed = True
        for i in range(10):
            db.execute("INSERT INTO t VALUES (?, 'g0', 0.0)", (i,))
        assert rs.lag(rs.replicas[1]) == 0
        assert len(rs.log) == 10  # all unapplied on the crashed replica
        down.database.crashed = False
        rs.catch_up()
        assert len(rs.log) == 0 and rs.stats["resyncs"] == 0
        assert down.database.execute("SELECT COUNT(*) FROM t").scalar() == 10
        assert rs.lag(down) == 0
        # Both follow the stream inside each commit from here.
        db.execute("INSERT INTO t VALUES (99, 'g0', 0.0)")
        assert len(rs.log) == 0
        assert down.database.execute("SELECT COUNT(*) FROM t").scalar() == 11


class TestResync:
    """``resync`` rebuilds a replica from a fresh primary snapshot, in
    place, and puts it at the end of the log."""

    def lagging_set(self):
        db = build_primary(rows=5)
        rs = ReplicaSet(db, n_replicas=1, mode="async")
        for i in range(4):
            db.execute("INSERT INTO t VALUES (?, 'g1', 1.0)", (100 + i,))
        assert len(rs.log) == 4
        return db, rs

    def test_rebuilds_in_place_at_the_log_end(self):
        db, rs = self.lagging_set()
        replica = rs.replicas[0]
        old_database = replica.database
        resyncs = rs.stats["resyncs"]
        rs.resync(replica)
        assert rs.replicas == [replica]
        assert replica.database is not old_database
        assert replica.applier.applied_seq == rs.log.last_seq
        assert rs.stats["resyncs"] == resyncs + 1
        assert len(rs.log) == 0
        assert replica.database.execute("SELECT COUNT(*) FROM t").scalar() == 9
        assert rs.lag(replica) == 0

    def test_a_later_commit_reaches_the_rebuilt_database(self):
        db, rs = self.lagging_set()
        rs.resync(rs.replicas[0].name)
        db.execute("INSERT INTO t VALUES (200, 'g2', 2.0)")
        assert rs.catch_up() == 1
        rebuilt = rs.replicas[0].database
        assert rebuilt.execute("SELECT v FROM t WHERE k = 200").scalar() == 2.0
        assert rebuilt.last_csn == db.last_csn
        assert len(rs.log) == 0


class TestRevivedSyncReplica:
    """A sync replica revived after a crash drains its backlog inside the
    next commit, ahead of that commit's record."""

    @pytest.mark.parametrize("lagging", [1, 2])
    def test_the_next_commit_heals_every_revived_replica(self, lagging):
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=3, mode="sync")
        db.execute("INSERT INTO t VALUES (0, 'g0', 0.0)")
        down = rs.replicas[:lagging]
        for replica in down:
            replica.database.crashed = True
        db.execute("INSERT INTO t VALUES (1, 'g0', 0.0)")
        for replica in down:
            replica.database.crashed = False
        for k in range(2, 5):
            db.execute("INSERT INTO t VALUES (?, 'g0', 0.0)", (k,))
        assert [replica.csn for replica in rs.replicas] == [db.last_csn] * 3
        assert len(rs.log) == 0
        # Five commits, each applied once on each of three replicas.
        assert rs.stats["shipped_records"] == 5 * 3
        for replica in rs.replicas:
            assert replica.database.execute("SELECT COUNT(*) FROM t").scalar() == 5

    def test_through_connect_on_a_replicated_database(self):
        rs = ReplicaSet(Database(name="replicated"), n_replicas=2, mode="sync")
        conn = repro.connect(rs)
        conn.execute("CREATE TABLE t (k INTEGER)")
        conn.execute("INSERT INTO t VALUES (0)")
        rs.replicas[0].database.crashed = True
        conn.execute("INSERT INTO t VALUES (1)")
        rs.replicas[0].database.crashed = False
        conn.execute("INSERT INTO t VALUES (2)")
        assert [r.csn for r in rs.replicas] == [rs.last_commit_csn] * 2
        assert len(rs.log) == 0
        for _ in rs.replicas:  # round robin: each replica answers once
            assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 3
        assert rs.stats["replica_reads"] == 2


def live(kind: type) -> int:
    """How many objects of exactly ``kind`` the process holds."""
    gc.collect()
    return sum(type(obj) is kind for obj in gc.get_objects())


class TestRetentionGuard:
    """Nothing keeps a commit nobody reads: a database without a WAL file
    keeps no commit record, and a replica set's log holds exactly the
    records some replica has not applied."""

    def test_a_sync_set_keeps_no_commit_and_no_ship_record(self):
        commits, records = live(WalCommit), live(ShipRecord)
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=2, mode="sync")
        for i in range(2000):
            db.execute("INSERT INTO t VALUES (?, 'g0', 0.0)", (i,))
        assert rs.max_lag() == 0
        assert live(WalCommit) - commits == 0
        assert live(ShipRecord) - records == 0

    def test_an_async_set_holds_its_lag_until_caught_up(self):
        records = live(ShipRecord)
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=2, mode="async")
        for i in range(500):
            db.execute("INSERT INTO t VALUES (?, 'g0', 0.0)", (i,))
        lag = rs.max_lag()
        assert lag == 500 and len(rs.log) == lag
        assert live(ShipRecord) - records == lag
        rs.catch_up()
        assert rs.max_lag() == 0
        assert live(ShipRecord) - records == 0


class TestSessionGuarantees:
    def test_read_your_writes_falls_back_to_primary_under_lag(self):
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=2, mode="async")
        session = Session("u1")
        conn = repro.connect(rs, session=session)
        conn.execute("INSERT INTO t VALUES (1, 'g0', 7.0)")
        assert session.last_write_csn == db.last_csn
        # Replicas have not shipped; the session must still see its write.
        result = conn.execute("SELECT v FROM t WHERE k = 1")
        assert result.scalar() == 7.0
        assert rs.stats["stale_fallbacks"] == 1
        rs.catch_up()
        result = conn.execute("SELECT v FROM t WHERE k = 1")
        assert result.scalar() == 7.0
        assert rs.stats["replica_reads"] == 1

    def test_wait_mode_catches_up_and_serves_from_replica(self):
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=1, mode="async")
        conn = repro.connect(rs, session=Session("u1"), read_preference="wait")
        conn.execute("INSERT INTO t VALUES (1, 'g0', 7.0)")
        result = conn.execute("SELECT v FROM t WHERE k = 1")
        assert result.scalar() == 7.0
        assert rs.stats["catch_up_waits"] == 1
        assert rs.stats["replica_reads"] == 1
        assert rs.stats["stale_fallbacks"] == 0
        assert rs.max_lag() == 0

    def test_sessionless_reads_round_robin_across_replicas(self):
        db = build_primary(rows=4)
        rs = ReplicaSet(db, n_replicas=3, mode="sync")
        conn = repro.connect(rs)
        for _ in range(6):
            assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 4
        assert rs.stats["replica_reads"] == 6
        assert rs.stats["primary_reads"] == 0

    def test_other_sessions_unaffected_by_writers_token(self):
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=1, mode="async")
        writer = repro.connect(rs, session=Session("w"))
        reader = repro.connect(rs, session=Session("r"))
        writer.execute("INSERT INTO t VALUES (1, 'g0', 7.0)")
        # The reader never wrote; a (stale) replica serves it fine.
        reader.execute("SELECT COUNT(*) FROM t")
        assert rs.stats["replica_reads"] == 1
        assert rs.stats["stale_fallbacks"] == 0

    def test_rows_as_of_served_by_covering_replica(self):
        db = build_primary(rows=3)
        rs = ReplicaSet(db, n_replicas=1, mode="sync")
        csn = db.last_csn
        db.execute("DELETE FROM t WHERE k = 0")
        rows = repro.connect(rs).execute("SELECT * FROM t AS OF ?", (csn,)).rows
        assert rows == [values for _row_id, values in db.store("t").scan(csn)]
        assert len(rows) == 3
        assert rs.stats["replica_reads"] == 1


class TestFailover:
    def test_promote_preserves_acknowledged_commits(self):
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=2, mode="async")
        for i in range(8):
            db.execute("INSERT INTO t VALUES (?, 'g0', ?)", (i, float(i)))
        # Nothing shipped yet: every commit is acknowledged only in the
        # log. Promotion must still carry all of them over.
        assert rs.max_lag() == 8
        expected = db.execute("SELECT k, grp, v FROM t ORDER BY k").rows
        acknowledged_csn = db.last_csn
        promoted = rs.promote()
        assert promoted.last_csn == acknowledged_csn  # drained, exactly
        assert promoted.execute("SELECT k, grp, v FROM t ORDER BY k").rows == expected
        assert rs.stats["promotions"] == 1

    def test_old_primary_is_fenced(self):
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=1)
        in_flight = db.begin()
        db.execute("INSERT INTO t VALUES (1, 'g0', 0.0)", txn=in_flight)
        rs.promote()
        with pytest.raises(FencedError):
            db.begin()
        with pytest.raises(FencedError):
            in_flight.commit()  # begun before the fence: still rejected

    def test_promoted_serves_latest_and_as_of(self):
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=1)
        db.execute("INSERT INTO t VALUES (1, 'g0', 1.0)")
        csn_before_update = db.last_csn
        db.execute("UPDATE t SET v = 2.0 WHERE k = 1")
        promoted = rs.promote()
        assert promoted.execute("SELECT v FROM t WHERE k = 1").scalar() == 2.0
        as_of = promoted.execute("SELECT * FROM t AS OF ?", (csn_before_update,))
        assert as_of.rows == [(1, "g0", 1.0)]

    def test_remaining_replicas_follow_new_primary(self):
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=3, mode="async")
        db.execute("INSERT INTO t VALUES (1, 'g0', 1.0)")
        promoted = rs.promote()
        assert len(rs.replicas) == 2
        promoted.execute("INSERT INTO t VALUES (2, 'g0', 2.0)")
        rs.catch_up()
        for replica in rs.replicas:
            assert replica.database.execute("SELECT COUNT(*) FROM t").scalar() == 2
            assert replica.csn == promoted.last_csn

    def test_promote_chosen_target_and_writability(self):
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=2)
        target = rs.replicas[1]
        promoted = rs.promote(target.name)
        assert promoted is target.database
        assert not promoted.read_only
        promoted.execute("INSERT INTO t VALUES (1, 'g0', 0.0)")  # writable

    def test_promote_empty_set_raises(self):
        db = build_primary()
        rs = ReplicaSet(db)
        with pytest.raises(ReplicationError):
            rs.promote()
        assert not db.fenced  # refused before fencing anything

    def test_failed_promotion_never_bricks_the_cluster(self):
        """A promotion that cannot proceed must leave the old primary
        unfenced and still serving."""
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=1, mode="async")
        with pytest.raises(ReplicationError):
            rs.promote("no-such-replica")
        assert not db.fenced
        # A crashed target cannot drain the log, so it is refused
        # before anything is fenced.
        for i in range(8):
            db.execute("INSERT INTO t VALUES (?, 'g0', 0.0)", (i,))
        rs.replicas[0].database.crashed = True
        with pytest.raises(ReplicationError, match="is down"):
            rs.promote(rs.replicas[0])
        assert not db.fenced
        db.execute("INSERT INTO t VALUES (99, 'g0', 0.0)")  # still serving

    def test_ddl_through_connection_is_immediately_readable(self):
        db = build_primary()
        rs = ReplicaSet(db, n_replicas=2, mode="async")
        conn = repro.connect(rs, session=Session("ddl-user"))
        conn.execute("CREATE TABLE u (x INTEGER)")
        # The very next routed read may land on any replica; the new
        # table must be visible there (DDL records carry no CSN floor).
        for _ in range(4):
            assert conn.execute("SELECT COUNT(*) FROM u").scalar() == 0
        assert rs.stats["replica_reads"] == 4


QUERIES = [
    "SELECT k, grp, v FROM t WHERE k = ?",
    "SELECT k, v FROM t WHERE v >= ? ORDER BY k",
    "SELECT grp, COUNT(*), SUM(v) FROM t GROUP BY grp ORDER BY grp",
    "SELECT COUNT(*), MIN(v), MAX(v) FROM t",
    "SELECT k, grp, v FROM t ORDER BY v DESC, k LIMIT 7",
]


class TestDifferentialReplicaVsPrimary:
    """Acceptance: >= 900 randomized operations, byte-identical reads."""

    def test_differential_reads_and_failover(self):
        rng = random.Random(42)
        db = Database(name="primary")
        # Replicas attach before DDL: their history covers CSN 0, so
        # AS-OF reads can be compared over the whole timeline.
        rs = ReplicaSet(db, n_replicas=2, mode="async")
        db.execute("CREATE TABLE t (k INTEGER, grp TEXT, v FLOAT)")
        db.execute("CREATE INDEX ix_t_k ON t (k)")
        live: set[int] = set()
        next_key = 0
        compared = 0

        def random_writes() -> None:
            nonlocal next_key
            n_stmts = rng.randint(1, 4)
            txn = db.begin() if rng.random() < 0.4 else None
            abort = txn is not None and rng.random() < 0.25
            added: list[int] = []
            removed: list[int] = []
            for _ in range(n_stmts):
                kind = rng.random()
                if kind < 0.5 or not live:
                    db.execute(
                        "INSERT INTO t VALUES (?, ?, ?)",
                        (next_key, f"g{next_key % 7}", float(rng.randint(0, 50))),
                        txn=txn,
                    )
                    added.append(next_key)
                    next_key += 1
                elif kind < 0.8:
                    victim = rng.choice(sorted(live))
                    db.execute(
                        "UPDATE t SET v = ? WHERE k = ?",
                        (float(rng.randint(0, 50)), victim),
                        txn=txn,
                    )
                else:
                    victim = rng.choice(sorted(live))
                    db.execute("DELETE FROM t WHERE k = ?", (victim,), txn=txn)
                    removed.append(victim)
            if txn is not None:
                if abort:
                    txn.abort()  # aborted work must never reach a replica
                    return
                txn.commit()
            live.update(added)
            live.difference_update(removed)

        for round_no in range(62):
            random_writes()
            # Read-your-writes probe while replicas lag arbitrarily.
            conn = repro.connect(rs, session=Session(f"s{round_no}"))
            probe_key = next_key
            conn.execute("INSERT INTO t VALUES (?, 'ryw', 123.5)", (probe_key,))
            next_key += 1
            live.add(probe_key)
            observed = conn.execute(
                "SELECT v FROM t WHERE k = ?", (probe_key,)
            ).scalar()
            assert observed == 123.5
            compared += 1
            # Partial, randomized shipping: replicas trail by different,
            # arbitrary amounts between comparison points.
            for replica in rs.replicas:
                if rng.random() < 0.6:
                    rs.catch_up(replica, limit=rng.randint(1, 6))
            rs.catch_up()  # now fully caught up: compare everything
            point_key = rng.choice(sorted(live))
            threshold = float(rng.randint(0, 50))
            params_by_query = {
                QUERIES[0]: (point_key,),
                QUERIES[1]: (threshold,),
                QUERIES[2]: (),
                QUERIES[3]: (),
                QUERIES[4]: (),
            }
            for replica in rs.replicas:
                for sql, params in params_by_query.items():
                    expected = db.execute(sql, params)
                    actual = replica.database.execute(sql, params)
                    assert actual.rows == expected.rows, sql
                    assert actual.columns == expected.columns
                    compared += 1
                for _ in range(2):  # AS-OF at random historical points
                    csn = rng.randint(0, db.last_csn)
                    assert list(replica.database.store("t").scan(csn)) == list(
                        db.store("t").scan(csn)
                    )
                    compared += 1

        assert compared >= 900, compared

        # Finale: simulated primary loss with unshipped-but-acknowledged
        # commits, then the promoted replica must serve everything.
        random_writes()
        expected_rows = db.execute("SELECT k, grp, v FROM t ORDER BY k").rows
        as_of_csn = rng.randint(0, db.last_csn)
        expected_as_of = list(db.store("t").scan(as_of_csn))
        promoted = rs.promote()
        assert (
            promoted.execute("SELECT k, grp, v FROM t ORDER BY k").rows
            == expected_rows
        )
        assert list(promoted.store("t").scan(as_of_csn)) == expected_as_of
        with pytest.raises(FencedError):
            db.execute("INSERT INTO t VALUES (-1, 'x', 0.0)")
        # The survivor replica keeps following the promoted primary.
        promoted.execute("INSERT INTO t VALUES (-2, 'after', 1.0)")
        rs.catch_up()
        survivor = rs.replicas[0].database
        assert (
            survivor.execute("SELECT k, grp, v FROM t ORDER BY k").rows
            == promoted.execute("SELECT k, grp, v FROM t ORDER BY k").rows
        )


class TestShardedReplication:
    def build(self, n_replicas=1, mode="async"):
        sharded = ShardedDatabase(3, shard_keys={"items": "id", "grps": "grp"})
        sharded.execute("CREATE TABLE items (id INTEGER, grp TEXT, val FLOAT)")
        sharded.execute("CREATE TABLE grps (grp TEXT, label TEXT)")
        gtxn = sharded.begin()
        for i in range(60):
            sharded.execute(
                "INSERT INTO items VALUES (?, ?, ?)",
                (i, f"g{i % 4}", float(i % 11)),
                txn=gtxn,
            )
        for g in range(4):
            sharded.execute(
                "INSERT INTO grps VALUES (?, ?)", (f"g{g}", f"label-{g}"),
                txn=gtxn,
            )
        gtxn.commit()
        sharded.attach_replicas(n_replicas, mode=mode)
        return sharded

    SHARDED_QUERIES = [
        ("SELECT * FROM items WHERE id = ?", (17,)),
        ("SELECT id, val FROM items WHERE val > ? ORDER BY id", (5.0,)),
        ("SELECT grp, COUNT(*), AVG(val) FROM items GROUP BY grp ORDER BY grp", ()),
        (
            "SELECT i.id, g.label FROM items i JOIN grps g ON i.grp = g.grp "
            "WHERE i.id < ? ORDER BY i.id",
            (10,),
        ),
    ]

    def test_routed_reads_match_primary_reads(self):
        sharded = self.build(n_replicas=2, mode="sync")
        conn = repro.connect(sharded)
        for sql, params in self.SHARDED_QUERIES:
            via_replicas = conn.execute(sql, params)
            via_primaries = sharded.execute(sql, params)
            assert via_replicas.rows == via_primaries.rows, sql
            assert via_replicas.columns == via_primaries.columns
        assert sharded.cluster_stats["replica_reads"] > 0
        assert sharded.cluster_stats["stale_fallbacks"] == 0

    def test_dml_stays_on_primaries_and_ships(self):
        sharded = self.build(n_replicas=1, mode="async")
        session = Session("u")
        conn = repro.connect(sharded, session=session)
        conn.execute("UPDATE items SET val = 99.0 WHERE id = ?", (3,))
        assert session.last_write_csn == sharded.last_commit_csn
        # Replicas lag; the session still reads its write (fallback).
        observed = conn.execute("SELECT val FROM items WHERE id = ?", (3,))
        assert observed.scalar() == 99.0
        assert sharded.cluster_stats["stale_fallbacks"] >= 1
        sharded.catch_up()
        observed = conn.execute("SELECT val FROM items WHERE id = ?", (3,))
        assert observed.scalar() == 99.0
        assert sharded.cluster_stats["replica_reads"] >= 1

    def test_wait_mode_sharded(self):
        sharded = self.build(n_replicas=1, mode="async")
        conn = repro.connect(sharded, session=Session("u"), read_preference="wait")
        conn.execute("UPDATE items SET val = -1.0 WHERE id = ?", (5,))
        observed = conn.execute("SELECT val FROM items WHERE id = ?", (5,))
        assert observed.scalar() == -1.0
        assert sharded.cluster_stats["catch_up_waits"] >= 1
        assert sharded.cluster_stats["stale_fallbacks"] == 0

    def test_execute_as_of_via_replicas(self):
        sharded = self.build(n_replicas=1, mode="sync")
        before = sharded.last_commit_csn
        sql = "SELECT id, val FROM items ORDER BY id AS OF ?"
        expected = sharded.execute(sql, (before,)).rows
        gtxn = sharded.begin()
        sharded.execute("UPDATE items SET val = 0.0 WHERE val > 0", txn=gtxn)
        gtxn.commit()
        via_replicas = repro.connect(sharded).execute(sql, (before,))
        assert via_replicas.rows == expected
        assert sharded.cluster_stats["replica_reads"] == 3  # every shard covered

    def test_as_of_via_replicas_sees_rows_deleted_later(self):
        sharded = self.build(n_replicas=1, mode="sync")
        csn = sharded.last_commit_csn
        gtxn = sharded.begin()
        sharded.execute("DELETE FROM items WHERE id < 10", txn=gtxn)
        gtxn.commit()
        sql = "SELECT id, grp, val FROM items ORDER BY id AS OF ?"
        from_primaries = sharded.execute(sql, (csn,)).rows
        from_replicas = repro.connect(sharded).execute(sql, (csn,)).rows
        assert from_replicas == from_primaries
        assert [row[0] for row in from_replicas] == list(range(60))
        assert sharded.cluster_stats["replica_reads"] == 3
        assert sharded.execute("SELECT COUNT(*) FROM items").scalar() == 50

    def test_shard_failover_mid_workload(self):
        sharded = self.build(n_replicas=2, mode="async")
        expected = sharded.execute("SELECT id, val FROM items ORDER BY id").rows
        promoted = sharded.failover("shard1")
        assert sharded.shard_named("shard1") is promoted
        # Reads, writes, and 2PC all keep working through the facade.
        assert (
            sharded.execute("SELECT id, val FROM items ORDER BY id").rows
            == expected
        )
        gtxn = sharded.begin()
        for i in (100, 101, 102):
            sharded.execute(
                "INSERT INTO items VALUES (?, 'gx', 1.0)", (i,), txn=gtxn
            )
        gtxn.commit()
        assert sharded.execute("SELECT COUNT(*) FROM items").scalar() == 63
        # The replica sets keep shipping: after catch-up, routed reads
        # (served by replicas, including the failed-over shard's) agree.
        rs = sharded.replica_sets["shard1"]
        assert rs.primary is promoted
        sharded.catch_up()
        rows = repro.connect(sharded).execute("SELECT COUNT(*) FROM items")
        assert rows.scalar() == 63
        assert sharded.cluster_stats["replica_reads"] == 3

    def test_failover_names_the_promoted_database_everywhere(self):
        sharded = self.build(n_replicas=2, mode="sync")
        old = sharded.shard_named("shard1")
        promoted = sharded.failover("shard1")
        assert promoted is not old
        assert sharded.store_names == ["shard0", "shard1", "shard2"]
        assert sharded.shards[1] is promoted and old not in sharded.shards
        assert sharded.shard_named("shard1") is promoted
        assert dict(sharded.named_shards())["shard1"] is promoted
        assert sharded.coordinator.store("shard1") is promoted
        assert sharded.replica_sets["shard1"].primary is promoted

    def test_failover_without_replicas_raises(self):
        sharded = ShardedDatabase(2, shard_keys={"items": "id"})
        sharded.execute("CREATE TABLE items (id INTEGER, val FLOAT)")
        with pytest.raises(ReplicationError):
            sharded.failover("shard0")

    def test_ddl_through_sharded_connection_is_readable(self):
        sharded = self.build(n_replicas=1, mode="async")
        conn = repro.connect(sharded)
        conn.execute("CREATE TABLE extra (id INTEGER, x FLOAT)")
        # Routed reads go to replicas; the shipped DDL must be there.
        assert conn.execute("SELECT COUNT(*) FROM extra").scalar() == 0
        assert sharded.cluster_stats["replica_reads"] == 3

    @pytest.mark.parametrize("via", ["execute", "create_table"])
    def test_ddl_on_the_engine_reaches_replicas(self, via):
        """The engine, not the connection, catches replicas up after DDL."""
        sharded = self.build(n_replicas=1, mode="async")
        if via == "execute":
            sharded.execute("CREATE TABLE u (id INTEGER, x FLOAT)")
        else:
            sharded.create_table(
                TableSchema(
                    "u",
                    [Column("id", ColumnType.INTEGER), Column("x", ColumnType.FLOAT)],
                ),
                shard_key="id",
            )
        conn = repro.connect(sharded)
        assert conn.execute("SELECT COUNT(*) FROM u").scalar() == 0
        assert sharded.cluster_stats["replica_reads"] == 3

    def test_snapshot_reads_on_replicas_match(self):
        sharded = self.build(n_replicas=1, mode="sync")
        conn = repro.connect(sharded)
        # SNAPSHOT-level global reads still come from primaries (they
        # join the 2PC transaction); routed reads are the ephemeral path.
        gtxn = sharded.begin(IsolationLevel.SNAPSHOT)
        via_txn = sharded.execute(
            "SELECT COUNT(*) FROM items", txn=gtxn
        ).scalar()
        gtxn.commit()
        assert conn.execute("SELECT COUNT(*) FROM items").scalar() == via_txn
        assert sharded.cluster_stats["replica_reads"] == 3
