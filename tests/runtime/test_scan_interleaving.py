"""Batch-yielding scans under the cooperative scheduler.

Proves the tentpole's concurrency claims: long scans yield at
deterministic row-batch boundaries so concurrent readers interleave; a
short query completes while a full-table scan is in flight with
byte-identical results vs serialized execution; scans stay
snapshot-consistent under concurrent committed writes; TROD statement
traces are unchanged by batching; and the background replica ship loop
drains in batches that interleave with foreground work.
"""

import pytest

from repro.cluster import Controller
from repro.db import Database, IsolationLevel, ShardedDatabase
from repro.errors import DeadlockError, ReplicationError
from repro.runtime import Runtime
from repro.runtime.scheduler import CheckpointKind, CooperativeScheduler

N_ROWS = 1_000
BATCH = 100


def seeded_db(n: int = N_ROWS) -> Database:
    db = Database()
    db.scan_batch_size = BATCH
    db.execute("CREATE TABLE items (k INTEGER, v INTEGER)")
    txn = db.begin()
    for i in range(n):
        db.execute("INSERT INTO items VALUES (?, ?)", (i, i * 3), txn=txn)
    txn.commit()
    return db


def scan_thunk(db, out, sql="SELECT k, v FROM items"):
    def thunk():
        # Snapshot reads take no table locks, so readers and a writer
        # can interleave freely without the lock-wait protocol.
        txn = db.begin(IsolationLevel.SNAPSHOT)
        try:
            out.append(db.execute(sql, txn=txn).rows)
        finally:
            txn.abort()
        return "scan"

    return thunk


class TestBatchInterleaving:
    def test_two_scans_interleave_at_batch_boundaries(self):
        db = seeded_db()
        results: list = []
        scheduler = CooperativeScheduler(
            schedule=[0, 1] * 20, granularity="batch"
        )
        outcomes = scheduler.run(
            [scan_thunk(db, results), scan_thunk(db, results)]
        )
        assert all(o.ok for o in outcomes)
        batch_entries = [
            e for e in scheduler.record if e.kind is CheckpointKind.SCAN_BATCH
        ]
        # Each 1000-row scan parks every 100 rows.
        assert len(batch_entries) >= 10
        workers = [e.worker for e in batch_entries]
        assert set(workers) == {0, 1}
        # Adjacent batch grants alternate between the two scans — the
        # baton really changes hands mid-statement.
        alternations = sum(
            1 for a, b in zip(workers, workers[1:]) if a != b
        )
        assert alternations >= 5
        # Interleaving changed nothing about what either scan saw.
        expected = [(i, i * 3) for i in range(N_ROWS)]
        assert results[0] == expected and results[1] == expected

    def test_batch_yields_are_deterministic(self):
        def run_once(seed):
            db = seeded_db(400)
            results: list = []
            scheduler = CooperativeScheduler(seed=seed, granularity="batch")
            scheduler.run([scan_thunk(db, results), scan_thunk(db, results)])
            return [(e.worker, e.kind.value, e.label) for e in scheduler.record]

        assert run_once(7) == run_once(7)
        assert run_once(7) != run_once(8)  # the seed genuinely drives it

    def test_short_query_completes_while_long_scan_in_flight(self):
        db = seeded_db()
        results: list = []
        # LIMIT short-circuits after ~18 rows — under one batch, so the
        # query never parks: it runs to completion in a single grant.
        point_sql = "SELECT v FROM items WHERE k = 17 LIMIT 1"
        # Serialized reference: the same two statements, one at a time.
        serial_scan = db.execute("SELECT k, v FROM items").rows
        serial_point = db.execute(point_sql).rows

        point_results: list = []
        scheduler = CooperativeScheduler(schedule=[0, 0], granularity="batch")
        outcomes = scheduler.run(
            [
                scan_thunk(db, results),
                scan_thunk(db, point_results, sql=point_sql),
            ]
        )
        assert all(o.ok for o in outcomes)
        record = scheduler.record
        # Record entries say which parked checkpoint each grant resumed
        # from; a worker's last entry is the grant it finished in.
        scan_first = min(e.step for e in record if e.worker == 0)
        scan_last = max(e.step for e in record if e.worker == 0)
        point_entries = [e for e in record if e.worker == 1]
        assert len(point_entries) == 1  # one grant: start -> done
        # The scan parked at batch boundaries (it was genuinely mid-
        # flight), and the point query came and went in between.
        assert any(
            e.kind is CheckpointKind.SCAN_BATCH
            for e in record
            if e.worker == 0
        )
        assert scan_first < point_entries[0].step < scan_last
        # Byte-identical results vs serialized execution.
        assert results == [serial_scan]
        assert point_results == [serial_point]

    def test_scan_is_snapshot_consistent_under_concurrent_writes(self):
        db = seeded_db()
        results: list = []

        def writer():
            for i in range(5):
                db.execute(
                    "INSERT INTO items VALUES (?, ?)", (N_ROWS + i, -1)
                )
            db.execute("DELETE FROM items WHERE k = 3")
            return "write"

        scheduler = CooperativeScheduler(
            schedule=[0, 1, 0], granularity="batch"
        )
        outcomes = scheduler.run([scan_thunk(db, results), writer])
        assert all(o.ok for o in outcomes)
        # The writer committed while the scan was parked mid-flight, yet
        # the scan serves exactly its begin-time snapshot.
        assert results[0] == [(i, i * 3) for i in range(N_ROWS)]
        # The writes are not lost — a later scan sees them.
        after = db.execute("SELECT k FROM items").rows
        assert (N_ROWS, ) in after and (3,) not in after

    def test_txn_granularity_never_yields_mid_scan(self):
        db = seeded_db(400)
        results: list = []
        scheduler = CooperativeScheduler(schedule=[0, 1], granularity="txn")
        scheduler.run([scan_thunk(db, results), scan_thunk(db, results)])
        assert not any(
            e.kind is CheckpointKind.SCAN_BATCH for e in scheduler.record
        )


class TestLockSafetyUnderBatching:
    def test_sharded_scatter_never_yields_into_a_cross_shard_cycle(self):
        """A scatter read + concurrent 2PC writer must not deadlock.

        Scatter branches hold per-shard table locks that no single
        deadlock detector spans, so sharded gathers run without
        mid-scan yields: a reader can never park holding shard A's lock
        while a writer builds an A/B cycle. Regression for the batch-
        granularity ABBA hang found in review.
        """
        for seed in range(6):
            sdb = ShardedDatabase(2, shard_keys={"t": "k"})
            sdb.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
            gtxn = sdb.begin()
            for i in range(1200):
                sdb.execute(
                    "INSERT INTO t VALUES (?, ?)", (i, i % 7), txn=gtxn
                )
            gtxn.commit()
            reads: list = []

            def reader():
                reads.append(
                    len(sdb.execute("SELECT k, v FROM t WHERE v = 999").rows)
                )
                return "read"

            def writer():
                wtxn = sdb.begin()
                for i in range(2000, 2004):  # spans both shards
                    sdb.execute(
                        "INSERT INTO t VALUES (?, ?)", (i, 0), txn=wtxn
                    )
                wtxn.commit()
                return "write"

            scheduler = CooperativeScheduler(seed=seed, granularity="batch")
            outcomes = scheduler.run([reader, writer])
            assert all(o.ok for o in outcomes), (seed, outcomes)
        assert reads[-1] == 0

    def test_single_node_deadlock_is_detected_deterministically(self):
        """Batch yields can surface 2PL deadlocks on one node; the lock
        manager's waits-for graph detects them and aborts the requester
        as a deterministic victim — the other worker completes."""
        db = seeded_db(600)
        db.execute("CREATE TABLE other (k INTEGER)")
        db.execute("INSERT INTO other VALUES (1)")
        scheduler = CooperativeScheduler(
            schedule=[0, 1, 0, 1] * 50, granularity="batch"
        )

        def joining_reader():
            # The hash join builds on items (600 rows): the reader
            # S-locks items, parks at a batch boundary mid-build,
            # and only then acquires other for the probe side — the
            # classic held-while-acquiring shape.
            return len(
                db.execute(
                    "SELECT * FROM other o JOIN items i ON i.k = o.k"
                ).rows
            )

        def opposite_writer():
            txn = db.begin()
            db.execute("UPDATE other SET k = 2", txn=txn)
            db.execute("UPDATE items SET v = 0 WHERE k = 1", txn=txn)
            txn.commit()
            return "write"

        outcomes = scheduler.run([joining_reader, opposite_writer])
        errors = [o for o in outcomes if not o.ok]
        assert len(errors) == 1
        assert isinstance(errors[0].error, DeadlockError)
        # The surviving worker finished its work.
        survivor = next(o for o in outcomes if o.ok)
        assert survivor.result is not None


class TestTraceParityUnderBatching:
    def build(self):
        db = seeded_db(300)
        traces: list = []

        class Observer:
            events = ("statement_executed",)

            def statement_executed(self, txn, trace):
                traces.append(
                    (
                        trace.sql,
                        trace.kind,
                        trace.rowcount,
                        tuple(
                            (table, row_id)
                            for read_set in trace.reads
                            for table, row_id, _values, _query in read_set.rows()
                        ),
                    )
                )

        db.add_observer(Observer())
        runtime = Runtime(db)
        runtime.register(
            "scan_all", lambda ctx: len(ctx.sql("SELECT * FROM items").rows)
        )
        runtime.register(
            "scan_some",
            lambda ctx: len(
                ctx.sql("SELECT * FROM items WHERE k < 150").rows
            ),
        )
        return runtime, traces

    def test_statement_traces_unchanged_by_batch_granularity(self):
        from repro.runtime import Request

        per_granularity = {}
        for granularity in ("txn", "batch"):
            runtime, traces = self.build()
            runtime.run_concurrent(
                [Request("scan_all"), Request("scan_some")],
                seed=5,
                granularity=granularity,
            )
            per_granularity[granularity] = traces
        # Batching changes when the baton moves, never what TROD sees:
        # the same statements report the same kinds, rowcounts, and
        # per-row read provenance.
        assert sorted(per_granularity["txn"]) == sorted(
            per_granularity["batch"]
        )
        assert sum(len(reads) for *_trace, reads in per_granularity["txn"]) == 450


def shipping_cluster(n_rows: int, backlog: int):
    """One shard with one async replica, ``backlog`` commits behind."""
    sharded = ShardedDatabase(1, name="ship", shard_keys={"items": "k"})
    sharded.execute("CREATE TABLE items (k INTEGER, v INTEGER)")
    primary = sharded.shard_named("shard0")
    primary.scan_batch_size = BATCH
    txn = primary.begin()
    for i in range(n_rows):
        primary.execute("INSERT INTO items VALUES (?, ?)", (i, i * 3), txn=txn)
    txn.commit()
    replica_set = sharded.attach_replicas(1, mode="async")["shard0"]
    for i in range(backlog):
        primary.execute("INSERT INTO items VALUES (?, ?)", (n_rows + i, 0))
    assert replica_set.max_lag() == backlog
    return sharded, primary, replica_set


class TestShipLoop:
    def test_drains_backlog_in_batches(self):
        sharded, _primary, replica_set = shipping_cluster(10, backlog=40)
        controller = Controller(sharded, ship_batch=6)
        assert controller.ship_loop(max_rounds=7) == 40
        assert replica_set.max_lag() == 0

    def test_max_rounds_bounds_one_slice(self):
        sharded, _primary, replica_set = shipping_cluster(10, backlog=40)
        controller = Controller(sharded, ship_batch=6)
        assert controller.ship_loop(max_rounds=2) == 12
        assert replica_set.max_lag() == 28

    def test_a_batch_below_one_is_refused(self):
        sharded, _primary, _replica_set = shipping_cluster(10, backlog=0)
        with pytest.raises(ReplicationError, match="ship batch"):
            Controller(sharded, ship_batch=0)

    def test_interleaves_with_foreground_reads_under_scheduler(self):
        backlog = 30
        sharded, primary, replica_set = shipping_cluster(200, backlog)
        primary.scan_batch_size = 50
        controller = Controller(sharded, ship_batch=4)
        reads: list = []

        def reader():
            txn = primary.begin(IsolationLevel.SNAPSHOT)
            try:
                reads.append(
                    primary.execute("SELECT COUNT(*) FROM items", txn=txn)
                    .scalar()
                )
            finally:
                txn.abort()
            return "read"

        scheduler = CooperativeScheduler(
            schedule=[0, 1] * 20, granularity="batch"
        )
        outcomes = scheduler.run(
            [lambda: controller.ship_loop(max_rounds=9), reader]
        )
        assert all(o.ok for o in outcomes)
        record = scheduler.record
        ship_parks = [
            e.step
            for e in record
            if e.kind is CheckpointKind.SCAN_BATCH and e.label == "ship_loop"
        ]
        reader_last = max(e.step for e in record if e.worker == 1)
        ship_last = max(e.step for e in record if e.worker == 0)
        # Catch-up parked between batches, and the foreground read
        # completed while the backlog was still draining.
        assert ship_parks and ship_parks[0] < reader_last < ship_last
        assert reads == [200 + backlog]
        # The loop still drained everything it could see (the reader's
        # aborted txn ships nothing).
        assert outcomes[0].result == backlog
        assert replica_set.max_lag() == 0
