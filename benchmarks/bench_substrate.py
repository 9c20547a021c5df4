"""S0 — substrate characterization (context for every other benchmark).

Not a paper experiment: this measures the raw throughput of the database
engine this reproduction is built on (inserts, point queries with and
without an index, scans, hash joins, commits), so readers can interpret
the absolute numbers in E7/E8 relative to the substrate's speed.

The read-path cases are differential: latest-state scans are measured
against an inline replica of the seed's sort-and-walk scan, and
provenance restores with and without a checkpoint; a repeated query is
served from the plan memo. Sharded cases run the same table
hash-partitioned over 4 stores: routed point lookups, scatter-gather
scans, pushed-down
aggregates, and write-heavy multi-shard 2PC commits. Replication cases
measure cluster read capacity at 3 replicas vs the single primary,
async catch-up apply rate, failover (promote) latency, and the WAL
group-commit win (one real fsync per 64-commit batch vs one per
commit). Results land in
``BENCH_substrate.json`` at the repo root (op -> ops/sec) so the perf
trajectory is tracked across PRs; CI runs the reduced-iteration smoke
mode (``REPRO_BENCH_SMOKE=1``) and gates on
``benchmarks/compare_baseline.py``.
"""

import gc
import json
import os
import tempfile
import time
from pathlib import Path

from repro.cluster import reshard as cluster_reshard
from repro.cluster.detector import HeartbeatDetector
from repro.core.buffer import Staged, TraceBuffer
from repro.core.provenance import ProvenanceStore
from repro.db import ConnectionPool, Database, IsolationLevel, ShardedDatabase, connect
from repro.db.multistore import MultiStoreCoordinator
from repro.db.replication import ReplicaSet
from repro.db.schema import Column, TableSchema
from repro.db.storage import TableStore
from repro.db.txn.wal import WalChange, WalCommit, WriteAheadLog
from repro.db.types import ColumnType
from repro.errors import CrashPoint
from repro.faults import FaultInjector
from repro.runtime.scheduler import CooperativeScheduler
from repro.workload.generators import ConnectionWorkload
from repro.workload.harness import render_table

N_ROWS = 5_000
N_EVENTS = 2_000

#: CI smoke mode: ~10x fewer iterations per case, and the qualitative
#: shape assertions are skipped (timings on shared runners are too noisy
#: for ratio asserts; the compare_baseline.py gate does the judging).
SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

_JSON_PATH = Path(
    os.environ.get(
        "REPRO_BENCH_JSON",
        Path(__file__).resolve().parent.parent / "BENCH_substrate.json",
    )
)


def _iters(n: int) -> int:
    # Floor of 10 keeps warmup/timing overhead from dominating the
    # smallest cases in smoke mode (they feed the CI regression gate).
    return max(10, n // 10) if SMOKE else n


def build_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE items (id INTEGER, grp TEXT, val FLOAT)")
    txn = db.begin()
    for i in range(N_ROWS):
        db.execute(
            "INSERT INTO items VALUES (?, ?, ?)",
            (i, f"g{i % 50}", float(i % 97)),
            txn=txn,
        )
    txn.commit()
    db.execute("CREATE TABLE grps (grp TEXT, label TEXT)")
    txn = db.begin()
    for g in range(50):
        db.execute(
            "INSERT INTO grps VALUES (?, ?)", (f"g{g}", f"label-{g}"), txn=txn
        )
    txn.commit()
    # Version churn so chain walks do real work, as in any live system.
    txn = db.begin()
    db.execute("UPDATE items SET val = val + 1 WHERE id < 1000", txn=txn)
    txn.commit()
    return db


class _StatementTap:
    """A ``statement_executed`` subscriber that drops every trace: the
    subscription is what turns read provenance on."""

    events = ("statement_executed",)

    def statement_executed(self, txn, trace) -> None:
        pass


def _rate(fn, iterations: int) -> float:
    # One untimed warmup call: first executions pay parse + plan
    # compilation, which dominates the short smoke-mode timing regions
    # and would make smoke rates incomparable to the full baseline.
    fn()
    start = time.perf_counter_ns()
    for _ in range(iterations):
        fn()
    elapsed_s = (time.perf_counter_ns() - start) / 1e9
    return iterations / elapsed_s


def _seed_scan(store: TableStore):
    """The seed's latest-state scan: re-sort ids, walk each chain tail."""
    for row_id in sorted(store._versions):
        chain = store._versions.get(row_id)
        last = chain[-1]
        if last.end is None:
            yield row_id, last.values


def build_sharded_db() -> ShardedDatabase:
    """The items table hash-partitioned by id over 4 shards, indexed."""
    sharded = ShardedDatabase(4, shard_keys={"items": "id"})
    sharded.execute("CREATE TABLE items (id INTEGER, grp TEXT, val FLOAT)")
    sharded.execute("CREATE INDEX ix_id ON items (id)")
    gtxn = sharded.begin()
    for i in range(N_ROWS):
        sharded.execute(
            "INSERT INTO items VALUES (?, ?, ?)",
            (i, f"g{i % 50}", float(i % 97)),
            txn=gtxn,
        )
    gtxn.commit()
    return sharded


def _kv_store() -> ProvenanceStore:
    prov = ProvenanceStore()
    schema = TableSchema(
        "kv", [Column("k", ColumnType.INTEGER), Column("v", ColumnType.INTEGER)]
    )
    prov.register_app_table(schema)
    return prov


def _kv_staged(n_writes: int, mixed: bool = False) -> Staged:
    """A drained trace buffer holding a kv write history: inserts, then
    updates of earlier rows mixed in.

    ``mixed`` gives every write the shape it has in a traced request
    stream: the read that found the row, the write, and its transaction's
    ``Executions`` row — three trace rows per write, into two provenance
    tables.
    """
    buffer = TraceBuffer(capacity=1 << 30)
    for i in range(n_writes):
        update = i % 3 == 0 and i > n_writes // 2
        row_id = (i % (n_writes // 2)) + 1 if update else i + 1
        txn = (f"TXN{i}", i)
        if mixed:
            found = (row_id, (i, i)) if update else (None, None)
            buffer.add_batch("kv", *txn, "Read", "bench", None, [found])
        kind = "Update" if update else "Insert"
        buffer.add_batch("kv", *txn, kind, "bench", i + 1, [(row_id, (i, i))])
        if mixed:
            buffer.add_row(
                "Executions",
                (*txn, i, "bench", f"R{i // 5}", "func:put", "SERIALIZABLE",
                 "Committed", i + 1, i, None),
            )
    return buffer.drain()


def build_provenance() -> ProvenanceStore:
    prov = _kv_store()
    prov.ingest(_kv_staged(N_EVENTS))
    return prov


def _ingest_rate(n_writes: int) -> float:
    """Trace rows per second of one flush-sized ``ProvenanceStore.ingest``."""
    prov = _kv_store()
    staged = _kv_staged(n_writes, mixed=True)
    gc.collect()
    start = time.perf_counter_ns()
    rows = prov.ingest(staged)
    elapsed_s = (time.perf_counter_ns() - start) / 1e9
    return rows / elapsed_s


def test_substrate_throughput(benchmark, emit):
    db = build_db()
    db_indexed = build_db()
    db_indexed.execute("CREATE INDEX ix_id ON items (id)")
    store = db.store("items")
    latest_csn = db.last_csn

    counter = iter(range(10**9))
    rows = [
        [
            "autocommit insert (1 row)",
            _rate(
                lambda: db.execute(
                    "INSERT INTO items VALUES (?, 'gx', 0.0)",
                    (N_ROWS + next(counter),),
                ),
                _iters(300),
            ),
        ],
        [
            "point query (full scan)",
            _rate(
                lambda: db.execute("SELECT * FROM items WHERE id = 2500"),
                _iters(30),
            ),
        ],
        [
            "point query (index probe)",
            _rate(
                lambda: db_indexed.execute("SELECT * FROM items WHERE id = 2500"),
                _iters(300),
            ),
        ],
        [
            "full scan latest (live cache)",
            _rate(lambda: sum(1 for _ in store.scan(None)), _iters(300)),
        ],
        [
            "full scan latest (seed replica)",
            _rate(lambda: sum(1 for _ in _seed_scan(store)), _iters(100)),
        ],
        [
            "full scan as-of latest csn",
            _rate(lambda: sum(1 for _ in store.scan(latest_csn)), _iters(100)),
        ],
        [
            "aggregate scan (5k rows)",
            _rate(
                lambda: db.execute("SELECT grp, AVG(val) FROM items GROUP BY grp"),
                _iters(200),
            ),
        ],
        [
            "hash join (5k x 50)",
            _rate(
                lambda: db.execute(
                    "SELECT COUNT(*) FROM items i JOIN grps g ON i.grp = g.grp"
                ),
                _iters(200),
            ),
        ],
        [
            "read-only txn commit",
            _rate(lambda: db.begin().commit(), _iters(2000)),
        ],
    ]

    # Compute-bound tail: compiled batch execution across the filter
    # selectivity range (the 1% case is bounded by predicate evaluation
    # over all 5k rows, the 99% case by output materialization), and
    # the filter-position rewrite (pushing a WHERE conjunct beneath the
    # join into the owning scan vs filtering the joined rows).
    rows.extend(
        [
            [
                "filtered scan 1% selectivity",
                _rate(
                    lambda: db.execute(
                        "SELECT id, val FROM items WHERE val < 1.0"
                    ),
                    _iters(200),
                ),
            ],
            [
                "filtered scan 50% selectivity",
                _rate(
                    lambda: db.execute(
                        "SELECT id, val FROM items WHERE val < 48.5"
                    ),
                    _iters(100),
                ),
            ],
            [
                "filtered scan 99% selectivity",
                _rate(
                    lambda: db.execute(
                        "SELECT id, val FROM items WHERE val < 96.5"
                    ),
                    _iters(50),
                ),
            ],
        ]
    )
    fj_sql = (
        "SELECT COUNT(*) FROM items i JOIN grps g "
        "ON i.grp = g.grp WHERE i.val > 90.0"
    )
    rows.append(
        ["filter below join (pushdown)", _rate(lambda: db.execute(fj_sql), _iters(200))]
    )

    # Repeated statement shape, served from the plan memo.
    probe_sql = "SELECT * FROM items WHERE id = ?"
    rows.append(
        [
            "repeat query (plan cache)",
            _rate(lambda: db_indexed.execute(probe_sql, (2500,)), _iters(1000)),
        ]
    )

    # The repro.connect() facade over the same database and statement:
    # the unified API must stay within 10% of direct Database.execute.
    facade = connect(db_indexed)
    rows.append(
        [
            "repeat query (connection facade)",
            _rate(lambda: facade.execute(probe_sql, (2500,)), _iters(1000)),
        ]
    )

    # Sharded execution: the same table hash-partitioned over 4 stores.
    sharded = build_sharded_db()
    id_gen = iter(range(N_ROWS, 10**9))
    id_pools: dict[str, list[int]] = {name: [] for name in sharded.store_names}

    def next_id_on(store: str) -> int:
        """Fresh ids bucketed by hash owner, so each commit really spans
        one row per shard (consecutive ids don't)."""
        while not id_pools[store]:
            i = next(id_gen)
            id_pools[sharded.router.shard_for_value(i)].append(i)
        return id_pools[store].pop()

    def sharded_2pc_write() -> None:
        gtxn = sharded.begin()
        for store in sharded.store_names:
            sharded.execute(
                "INSERT INTO items VALUES (?, 'gx', 0.0)",
                (next_id_on(store),),
                txn=gtxn,
            )
        gtxn.commit()

    rows.extend(
        [
            [
                "sharded point lookup (routed)",
                _rate(
                    lambda: sharded.execute(
                        "SELECT * FROM items WHERE id = ?", (2500,)
                    ),
                    _iters(300),
                ),
            ],
            [
                "sharded scan (4-shard fan-out)",
                _rate(
                    lambda: sharded.execute("SELECT * FROM items WHERE val > 90"),
                    _iters(30),
                ),
            ],
            [
                "sharded aggregate (partial/final)",
                _rate(
                    lambda: sharded.execute(
                        "SELECT grp, AVG(val) FROM items GROUP BY grp"
                    ),
                    _iters(100),
                ),
            ],
            [
                "sharded 2PC write (4 rows x 4 shards)",
                _rate(sharded_2pc_write, _iters(200)),
            ],
        ]
    )

    # Streaming execution: LIMIT pushdown on the sharded gather (the
    # coordinator caps each shard at limit+offset rows and stops visiting
    # shards once satisfied).
    limit_sql = "SELECT * FROM items LIMIT 10"
    rows.append(
        [
            "sharded LIMIT 10 (pushdown)",
            _rate(lambda: sharded.execute(limit_sql), _iters(300)),
        ]
    )

    # Cursor streaming: first 10 rows of a full-table SELECT through the
    # DB-API cursor. The streamed cursor pulls 10 rows off the pinned
    # pipeline; the seed cursor materialized every row at execute time
    # (emulated by draining the stream, which costs the same scan + Row
    # wrapping the seed's _load paid).
    stream_sql = "SELECT id, grp, val FROM items"

    def stream_first_10() -> None:
        cur = facade.cursor().execute(stream_sql)
        for _ in range(10):
            cur.fetchone()
        cur.close()

    def drain_all_first_10() -> None:
        cur = facade.cursor().execute(stream_sql)
        cur.fetchall()
        cur.close()

    rows.append(
        ["cursor first-10 of 5k (streamed)", _rate(stream_first_10, _iters(300))]
    )
    rows.append(
        [
            "cursor first-10 of 5k (drain-all seed path)",
            _rate(drain_all_first_10, _iters(30)),
        ]
    )

    # Concurrent scans under the cooperative scheduler: 4 full-table
    # scans serialized (txn granularity: each runs head-of-line) vs
    # interleaved at 256-row batch boundaries. The interleaved rate shows
    # the baton-passing overhead is modest; the win is latency — short
    # queries no longer wait behind long scans (asserted in tier-1).
    def scheduled_scans(granularity: str) -> float:
        def scan() -> int:
            txn = db.begin(IsolationLevel.SNAPSHOT)
            try:
                return len(db.execute("SELECT * FROM items", txn=txn).rows)
            finally:
                txn.abort()

        runs = _iters(10)
        start = time.perf_counter_ns()
        for _ in range(runs):
            scheduler = CooperativeScheduler(seed=1, granularity=granularity)
            outcomes = scheduler.run([scan] * 4)
            assert all(o.ok for o in outcomes)
        elapsed_s = (time.perf_counter_ns() - start) / 1e9
        return runs * 4 / elapsed_s

    rows.append(["concurrent scans x4 (serialized)", scheduled_scans("txn")])
    rows.append(
        ["concurrent scans x4 (batch-interleaved)", scheduled_scans("batch")]
    )

    # Connection pooling: checkout/checkin of a pooled connection vs
    # constructing a fresh one per statement, plus the pooled workload's
    # end-to-end statement rate.
    pool = ConnectionPool(db_indexed, size=4)

    def checkout_checkin() -> None:
        conn = pool.checkout()
        pool.checkin(conn)

    rows.append(
        ["connection checkout (pooled)", _rate(checkout_checkin, _iters(2000))]
    )
    rows.append(
        [
            "connection construct (fresh)",
            _rate(lambda: connect(db_indexed), _iters(2000)),
        ]
    )

    workload_db = Database()
    workload = ConnectionWorkload(n_keys=32, seed=2)
    workload_pool = ConnectionPool(workload_db, size=4)
    workload.seed(workload_pool)
    n_statements = _iters(400)
    start = time.perf_counter_ns()
    workload.run(workload_pool, n_statements)
    elapsed_s = (time.perf_counter_ns() - start) / 1e9
    rows.append(["pooled workload statements", n_statements / elapsed_s])

    # Replication: cluster read capacity, catch-up, and failover. The
    # capacity comparison is per-store serving rate: N replicas are N
    # independent stores, so cluster capacity is the sum of what each
    # sustains (they would serve in parallel in a real deployment; this
    # single-threaded simulation measures each store's rate honestly and
    # reports the aggregate).
    primary = build_db()
    primary.execute("CREATE INDEX ix_id ON items (id)")
    read_sql = "SELECT * FROM items WHERE id = ?"
    # Baseline BEFORE attaching replicas: with a sync set attached, every
    # autocommitted primary read would ship its empty commit to all
    # replicas inside the timed region and deflate the baseline. Collect
    # first: build_db just allocated 5k rows, and the full collector pass
    # it has earned is several times this case's 5 ms timed region.
    gc.collect()
    single_primary_rate = _rate(
        lambda: primary.execute(read_sql, (2500,)), _iters(300)
    )
    replica_set = ReplicaSet(primary, n_replicas=3, mode="sync")
    replica_rates = [
        _rate(lambda r=r: r.database.execute(read_sql, (2500,)), _iters(300))
        for r in replica_set.replicas
    ]
    cluster_rate = sum(replica_rates)
    rows.append(["replicated read (single primary)", single_primary_rate])
    rows.append(["replicated read (3-replica cluster)", cluster_rate])

    # Catch-up: how fast an async replica applies a shipped backlog.
    catchup_reps = 2 if SMOKE else 5
    backlog = 100 if SMOKE else 500
    applied = 0
    elapsed = 0.0
    for _ in range(catchup_reps):
        cu_primary = build_db()
        cu_set = ReplicaSet(cu_primary, n_replicas=1, mode="async")
        for i in range(backlog):
            cu_primary.execute(
                "INSERT INTO items VALUES (?, 'cx', 1.0)", (N_ROWS + i,)
            )
        start = time.perf_counter_ns()
        applied += cu_set.catch_up()
        elapsed += (time.perf_counter_ns() - start) / 1e9
    rows.append(["replication catch-up (records applied)", applied / elapsed])

    # Failover: fence, drain a lagged backlog, promote, re-point.
    # Not reduced in smoke: 2 reps gave a ~7ms timed region whose rate
    # swung 10x run-to-run; 5 reps is still cheap and feeds the gate.
    failover_reps = 5
    elapsed = 0.0
    for _ in range(failover_reps):
        fo_primary = build_db()
        fo_set = ReplicaSet(fo_primary, n_replicas=2, mode="async")
        for i in range(50):
            fo_primary.execute(
                "INSERT INTO items VALUES (?, 'fx', 1.0)", (N_ROWS + i,)
            )
        start = time.perf_counter_ns()
        fo_set.promote()
        elapsed += (time.perf_counter_ns() - start) / 1e9
    rows.append(["replication failover (promote)", failover_reps / elapsed])

    # Quorum-acknowledged commits: each autocommit insert applies
    # synchronously on the first 2 of 3 healthy replicas before the
    # primary's execute returns — the durability guarantee priced
    # against the plain async shipping measured by catch-up above.
    q_primary = build_db()
    ReplicaSet(q_primary, n_replicas=3, ack_quorum=2)
    q_counter = iter(range(10**9))
    rows.append(
        [
            "quorum commit (ack 2 of 3)",
            _rate(
                lambda: q_primary.execute(
                    "INSERT INTO items VALUES (?, 'qx', 0.0)",
                    (N_ROWS + next(q_counter),),
                ),
                _iters(200),
            ),
        ]
    )

    # Online resharding: rows/sec through the whole tap -> snapshot
    # copy -> delta drain -> fence/swap pipeline on an idle cluster
    # (the protocol's own cost; the chaos tests price the contended
    # path). Fixed table size in smoke too — the rate scales with row
    # count, so a smaller smoke table would be incomparable.
    reshard_reps = 2 if SMOKE else 4
    reshard_rows = 1_000
    moved = 0
    elapsed = 0.0
    for _ in range(reshard_reps):
        rs_db = ShardedDatabase(2, shard_keys={"items": "id"})
        rs_db.execute("CREATE TABLE items (id INTEGER, grp TEXT, val FLOAT)")
        rs_gtxn = rs_db.begin()
        for i in range(reshard_rows):
            rs_db.execute(
                "INSERT INTO items VALUES (?, ?, ?)",
                (i, f"g{i % 50}", float(i % 97)),
                txn=rs_gtxn,
            )
        rs_gtxn.commit()
        start = time.perf_counter_ns()
        moved += cluster_reshard(rs_db, 4, chunk_size=256)["rows_copied"]
        elapsed += (time.perf_counter_ns() - start) / 1e9
    rows.append(["online reshard 2->4 (rows moved)", moved / elapsed])

    # Coordinator crash recovery: the full in-doubt resolution cycle.
    # A cross-store 2PC commit over two paged stores is killed between
    # the two phase-2 branch commits (decision logged, one branch left
    # in doubt), the stores are hard-killed, and the timed region is
    # restart-from-disk + recover_in_doubt — the time a cluster spends
    # unavailable after a coordinator crash. Rate is in-doubt branches
    # resolved per second.
    recovery_reps = 2 if SMOKE else 5
    recovery_elapsed = 0.0
    recovery_resolved = 0
    for _ in range(recovery_reps):
        with tempfile.TemporaryDirectory() as crash_dir:
            crash_dirs = {n: str(Path(crash_dir) / n) for n in ("a", "b")}
            crash_log = str(Path(crash_dir) / "decisions.jsonl")
            crash_stores = {
                n: Database(name=n, storage="paged", data_dir=d)
                for n, d in crash_dirs.items()
            }
            crash_coord = MultiStoreCoordinator(
                crash_stores, decision_log=crash_log
            )
            for store in crash_stores.values():
                store.execute("CREATE TABLE t (k INTEGER, v TEXT)")
            crash_injector = FaultInjector()
            crash_injector.fail("2pc.branch_commit", at=2)
            crash_gtxn = crash_coord.begin()
            crash_gtxn.execute("a", "INSERT INTO t VALUES (1, 'a')")
            crash_gtxn.execute("b", "INSERT INTO t VALUES (1, 'b')")
            with crash_injector.installed():
                try:
                    crash_gtxn.commit()
                except CrashPoint:
                    pass
            for store in crash_stores.values():
                store.wal._pending.clear()
                store.wal._file.close()
                store._page_manager.close_all()
            crash_coord.decision_log.close()
            start = time.perf_counter_ns()
            reopened = {
                n: Database(name=n, storage="paged", data_dir=d)
                for n, d in crash_dirs.items()
            }
            recovered = MultiStoreCoordinator(reopened, decision_log=crash_log)
            outcome = recovered.recover_in_doubt()
            recovery_elapsed += (time.perf_counter_ns() - start) / 1e9
            assert outcome["committed"] == 1
            recovery_resolved += outcome["committed"] + outcome["aborted"]
            for database in reopened.values():
                database.close()
            recovered.decision_log.close()
    rows.append(
        [
            "coordinator crash recovery (in-doubt txns resolved)",
            recovery_resolved / recovery_elapsed,
        ]
    )

    # Probe timeout detection: how fast the detector convicts a node
    # that answers, but too slowly to trust. Each cycle is a fresh
    # detector paying suspicion_threshold slow probes (0.5ms each)
    # plus the timeout bookkeeping, so the rate is dominated by the
    # probe budget itself — the floor only flags pathological
    # detector-side overhead.
    def detect_slow_node() -> None:
        detector = HeartbeatDetector(
            suspicion_threshold=2, probe_timeout=0.0002
        )
        detector.watch("slow", lambda: time.sleep(0.0005))
        detector.poll()
        detector.poll()
        assert detector.confirmed() == ["slow"]

    rows.append(
        [
            "probe timeout detection latency",
            _rate(detect_slow_node, _iters(50)),
        ]
    )

    # Group commit: one real fsync per commit vs one per 64-commit batch.
    def wal_append_rate(group_size: int, n_commits: int) -> float:
        with tempfile.TemporaryDirectory() as scratch:
            wal = WriteAheadLog(
                str(Path(scratch) / "wal.jsonl"),
                group_size=group_size,
                fsync=True,
            )
            start = time.perf_counter_ns()
            for csn in range(1, n_commits + 1):
                wal.append(
                    WalCommit(
                        csn=csn,
                        txn_id=csn,
                        changes=(
                            WalChange("insert", "items", csn, (csn, "w", 0.0), None),
                        ),
                    )
                )
            wal.flush()
            elapsed_s = (time.perf_counter_ns() - start) / 1e9
            wal.close()
            return n_commits / elapsed_s

    wal_commits = _iters(2000)
    rows.append(
        ["wal commit (fsync each)", wal_append_rate(1, wal_commits)]
    )
    rows.append(
        ["wal group commit (64/batch)", wal_append_rate(64, wal_commits)]
    )

    # Paged storage tier: steady-state writes through the buffer pool
    # (pool far smaller than the table, so inserts pay real eviction
    # write-backs), and the cold-start path — reopen the page files
    # from a clean shutdown and serve the first point query with no
    # WAL tail replay. Cold start is dominated by catalog + header
    # reads and index rebuild, not data-file size.
    with tempfile.TemporaryDirectory() as paged_dir:
        paged = Database(
            storage="paged",
            data_dir=paged_dir,
            buffer_pool_pages=32,
            wal_group_size=64,
        )
        paged.execute("CREATE TABLE items (id INTEGER, grp TEXT, val FLOAT)")
        paged.execute("CREATE INDEX ix_id ON items (id)")
        # Full N_ROWS even in smoke: cold start scales with table size,
        # and a 10x-smaller smoke table would make the CI candidate
        # incomparable to the committed baseline for this case.
        ptxn = paged.begin()
        for i in range(N_ROWS):
            paged.execute(
                "INSERT INTO items VALUES (?, ?, ?)",
                (i, f"g{i % 50}", float(i % 97)),
                txn=ptxn,
            )
        ptxn.commit()
        paged_counter = iter(range(10**9))
        rows.append(
            [
                "paged autocommit insert (1 row)",
                _rate(
                    lambda: paged.execute(
                        "INSERT INTO items VALUES (?, 'px', 0.0)",
                        (N_ROWS + next(paged_counter),),
                    ),
                    _iters(300),
                ),
            ]
        )
        paged.close()

        def cold_start() -> None:
            db_cold = Database(storage="paged", data_dir=paged_dir)
            assert db_cold.recovery_stats["changes_reconciled"] == 0
            db_cold.execute("SELECT * FROM items WHERE id = 500")
            db_cold.close()

        rows.append(
            [
                "paged cold start (reopen + first query)",
                _rate(cold_start, _iters(20)),
            ]
        )

    # Provenance restore: from the state the last restore kept vs the
    # full history replayed.
    prov = build_provenance()
    prov.reconstruct_rows("kv", N_EVENTS)
    rows.append(
        [
            "restore 2k events (checkpointed)",
            _rate(lambda: prov.reconstruct_rows("kv", N_EVENTS), _iters(20)),
        ]
    )

    def cold_restore() -> None:
        prov.invalidate_checkpoints()
        prov.reconstruct_rows("kv", N_EVENTS)

    rows.append(["restore 2k events (full history)", _rate(cold_restore, _iters(20))])

    # The "aggregate scan (5k rows)" statement with read provenance on:
    # what tracing adds to a scan (row ids, one ReadSet holding the
    # scan's pair list, and the statement trace that carries it).
    agg_sql = "SELECT grp, AVG(val) FROM items GROUP BY grp"
    tap = _StatementTap()
    db.add_observer(tap)
    rows.append(
        ["aggregate scan (traced)", _rate(lambda: db.execute(agg_sql), _iters(20))]
    )
    db.remove_observer(tap)

    # One trace-buffer flush: 60k trace rows (20k writes, each with its
    # read and its Executions row) through ProvenanceStore.ingest, in
    # rows/s. After everything else, behind a collection and on a store
    # of its own: its allocation burst (a row tuple per trace row, all of
    # them surviving) would otherwise land full collector passes in
    # whichever case ran next.
    rows.append(
        ["provenance ingest (60k mixed events)", _ingest_rate(_iters(20_000))]
    )
    gc.collect()

    benchmark(
        lambda: db_indexed.execute("SELECT * FROM items WHERE id = 2500")
    )

    emit(
        "",
        f"=== S0: substrate characterization ({N_ROWS}-row table) ===",
        render_table(["operation", "ops/sec"], rows),
        "",
    )

    rates = {name: rate for name, rate in rows}
    _JSON_PATH.write_text(
        json.dumps(
            {
                "n_rows": N_ROWS,
                "n_events": N_EVENTS,
                "ops_per_sec": {name: round(rate, 1) for name, rate in rows},
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    emit(f"wrote {_JSON_PATH}")

    if SMOKE:
        # Shared CI runners are too noisy for ratio assertions; the
        # compare_baseline.py gate judges regressions instead. Keep only
        # liveness checks.
        assert all(rate > 0 for rate in rates.values())
        return

    # The index probe must beat the full scan by a wide margin.
    assert (
        rates["point query (index probe)"] > rates["point query (full scan)"] * 5
    )
    # Read-path overhaul floors: live-cache scans >= 3x the seed's scan,
    # checkpointed restore beats full.
    assert (
        rates["full scan latest (live cache)"]
        > rates["full scan latest (seed replica)"] * 3
    )
    # The unified Connection facade adds <10% overhead over direct
    # Database.execute for the same cached point query.
    assert (
        rates["repeat query (connection facade)"]
        > rates["repeat query (plan cache)"] * 0.9
    )
    assert (
        rates["restore 2k events (checkpointed)"]
        > rates["restore 2k events (full history)"]
    )
    # Routing: a key-pinned lookup touches 1 shard and must beat the
    # 4-shard fan-out scan decisively.
    assert (
        rates["sharded point lookup (routed)"]
        > rates["sharded scan (4-shard fan-out)"] * 3
    )
    # Streaming floors: LIMIT-k through the streamed cursor must beat the
    # seed's materializing cursor; batch-interleaved concurrent scans must
    # not cost more than ~2x the serialized baton protocol; and a pooled
    # checkout must beat constructing a connection from scratch.
    assert (
        rates["cursor first-10 of 5k (streamed)"]
        > rates["cursor first-10 of 5k (drain-all seed path)"] * 5
    )
    # Interleaving at 256-row batch boundaries adds ~84 extra baton
    # handoffs per 4-scan run that the serialized protocol never pays,
    # so parity is structurally unattainable; with the lock-based baton
    # the measured cost settles around 20-30%, and worse than 40% means
    # the handoff primitive regressed.
    assert (
        rates["concurrent scans x4 (batch-interleaved)"]
        > rates["concurrent scans x4 (serialized)"] * 0.6
    )
    # Compiled vectorized execution floors: the compute-bound tail must
    # hold its step change — >= 10x the committed pre-compilation
    # baselines for the single-node aggregate (90.3) and hash join
    # (120.0), >= 5x for the sharded partial/final aggregate (76.3).
    # Absolute rates, deliberately: these queries are pure CPU on a
    # cached plan, the one regime where ops/s transfers across machines
    # well enough for an order-of-magnitude floor.
    assert rates["aggregate scan (5k rows)"] >= 903
    assert rates["hash join (5k x 50)"] >= 1200
    assert rates["sharded aggregate (partial/final)"] >= 381.5
    assert (
        rates["connection checkout (pooled)"]
        > rates["connection construct (fresh)"]
    )
    assert rates["pooled workload statements"] > 500
    # Replication floors: 3 replicas must deliver >= 2x the single
    # primary's read capacity, and batching 64 commits per fsync must
    # clearly beat an fsync per commit.
    assert (
        rates["replicated read (3-replica cluster)"]
        > rates["replicated read (single primary)"] * 2
    )
    assert (
        rates["wal group commit (64/batch)"]
        > rates["wal commit (fsync each)"] * 1.5
    )
    assert rates["replication catch-up (records applied)"] > 100
    # Cluster floors (ungated in CI — rep counts are tiny, so the rates
    # are noisy; these conservative bounds flag only pathological
    # regressions). Quorum commits pay two synchronous applies per
    # insert; a reshard of 1k rows must clearly beat row-at-a-time
    # re-insertion through the SQL front door.
    assert rates["quorum commit (ack 2 of 3)"] > 50
    assert rates["online reshard 2->4 (rows moved)"] > 500
    # Robustness floors (ungated in CI for the same noise reason): a
    # coordinator crash recovery cycle reopens two paged stores and
    # resolves the in-doubt branch well under a second, and convicting
    # a slow node costs two ~0.5ms probes plus bookkeeping.
    assert rates["coordinator crash recovery (in-doubt txns resolved)"] > 1
    assert rates["probe timeout detection latency"] > 5
    # Paged tier floors: cold start is catalog + header reads and an
    # index rebuild over the table — it must finish fast enough that
    # reopening is cheap relative to a full WAL replay (the "restore
    # 2k events (full history)" rate above is the right mental
    # comparison), and paged autocommit inserts pay the pager but must
    # stay within an order of magnitude of memory-backed inserts.
    assert rates["paged cold start (reopen + first query)"] > 2
    assert (
        rates["paged autocommit insert (1 row)"]
        > rates["autocommit insert (1 row)"] / 10
    )
    # Sanity floors (very conservative; flags pathological regressions).
    assert rates["autocommit insert (1 row)"] > 500
    assert rates["read-only txn commit"] > 5_000
    assert rates["sharded 2PC write (4 rows x 4 shards)"] > 50
