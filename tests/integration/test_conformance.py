"""One conformance matrix: the same statement stream on every deployment.

One seeded :class:`~repro.workload.generators.ConnectionWorkload` stream
runs through ``repro.connect()`` on every cell of

* engine: single, sharded(3), replicated(2, async), sharded(2) + 1 async
  replica per shard;
* storage: memory, paged (every node the engine provisions inherits it);
* tracing: off, TROD attached;
* read preference: primary, replica (engines with replicas only);
* fault: none, a failover mid-stream (engines with replicas only);
* scan batch size: 256, and 0 and 1 on the traced single-node cells.

Each cell must give the answers of the simplest cell (single node, memory,
untraced): every result fingerprint, every bookmarked ``AS OF`` answer and
the columns of a GROUP BY. A traced cell must also record the event stream
of the single-node traced cell, and a traced single-node cell the very
stream, in order, of the 256 cell on its storage. Each cell ends in one
:func:`check_invariants`; a traced cell then holds every provenance table,
``Seq`` for ``Seq``, to a run of the same cell under the eager read
recorder (``tests/eager_reads.py``), erases a value and checks that no way
into provenance shows it.
"""

import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import pytest

from repro.core import Trod
from repro.db import Database, ReplicaSet, ShardedDatabase, connect
from repro.workload.generators import ConnectionWorkload

from eager_reads import eager_reads, provenance_tables

N_STATEMENTS = 150
#: Replicas catch up every 40 statements, so a run ends with them behind
#: their primary and the replica-is-a-prefix check compares a past state.
CATCH_UP_EVERY = 40
#: Failover cells promote a replica after this many stream statements.
FAILOVER_AT = N_STATEMENTS // 2
#: ``Database.scan_batch_size`` of every cell but the batch-size ones.
BATCH = 256
#: Small pages and a small pool, so paged cells evict and re-read pages.
PAGE_GEOMETRY = {"page_size": 1024, "buffer_pool_pages": 16}
GROUP_BY = (
    "SELECT region, COUNT(*) AS n, SUM(balance) FROM ledger "
    "GROUP BY region ORDER BY region"
)

#: Workload seeds; CI's chaos-seed matrix adds each of its seeds through
#: ``REPRO_CHAOS_SEED``, the variable ``tests/cluster/test_chaos.py`` reads.
SEEDS = [0, 1, 7]
if os.environ.get("REPRO_CHAOS_SEED"):
    SEEDS.append(int(os.environ["REPRO_CHAOS_SEED"]))


def node(name: str, storage: str) -> Database:
    if storage == "paged":
        return Database(name=name, storage="paged", **PAGE_GEOMETRY)
    return Database(name=name)


def sharded(storage: str, n_shards: int = 3) -> ShardedDatabase:
    return ShardedDatabase(
        databases=[node(f"sharded-shard{i}", storage) for i in range(n_shards)],
        shard_keys={"ledger": "acct"},
    )


def sharded_with_replicas(storage: str) -> ShardedDatabase:
    engine = sharded(storage, n_shards=2)
    engine.attach_replicas(1, mode="async")
    return engine


#: name -> (constructor taking the storage, whether it has replicas).
ENGINES = {
    "single": (lambda storage: node("single", storage), False),
    "sharded3": (sharded, False),
    "replicated2": (
        lambda storage: ReplicaSet(
            node("replicated", storage), n_replicas=2, mode="async"
        ),
        True,
    ),
    "sharded2+replica": (sharded_with_replicas, True),
}


@dataclass(frozen=True)
class Cell:
    engine: str
    storage: str = "memory"
    traced: bool = False
    preference: str = "primary"
    fault: str = "none"
    scan_batch_size: int = BATCH

    def __str__(self) -> str:
        parts = [
            self.engine,
            self.storage,
            "trod" if self.traced else "untraced",
            self.preference,
            self.fault,
        ]
        if self.scan_batch_size != BATCH:
            parts.append(f"batch{self.scan_batch_size}")
        return "-".join(parts)


def cells() -> list:
    params = []
    for engine, (_make, has_replicas) in ENGINES.items():
        preferences = ("primary", "replica") if has_replicas else ("primary",)
        faults = ("none", "failover") if has_replicas else ("none",)
        for storage, traced, preference, fault in product(
            ("memory", "paged"), (False, True), preferences, faults
        ):
            cell = Cell(engine, storage, traced, preference, fault)
            marks = ()
            if traced and engine.startswith("sharded"):
                marks = pytest.mark.xfail(
                    strict=True,
                    raises=ProvenanceGap,
                    reason="ROADMAP direction 4: shards number commits on "
                    "their own, so Executions repeats CSNs",
                )
            params.append(pytest.param(cell, marks=marks, id=str(cell)))
    for storage, batch in product(("memory", "paged"), (0, 1)):
        cell = Cell("single", storage, traced=True, scan_batch_size=batch)
        params.append(pytest.param(cell, id=str(cell)))
    return params


# -- invariants ----------------------------------------------------------------


class ProvenanceGap(AssertionError):
    """Committed ``Executions`` rows and application commits disagree."""


def topology(engine) -> list[tuple[Database, list[Database]]]:
    """Every primary of ``engine`` with the databases replicating it."""
    if isinstance(engine, ShardedDatabase):
        return [
            (
                shard,
                [r.database for r in engine.replica_sets[store].replicas]
                if store in engine.replica_sets
                else [],
            )
            for store, shard in engine.named_shards()
        ]
    if isinstance(engine, ReplicaSet):
        return [(engine.primary, [r.database for r in engine.replicas])]
    return [(engine, [])]


def replica_reads(engine) -> int:
    if isinstance(engine, ShardedDatabase):
        return engine.cluster_stats.get("replica_reads", 0)
    if isinstance(engine, ReplicaSet):
        return engine.stats["replica_reads"]
    return 0


def check_invariants(engine, trod: Trod | None = None) -> None:
    """What must hold of ``engine`` (and the ``trod`` tracing it) whenever
    no statement is running, whatever the deployment.

    * no node's WAL has accepted a CSN its database has not reached
      (each append checks that CSNs strictly increase);
    * no node holds an active transaction, a lock or a pinned page;
    * each replica is a prefix of its primary: its latest rows are the
      primary's rows ``AS OF`` the replica's last CSN;
    * traced: no statement is left buffered in the interposition layer,
      no read was served by a replica, and every application commit above
      ``trod.base_csn`` has exactly one committed ``Executions`` row
      (checked last; a violation raises :class:`ProvenanceGap`).
    """
    nodes = topology(engine)
    for primary, replicas in nodes:
        for db in (primary, *replicas):
            assert db.wal.last_csn <= db.last_csn, (
                f"{db.name}: WAL at csn {db.wal.last_csn}, database at {db.last_csn}"
            )
            manager = db.txn_manager
            assert not manager.active, f"{db.name}: transactions left active"
            assert not manager.locks._held, f"{db.name}: locks left held"
            assert db.storage_stats.get("pool_pinned", 0) == 0, (
                f"{db.name}: pages left pinned"
            )
        for replica in replicas:
            for table in primary.catalog.table_names():
                past = sorted(primary.store(table).scan(replica.last_csn))
                assert sorted(replica.store(table).scan(None)) == past, (
                    f"{replica.name}.{table} is not {primary.name}.{table} "
                    f"AS OF {replica.last_csn}"
                )
    if trod is None:
        return
    assert not trod.interposition._txn_statements, "statements left buffered"
    assert replica_reads(engine) == 0, "a traced read was served by a replica"
    committed = Counter(
        trod.query("SELECT Csn FROM Executions WHERE Status = 'Committed'").column(
            "Csn"
        )
    )
    # Every CSN a primary handed out since attach is a commit: the range
    # is dense.
    applied = {
        csn
        for primary, _replicas in nodes
        for csn in range(trod.base_csn + 1, primary.last_csn + 1)
    }
    repeated = sorted(csn for csn, n in committed.items() if n > 1)
    if repeated or set(committed) != applied:
        raise ProvenanceGap(
            f"CSNs with several committed Executions rows: {repeated[:10]}; "
            f"commits without one: {sorted(applied - set(committed))[:10]}; "
            f"rows for no commit: {sorted(set(committed) - applied)[:10]}"
        )


# -- running a cell --------------------------------------------------------------


def fail_over(engine) -> None:
    """Promote a replica of every primary, then rejoin each demoted
    primary as a fresh replica bootstrapped from its successor."""
    if isinstance(engine, ReplicaSet):
        engine.promote()
        replica_sets = [engine]
    else:
        for store in engine.store_names:
            engine.failover(store)
        replica_sets = list(engine.replica_sets.values())
    for replica_set in replica_sets:
        assert replica_set.reprovision() == 1


class FailoverAt:
    """A connection that fails its engine over before statement ``at``."""

    def __init__(self, conn, at: int):
        self._conn = conn
        self._at = at
        self._count = 0
        self.engine = conn.engine

    def execute(self, sql, params=()):
        if self._count == self._at:
            fail_over(self.engine)
        self._count += 1
        return self._conn.execute(sql, params)


@dataclass
class Run:
    engine: object
    trod: Trod | None
    prints: list
    grouped: object

    def events(self) -> Counter:
        """The engine-independent projection of the ledger's events.

        Null reads are left out: a shard whose part of a read finds no
        row records one that a single node, finding rows elsewhere, does
        not (ROADMAP direction 4)."""
        return Counter(
            self.trod.query(
                "SELECT Type, Query, Acct, Balance, Region FROM LedgerEvents "
                "WHERE Type != 'Read' OR Acct IS NOT NULL"
            ).rows
        )

    def stream(self) -> list:
        """Every ledger event, in the order it was recorded."""
        return self.trod.query("SELECT * FROM LedgerEvents ORDER BY Seq").rows


def run_cell(cell: Cell, seed: int) -> Run:
    make, _has_replicas = ENGINES[cell.engine]
    engine = make(cell.storage)
    if cell.scan_batch_size != BATCH:
        engine.scan_batch_size = cell.scan_batch_size
    trod = Trod(engine) if cell.traced else None
    conn = connect(engine, trod=trod, read_preference=cell.preference)
    workload = ConnectionWorkload(seed=seed)
    workload.seed(conn)
    stream = FailoverAt(conn, FAILOVER_AT) if cell.fault == "failover" else conn
    prints = workload.run(stream, N_STATEMENTS, catch_up_every=CATCH_UP_EVERY)
    # One explicit transaction: two shards' worth of writes (2PC when
    # sharded), which the GROUP BY and the event stream then see.
    with conn.transaction(label="transfer") as txn:
        txn.execute("UPDATE ledger SET balance = balance - 30 WHERE acct = 1")
        txn.execute("UPDATE ledger SET balance = balance + 30 WHERE acct = 2")
    return Run(engine, trod, prints, conn.execute(GROUP_BY))


@lru_cache(maxsize=None)
def reference(seed: int, traced: bool, storage: str = "memory") -> Run:
    return run_cell(Cell("single", storage, traced=traced), seed)


def close(engine) -> None:
    for primary, replicas in topology(engine):
        for db in (primary, *replicas):
            db.close()


# -- the matrix ------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cell", cells())
def test_cell_matches_the_simplest_cell(cell, seed, erasure_oracle):
    run = run_cell(cell, seed)
    try:
        expected = reference(seed, traced=False)
        kinds = Counter(kind for kind, _ in run.prints)
        assert kinds["read"] and kinds["write"] and kinds["asof"], kinds
        assert len(run.prints) == len(expected.prints) == N_STATEMENTS
        for i, (want, got) in enumerate(zip(expected.prints, run.prints)):
            assert want == got, f"{cell} diverged at statement {i}"
        assert run.grouped.columns == expected.grouped.columns == [
            "region", "n", "SUM(balance)"
        ]
        assert run.grouped.rows == expected.grouped.rows
        if cell.traced:
            events = run.events()
            kinds = Counter(kind for kind, *_ in events.elements())
            assert kinds["Read"] and kinds["Insert"] and kinds["Update"], kinds
            assert events == reference(seed, traced=True).events()
            if cell.scan_batch_size != BATCH:
                assert run.stream() == reference(seed, True, cell.storage).stream()
        nodes = topology(run.engine)
        if ENGINES[cell.engine][1]:
            assert any(
                replica.last_csn < primary.last_csn
                for primary, replicas in nodes
                for replica in replicas
            ), "no replica lags: the prefix check would compare latest states"
            if cell.preference == "replica" and not cell.traced:
                assert replica_reads(run.engine) > 0
        assert all(
            db.storage == cell.storage
            for primary, replicas in nodes
            for db in (primary, *replicas)
        )
        check_invariants(run.engine, run.trod)
        if cell.traced:
            with eager_reads():
                eager = run_cell(cell, seed)
            try:
                assert provenance_tables(run.trod) == provenance_tables(eager.trod)
            finally:
                close(eager.engine)
            run.trod.privacy.forget_value("ledger", "region", "north")
            erasure_oracle(run.trod, "north")
    finally:
        close(run.engine)
