"""TROD interposition on every engine (the ROADMAP's facade gap).

The debugger attaches to a sharded facade or a replicated cluster with
the same ``Trod(engine).attach()`` + ``repro.connect(engine, trod=...)``
it uses on a single database. That every engine then records a single
node's event stream is the conformance matrix's
(``tests/integration/test_conformance.py``); this file holds attachment,
exact one-shard order, and the collisions a multi-shard history has.
"""

import pytest

from repro.cluster import reshard
from repro.core import Trod
from repro.db import Database, ReplicaSet, ShardedDatabase, connect

from eager_reads import ReadLog


def drive(conn) -> None:
    """The statement stream every engine runs identically."""
    conn.execute("CREATE TABLE acct (id INTEGER, bal INTEGER)")
    for i in range(4):
        conn.execute("INSERT INTO acct VALUES (?, ?)", (i, 100))
    with conn.transaction(label="transfer") as txn:
        txn.execute("UPDATE acct SET bal = bal - 30 WHERE id = 0")
        txn.execute("UPDATE acct SET bal = bal + 30 WHERE id = 3")
    conn.execute("SELECT bal FROM acct WHERE id = 0")
    conn.execute("DELETE FROM acct WHERE id = 2")


def write_events(trod: Trod) -> list[tuple]:
    """(kind, id-column, bal-column) of every write event, sorted."""
    trod.flush()
    result = trod.query(
        "SELECT Type, Id, Bal FROM AcctEvents "
        "WHERE Type != 'Read' AND Type != 'Snapshot'"
    )
    return sorted(result.rows)


def run_engine(engine) -> Trod:
    trod = Trod(engine)
    conn = connect(engine, trod=trod)
    drive(conn)
    return trod


class TestEventStreamParity:
    def test_single_shard_facade_matches_exactly(self):
        # With one shard there is no id-space caveat at all: the whole
        # event stream (incl. unsorted order of writes) must line up.
        single = run_engine(Database())
        facade = run_engine(ShardedDatabase(1, shard_keys={"acct": "id"}))
        assert write_events(facade) == write_events(single)

    def test_replica_set_without_replicas_matches_exactly(self):
        # A set with no replicas is still an engine (not a falsy one):
        # the debugger attaches to it and every read comes from the primary.
        single = run_engine(Database())
        replica_set = ReplicaSet(Database())
        trod = run_engine(replica_set)
        assert trod.attached
        assert trod.interposition in replica_set.primary.observers
        assert write_events(trod) == write_events(single)
        assert replica_set.stats["primary_reads"] == 1
        assert replica_set.stats["replica_reads"] == 0

    def test_txn_outcomes_are_visible_on_the_sharded_facade(self):
        trod = run_engine(ShardedDatabase(2, shard_keys={"acct": "id"}))
        statuses = set(
            trod.query("SELECT DISTINCT Status FROM Executions").column(
                "Status"
            )
        )
        # Commits from the writes; aborts from the CSN-free read path.
        assert "Committed" in statuses

    def test_injection_set_holds_each_write_event_once_on_shards(self):
        # Shards number their transactions independently, so Executions
        # holds one "TXN1" per shard; resolving a write's request through
        # a join on TxnId returned one copy of the event per such row.
        engine = ShardedDatabase(2, shard_keys={"acct": "id"})
        trod = Trod(engine)
        conn = connect(engine, trod=trod)
        conn.execute("CREATE TABLE acct (id INTEGER, bal INTEGER)")
        for i in range(6):
            conn.execute("INSERT INTO acct VALUES (?, ?)", (i, 100))
        with conn.transaction(label="transfer") as txn:
            txn.execute("UPDATE acct SET bal = bal - 30 WHERE id = 0")
            txn.execute("UPDATE acct SET bal = bal + 30 WHERE id = 3")
        trod.flush()
        names = trod.query("SELECT TxnId FROM Executions").column("TxnId")
        assert len(set(names)) < len(names)  # the collision is there
        seqs = [w["Seq"] for w in trod.provenance.writes_between(0, 100)]
        assert len(seqs) == len(set(seqs)) == len(write_events(trod)) == 8

    def test_attach_registers_every_shard(self):
        sharded = ShardedDatabase(3, shard_keys={"acct": "id"})
        trod = Trod(sharded)
        trod.attach()
        assert all(
            trod.interposition in shard.observers for shard in sharded.shards
        )
        assert all(shard.track_reads for shard in sharded.shards)
        trod.detach()
        assert not any(
            trod.interposition in shard.observers for shard in sharded.shards
        )
        assert not any(shard.track_reads for shard in sharded.shards)

    def test_attach_to_populated_multi_shard_engine_is_rejected(self):
        # Pre-attach rows would snapshot under the global CSN space while
        # per-shard commit events carry local CSNs; refuse rather than
        # record a silently inconsistent provenance baseline.
        from repro.errors import TrodError

        sharded = ShardedDatabase(2, shard_keys={"acct": "id"})
        sharded.execute("CREATE TABLE acct (id INTEGER, bal INTEGER)")
        sharded.execute("INSERT INTO acct VALUES (1, 100)")
        with pytest.raises(TrodError, match="before loading"):
            Trod(sharded).attach()

    def test_attach_to_empty_multi_shard_engine_is_fine(self):
        sharded = ShardedDatabase(2, shard_keys={"acct": "id"})
        sharded.execute("CREATE TABLE acct (id INTEGER, bal INTEGER)")
        trod = Trod(sharded)
        assert trod.attach() is trod

    def test_standalone_attach_without_runtime(self):
        db = Database()
        trod = Trod(db)
        assert trod.attach() is trod
        assert trod.attached and trod.runtime is None
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        trod.flush()
        assert (
            trod.query(
                "SELECT COUNT(*) FROM TEvents WHERE Type = 'Insert'"
            ).scalar()
            == 1
        )


class TestTracingSurvivesFailover:
    """The promoted database inherits the interposition observer, and
    with it read tracking. That the events recorded across a failover match a
    single node's is the conformance matrix's failover cells."""

    @staticmethod
    def drive_across(conn, fail_over) -> None:
        conn.execute("CREATE TABLE acct (id INTEGER, bal INTEGER)")
        for i in range(4):
            conn.execute("INSERT INTO acct VALUES (?, ?)", (i, 100))
        fail_over()
        conn.execute("INSERT INTO acct VALUES (?, ?)", (9, 900))
        conn.execute("SELECT bal FROM acct WHERE id = 9")

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_replicated_engine(self, mode):
        cluster = ReplicaSet(Database(name="replicated"), n_replicas=2, mode=mode)
        trod = Trod(cluster)
        conn = connect(cluster, trod=trod)
        old_primary = cluster.primary
        self.drive_across(conn, cluster.promote)
        assert cluster.primary is not old_primary
        assert cluster.primary.track_reads
        assert trod.interposition in cluster.primary.observers
        assert trod.interposition not in old_primary.observers
        trod.detach()
        assert trod.interposition not in cluster.primary.observers
        assert not cluster.primary.track_reads

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_sharded_engine(self, mode):
        sharded = ShardedDatabase(2, shard_keys={"acct": "id"})
        sharded.attach_replicas(1, mode=mode)
        trod = Trod(sharded)
        conn = connect(sharded, trod=trod)

        def fail_over_every_shard() -> None:
            for store in sharded.store_names:
                sharded.failover(store)

        self.drive_across(conn, fail_over_every_shard)
        assert all(shard.track_reads for shard in sharded.shards)
        assert all(
            trod.interposition in shard.observers for shard in sharded.shards
        )


class TestRowsOfScansThatCannotBeReenacted:
    # Once a table's history stops giving its rows, a traced scan stages
    # the rows it read from the store of the database it ran on: the same
    # Read rows the reenacted scan expands to. A replica set has no store
    # of its own. A sharded engine's shard scans record their rows as
    # they read them; its case holds that path to the same answer.
    ENGINES = {
        "replica_set": lambda: ReplicaSet(Database()),
        "replica_set_sync_replica": lambda: ReplicaSet(
            Database(), n_replicas=1, mode="sync"
        ),
        "sharded": lambda: ShardedDatabase(2, shard_keys={"t": "k"}),
    }

    @staticmethod
    def scan_reads(engine, reenact: bool) -> list[tuple]:
        trod = Trod(engine)
        conn = connect(engine, trod=trod, read_preference="replica")
        conn.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        for k in range(8):
            conn.execute("INSERT INTO t VALUES (?, ?)", (k, f"v{k}"))
        if not reenact:
            trod.provenance.stop_reenacting("t")
        rows = conn.execute("SELECT * FROM t").rows
        assert sorted(rows) == [(k, f"v{k}") for k in range(8)]
        trod.flush()
        trod.provenance.expand_reads()
        reads = trod.query("SELECT K, V FROM TEvents WHERE Type = 'Read'")
        return sorted(reads.rows, key=repr)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_stages_the_rows_its_scan_read(self, engine):
        target = self.ENGINES[engine]()
        staged = self.scan_reads(target, reenact=False)
        assert {row for row in staged if row[0] is not None} == {
            (k, f"v{k}") for k in range(8)
        }
        assert staged == self.scan_reads(self.ENGINES[engine](), reenact=True)
        if engine == "replica_set_sync_replica":
            # A traced read is served by the primary, whatever the
            # connection prefers: TROD observes primaries only.
            assert target.stats["primary_reads"] == 1
            assert target.stats["replica_reads"] == 0


class TestReadTrackingFollowsTheSubscription:
    """Read tracking is on exactly while a ``statement_executed``
    subscriber listens; there is no switch to set or to forget."""

    ENGINES = {
        "single": Database,
        "sharded": lambda: ShardedDatabase(2, shard_keys={"t": "k"}),
        "replicated": lambda: ReplicaSet(Database(), n_replicas=1, mode="sync"),
    }

    def test_there_is_no_switch(self):
        with pytest.raises(AttributeError):
            Database().track_reads = True
        assert not hasattr(ShardedDatabase(2), "track_reads")
        assert not hasattr(ReplicaSet(Database()), "track_reads")

    @staticmethod
    def statement_reads(txn) -> list:
        """What ``txn``'s last statement recorded, on every branch."""
        if hasattr(txn, "stores_joined"):
            return [r for s in txn.stores_joined() for r in txn.on(s).statement_reads()]
        return txn.statement_reads()

    @staticmethod
    def served_by(engine, read) -> tuple:
        """``read()``'s result and which kind of node served it."""
        before = dict(getattr(engine, "cluster_stats", {}))
        result = read()
        after = getattr(engine, "cluster_stats", {})
        kinds = ("primary_reads", "replica_reads")
        return result, [k for k in kinds if after.get(k, 0) > before.get(k, 0)]

    @pytest.mark.parametrize("name", ENGINES)
    def test_subscribing_is_what_tracks_reads(self, name):
        engine = self.ENGINES[name]()
        engine.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        for k in range(5):
            engine.execute("INSERT INTO t VALUES (?, ?)", (k, f"v{k}"))
        if name == "sharded":
            engine.attach_replicas(1, mode="sync")
        replicated = name != "single"
        sql = "SELECT v FROM t WHERE k = 3"

        log = ReadLog.on(engine)
        txn = engine.begin()
        engine.execute(sql, txn=txn)
        traced = self.statement_reads(txn)
        txn.abort()
        assert {read.table for read in traced} == {"t"}
        assert [read for reads in log.values() for read in reads] == traced
        result, served = self.served_by(engine, lambda: engine.execute_read(sql))
        assert not result.streaming and result.rows == [("v3",)]
        assert served == (["primary_reads"] if replicated else [])

        engine.remove_observer(log)
        txn = engine.begin()
        engine.execute(sql, txn=txn)
        assert self.statement_reads(txn) == []
        txn.abort()
        result, served = self.served_by(engine, lambda: engine.execute_read(sql))
        # A sharded read gathers its shards' rows whole; the others stream.
        assert result.streaming is (name != "sharded")
        assert result.rows == [("v3",)]
        assert served == (["replica_reads"] if replicated else [])

    def test_a_reshard_keeps_tracing(self):
        sharded = ShardedDatabase(2, shard_keys={"t": "k"})
        trod = Trod(sharded).attach()
        sharded.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        for k in range(10):
            sharded.execute("INSERT INTO t VALUES (?, ?)", (k, f"v{k}"))
        reshard(sharded, 3)
        for k in range(10, 20):
            sharded.execute("INSERT INTO t VALUES (?, ?)", (k, f"v{k}"))
        assert sharded.execute("SELECT v FROM t WHERE k = 15").rows == [("v15",)]
        trod.flush()
        counts = dict(trod.query("SELECT Type, COUNT(*) FROM TEvents GROUP BY Type").rows)
        assert counts.get("Insert") == 20 and counts.get("Read") == 1
        assert sharded.n_shards == 3
        assert all(trod.interposition in shard.observers for shard in sharded.shards)
        trod.detach()
        assert not any(shard.track_reads for shard in sharded.shards)
