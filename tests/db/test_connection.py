"""The unified Connection/Cursor facade (repro.connect)."""

import pytest

import repro
from repro.db import (
    Database,
    IsolationLevel,
    ReplicaSet,
    Row,
    Session,
    ShardedDatabase,
    connect,
)
from repro.errors import ExecutionError, InterfaceError


def seeded_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER, v TEXT)")
    for i in range(5):
        db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
    return db


def seeded_sharded() -> ShardedDatabase:
    sharded = ShardedDatabase(2, shard_keys={"t": "id"})
    sharded.execute("CREATE TABLE t (id INTEGER, v TEXT)")
    for i in range(5):
        sharded.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
    return sharded


ENGINES = [
    seeded_db,
    lambda: ReplicaSet(seeded_db(), n_replicas=1),
    seeded_sharded,
]
ENGINE_IDS = ["database", "replicated", "sharded"]


class TestConnect:
    def test_connect_is_exported_at_top_level(self):
        assert repro.connect is connect
        assert isinstance(repro.connect(Database()), repro.Connection)

    def test_rejects_non_engines(self):
        with pytest.raises(InterfaceError, match="Engine"):
            connect(object())

    def test_rejects_unknown_read_preference(self):
        with pytest.raises(InterfaceError, match="read_preference"):
            connect(Database(), read_preference="nearest")

    def test_takes_a_replica_set_as_its_engine(self):
        rs = ReplicaSet(seeded_db(), n_replicas=1, mode="sync")
        conn = connect(rs)
        assert conn.engine is rs
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 5

    def test_closed_connection_refuses_work(self):
        conn = connect(seeded_db())
        conn.close()
        assert conn.closed
        with pytest.raises(InterfaceError, match="closed"):
            conn.execute("SELECT * FROM t")
        with pytest.raises(InterfaceError, match="closed"):
            conn.cursor()

    def test_context_manager_closes(self):
        with connect(seeded_db()) as conn:
            assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 5
        assert conn.closed

    def test_custom_engine_with_only_the_documented_surface(self):
        """An Engine needs nothing beyond the documented contract."""

        class MinimalEngine:
            def __init__(self):
                self._db = seeded_db()
                self.name = "minimal"

            @property
            def catalog(self):
                return self._db.catalog

            @property
            def last_commit_csn(self):
                return self._db.last_commit_csn

            def execute(self, sql, params=(), txn=None):
                return self._db.execute(sql, params, txn=txn)

            def execute_read(self, sql, params=(), floor=0, **routing):
                return self._db.execute_read(sql, params)

            def begin(self, isolation=None, info=None):
                return self._db.begin(info=info)

            def explain(self, sql, params=()):
                return self._db.explain(sql, params)

            def add_observer(self, observer):
                self._db.add_observer(observer)

            def remove_observer(self, observer):
                self._db.remove_observer(observer)

            def snapshot_rows(self, table):
                return self._db.snapshot_rows(table)

            def table_rows(self, table):
                return self._db.table_rows(table)

        conn = connect(MinimalEngine())
        conn.execute("INSERT INTO t VALUES (?, ?)", (9, "v9"))
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 6
        assert conn.session.last_write_csn > 0
        assert any("Scan" in line for line in conn.explain("SELECT * FROM t"))


class TestConnectionExecution:
    def test_select_dml_ddl_route_and_count(self):
        conn = connect(Database())
        conn.execute("CREATE TABLE kv (k INTEGER, val INTEGER)")
        conn.execute("INSERT INTO kv VALUES (?, ?)", (1, 10))
        conn.execute("SELECT * FROM kv")
        assert conn.stats == {
            "reads": 1, "writes": 1, "ddl": 1, "transactions": 0,
            "failover_retries": 0,
        }

    def test_reads_consume_no_csns_on_any_engine(self):
        engines = [
            seeded_db(),
            ReplicaSet(seeded_db(), n_replicas=1),
        ]
        sharded = ShardedDatabase(2, shard_keys={"t": "id"})
        sharded.execute("CREATE TABLE t (id INTEGER, v TEXT)")
        engines.append(sharded)
        for engine in engines:
            conn = connect(engine)
            before = conn.last_commit_csn
            for _ in range(3):
                conn.execute("SELECT COUNT(*) FROM t")
            assert conn.last_commit_csn == before, type(engine).__name__

    @pytest.mark.parametrize("make_engine", ENGINES, ids=ENGINE_IDS)
    def test_writes_advance_the_session_token(self, make_engine):
        """One token on every engine: after each write the session holds
        the engine's ``last_commit_csn`` (global CSN when sharded)."""
        engine = make_engine()
        conn = connect(engine)
        assert conn.session.last_write_csn == 0
        conn.execute("INSERT INTO t VALUES (?, ?)", (7, "a"))
        assert conn.session.last_write_csn == engine.last_commit_csn > 0
        conn.execute("UPDATE t SET v = ? WHERE id = ?", ("x", 7))
        assert conn.session.last_write_csn == engine.last_commit_csn
        with conn.transaction() as txn:
            txn.execute("DELETE FROM t WHERE id = ?", (7,))
        assert conn.session.last_write_csn == engine.last_commit_csn == txn.csn

    def test_shared_session_across_connections(self):
        session = Session("shared")
        db = seeded_db()
        c1 = connect(db, session=session)
        c2 = connect(db, session=session)
        c1.execute("UPDATE t SET v = ? WHERE id = ?", ("w", 2))
        assert c2.session.last_write_csn == db.last_csn

    @pytest.mark.parametrize("make_engine", ENGINES, ids=ENGINE_IDS)
    def test_explain_passes_through(self, make_engine):
        engine = make_engine()
        sql, params = "SELECT * FROM t WHERE id = ?", (1,)
        lines = connect(engine).explain(sql, params)
        assert lines == engine.explain(sql, params)
        assert any("Scan" in line for line in lines)
        if isinstance(engine, ShardedDatabase):
            assert any("Exchange(targets=[shard" in line for line in lines)


class TestConnectionTransactions:
    def test_commits_on_clean_exit_and_sets_csn(self):
        conn = connect(seeded_db())
        with conn.transaction() as txn:
            txn.execute("UPDATE t SET v = ? WHERE id = ?", ("a", 0))
            txn.execute("UPDATE t SET v = ? WHERE id = ?", ("b", 1))
        assert txn.csn == conn.engine.last_csn
        assert conn.session.last_write_csn == txn.csn
        assert conn.execute("SELECT v FROM t WHERE id = 0").scalar() == "a"

    def test_aborts_on_exception(self):
        conn = connect(seeded_db())
        with pytest.raises(RuntimeError):
            with conn.transaction() as txn:
                txn.execute("UPDATE t SET v = ? WHERE id = ?", ("zz", 0))
                raise RuntimeError("boom")
        assert conn.execute("SELECT v FROM t WHERE id = 0").scalar() == "v0"

    def test_explicit_commit_inside_block_wins(self):
        conn = connect(seeded_db())
        with conn.transaction() as txn:
            txn.execute("UPDATE t SET v = ? WHERE id = ?", ("c", 0))
            csn = txn.commit()
        assert txn.csn == csn

    def test_explicit_abort_inside_block(self):
        conn = connect(seeded_db())
        with conn.transaction() as txn:
            txn.execute("UPDATE t SET v = ? WHERE id = ?", ("d", 0))
            txn.abort()
        assert conn.execute("SELECT v FROM t WHERE id = 0").scalar() == "v0"

    def test_isolation_and_label_reach_the_engine(self):
        conn = connect(seeded_db())
        with conn.transaction(
            isolation=IsolationLevel.SNAPSHOT, label="audit"
        ) as txn:
            assert txn.raw.isolation is IsolationLevel.SNAPSHOT
            assert txn.raw.info["label"] == "audit"

    def test_sharded_transaction_is_global_2pc(self):
        sharded = ShardedDatabase(3, shard_keys={"t": "id"})
        conn = connect(sharded)
        conn.execute("CREATE TABLE t (id INTEGER, v TEXT)")
        with conn.transaction() as txn:
            for i in range(6):
                txn.execute("INSERT INTO t VALUES (?, ?)", (i, "x"))
        assert txn.csn == 1  # one atomic global commit
        assert conn.session.last_write_csn == 1
        assert len(txn.raw.stores_joined()) > 1


class TestCursor:
    def test_dbapi_shape(self):
        conn = connect(seeded_db())
        cur = conn.cursor()
        assert cur.execute("SELECT id, v FROM t ORDER BY id") is cur
        assert [d[0] for d in cur.description] == ["id", "v"]
        row = cur.fetchone()
        assert isinstance(row, Row)
        assert (row.id, row.v) == (0, "v0")
        assert row["v"] == "v0" and row[1] == "v0"
        assert len(cur.fetchmany(2)) == 2
        assert len(cur.fetchall()) == 2
        assert cur.fetchone() is None

    def test_iteration_and_tuple_compat(self):
        conn = connect(seeded_db())
        rows = list(conn.cursor().execute("SELECT id FROM t ORDER BY id"))
        assert rows == [(0,), (1,), (2,), (3,), (4,)]

    def test_dml_sets_rowcount_and_lastrowid(self):
        conn = connect(seeded_db())
        cur = conn.cursor().execute("INSERT INTO t VALUES (?, ?)", (9, "n"))
        assert cur.description is None
        assert cur.rowcount == 1
        assert cur.lastrowid is not None

    def test_executemany_accumulates_rowcount(self):
        conn = connect(seeded_db())
        cur = conn.cursor().executemany(
            "INSERT INTO t VALUES (?, ?)", [(10, "a"), (11, "b"), (12, "c")]
        )
        assert cur.rowcount == 3
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 8

    def test_closed_cursor_refuses_work(self):
        conn = connect(seeded_db())
        with conn.cursor() as cur:
            cur.execute("SELECT * FROM t")
        with pytest.raises(InterfaceError, match="cursor is closed"):
            cur.fetchall()


class TestReadPreferences:
    def make_cluster(self) -> ReplicaSet:
        cluster = ReplicaSet(seeded_db(), n_replicas=2, mode="async")
        cluster.catch_up()
        return cluster

    def test_replica_preference_serves_from_replicas(self):
        cluster = self.make_cluster()
        conn = connect(cluster)
        for _ in range(4):
            conn.execute("SELECT COUNT(*) FROM t")
        assert cluster.stats["replica_reads"] == 4

    def test_primary_preference_pins_reads(self):
        cluster = self.make_cluster()
        conn = connect(cluster, read_preference="primary")
        for _ in range(4):
            conn.execute("SELECT COUNT(*) FROM t")
        assert cluster.stats["replica_reads"] == 0
        assert cluster.stats["primary_reads"] == 4

    def test_read_your_writes_under_lag(self):
        cluster = self.make_cluster()
        conn = connect(cluster)
        conn.execute("UPDATE t SET v = ? WHERE id = ?", ("fresh", 1))
        # Replicas have not applied the update; the session floor must
        # force the read to the primary.
        assert (
            conn.execute("SELECT v FROM t WHERE id = 1").scalar() == "fresh"
        )
        assert cluster.stats["stale_fallbacks"] == 1

    def test_wait_preference_catches_up_instead(self):
        cluster = self.make_cluster()
        conn = connect(cluster, read_preference="wait")
        conn.execute("UPDATE t SET v = ? WHERE id = ?", ("w", 1))
        assert conn.execute("SELECT v FROM t WHERE id = 1").scalar() == "w"
        assert cluster.stats["catch_up_waits"] == 1
        assert cluster.stats["stale_fallbacks"] == 0

    def test_read_preference_reassignment_reaches_sharded_routing(self):
        sharded = ShardedDatabase(2, shard_keys={"t": "id"})
        conn = connect(sharded, read_preference="replica")
        conn.execute("CREATE TABLE t (id INTEGER, v TEXT)")
        conn.execute("INSERT INTO t VALUES (?, ?)", (1, "a"))
        sharded.attach_replicas(1)
        conn.execute("SELECT COUNT(*) FROM t")
        assert sharded.cluster_stats["catch_up_waits"] == 0
        assert sharded.cluster_stats["replica_reads"] == 2
        conn.read_preference = "wait"
        conn.execute("UPDATE t SET v = ? WHERE id = ?", ("b", 1))
        conn.execute("SELECT v FROM t WHERE id = 1")
        assert sharded.cluster_stats["catch_up_waits"] >= 1
        assert sharded.cluster_stats["stale_fallbacks"] == 0

    def test_sharded_replica_routing(self):
        sharded = ShardedDatabase(2, shard_keys={"t": "id"})
        conn = connect(sharded)
        conn.execute("CREATE TABLE t (id INTEGER, v TEXT)")
        for i in range(6):
            conn.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
        sharded.attach_replicas(1)
        sharded.catch_up()
        # Same connection: reads now route through the per-shard replica
        # sets, and read-your-writes still holds under lag.
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 6
        conn.execute("UPDATE t SET v = ? WHERE id = ?", ("fresh", 3))
        assert (
            conn.execute("SELECT v FROM t WHERE id = 3").scalar() == "fresh"
        )


class TestResultSetErgonomics:
    def test_one_returns_attribute_row(self):
        conn = connect(seeded_db())
        row = conn.execute("SELECT id, v FROM t WHERE id = 3").one()
        assert row.v == "v3" and row == (3, "v3")
        assert row.as_dict() == {"id": 3, "v": "v3"}

    def test_one_rejects_zero_and_many(self):
        conn = connect(seeded_db())
        with pytest.raises(ExecutionError, match="exactly one row"):
            conn.execute("SELECT * FROM t WHERE id = 99").one()
        with pytest.raises(ExecutionError, match="exactly one row"):
            conn.execute("SELECT * FROM t").one()

    def test_as_rows(self):
        conn = connect(seeded_db())
        rows = conn.execute("SELECT id, v FROM t ORDER BY id").as_rows()
        assert [r.id for r in rows] == [0, 1, 2, 3, 4]

    def test_row_unknown_column(self):
        conn = connect(seeded_db())
        row = conn.execute("SELECT id FROM t WHERE id = 1").one()
        with pytest.raises(AttributeError, match="nope"):
            row.nope
        with pytest.raises(ExecutionError, match="nope"):
            row["nope"]

    def test_duplicate_output_names_keep_first_slot(self):
        conn = connect(seeded_db())
        row = conn.execute("SELECT id, id + 10 AS id FROM t WHERE id = 2").one()
        assert row == (2, 12)
        assert row.id == 2  # first occurrence wins, positions still work
