"""Plan cache: cached plans must be invisible except for speed.

Differential tests: every query is answered by a first execution (which
plans it), by a cache hit, and by a freshly planned tree after the cache is
emptied; results must be identical, including across DDL (CREATE INDEX /
DROP INDEX / DROP TABLE), which bumps the catalog epoch and invalidates
cached plans.
"""

import pytest

from repro.db import Database
from repro.db.sql import executor
from repro.db.txn.manager import IsolationLevel
from repro.errors import SchemaError


def fresh_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE items (id INTEGER, grp TEXT, val FLOAT)")
    txn = db.begin()
    for i in range(200):
        db.execute(
            "INSERT INTO items VALUES (?, ?, ?)",
            (i, f"g{i % 10}", float(i % 7)),
            txn=txn,
        )
    txn.commit()
    return db


QUERIES = [
    ("SELECT * FROM items WHERE id = ?", (17,)),
    ("SELECT grp, COUNT(*) FROM items GROUP BY grp ORDER BY grp", ()),
    ("SELECT val FROM items WHERE id > ? AND id <= ? ORDER BY id", (20, 40)),
    ("SELECT DISTINCT grp FROM items WHERE val = ? ORDER BY grp", (3.0,)),
]


def differential(db: Database, sql: str, params=()):
    """Execute through a cached plan and a fresh one; assert identical results."""
    cached = db.execute(sql, params)
    hits = db.plan_cache_stats["hits"]
    cached_again = db.execute(sql, params)
    assert db.plan_cache_stats["hits"] == hits + 1
    executor._plan_memo.clear()
    fresh = db.execute(sql, params)
    assert db.plan_cache_stats["hits"] == hits + 1  # planned anew
    assert cached.rows == fresh.rows == cached_again.rows
    assert cached.columns == fresh.columns
    return cached.rows


class TestPlanCacheDifferential:
    def test_repeated_queries_hit_the_cache(self):
        db = fresh_db()
        for sql, params in QUERIES:
            differential(db, sql, params)
        assert db.plan_cache_stats["hits"] >= len(QUERIES)

    def test_create_index_bumps_epoch_and_replans(self):
        db = fresh_db()
        sql, params = "SELECT val FROM items WHERE id = ?", (42,)
        before = differential(db, sql, params)
        epoch = db.catalog_epoch
        db.execute("CREATE INDEX ix_id ON items (id)")
        assert db.catalog_epoch > epoch
        assert any("probe=ix_id" in line for line in db.explain(sql))
        assert differential(db, sql, params) == before

    def test_drop_index_bumps_epoch_and_replans(self):
        db = fresh_db()
        db.execute("CREATE INDEX ix_id ON items (id)")
        sql, params = "SELECT val FROM items WHERE id = ?", (42,)
        before = differential(db, sql, params)
        assert any("probe=ix_id" in line for line in db.explain(sql))
        epoch = db.catalog_epoch
        db.execute("DROP INDEX ix_id ON items")
        assert db.catalog_epoch > epoch
        assert not any("probe" in line for line in db.explain(sql))
        assert differential(db, sql, params) == before

    def test_drop_and_recreate_table_invalidates_plans(self):
        db = fresh_db()
        sql = "SELECT COUNT(*) FROM items"
        assert db.execute(sql).scalar() == 200
        db.execute("DROP TABLE items")
        db.execute("CREATE TABLE items (id INTEGER, grp TEXT, val FLOAT)")
        db.execute("INSERT INTO items VALUES (1, 'g', 0.0)")
        # A stale plan would still reference the dropped table's store.
        assert db.execute(sql).scalar() == 1

    def test_sorted_index_ddl_invalidates_range_plans(self):
        db = fresh_db()
        sql, params = "SELECT id FROM items WHERE id > ? AND id < ?", (5, 9)
        before = differential(db, sql, params)
        db.execute("CREATE SORTED INDEX sx_id ON items (id)")
        assert any("range=sx_id" in line for line in db.explain(sql))
        assert differential(db, sql, params) == before

    def test_one_plan_serves_every_isolation_level(self):
        db = fresh_db()
        db.execute("CREATE INDEX ix_id ON items (id)")
        sql, params = "SELECT val FROM items WHERE id = ?", (11,)
        serializable = db.execute(sql, params)
        assert db.plan_cache_stats["misses"] == 1
        for isolation in (IsolationLevel.SNAPSHOT, IsolationLevel.READ_COMMITTED):
            txn = db.begin(isolation=isolation)
            assert db.execute(sql, params, txn=txn).rows == serializable.rows
            txn.commit()
        assert db.plan_cache_stats["misses"] == 1
        assert db.plan_cache_stats["hits"] == 2
        (plan,) = [p for k, p in executor._plan_memo.items() if k[:2] == ("select", sql)]
        assert any("probe=ix_id" in line for line in plan[0].explain())


class TestDmlPlanCache:
    """UPDATE/DELETE statements plan once per (sql, catalog epoch)."""

    def test_repeated_update_hits_cache(self):
        db = fresh_db()
        sql = "UPDATE items SET val = val + 1 WHERE id = ?"
        for i in range(5):
            db.execute(sql, (i,))
        assert db.plan_cache_stats["dml_misses"] == 1
        assert db.plan_cache_stats["dml_hits"] == 4

    def test_repeated_delete_hits_cache(self):
        db = fresh_db()
        sql = "DELETE FROM items WHERE id = ?"
        for i in range(3):
            db.execute(sql, (i,))
        assert db.plan_cache_stats["dml_misses"] == 1
        assert db.plan_cache_stats["dml_hits"] == 2
        assert db.execute("SELECT COUNT(*) FROM items").scalar() == 197

    def test_cached_dml_matches_fresh_plan(self):
        db = fresh_db()
        sql = "UPDATE items SET val = ? WHERE grp = ?"
        assert db.execute(sql, (50.0, "g3")).rowcount == 20
        assert db.execute(sql, (50.0, "g3")).rowcount == 20  # a cache hit
        executor._plan_memo.clear()
        assert db.execute(sql, (50.0, "g3")).rowcount == 20  # planned anew
        assert db.plan_cache_stats["dml_misses"] == 2
        assert (
            db.execute("SELECT COUNT(*) FROM items WHERE val = 50.0").scalar()
            == 20
        )

    def test_ddl_invalidates_dml_plans(self):
        db = fresh_db()
        sql = "DELETE FROM items WHERE id = ?"
        db.execute(sql, (0,))
        db.execute("DROP TABLE items")
        db.execute("CREATE TABLE items (id INTEGER, extra TEXT, grp TEXT, val FLOAT)")
        db.execute("INSERT INTO items VALUES (7, 'x', 'g', 1.0)")
        # A stale plan would index the old column layout.
        assert db.execute(sql, (7,)).rowcount == 1
        assert db.plan_cache_stats["dml_misses"] == 2

    def test_delete_without_where_caches(self):
        db = fresh_db()
        sql = "DELETE FROM items"
        db.execute(sql)
        db.execute(sql)
        assert db.plan_cache_stats["dml_hits"] == 1
        assert db.execute("SELECT COUNT(*) FROM items").scalar() == 0

    def test_txn_scoped_dml_shares_cache(self):
        db = fresh_db()
        sql = "UPDATE items SET val = 0.0 WHERE id = ?"
        txn = db.begin()
        db.execute(sql, (1,), txn=txn)
        db.execute(sql, (2,), txn=txn)
        txn.commit()
        db.execute(sql, (3,))
        assert db.plan_cache_stats["dml_misses"] == 1
        assert db.plan_cache_stats["dml_hits"] == 2


    def test_one_dml_plan_serves_every_isolation_level(self):
        """Probes apply at every isolation level: one plan, then hits."""
        db = fresh_db()
        db.execute("CREATE INDEX ix_id ON items (id)")
        sql = "UPDATE items SET val = val + 1 WHERE id = ?"
        db.execute(sql, (1,))  # autocommit: SERIALIZABLE
        assert db.plan_cache_stats["dml_misses"] == 1
        for isolation in (IsolationLevel.SNAPSHOT, IsolationLevel.READ_COMMITTED):
            txn = db.begin(isolation=isolation)
            assert db.execute(sql, (2,), txn=txn).rowcount == 1
            assert db.execute(sql, (3,), txn=txn).rowcount == 1
            txn.commit()
        assert db.plan_cache_stats["dml_misses"] == 1
        assert db.plan_cache_stats["dml_hits"] == 4
        (plan,) = [p for k, p in executor._plan_memo.items() if k[0] == "dml"]
        assert plan.child.probe is not None
        assert db.execute(
            "SELECT val FROM items WHERE id IN (1, 2, 3) ORDER BY id"
        ).column("val") == [2.0, 4.0, 5.0]

    def test_dml_and_select_share_the_epoch_invalidation(self):
        db = fresh_db()
        sql = "DELETE FROM items WHERE id = ?"
        assert "probe=" not in "\n".join(db.explain(sql))
        db.execute("CREATE INDEX ix_id ON items (id)")
        # The cached scan-only plan did not survive the DDL.
        assert "probe=ix_id[id]" in db.explain(sql)[1]
        assert db.execute(sql, (5,)).rowcount == 1


class TestDropIndexDdl:
    def test_drop_missing_index_raises(self):
        db = fresh_db()
        with pytest.raises(SchemaError):
            db.execute("DROP INDEX nope ON items")

    def test_drop_index_if_exists_is_silent(self):
        db = fresh_db()
        db.execute("DROP INDEX IF EXISTS nope ON items")

    def test_dropped_unique_index_stops_enforcing(self):
        db = fresh_db()
        db.execute("CREATE UNIQUE INDEX ux ON items (id)")
        db.execute("DROP INDEX ux ON items")
        db.execute("INSERT INTO items VALUES (1, 'dup', 0.0)")
        assert (
            db.execute("SELECT COUNT(*) FROM items WHERE id = 1").scalar() == 2
        )

    def test_constraint_backing_index_cannot_be_dropped(self):
        db = Database()
        db.execute(
            "CREATE TABLE users (id INTEGER, email TEXT, UNIQUE (email))"
        )
        [uq_name] = db.index_set("users").indexes
        with pytest.raises(SchemaError, match="UNIQUE constraint"):
            db.execute(f"DROP INDEX {uq_name} ON users")
        # Enforcement survives the attempt.
        db.execute("INSERT INTO users VALUES (1, 'a@x')")
        from repro.errors import IntegrityError

        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO users VALUES (2, 'a@x')")

    def test_drop_index_if_exists_on_missing_table_is_silent(self):
        db = fresh_db()
        db.execute("CREATE INDEX ix_id ON items (id)")
        db.execute("DROP TABLE items")
        # DROP TABLE removed the index implicitly; idempotent cleanup
        # scripts must not crash.
        db.execute("DROP INDEX IF EXISTS ix_id ON items")
        with pytest.raises(SchemaError):
            db.execute("DROP INDEX ix_id ON items")


def plan_stats(*databases) -> dict[str, int]:
    """``plan_cache_stats`` hits and misses summed over ``databases``."""
    return {
        key: sum(db.plan_cache_stats[key] for db in databases)
        for key in ("hits", "misses")
    }


class TestShardedMergePlanCache:
    """Shard-side and coordinator plans: hit/miss accounting and reuse.

    Each lookup counts in the shard database whose catalog keyed it; a
    coordinator plan's counts in shard 0's.
    """

    def build(self):
        from repro.db import ShardedDatabase

        sharded = ShardedDatabase(3, shard_keys={"items": "id"})
        sharded.execute("CREATE TABLE items (id INTEGER, grp TEXT, val FLOAT)")
        gtxn = sharded.begin()
        for i in range(60):
            sharded.execute(
                "INSERT INTO items VALUES (?, ?, ?)",
                (i, f"g{i % 5}", float(i % 7)),
                txn=gtxn,
            )
        gtxn.commit()
        return sharded

    def test_scatter_plan_hits_and_misses(self):
        sharded = self.build()
        sql = "SELECT id, val FROM items WHERE val > ? ORDER BY id"
        first = sharded.execute(sql, (3.0,))
        # One FROM/WHERE node for the three same-shaped shards, one
        # coordinator plan.
        assert plan_stats(*sharded.shards) == {"hits": 2, "misses": 2}
        again = sharded.execute(sql, (3.0,))
        assert plan_stats(*sharded.shards) == {"hits": 6, "misses": 2}
        assert again.rows == first.rows

    def test_aggregate_decomposition_hits_and_misses(self):
        sharded = self.build()
        sql = "SELECT grp, COUNT(*), SUM(val) FROM items GROUP BY grp ORDER BY grp"
        first = sharded.execute(sql)
        # One partial-aggregate plan for the three shards, one combine plan.
        assert plan_stats(*sharded.shards) == {"hits": 2, "misses": 2}
        again = sharded.execute(sql)
        assert plan_stats(*sharded.shards) == {"hits": 6, "misses": 2}
        assert again.rows == first.rows

    def test_ddl_invalidates_merged_plans(self):
        sharded = self.build()
        sql = "SELECT id, val FROM items WHERE val > ? ORDER BY id"
        before = sharded.execute(sql, (3.0,)).rows
        sharded.execute("CREATE INDEX ix_val ON items (val)")
        after = sharded.execute(sql, (3.0,))
        # The catalog changed shape: fresh plans, not stale hits.
        assert plan_stats(*sharded.shards)["misses"] == 4
        assert after.rows == before

    def test_cached_plan_results_stable_across_writes(self):
        sharded = self.build()
        sql = "SELECT COUNT(*) FROM items WHERE id < ?"
        assert sharded.execute(sql, (30,)).scalar() == 30
        sharded.execute("DELETE FROM items WHERE id = 5")
        assert sharded.execute(sql, (30,)).scalar() == 29
        assert plan_stats(*sharded.shards)["hits"] >= 1

    def test_replica_served_reads_share_the_merge_plan(self):
        sharded = self.build()
        sharded.attach_replicas(1, mode="sync")
        from repro.db.connection import connect

        conn = connect(sharded)
        sql = "SELECT id, val FROM items WHERE val > ? ORDER BY id"
        replicas = [
            replica.database
            for replica_set in sharded.replica_sets.values()
            for replica in replica_set.replicas
        ]
        via_primary = sharded.execute(sql, (3.0,))
        misses = plan_stats(*sharded.shards, *replicas)["misses"]
        via_replica = conn.execute(sql, (3.0,))
        assert sharded.cluster_stats["replica_reads"] > 0
        # Replicas have their primaries' catalog: the scan nodes and the
        # coordinator plan are shared (hits, not recompiles).
        assert plan_stats(*sharded.shards, *replicas)["misses"] == misses
        assert plan_stats(*replicas)["hits"] >= 1
        assert via_replica.rows == via_primary.rows
