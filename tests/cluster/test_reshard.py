"""Online resharding unit tests: data movement, gating, and guards."""

import pytest

from repro.cluster import reshard
from repro.cluster.reshard import _Migration
from repro.db.connection import connect
from repro.db.sharding import ShardedDatabase
from repro.errors import (
    ReplicationError,
    SchemaError,
    TimeTravelError,
    TransactionError,
)


def build(n_rows: int = 40) -> ShardedDatabase:
    sharded = ShardedDatabase(2, name="rs", shard_keys={"kv": "k"})
    sharded.execute("CREATE TABLE kv (k INTEGER, v TEXT)")
    for i in range(n_rows):
        sharded.execute("INSERT INTO kv VALUES (?, ?)", (i, f"v{i}"))
    return sharded


class TestReshard:
    def test_2_to_4_preserves_every_row(self):
        sharded = build(40)
        before = sorted(sharded.execute("SELECT k, v FROM kv").rows)
        stats = reshard(sharded, 4, chunk_size=8)
        assert sharded.n_shards == 4
        assert sharded.store_names == ["shard0", "shard1", "shard2", "shard3"]
        assert stats["rows_copied"] == 40
        assert stats["old_shards"] == 2 and stats["new_shards"] == 4
        assert stats["horizon"] == sharded.reshard_horizon > 0
        assert sorted(sharded.execute("SELECT k, v FROM kv").rows) == before

    def test_rows_land_on_their_hash_owner(self):
        """Every row sits where the new router would route it — the
        adoption invariant ``ShardedDatabase(databases=...)`` checks."""
        sharded = build(40)
        reshard(sharded, 4, chunk_size=8)
        schema = sharded.catalog.get("kv")
        for store, shard in sharded.named_shards():
            for _row_id, values in shard.store("kv").scan(None):
                assert sharded.router.shard_for_row("kv", schema, values) == store

    def test_shrink_4_to_2(self):
        sharded = build(30)
        reshard(sharded, 4, chunk_size=8)
        before = sorted(sharded.execute("SELECT k, v FROM kv").rows)
        stats = reshard(sharded, 2, chunk_size=8)
        assert sharded.n_shards == 2
        assert stats["rows_copied"] == 30
        assert sorted(sharded.execute("SELECT k, v FROM kv").rows) == before

    def test_writes_after_reshard_route_through_new_ring(self):
        sharded = build(20)
        reshard(sharded, 4, chunk_size=8)
        # The shard-key registry survived the router swap.
        assert sharded.router.key_column("kv") == "k"
        sharded.execute("INSERT INTO kv VALUES (?, ?)", (100, "post"))
        sharded.execute("UPDATE kv SET v = ? WHERE k = ?", ("updated", 3))
        assert (
            sharded.execute("SELECT v FROM kv WHERE k = ?", (100,)).scalar()
            == "post"
        )
        assert (
            sharded.execute("SELECT v FROM kv WHERE k = ?", (3,)).scalar()
            == "updated"
        )

    def test_as_of_gated_at_the_horizon(self):
        sharded = build(10)
        conn = connect(sharded, read_preference="primary")
        pre_csn = sharded.last_commit_csn
        reshard(sharded, 4, chunk_size=4)
        sharded.execute("INSERT INTO kv VALUES (?, ?)", (50, "after"))
        post_csn = sharded.last_commit_csn
        # History below the horizon lives only on the retired stores.
        with pytest.raises(TimeTravelError, match="reshard horizon"):
            conn.execute(
                "SELECT k FROM kv WHERE k >= 0 AS OF ?", (pre_csn,)
            )
        # The horizon itself (the synthetic aligned commit) and anything
        # after it resolve onto the new stores.
        at_horizon = conn.execute(
            "SELECT k FROM kv WHERE k >= 0 AS OF ?",
            (sharded.reshard_horizon,),
        ).rows
        assert len(at_horizon) == 10
        at_post = conn.execute(
            "SELECT k FROM kv WHERE k >= 0 AS OF ?", (post_csn,)
        ).rows
        assert len(at_post) == 11

    def test_old_primaries_are_fenced(self):
        sharded = build(10)
        old = list(sharded.shards)
        reshard(sharded, 3, chunk_size=4)
        assert all(db.fenced for db in old)

    def test_replica_sets_dropped_and_reattachable(self):
        sharded = build(10)
        sharded.attach_replicas(1)
        reshard(sharded, 4, chunk_size=4)
        assert sharded.replica_sets == {}
        sharded.attach_replicas(1)
        sharded.execute("INSERT INTO kv VALUES (?, ?)", (60, "shipped"))
        sharded.catch_up()
        for replica_set in sharded.replica_sets.values():
            for replica in replica_set.replicas:
                assert replica.csn == replica_set.primary.last_csn

    def test_validates_arguments(self):
        sharded = build(5)
        with pytest.raises(SchemaError):
            reshard(sharded, 0)
        with pytest.raises(SchemaError):
            reshard(sharded, 4, chunk_size=0)

    def test_reentrant_reshard_rejected_then_allowed(self):
        sharded = build(5)
        sharded._resharding = True
        with pytest.raises(TransactionError, match="already in progress"):
            reshard(sharded, 4)
        sharded._resharding = False
        reshard(sharded, 4, chunk_size=4)  # guard released: runs fine
        reshard(sharded, 2, chunk_size=4)  # and clears itself after


class TestReshardGuards:
    def test_apply_reshard_requires_the_fence(self):
        sharded = build(5)
        with pytest.raises(TransactionError, match="fence"):
            sharded.apply_reshard({"shard0": sharded.shards[0]})

    def test_apply_reshard_requires_drained_writers(self):
        sharded = build(5)
        sharded.fence_writes()
        try:
            sharded._active_gtxns = 1
            with pytest.raises(TransactionError, match="in flight"):
                sharded.apply_reshard({"shard0": sharded.shards[0]})
        finally:
            sharded._active_gtxns = 0
            sharded.unfence_writes()

    def test_ddl_during_migration_aborts_it(self):
        """A schema change the taps see before the fence kills the
        migration — it cannot be carried across the copy."""
        sharded = build(12)
        migration = _Migration(sharded, 4)
        try:
            migration.copy_snapshot(chunk_size=4)
            sharded.execute("CREATE INDEX ix_kv_v ON kv (v)")
            with pytest.raises(ReplicationError, match="DDL landed"):
                migration.drain_all()
        finally:
            migration.detach()

    def test_deltas_after_snapshot_are_replayed(self):
        sharded = build(12)
        migration = _Migration(sharded, 4)
        try:
            migration.copy_snapshot(chunk_size=4)
            sharded.execute("INSERT INTO kv VALUES (?, ?)", (90, "late"))
            sharded.execute("UPDATE kv SET v = ? WHERE k = ?", ("redone", 1))
            sharded.execute("DELETE FROM kv WHERE k = ?", (2,))
            assert migration.drain_all() > 0
            rows = {
                values[0]: values[1]
                for db in migration.new_stores.values()
                for _rid, values in db.store("kv").scan(None)
            }
            assert rows[90] == "late"
            assert rows[1] == "redone"
            assert 2 not in rows
        finally:
            migration.detach()

    def test_failed_migration_leaves_topology_untouched(self):
        sharded = build(12)
        old_names = list(sharded.store_names)
        migration = _Migration(sharded, 4)
        try:
            migration.copy_snapshot(chunk_size=4)
            sharded.execute("CREATE INDEX ix_boom ON kv (v)")
            with pytest.raises(ReplicationError):
                migration.drain_all()
        finally:
            migration.detach()
        assert sharded.store_names == old_names
        assert not sharded._write_fence
        assert sharded.execute("SELECT COUNT(*) FROM kv").scalar() == 12
