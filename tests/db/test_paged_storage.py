"""End-to-end tests of ``Database(storage="paged")``.

The paged tier must be contract-identical to the in-memory store: same
SQL results, same MVCC/AS-OF semantics, same stats surfaces — plus
durability (reopen from disk without full WAL replay) and a working set
that can exceed the buffer pool.
"""

import os
import random

import pytest

from repro.cluster.reshard import reshard
from repro.db import Database, ReplicaSet
from repro.db.pages import PAGE_FILE_SUFFIX, PagedTableStore
from repro.db.sharding import ShardedDatabase
from repro.errors import IntegrityError, StorageError


def make_paged(tmp_path, **kwargs):
    return Database(storage="paged", data_dir=str(tmp_path / "data"), **kwargs)


class TestBasicContract:
    def test_sql_roundtrip(self, tmp_path):
        db = make_paged(tmp_path)
        db.execute("CREATE TABLE t (k TEXT, v INTEGER)")
        db.execute("INSERT INTO t VALUES ('a', 1), ('b', 2)")
        db.execute("UPDATE t SET v = 10 WHERE k = 'a'")
        db.execute("DELETE FROM t WHERE k = 'b'")
        assert db.execute("SELECT k, v FROM t").rows == [("a", 10)]
        assert isinstance(db.store("t"), PagedTableStore)
        db.close()

    def test_as_of_reads_history_from_pages(self, tmp_path):
        db = make_paged(tmp_path)
        db.execute("CREATE TABLE t (k TEXT, v INTEGER)")
        db.execute("INSERT INTO t VALUES ('a', 1)")
        before = db.last_csn
        db.execute("UPDATE t SET v = 2 WHERE k = 'a'")
        assert db.execute(f"SELECT v FROM t AS OF {before}").scalar() == 1
        assert db.execute("SELECT v FROM t").scalar() == 2
        db.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(StorageError):
            Database(storage="flash")

    def test_ephemeral_data_dir_cleaned_on_close(self):
        db = Database(storage="paged")
        data_dir = db.data_dir
        db.execute("CREATE TABLE t (k TEXT)")
        assert os.path.isdir(data_dir)
        db.close()
        assert not os.path.exists(data_dir)

    def test_drop_table_removes_page_file(self, tmp_path):
        db = make_paged(tmp_path)
        db.execute("CREATE TABLE t (k TEXT)")
        db.execute("INSERT INTO t VALUES ('a')")
        [page_file] = [
            f for f in os.listdir(db.data_dir) if f.endswith(PAGE_FILE_SUFFIX)
        ]
        db.execute("DROP TABLE t")
        assert not os.path.exists(os.path.join(db.data_dir, page_file))
        db.execute("CREATE TABLE t (k TEXT)")  # name is reusable
        db.close()


class TestWorkingSetExceedsPool:
    def test_scans_lookups_asof_with_tiny_pool(self, tmp_path):
        """Acceptance: a table much larger than the buffer pool completes
        full scans, point lookups, and AS-OF reads, with eviction stats
        proving the working set exceeded the pool."""
        db = make_paged(tmp_path, buffer_pool_pages=4, page_size=512)
        db.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        history = {}
        for i in range(300):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}" * 8))
            history[i] = db.last_csn
        for i in range(0, 300, 3):
            db.execute("UPDATE t SET v = ? WHERE k = ?", (f"u{i}", i))

        stats = db.storage_stats
        assert stats["file_pages_allocated"] > stats["pool_capacity"]
        assert stats["pool_evictions"] > 0

        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 300
        assert db.execute("SELECT v FROM t WHERE k = 150").scalar() == "u150"
        assert db.execute("SELECT v FROM t WHERE k = 151").scalar() == "v151" * 8
        # Historical read far behind the current working set.
        csn = history[10]
        assert (
            db.execute(f"SELECT COUNT(*) FROM t AS OF {csn}").scalar() == 11
        )
        db.close()


class TestDurability:
    def test_reopen_after_close_replays_nothing(self, tmp_path):
        data_dir = str(tmp_path / "data")
        db = Database(storage="paged", data_dir=data_dir)
        db.execute("CREATE TABLE t (k TEXT, v INTEGER)")
        db.execute("INSERT INTO t VALUES ('a', 1), ('b', 2)")
        db.execute("UPDATE t SET v = 9 WHERE k = 'a'")
        # Captured before any SELECT: read-only autocommits consume CSNs
        # but are not durable (no WAL record), so recovery lands on the
        # last *written* CSN.
        last = db.last_csn
        expected = db.execute("SELECT k, v FROM t ORDER BY k").rows
        db.close()  # checkpoints: pages alone carry the state

        db2 = Database(storage="paged", data_dir=data_dir)
        assert db2.recovery_stats["mode"] == "paged"
        assert db2.recovery_stats["changes_reconciled"] == 0
        assert db2.last_csn == last
        assert db2.execute("SELECT k, v FROM t ORDER BY k").rows == expected
        # CSNs keep advancing from where they stopped.
        db2.execute("INSERT INTO t VALUES ('c', 3)")
        assert db2.last_csn > last
        db2.close()

    def test_reopen_without_checkpoint_replays_tail(self, tmp_path):
        data_dir = str(tmp_path / "data")
        db = Database(storage="paged", data_dir=data_dir)
        db.execute("CREATE TABLE t (k TEXT, v INTEGER)")
        db.execute("INSERT INTO t VALUES ('a', 1)")
        db.execute("UPDATE t SET v = 2 WHERE k = 'a'")
        expected = db.execute("SELECT k, v FROM t").rows
        # Simulate a crash: WAL rows are flushed (group_size=1 default)
        # but neither checkpoint() nor close() ran.
        db.wal._file.flush()
        db._page_manager.close_all()

        db2 = Database(storage="paged", data_dir=data_dir)
        assert db2.recovery_stats["tail_commits"] > 0
        assert db2.recovery_stats["changes_reconciled"] > 0
        assert db2.execute("SELECT k, v FROM t").rows == expected
        db2.close()

    def test_secondary_indexes_rebuilt_on_reopen(self, tmp_path):
        data_dir = str(tmp_path / "data")
        db = Database(storage="paged", data_dir=data_dir)
        db.execute("CREATE TABLE t (k TEXT, v INTEGER)")
        db.create_index("ix_t_k", "t", ["k"])
        db.execute("INSERT INTO t VALUES ('a', 1)")
        db.close()
        db2 = Database(storage="paged", data_dir=data_dir)
        assert "ix_t_k" in db2.index_set("t").indexes
        assert db2.execute("SELECT v FROM t WHERE k = 'a'").scalar() == 1
        db2.close()

    def test_aliases_and_horizon_survive_reopen(self, tmp_path):
        data_dir = str(tmp_path / "data")
        db = Database(storage="paged", data_dir=data_dir)
        db.execute("CREATE TABLE t (k TEXT)")
        db.add_table_alias("alias_t", "t")
        db.execute("INSERT INTO t VALUES ('a')")
        db.execute("UPDATE t SET k = 'b'")
        db.vacuum(db.last_csn)
        horizon = db.history_horizon
        db.close()
        db2 = Database(storage="paged", data_dir=data_dir)
        assert db2.execute("SELECT k FROM alias_t").scalar() == "b"
        assert db2.history_horizon == horizon
        db2.close()

    def test_multi_column_unique_constraint_survives_reopen(self, tmp_path):
        data_dir = str(tmp_path / "data")
        db = Database(storage="paged", data_dir=data_dir)
        db.execute(
            "CREATE TABLE t (a INTEGER, b INTEGER, v TEXT, UNIQUE (a, b))"
        )
        db.execute("INSERT INTO t VALUES (1, 1, 'x'), (1, 2, 'y')")
        db.close()
        db2 = Database(storage="paged", data_dir=data_dir)
        assert ("a", "b") in db2.catalog.get("t").unique_constraints
        with pytest.raises(IntegrityError):
            db2.execute("INSERT INTO t VALUES (1, 2, 'z')")
        db2.execute("INSERT INTO t VALUES (2, 2, 'z')")
        assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 3
        db2.close()

    def test_reinserted_row_id_keeps_its_gap_on_reopen(self, tmp_path):
        """A delete, then a re-insert under the same row id a commit
        later: the row is absent in between, before and after reopen."""
        data_dir = str(tmp_path / "data")
        db = Database(storage="paged", data_dir=data_dir)
        db.execute("CREATE TABLE t (k TEXT)")
        db.execute("INSERT INTO t VALUES ('a')")
        (row_id,) = db.store("t").live_row_ids()
        db.execute("DELETE FROM t")
        gap = db.last_csn
        txn = db.begin()
        txn.insert_with_id("t", ("b",), row_id)
        txn.commit()
        assert db.execute("SELECT k FROM t AS OF ?", (gap,)).rows == []
        db.close()
        db2 = Database(storage="paged", data_dir=data_dir)
        assert db2.execute("SELECT k FROM t AS OF ?", (gap,)).rows == []
        assert db2.execute("SELECT k FROM t").rows == [("b",)]
        db2.close()

    def test_vacuum_compacts_file_and_preserves_reads(self, tmp_path):
        db = make_paged(tmp_path, page_size=512)
        db.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        for i in range(50):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, "x" * 64))
        for _ in range(5):
            db.execute("UPDATE t SET v = 'y' WHERE k < 25")
        db.execute("DELETE FROM t WHERE k >= 45")  # whole chains go
        pages_before = db.store("t")._file.npages
        removed = db.vacuum(db.last_csn)
        assert removed > 0
        assert db.store("t")._file.npages < pages_before
        assert sorted(db.store("t")._versions) == sorted(
            db.store("t").live_row_ids()
        )
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 45
        assert (
            db.execute("SELECT COUNT(*) FROM t WHERE v = 'y'").scalar() == 25
        )
        db.close()


class TestOverflowReclamation:
    def test_crash_orphaned_chain_is_reclaimed_on_recovery(self, tmp_path):
        """A crash can strand a flushed overflow chain with no durable
        record pointing at it: the chain pages get evicted to disk while
        the data page holding the referencing record stays dirty in the
        pool. Replay then writes a *fresh* chain, and before the recovery
        sweep the old pages leaked forever."""
        data_dir = str(tmp_path / "data")
        db = Database(
            storage="paged",
            data_dir=data_dir,
            page_size=512,
            buffer_pool_pages=4,
        )
        db.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'small')")
        db.checkpoint()
        # ~25 chain pages stream through the 4-frame pool: the early
        # ones are evicted (written) long before the record lands on its
        # data page, which is still dirty when the "process" dies.
        big = "x" * 12_000
        db.execute("INSERT INTO t VALUES (?, ?)", (2, big))
        db.wal._file.flush()
        db._page_manager.close_all()
        del db

        db2 = Database(storage="paged", data_dir=data_dir)
        store = db2.store("t")
        assert store.orphan_pages_reclaimed > 0
        # Replay's fresh chain reused the reclaimed pages instead of
        # growing the file past one chain's worth.
        assert store._file.stats["freelist_reuses"] > 0
        assert db2.execute("SELECT v FROM t WHERE k = 1").scalar() == "small"
        assert db2.execute("SELECT v FROM t WHERE k = 2").scalar() == big
        assert store._file.npages <= 30  # ~1 chain + data, not 2 chains
        assert db2.storage_stats["orphan_pages_reclaimed"] > 0
        db2.close()

        # A clean close leaves nothing to reclaim.
        db3 = Database(storage="paged", data_dir=data_dir)
        assert db3.store("t").orphan_pages_reclaimed == 0
        assert db3.execute("SELECT v FROM t WHERE k = 2").scalar() == big
        db3.close()

    def test_large_record_churn_vacuums_dead_chains(self, tmp_path):
        """Repeatedly updating a large row retires one overflow chain per
        version; vacuum's compact rewrite must reclaim all of them."""
        db = make_paged(tmp_path, page_size=512)
        db.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        db.execute("INSERT INTO t VALUES (?, ?)", (1, "a" * 4_000))
        for i in range(10):
            db.execute("UPDATE t SET v = ? WHERE k = 1", (f"{i}" * 4_000,))
        churned = db.store("t")._file.npages
        db.vacuum(db.last_csn)
        compacted = db.store("t")._file.npages
        assert compacted < churned / 2  # ten dead chains gone
        assert db.execute("SELECT v FROM t").scalar() == "9" * 4_000
        db.close()


class TestDifferential:
    def test_randomized_workload_matches_memory_twin(self, tmp_path):
        """The acceptance differential: an identical randomized workload
        driven into a paged database and an in-memory twin must leave
        byte-identical state at every captured CSN."""
        rng = random.Random(20230427)
        paged = make_paged(tmp_path, buffer_pool_pages=8, page_size=512)
        twin = Database(storage="memory")
        for db in (paged, twin):
            db.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        live = []
        checkpoints = []
        for step in range(250):
            op = rng.random()
            if op < 0.5 or not live:
                key = rng.randrange(10_000)
                sql, params = "INSERT INTO t VALUES (?, ?)", (key, f"v{step}")
                live.append(key)
            elif op < 0.8:
                key = rng.choice(live)
                sql, params = (
                    "UPDATE t SET v = ? WHERE k = ?",
                    (f"u{step}", key),
                )
            else:
                key = live.pop(rng.randrange(len(live)))
                sql, params = "DELETE FROM t WHERE k = ?", (key,)
            paged.execute(sql, params)
            twin.execute(sql, params)
            if step % 50 == 0:
                checkpoints.append(paged.last_csn)
        assert paged.last_csn == twin.last_csn
        latest = "SELECT k, v FROM t ORDER BY k, v"
        assert paged.execute(latest).rows == twin.execute(latest).rows
        for csn in checkpoints:
            historical = f"SELECT k, v FROM t AS OF {csn} ORDER BY k, v"
            assert paged.execute(historical).rows == twin.execute(historical).rows
        paged.close()


class TestStorageStats:
    def test_single_node_shape(self, tmp_path):
        db = make_paged(tmp_path)
        db.execute("CREATE TABLE t (k TEXT)")
        db.execute("INSERT INTO t VALUES ('a')")
        stats = db.storage_stats
        assert stats["storage"] == "paged"
        assert stats["tables"] == 1
        assert stats["live_rows"] == 1
        assert stats["pool_capacity"] > 0
        assert stats["file_files"] == 1
        db.close()

    def test_table_store_reports_its_page_file(self, tmp_path):
        db = make_paged(tmp_path)
        db.execute("CREATE TABLE t (k TEXT)")
        db.execute("INSERT INTO t VALUES ('a')")
        csn = db.checkpoint()
        stats = db.store("t").stats()
        assert stats["file_pages"] >= 1
        assert stats["flushed_csn"] == csn
        assert stats["orphan_pages_reclaimed"] == 0
        db.close()

    def test_memory_backend_has_no_pool_counters(self):
        stats = Database().storage_stats
        assert stats["storage"] == "memory"
        assert not any(k.startswith("pool_") for k in stats)

    def test_sharded_sums_numeric_counters(self, tmp_path):
        shards = [
            Database(
                name=f"s{i}",
                storage="paged",
                data_dir=str(tmp_path / f"shard{i}"),
            )
            for i in range(2)
        ]
        db = ShardedDatabase(databases=shards, shard_keys={"t": "k"})
        db.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        for i in range(20):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, "x"))
        stats = db.storage_stats
        assert stats["storage"] == "paged"
        assert stats["tables"] == 2  # one per shard
        assert stats["live_rows"] == 20
        assert stats["file_files"] == 2
        assert stats["live_rows"] == sum(
            s.storage_stats["live_rows"] for s in shards
        )
        for shard in shards:
            shard.close()


class TestProvisionedNodesInheritStorage:
    """A node a cluster provisions from a paged database (a replica, a
    reshard target) is paged, with its source's page geometry, in a data
    directory of its own."""

    GEOMETRY = {"page_size": 1024, "buffer_pool_pages": 8}

    @staticmethod
    def assert_paged_like(node, source):
        assert node.storage == "paged"
        assert node.data_dir not in (None, source.data_dir)
        assert node.storage_stats["pool_capacity"] == 8
        assert node._page_manager.page_size == 1024

    def test_replicas_of_a_paged_primary_are_paged(self, tmp_path):
        primary = make_paged(tmp_path, **self.GEOMETRY)
        primary.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        primary.create_index("ix_t_v", "t", ["v"])
        primary.execute("INSERT INTO t VALUES (1, 'a')")
        replica = ReplicaSet(primary, n_replicas=1).replicas[0].database
        self.assert_paged_like(replica, primary)
        assert isinstance(replica.store("t"), PagedTableStore)
        assert "ix_t_v" in replica.index_set("t").indexes
        assert replica.execute("SELECT v FROM t WHERE k = 1").scalar() == "a"
        replica.close()
        primary.close()

    def test_reshard_targets_of_paged_shards_are_paged(self, tmp_path):
        shards = [
            Database(
                name=f"s{i}",
                storage="paged",
                data_dir=str(tmp_path / f"shard{i}"),
                **self.GEOMETRY,
            )
            for i in range(2)
        ]
        sharded = ShardedDatabase(databases=shards, shard_keys={"t": "k"})
        sharded.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        for i in range(20):
            sharded.execute("INSERT INTO t VALUES (?, ?)", (i, "x"))
        reshard(sharded, 3)
        for node in sharded.shards:
            self.assert_paged_like(node, shards[0])
        assert sharded.execute("SELECT COUNT(*) FROM t").scalar() == 20
        for node in (*shards, *sharded.shards):
            node.close()
