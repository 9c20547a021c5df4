"""Sharded execution correctness: a 4-shard cluster must be
indistinguishable from a single database (except for speed and scale).

The differential harness runs every query against a ``ShardedDatabase``
and an identically loaded single ``Database`` and asserts identical
results (as multisets, or exactly when ORDER BY fixes the order). On top
of that: routing/pruning behavior, partial-aggregate pushdown, broadcast
joins, multi-shard 2PC atomicity (including aborted prepares leaving no
partial state), and AS OF reads mapped through the aligned commit log.
"""

import pytest

from repro.db import Database, IsolationLevel, ShardedDatabase
from repro.db.sharding import ShardRouter, decompose_aggregate_stmt, stable_hash
from repro.db.sql.parser import parse_sql
from repro.errors import (
    ExecutionError,
    IntegrityError,
    SchemaError,
    TimeTravelError,
    TransactionError,
)

from eager_reads import ReadLog

N_ROWS = 120


def build_pair() -> tuple[ShardedDatabase, Database]:
    """A 4-shard cluster and a single database with identical contents."""
    sharded = ShardedDatabase(
        4, shard_keys={"items": "id", "grps": "grp"}
    )
    single = Database()
    for db in (sharded, single):
        db.execute("CREATE TABLE items (id INTEGER, grp TEXT, val FLOAT)")
        db.execute("CREATE TABLE grps (grp TEXT, label TEXT)")
        db.execute("CREATE INDEX ix_items_id ON items (id)")
        txn = db.begin()
        for i in range(N_ROWS):
            db.execute(
                "INSERT INTO items VALUES (?, ?, ?)",
                (i, f"g{i % 6}", float(i % 11)),
                txn=txn,
            )
        for g in range(6):
            db.execute(
                "INSERT INTO grps VALUES (?, ?)", (f"g{g}", f"label-{g}"), txn=txn
            )
        txn.commit()
        # Version churn so as-of scans and chain walks do real work.
        db.execute("UPDATE items SET val = val + 0.5 WHERE id < 30")
    return sharded, single


@pytest.fixture(scope="module")
def pair():
    return build_pair()


def differential(pair, sql, params=(), ordered=False):
    sharded, single = pair
    got = sharded.execute(sql, params)
    want = single.execute(sql, params)
    assert got.columns == want.columns
    if ordered:
        assert got.rows == want.rows
    else:
        assert sorted(map(repr, got.rows)) == sorted(map(repr, want.rows))
    return got


class TestDifferentialSelects:
    def test_point_lookup(self, pair):
        differential(pair, "SELECT * FROM items WHERE id = ?", (42,))

    def test_point_lookup_miss(self, pair):
        result = differential(pair, "SELECT * FROM items WHERE id = ?", (10_000,))
        assert result.rows == []

    def test_in_list_lookup(self, pair):
        differential(
            pair, "SELECT * FROM items WHERE id IN (3, 57, 111) ORDER BY id",
            ordered=True,
        )

    def test_in_list_with_null_still_visits_owners(self, pair):
        """NULL pins contribute no owners but must not mask real ones."""
        result = differential(
            pair,
            "SELECT id FROM items WHERE id IN (3, NULL, 57) ORDER BY id",
            ordered=True,
        )
        assert [row[0] for row in result.rows] == [3, 57]
        differential(pair, "SELECT id FROM items WHERE id IN (?, ?)", (5, None))

    def test_range_scan(self, pair):
        differential(
            pair,
            "SELECT id, val FROM items WHERE id >= ? AND id < ? ORDER BY id",
            (25, 75),
            ordered=True,
        )

    def test_full_scan_with_predicate(self, pair):
        differential(pair, "SELECT id FROM items WHERE val > 5.0")

    def test_projection_expressions(self, pair):
        differential(
            pair,
            "SELECT id * 2 AS dbl, UPPER(grp) FROM items WHERE id < 10 "
            "ORDER BY id",
            ordered=True,
        )

    def test_distinct(self, pair):
        differential(pair, "SELECT DISTINCT grp FROM items ORDER BY grp", ordered=True)

    def test_limit_offset(self, pair):
        differential(
            pair,
            "SELECT id FROM items ORDER BY id LIMIT 7 OFFSET 3",
            ordered=True,
        )

    def test_fromless_select(self, pair):
        differential(pair, "SELECT 1 + 2", ordered=True)


class TestDifferentialAggregates:
    def test_global_count(self, pair):
        differential(pair, "SELECT COUNT(*) FROM items")

    def test_global_aggregates(self, pair):
        differential(
            pair,
            "SELECT COUNT(*), SUM(val), MIN(val), MAX(val), AVG(val) FROM items",
        )

    def test_group_by(self, pair):
        differential(
            pair,
            "SELECT grp, COUNT(*), AVG(val) FROM items GROUP BY grp ORDER BY grp",
            ordered=True,
        )

    def test_group_by_having(self, pair):
        differential(
            pair,
            "SELECT grp, COUNT(*) AS n FROM items WHERE val > 2 GROUP BY grp "
            "HAVING COUNT(*) > 10 ORDER BY n DESC, grp",
            ordered=True,
        )

    def test_aggregate_expression(self, pair):
        differential(
            pair,
            "SELECT grp, SUM(val) / COUNT(*) FROM items GROUP BY grp ORDER BY grp",
            ordered=True,
        )

    def test_avg_of_integers_stays_float(self, pair):
        """Native AVG always divides to float, even when the partial sums
        divide evenly — the pushed-down combine must match."""
        sharded, single = pair
        sql = "SELECT AVG(id) FROM items WHERE id < 8"
        got, want = sharded.execute(sql).scalar(), single.execute(sql).scalar()
        assert got == want
        assert type(got) is type(want) is float

    def test_avg_of_empty_group_is_null(self, pair):
        result = differential(
            pair, "SELECT AVG(val), SUM(val), COUNT(*) FROM items WHERE id < 0"
        )
        assert result.rows == [(None, None, 0)]

    def test_distinct_aggregate_falls_back_centrally(self, pair):
        sharded, _single = pair
        before = sharded.stats["partial_agg_queries"]
        differential(pair, "SELECT COUNT(DISTINCT grp) FROM items")
        assert sharded.stats["partial_agg_queries"] == before

    def test_decomposition_rejects_distinct(self):
        stmt = parse_sql("SELECT COUNT(DISTINCT grp) FROM items")
        assert decompose_aggregate_stmt(stmt) is None

    def test_aggregate_with_limit(self, pair):
        differential(
            pair,
            "SELECT grp, MAX(val) FROM items GROUP BY grp ORDER BY grp LIMIT 3",
            ordered=True,
        )


class TestDifferentialJoins:
    def test_two_table_join(self, pair):
        differential(
            pair,
            "SELECT i.id, g.label FROM items i JOIN grps g ON i.grp = g.grp "
            "WHERE i.id < 40 ORDER BY i.id",
            ordered=True,
        )

    def test_join_aggregate(self, pair):
        differential(
            pair,
            "SELECT g.label, COUNT(*) FROM items i JOIN grps g "
            "ON i.grp = g.grp GROUP BY g.label ORDER BY g.label",
            ordered=True,
        )

    def test_left_join_null_extension(self, pair):
        sharded, single = pair
        for db in pair:
            db.execute("INSERT INTO items VALUES (9000, 'ghost', 1.0)")
        try:
            differential(
                pair,
                "SELECT i.id, g.label FROM items i LEFT JOIN grps g "
                "ON i.grp = g.grp WHERE i.id >= 8999 ORDER BY i.id",
                ordered=True,
            )
        finally:
            for db in pair:
                db.execute("DELETE FROM items WHERE id = 9000")

    def test_key_pinned_join_prunes_partitioned_scans(self, pair):
        """A WHERE pin on the partitioned table's shard key routes the
        join's partitioned side to one shard (broadcast sides still
        gather from everywhere)."""
        sharded, _ = pair
        before = sharded.stats["routed_statements"]
        differential(
            pair,
            "SELECT i.id, g.label FROM items i JOIN grps g ON i.grp = g.grp "
            "WHERE i.id = ?",
            (42,),
        )
        assert sharded.stats["routed_statements"] == before + 1
        # An ambiguous unqualified pin (column exists on both tables)
        # must NOT prune; here 'grp' is items' key in no schema, but
        # guard the qualifier logic with a same-named column scenario.
        differential(
            pair,
            "SELECT i.id FROM items i JOIN grps g ON i.grp = g.grp "
            "WHERE id = ? ORDER BY i.id",
            (7,),
            ordered=True,
        )

    def test_join_with_filter_on_broadcast_side(self, pair):
        differential(
            pair,
            "SELECT i.id FROM items i JOIN grps g ON i.grp = g.grp "
            "WHERE g.label = 'label-2' ORDER BY i.id",
            ordered=True,
        )


def exchange_line(sharded, sql, params=()):
    """The EXPLAIN line of a SELECT's (first) exchange."""
    return next(line for line in sharded.explain(sql, params) if "Exchange(" in line)


class TestRouting:
    def test_point_query_prunes_to_one_shard(self, pair):
        sharded, _ = pair
        line = exchange_line(sharded, "SELECT * FROM items WHERE id = 42")
        assert "Exchange(targets=[" in line
        assert line.count("shard") == 1

    def test_explain_routes_with_bound_params(self, pair):
        sharded, _ = pair
        sql = "SELECT * FROM items WHERE id = ?"
        with_params = exchange_line(sharded, sql, (42,))
        assert with_params.count("shard") == 1
        # Without the binding the pin cannot be evaluated: full fan-out.
        without = exchange_line(sharded, sql)
        assert without.count("shard") == sharded.n_shards

    def test_range_query_fans_out(self, pair):
        sharded, _ = pair
        line = exchange_line(sharded, "SELECT * FROM items WHERE id > 42")
        assert line.count("shard") == sharded.n_shards

    def test_rows_land_on_hashed_shard(self, pair):
        sharded, _ = pair
        for key in (0, 17, 63, 111):
            owner = sharded.router.shard_for_value(key)
            shard = sharded.shard_named(owner)
            assert (
                shard.execute(
                    "SELECT COUNT(*) FROM items WHERE id = ?", (key,)
                ).scalar()
                == 1
            )
            for store, other in sharded.named_shards():
                if store != owner:
                    assert (
                        other.execute(
                            "SELECT COUNT(*) FROM items WHERE id = ?", (key,)
                        ).scalar()
                        == 0
                    )

    def test_stable_hash_is_type_tolerant(self):
        assert stable_hash(5) == stable_hash(5.0)
        assert stable_hash("5") != stable_hash(5)

    def test_router_key_null_matches_nothing(self, pair):
        sharded, _ = pair
        assert sharded.execute("SELECT * FROM items WHERE id = NULL").rows == []

    def test_router_defaults_to_primary_key(self):
        sdb = ShardedDatabase(2)
        sdb.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        assert sdb.router.key_column("t") == "k"

    def test_router_defaults_to_first_column(self):
        sdb = ShardedDatabase(2)
        sdb.execute("CREATE TABLE t (a TEXT, b TEXT)")
        assert sdb.router.key_column("t") == "a"

    def test_bad_shard_key_hint_rejected(self):
        sdb = ShardedDatabase(2, shard_keys={"t": "nope"})
        with pytest.raises(SchemaError, match="shard key"):
            sdb.execute("CREATE TABLE t (a TEXT)")

    def test_router_needs_shards(self):
        with pytest.raises(SchemaError):
            ShardRouter([])


class TestShardedWrites:
    def fresh(self) -> ShardedDatabase:
        # The unique constraint includes the shard key, so per-shard
        # indexes enforce it globally (the only shape the facade allows).
        sdb = ShardedDatabase(4, shard_keys={"kv": "k"})
        sdb.execute("CREATE TABLE kv (k INTEGER UNIQUE, v TEXT)")
        return sdb

    def test_unique_on_non_shard_key_rejected(self):
        """Cross-shard duplicates would be invisible to per-shard unique
        indexes; such schemas are rejected rather than silently broken."""
        sdb = ShardedDatabase(4, shard_keys={"kv": "k"})
        with pytest.raises(SchemaError, match="shard key"):
            sdb.execute("CREATE TABLE kv (k INTEGER, v TEXT UNIQUE)")
        # The rejection left no shard with the table.
        for _store, shard in sdb.named_shards():
            assert not shard.catalog.has_table("kv")
        assert sdb.router.key_column("kv") is None

    def test_unique_including_shard_key_enforced_globally(self):
        sdb = self.fresh()
        sdb.execute("INSERT INTO kv VALUES (1, 'a')")
        with pytest.raises(IntegrityError):
            sdb.execute("INSERT INTO kv VALUES (1, 'b')")
        assert sdb.execute("SELECT COUNT(*) FROM kv").scalar() == 1

    def test_unique_index_on_non_shard_key_rejected(self):
        sdb = self.fresh()
        with pytest.raises(SchemaError, match="shard key"):
            sdb.execute("CREATE UNIQUE INDEX ux_v ON kv (v)")
        for _store, shard in sdb.named_shards():
            assert "ux_v" not in shard.index_set("kv").indexes
        # A unique index that includes the key (and plain indexes on any
        # column) remain legal.
        sdb.execute("CREATE UNIQUE INDEX ux_k ON kv (k)")
        sdb.execute("CREATE INDEX ix_v ON kv (v)")

    def test_failed_if_not_exists_create_unwinds_created_shards(self):
        """IF NOT EXISTS compensation drops only what this statement
        created, leaving genuinely pre-existing tables alone."""
        sdb = ShardedDatabase(2)
        with pytest.raises(SchemaError, match="shard key"):
            sdb.execute(
                "CREATE TABLE IF NOT EXISTS bad (a INTEGER, b TEXT UNIQUE)"
            )
        for _store, shard in sdb.named_shards():
            assert not shard.catalog.has_table("bad")

    def test_multi_shard_transactional_write(self):
        sdb = self.fresh()
        gtxn = sdb.begin()
        for k in range(8):
            sdb.execute("INSERT INTO kv VALUES (?, ?)", (k, f"v{k}"), txn=gtxn)
        global_csn = gtxn.commit()
        assert global_csn == 1
        commit = sdb.coordinator.aligned_log[0]
        assert len(commit.local_csns) > 1  # genuinely spanned shards
        assert sdb.execute("SELECT COUNT(*) FROM kv").scalar() == 8

    def test_multi_row_autocommit_insert_is_atomic(self):
        sdb = self.fresh()
        sdb.execute(
            "INSERT INTO kv VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd')"
        )
        assert len(sdb.coordinator.aligned_log) == 1
        assert sdb.execute("SELECT COUNT(*) FROM kv").scalar() == 4

    def test_aborted_2pc_leaves_no_partial_state(self):
        sdb = self.fresh()
        gtxn = sdb.begin(IsolationLevel.SNAPSHOT)
        # Spread writes across every shard, then create a unique conflict
        # that only prepare-time validation can see: a concurrent writer
        # commits the same key value after the branch's snapshot.
        for k in range(2, 10):
            sdb.execute("INSERT INTO kv VALUES (?, ?)", (k, f"v{k}"), txn=gtxn)
        sdb.execute("INSERT INTO kv VALUES (99, 'mine')", txn=gtxn)
        owner = sdb.shard_named(sdb.router.shard_for_value(99))
        other = owner.begin(IsolationLevel.SNAPSHOT)
        owner.execute("INSERT INTO kv VALUES (99, 'winner')", txn=other)
        other.commit()
        with pytest.raises(IntegrityError):
            gtxn.commit()
        # Prepare failed on one branch; every other prepared branch was
        # rolled back — only the concurrent writer's row survives.
        assert sdb.execute("SELECT COUNT(*) FROM kv").scalar() == 1
        for _store, shard in sdb.named_shards():
            assert not shard.txn_manager.active
        assert sdb.coordinator.aligned_log == []

    def test_explicit_abort_discards_all_branches(self):
        sdb = self.fresh()
        gtxn = sdb.begin()
        for k in range(6):
            sdb.execute("INSERT INTO kv VALUES (?, ?)", (k, f"v{k}"), txn=gtxn)
        gtxn.abort()
        assert sdb.execute("SELECT COUNT(*) FROM kv").scalar() == 0

    def test_snapshot_gtxn_never_sees_torn_2pc_state(self):
        """All SNAPSHOT branches snapshot at one point in the global
        commit order, so an atomic cross-shard transfer committed
        mid-transaction is either fully visible or fully invisible."""
        sdb = ShardedDatabase(4, shard_keys={"accounts": "acct"})
        sdb.execute("CREATE TABLE accounts (acct INTEGER, bal FLOAT)")
        src = 0
        dst = next(
            k
            for k in range(1, 50)
            if sdb.router.shard_for_value(k) != sdb.router.shard_for_value(src)
        )
        for key in (src, dst):
            sdb.execute("INSERT INTO accounts VALUES (?, 100.0)", (key,))
        reader = sdb.begin(IsolationLevel.SNAPSHOT)
        # Touch only the source shard first; the destination branch must
        # NOT snapshot later than this.
        assert (
            sdb.execute(
                "SELECT bal FROM accounts WHERE acct = ?", (src,), txn=reader
            ).scalar()
            == 100.0
        )
        transfer = sdb.begin()
        sdb.execute(
            "UPDATE accounts SET bal = bal - 50 WHERE acct = ?", (src,), txn=transfer
        )
        sdb.execute(
            "UPDATE accounts SET bal = bal + 50 WHERE acct = ?", (dst,), txn=transfer
        )
        transfer.commit()
        total = sdb.execute(
            "SELECT SUM(bal) FROM accounts", txn=reader
        ).scalar()
        reader.abort()
        assert total == 200.0  # never 250 (half-applied transfer)

    def test_read_your_own_writes_in_global_txn(self):
        sdb = self.fresh()
        # SNAPSHOT writers take no table locks, so the outside read below
        # does not block on 2PL (matching single-database behavior).
        gtxn = sdb.begin(IsolationLevel.SNAPSHOT)
        for k in range(6):
            sdb.execute("INSERT INTO kv VALUES (?, ?)", (k, f"v{k}"), txn=gtxn)
        assert (
            sdb.execute("SELECT COUNT(*) FROM kv", txn=gtxn).scalar() == 6
        )
        # Not visible outside the transaction yet.
        assert sdb.execute("SELECT COUNT(*) FROM kv").scalar() == 0
        gtxn.commit()

    def test_update_cannot_move_shard_key(self):
        sdb = self.fresh()
        sdb.execute("INSERT INTO kv VALUES (1, 'a')")
        with pytest.raises(ExecutionError, match="shard key"):
            sdb.execute("UPDATE kv SET k = 2 WHERE k = 1")

    def test_routed_update_and_delete(self):
        sdb = self.fresh()
        for k in range(10):
            sdb.execute("INSERT INTO kv VALUES (?, ?)", (k, f"v{k}"))
        assert sdb.execute("UPDATE kv SET v = 'x' WHERE k = 3").rowcount == 1
        assert sdb.execute("SELECT v FROM kv WHERE k = 3").scalar() == "x"
        assert sdb.execute("DELETE FROM kv WHERE k IN (3, 4)").rowcount == 2
        assert sdb.execute("SELECT COUNT(*) FROM kv").scalar() == 8

    def test_delete_with_null_param_in_pin_list(self):
        """A NULL among the pinned keys must not strand the real key's
        delete on the wrong shard."""
        sdb = self.fresh()
        for k in range(6):
            sdb.execute("INSERT INTO kv VALUES (?, ?)", (k, f"v{k}"))
        assert (
            sdb.execute("DELETE FROM kv WHERE k IN (?, ?)", (2, None)).rowcount
            == 1
        )
        assert sdb.execute("SELECT COUNT(*) FROM kv WHERE k = 2").scalar() == 0

    def test_read_committed_write_sees_refreshed_view(self):
        """Per-statement view refresh applies to writes, matching the
        single-database begin_statement behavior."""
        sdb = self.fresh()
        gtxn = sdb.begin(IsolationLevel.READ_COMMITTED)
        # Materialize branches on every shard before the outside commit.
        sdb.execute("SELECT COUNT(*) FROM kv", txn=gtxn)
        sdb.execute("INSERT INTO kv VALUES (1, 'a')")  # concurrent commit
        assert (
            sdb.execute("UPDATE kv SET v = 'patched' WHERE k = 1", txn=gtxn)
            .rowcount
            == 1
        )
        gtxn.commit()
        assert sdb.execute("SELECT v FROM kv WHERE k = 1").scalar() == "patched"

    def test_insert_select_routes_rows(self):
        sdb = ShardedDatabase(4, shard_keys={"kv": "k", "copy": "k"})
        sdb.execute("CREATE TABLE kv (k INTEGER, v TEXT)")
        sdb.execute("CREATE TABLE copy (k INTEGER, v TEXT)")
        for k in range(12):
            sdb.execute("INSERT INTO kv VALUES (?, ?)", (k, f"v{k}"))
        sdb.execute("INSERT INTO copy SELECT k, v FROM kv WHERE k < 8")
        assert sdb.execute("SELECT COUNT(*) FROM copy").scalar() == 8
        # Copied rows landed on their hash-owning shards.
        for k in range(8):
            owner = sdb.router.shard_for_value(k)
            assert (
                sdb.shard_named(owner)
                .execute("SELECT COUNT(*) FROM copy WHERE k = ?", (k,))
                .scalar()
                == 1
            )


class TestShardedAsOf:
    def build(self):
        sdb = ShardedDatabase(3, shard_keys={"kv": "k"})
        sdb.execute("CREATE TABLE kv (k INTEGER, v TEXT)")
        checkpoints = []
        for step in range(4):
            gtxn = sdb.begin()
            for k in range(step * 4, step * 4 + 4):
                sdb.execute(
                    "INSERT INTO kv VALUES (?, ?)", (k, f"s{step}"), txn=gtxn
                )
            checkpoints.append(gtxn.commit())
        return sdb, checkpoints

    def test_as_of_query_through_aligned_log(self):
        sdb, checkpoints = self.build()
        for step, csn in enumerate(checkpoints):
            assert (
                sdb.execute("SELECT COUNT(*) FROM kv AS OF ?", (csn,)).scalar()
                == (step + 1) * 4
            )
        assert sdb.execute("SELECT COUNT(*) FROM kv AS OF ?", (0,)).scalar() == 0

    def test_as_of_matches_single_db_history(self):
        # The sharded AS OF state equals replaying the same commits on a
        # single database and reading its corresponding local CSN.
        sdb, checkpoints = self.build()
        single = Database()
        single.execute("CREATE TABLE kv (k INTEGER, v TEXT)")
        local_csns = []
        for step in range(4):
            txn = single.begin()
            for k in range(step * 4, step * 4 + 4):
                single.execute(
                    "INSERT INTO kv VALUES (?, ?)", (k, f"s{step}"), txn=txn
                )
            local_csns.append(txn.commit())
        sql = "SELECT k, v FROM kv ORDER BY k AS OF ?"
        for global_csn, local_csn in zip(checkpoints, local_csns):
            got = sdb.execute(sql, (global_csn,)).rows
            assert got == single.execute(sql, (local_csn,)).rows

    def test_whole_table_as_of(self):
        sdb, checkpoints = self.build()
        rows = sdb.execute("SELECT * FROM kv AS OF ?", (checkpoints[1],)).rows
        assert len(rows) == 8
        keys = sdb.execute("SELECT k FROM kv ORDER BY k AS OF ?", (checkpoints[0],))
        assert [k for (k,) in keys.rows] == [0, 1, 2, 3]

    def test_local_csn_translation(self):
        sdb, checkpoints = self.build()
        local = sdb.coordinator.local_csns_at(checkpoints[-1])
        assert set(local) == set(sdb.store_names)
        for store, shard in sdb.named_shards():
            assert local[store] == shard.last_csn

    def test_future_global_csn_rejected(self):
        sdb, _checkpoints = self.build()
        with pytest.raises(TimeTravelError):
            sdb.execute("SELECT * FROM kv AS OF 99")
        with pytest.raises(TransactionError):
            sdb.coordinator.local_csns_at(-1)

    def test_as_of_below_vacuum_horizon_rejected(self):
        sdb, checkpoints = self.build()
        for _store, shard in sdb.named_shards():
            shard.vacuum(shard.last_csn)
        with pytest.raises(TimeTravelError, match="horizon"):
            sdb.execute("SELECT COUNT(*) FROM kv AS OF ?", (checkpoints[0],))
        # The latest state is still readable.
        assert (
            sdb.execute(
                "SELECT COUNT(*) FROM kv AS OF ?", (checkpoints[-1],)
            ).scalar()
            == 16
        )

    def test_updates_are_versioned_across_shards(self):
        sdb, checkpoints = self.build()
        before = sdb.last_commit_csn
        sdb.execute("UPDATE kv SET v = 'patched'")
        assert sdb.execute(
            "SELECT COUNT(*) FROM kv WHERE v = 'patched' AS OF ?", (before,)
        ).scalar() == 0
        assert (
            sdb.execute("SELECT COUNT(*) FROM kv WHERE v = 'patched'").scalar() == 16
        )


class TestFacadeParity:
    def test_param_count_checked(self, pair):
        sharded, _ = pair
        with pytest.raises(ExecutionError, match="parameter"):
            sharded.execute("SELECT * FROM items WHERE id = ?")

    def test_ddl_applies_to_every_shard(self):
        sdb = ShardedDatabase(3)
        sdb.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        sdb.execute("CREATE INDEX ix_a ON t (a)")
        for _store, shard in sdb.named_shards():
            assert shard.catalog.has_table("t")
            assert "ix_a" in shard.index_set("t").indexes
        sdb.execute("DROP INDEX ix_a ON t")
        sdb.execute("DROP TABLE t")
        for _store, shard in sdb.named_shards():
            assert not shard.catalog.has_table("t")
        assert sdb.router.key_column("t") is None

    def test_failed_unique_index_unwinds_on_every_shard(self):
        """CREATE UNIQUE INDEX failing on one shard's partition must not
        leave other shards enforcing a constraint that shard lacks."""
        sdb = ShardedDatabase(4, shard_keys={"t": "k"})
        sdb.execute("CREATE TABLE t (k INTEGER, g TEXT)")
        # Two rows with the same g on the same shard (same shard key)
        # make the unique build fail exactly on that shard.
        owner_key = 7
        sdb.execute("INSERT INTO t VALUES (?, 'dup')", (owner_key,))
        gtxn = sdb.begin()
        sdb.execute("INSERT INTO t VALUES (?, 'dup')", (owner_key,), txn=gtxn)
        gtxn.commit()
        for k in range(20, 26):
            sdb.execute("INSERT INTO t VALUES (?, ?)", (k, f"g{k}"))
        with pytest.raises(Exception):
            sdb.execute("CREATE UNIQUE INDEX ug ON t (g)")
        for _store, shard in sdb.named_shards():
            assert "ug" not in shard.index_set("t").indexes
        # No phantom constraint anywhere: duplicate values still insert
        # uniformly on every shard.
        sdb.execute("INSERT INTO t VALUES (?, 'g20')", (40,))
        assert (
            sdb.execute("SELECT COUNT(*) FROM t WHERE g = 'g20'").scalar() == 2
        )

    def test_duplicate_create_index_keeps_existing_index(self):
        """A failing re-CREATE of an existing index must not take the
        healthy original down with it during compensation."""
        sdb = ShardedDatabase(2, shard_keys={"t": "k"})
        sdb.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        sdb.execute("CREATE INDEX ix ON t (k)")
        with pytest.raises(Exception):
            sdb.execute("CREATE INDEX ix ON t (k)")
        # Index names are case-insensitive; a case-variant duplicate must
        # not fare any differently.
        with pytest.raises(Exception):
            sdb.execute("CREATE INDEX IX ON t (k)")
        for _store, shard in sdb.named_shards():
            assert "ix" in shard.index_set("t").indexes

    def test_failed_create_table_unwinds(self):
        sdb = ShardedDatabase(2)
        # Table-level PRIMARY KEY referencing an unknown column fails
        # during creation on the first shard already; either way no
        # shard may keep the table.
        with pytest.raises(Exception):
            sdb.execute("CREATE TABLE bad (a INTEGER, PRIMARY KEY (zz))")
        for _store, shard in sdb.named_shards():
            assert not shard.catalog.has_table("bad")

    def test_table_rows_merges_shards(self, pair):
        sharded, single = pair
        got = sorted(r["id"] for r in sharded.table_rows("items"))
        want = sorted(r["id"] for r in single.table_rows("items"))
        assert got == want

    def test_adopted_databases_register_existing_tables(self):
        dbs = [Database(name=f"pre{i}") for i in range(2)]
        for db in dbs:
            db.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        sdb = ShardedDatabase(databases=dbs, shard_keys={"t": "k"})
        assert sdb.router.key_column("t") == "k"
        for k in range(8):
            sdb.execute("INSERT INTO t VALUES (?, ?)", (k, f"v{k}"))
        assert sdb.execute("SELECT COUNT(*) FROM t").scalar() == 8

    def test_adopted_databases_must_have_uniform_catalogs(self):
        a = Database()
        a.execute("CREATE TABLE t (k INTEGER)")
        b = Database()  # missing the table
        with pytest.raises(SchemaError, match="uniform"):
            ShardedDatabase(databases=[a, b])

    def test_adopted_databases_must_have_uniform_column_layouts(self):
        a = Database()
        a.execute("CREATE TABLE t (id INTEGER, v TEXT)")
        b = Database()
        b.execute("CREATE TABLE t (v TEXT, id INTEGER)")  # swapped slots
        with pytest.raises(SchemaError, match="uniform"):
            ShardedDatabase(databases=[a, b], shard_keys={"t": "id"})

    def test_adopted_unique_index_must_include_shard_key(self):
        dbs = [Database(name=f"pre{i}") for i in range(2)]
        for db in dbs:
            db.execute("CREATE TABLE t (k INTEGER, v TEXT)")
            db.execute("CREATE UNIQUE INDEX uv ON t (v)")
        with pytest.raises(SchemaError, match="shard key"):
            ShardedDatabase(databases=dbs, shard_keys={"t": "k"})

    def test_adopted_index_uniqueness_must_match(self):
        a = Database()
        a.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        a.execute("CREATE UNIQUE INDEX ik ON t (k)")
        b = Database()
        b.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        b.execute("CREATE INDEX ik ON t (k)")  # same name, not unique
        with pytest.raises(SchemaError, match="uniform"):
            ShardedDatabase(databases=[a, b], shard_keys={"t": "k"})

    def test_adopted_databases_must_have_hash_consistent_placement(self):
        """Rows loaded under a different partitioning scheme would dodge
        key-routed reads; adoption verifies placement up front."""
        dbs = [Database(name=f"pre{i}") for i in range(2)]
        for db in dbs:
            db.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        # Put a row on the wrong store on purpose.
        probe = ShardRouter(["shard0", "shard1"])
        probe.register_table("t", "k")
        misplaced = next(
            k for k in range(100) if probe.shard_for_value(k) == "shard1"
        )
        dbs[0].execute("INSERT INTO t VALUES (?, 'oops')", (misplaced,))
        with pytest.raises(SchemaError, match="re-partition"):
            ShardedDatabase(databases=dbs, shard_keys={"t": "k"})

    def test_broadcast_join_records_reads_on_both_tables(self):
        sdb = ShardedDatabase(2, shard_keys={"items": "id", "grps": "grp"})
        sdb.execute("CREATE TABLE items (id INTEGER, grp TEXT)")
        sdb.execute("CREATE TABLE grps (grp TEXT, label TEXT)")
        for i in range(8):
            sdb.execute("INSERT INTO items VALUES (?, ?)", (i, f"g{i % 2}"))
        for g in range(2):
            sdb.execute("INSERT INTO grps VALUES (?, ?)", (f"g{g}", f"l{g}"))
        log = ReadLog.on(sdb)
        gtxn = sdb.begin()
        sdb.execute(
            "SELECT COUNT(*) FROM items i JOIN grps g ON i.grp = g.grp",
            txn=gtxn,
        )
        tables_read = set()
        for store in gtxn.stores_joined():
            tables_read |= log.tables(gtxn.on(store))
        gtxn.abort()
        assert tables_read == {"items", "grps"}

    def test_scatter_plans_cache_and_survive_ddl(self):
        sdb = ShardedDatabase(2, shard_keys={"t": "k"})
        sdb.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        for k in range(10):
            sdb.execute("INSERT INTO t VALUES (?, ?)", (k, f"v{k}"))
        sql = "SELECT v FROM t WHERE k = ?"
        assert sdb.execute(sql, (3,)).scalar() == "v3"
        assert sdb.execute(sql, (4,)).scalar() == "v4"
        # One FROM/WHERE node and one coordinator plan serve both shards.
        assert sum(s.plan_cache_stats["misses"] for s in sdb.shards) == 2
        # DDL changes the catalog's shape: a plan of the old shape would
        # miss the new index.
        sdb.execute("CREATE INDEX ix_k ON t (k)")
        assert sdb.execute(sql, (5,)).scalar() == "v5"
        assert sum(s.plan_cache_stats["misses"] for s in sdb.shards) == 4
        assert any("probe=ix_k[k]" in line for line in sdb.explain(sql, (5,)))
        # The memoised plan returns fresh rows per execution (what its
        # exchange gathers rides on the execution, not on the plan).
        assert len(sdb.execute("SELECT * FROM t WHERE k >= 0").rows) == 10
        assert len(sdb.execute("SELECT * FROM t WHERE k >= 0").rows) == 10

    def test_reads_leave_no_aligned_commits(self):
        sdb = ShardedDatabase(2, shard_keys={"t": "a"})
        sdb.execute("CREATE TABLE t (a INTEGER)")
        sdb.execute("INSERT INTO t VALUES (1)")
        log_len = len(sdb.coordinator.aligned_log)
        sdb.execute("SELECT * FROM t")
        sdb.execute("SELECT COUNT(*) FROM t")
        # A read-only global transaction (whose SNAPSHOT branches join
        # every shard eagerly) records nothing either.
        gtxn = sdb.begin(IsolationLevel.SNAPSHOT)
        sdb.execute("SELECT COUNT(*) FROM t", txn=gtxn)
        gtxn.commit()
        assert len(sdb.coordinator.aligned_log) == log_len

    def test_read_only_branches_commit_for_observers(self):
        """Observers on a read-touched shard must see txn_committed (the
        global outcome), never txn_aborted, and still no aligned entry."""
        sdb = ShardedDatabase(2, shard_keys={"t": "a"})
        sdb.execute("CREATE TABLE t (a INTEGER)")
        sdb.execute("INSERT INTO t VALUES (1)")

        class Outcomes:
            events = ("txn_committed", "txn_aborted")

            def __init__(self):
                self.outcomes = []

            def txn_committed(self, txn, csn, changes):
                self.outcomes.append("committed")

            def txn_aborted(self, txn):
                self.outcomes.append("aborted")

        observers = []
        for _store, shard in sdb.named_shards():
            observer = Outcomes()
            shard.add_observer(observer)
            observers.append(observer)
        gtxn = sdb.begin(IsolationLevel.SNAPSHOT)  # joins both branches
        sdb.execute("SELECT COUNT(*) FROM t", txn=gtxn)
        gtxn.commit()
        events = [e for o in observers for e in o.outcomes]
        assert events == ["committed", "committed"]
        assert len(sdb.coordinator.aligned_log) == 1  # just the INSERT

    def test_mixed_gtxn_records_only_writing_branches(self):
        sdb = ShardedDatabase(4, shard_keys={"t": "a"})
        sdb.execute("CREATE TABLE t (a INTEGER)")
        gtxn = sdb.begin(IsolationLevel.SNAPSHOT)  # joins all 4 branches
        sdb.execute("SELECT COUNT(*) FROM t", txn=gtxn)
        sdb.execute("INSERT INTO t VALUES (1)", txn=gtxn)
        gtxn.commit()
        [commit] = sdb.coordinator.aligned_log
        owner = sdb.router.shard_for_value(1)
        assert list(commit.local_csns) == [owner]

    def test_statement_traces_fire_on_shards(self):
        """TROD interposition attaches to the shard databases; facade
        statements must surface statement_executed traces there."""
        sdb = ShardedDatabase(2, shard_keys={"t": "k"})
        sdb.execute("CREATE TABLE t (k INTEGER, v TEXT)")

        class Collector:
            events = ("statement_executed",)

            def __init__(self):
                self.traces = []

            def statement_executed(self, txn, trace):
                self.traces.append(trace)

        collectors = []
        for _store, shard in sdb.named_shards():
            collector = Collector()
            shard.add_observer(collector)
            collectors.append(collector)
        for k in range(4):
            sdb.execute("INSERT INTO t VALUES (?, 'x')", (k,))
        sdb.execute("SELECT * FROM t")
        sdb.execute("UPDATE t SET v = 'y' WHERE k = 2")
        sdb.execute("DELETE FROM t WHERE k = 3")
        kinds = {t.kind for c in collectors for t in c.traces}
        assert kinds == {"insert", "select", "update", "delete"}
        writes = [w for c in collectors for t in c.traces for w in t.writes]
        assert {op for op, _t, _r in writes} == {"insert", "update", "delete"}
