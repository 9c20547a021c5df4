"""Provenance checkpoints: O(delta) dev-database restores for replay.

A checkpoint is a materialized table state at some CSN stored beside the
event log; ``reconstruct_rows`` restores from the nearest one at or below
the target CSN and replays only the remaining events. These tests pin the
core contract: checkpointed reconstruction is *indistinguishable* from
full-history reconstruction, at every CSN, including after redaction.
"""

def subscribe_history(moodle_env, n: int = 30, offset: int = 0):
    """Attach-time snapshot plus ``n`` subscription requests."""
    database, runtime, trod = moodle_env
    for i in range(n):
        runtime.submit("subscribeUser", f"U{offset + i}", "F1")
    trod.flush()
    return database, runtime, trod


def full_reconstruction(prov, table: str, csn: int):
    """Reference result: reconstruct with checkpoints sidelined."""
    saved = dict(prov._checkpoints)
    prov.invalidate_checkpoints()
    try:
        return prov.reconstruct_rows(table, csn)
    finally:
        prov._checkpoints = saved


class TestCheckpointedReconstruction:
    def test_checkpoint_matches_full_history_at_every_csn(self, moodle_env):
        database, runtime, trod = subscribe_history(moodle_env)
        prov = trod.provenance
        mid = database.last_csn // 2
        prov.create_checkpoint(mid)
        prov.create_checkpoint(database.last_csn)
        assert prov.checkpoint_csns("forum_sub") == [mid, database.last_csn]
        for csn in range(database.last_csn + 1):
            assert prov.reconstruct_rows("forum_sub", csn) == \
                full_reconstruction(prov, "forum_sub", csn)

    def test_restore_uses_nearest_checkpoint(self, moodle_env):
        database, runtime, trod = subscribe_history(moodle_env)
        prov = trod.provenance
        mid = database.last_csn // 2
        prov.create_checkpoint(mid)
        before = dict(prov.checkpoint_stats)
        prov.reconstruct_rows("forum_sub", mid - 1)  # below: full path
        prov.reconstruct_rows("forum_sub", mid + 1)  # above: delta path
        after = prov.checkpoint_stats
        assert after["full_restores"] == before["full_restores"] + 1
        assert after["checkpoint_restores"] == before["checkpoint_restores"] + 1

    def test_automatic_checkpoints_from_ingest(self, moodle_env):
        database, runtime, trod = moodle_env
        trod.provenance.checkpoint_interval = 5
        subscribe_history((database, runtime, trod), n=20)
        assert trod.provenance.checkpoint_csns("forum_sub")
        assert trod.provenance.checkpoint_stats["checkpoints"] > 0

    def test_build_dev_db_agrees_with_and_without_checkpoints(self, moodle_env):
        database, runtime, trod = subscribe_history(moodle_env)
        prov = trod.provenance
        upto = database.last_csn
        prov.create_checkpoint(upto)
        dev_ck = trod.replayer.build_dev_db(upto)
        saved = dict(prov._checkpoints)
        prov.invalidate_checkpoints()
        dev_full = trod.replayer.build_dev_db(upto)
        prov._checkpoints = saved
        for table in dev_full.catalog.table_names():
            assert dev_ck.table_rows(table) == dev_full.table_rows(table)

    def test_replay_fidelity_with_checkpoints(self, racy_moodle):
        database, runtime, trod = racy_moodle
        trod.flush()
        trod.provenance.create_checkpoint()
        result = trod.replayer.replay_request("R1")
        assert result.fidelity, result.divergences
        assert len(result.dev_db.table_rows("forum_sub")) == 2


class TestCheckpointInvalidation:
    def test_redaction_drops_checkpoints(self, racy_moodle):
        database, runtime, trod = racy_moodle
        trod.flush()
        prov = trod.provenance
        prov.create_checkpoint()
        assert prov.checkpoint_csns("forum_sub")
        trod.privacy.forget_value("forum_sub", "userId", "U1")
        # A stale checkpoint would resurrect the erased values.
        assert not prov.checkpoint_csns("forum_sub")
        rows = prov.reconstruct_rows("forum_sub", database.last_csn)
        assert all("U1" not in values for _rid, values in rows)

    def test_late_event_below_checkpoint_invalidates_it(self, moodle_env):
        database, runtime, trod = subscribe_history(moodle_env, n=5)
        prov = trod.provenance
        prov.create_checkpoint()
        [ck] = prov.checkpoint_csns("forum_sub")
        from repro.core.events import DataEvent

        prov.ingest(
            [
                DataEvent(
                    txn_num=999,
                    txn_name="TXN999",
                    table="forum_sub",
                    kind="Insert",
                    query="late arrival",
                    csn=ck - 1,
                    rows=[(9999, ("UX", "F9"))],
                )
            ]
        )
        assert prov.checkpoint_csns("forum_sub") == []
        rows = prov.reconstruct_rows("forum_sub", database.last_csn)
        assert any(values[0] == "UX" for _rid, values in rows)


def make_traced_store(tmp_path=None, **kwargs):
    """A ProvenanceStore tracing one two-column app table directly."""
    import os

    from repro.core.provenance import ProvenanceStore
    from repro.db.database import Database
    from repro.db.schema import Column, TableSchema
    from repro.db.types import ColumnType

    wal_path = (
        os.path.join(str(tmp_path), "wal.jsonl") if tmp_path is not None else None
    )
    # storage="memory" pinned: the no-spill test needs a WAL-less
    # database, and under REPRO_STORAGE=paged a default Database always
    # gets a WAL in its data dir.
    prov = ProvenanceStore(
        db=Database(name="prov", wal_path=wal_path, storage="memory"),
        checkpoint_interval=None,
        **kwargs,
    )
    prov.register_app_table(
        TableSchema(
            "items",
            [Column("k", ColumnType.TEXT), Column("v", ColumnType.INTEGER)],
        )
    )
    return prov


def ingest_writes(prov, n: int, start_csn: int = 1):
    """n committed single-insert transactions at consecutive CSNs."""
    from repro.core.events import DataEvent, TxnEvent

    events = []
    for i in range(n):
        csn = start_csn + i
        events.append(
            TxnEvent(
                txn_num=csn,
                txn_name=f"T{csn}",
                ts=0,
                handler="h",
                req_id=f"R{csn}",
                label=None,
                isolation="SI",
                status="Committed",
                csn=csn,
                snapshot_csn=csn - 1,
            )
        )
        events.append(
            DataEvent(
                txn_num=csn,
                txn_name=f"T{csn}",
                table="items",
                kind="Insert",
                query="ins",
                csn=csn,
                rows=[(csn, (f"k{csn}", csn))],
            )
        )
    prov.ingest(events)


class TestIncrementalLiveState:
    """create_checkpoint materializes from the incrementally folded live
    state — O(table size), no event replay — whenever the target csn is
    at or ahead of its watermark."""

    def test_fast_path_agrees_with_event_replay(self):
        prov = make_traced_store()
        ingest_writes(prov, 25)
        prov.create_checkpoint()
        [ck] = prov.checkpoint_csns("items")
        fast = prov.reconstruct_rows("items", ck)
        assert fast == full_reconstruction(prov, "items", ck)
        assert len(fast) == 25

    def test_fast_path_skips_unchanged_without_querying(self):
        prov = make_traced_store()
        ingest_writes(prov, 5)
        prov.create_checkpoint()
        before = prov.checkpoint_stats["checkpoints"]
        queries = prov.db.store("ItemsEvents").version_count()
        prov.create_checkpoint()  # nothing new: skipped via dirty counter
        assert prov.checkpoint_stats["checkpoints"] == before
        assert prov.db.store("ItemsEvents").version_count() == queries

    def test_historical_csn_uses_replay_path(self):
        prov = make_traced_store()
        ingest_writes(prov, 10)
        stats_before = dict(prov.checkpoint_stats)
        prov.create_checkpoint(5)  # below the live watermark
        assert prov.checkpoint_csns("items") == [5]
        assert prov.reconstruct_rows("items", 5) == \
            full_reconstruction(prov, "items", 5)
        # The historical build went through reconstruction, not the fold.
        assert prov.checkpoint_stats["full_restores"] > \
            stats_before["full_restores"]

    def test_live_state_reseeds_after_invalidation(self):
        prov = make_traced_store()
        ingest_writes(prov, 8)
        prov.invalidate_checkpoints()  # drops folds too (redaction path)
        assert not prov._live
        prov.create_checkpoint()  # slow path; re-seeds the fold
        assert "items" in prov._live
        ingest_writes(prov, 3, start_csn=9)
        prov.create_checkpoint()  # fast path again
        [_, ck] = prov.checkpoint_csns("items")
        assert prov.reconstruct_rows("items", ck) == \
            full_reconstruction(prov, "items", ck)

    def test_out_of_order_event_invalidates_fold(self):
        from repro.core.events import DataEvent

        prov = make_traced_store()
        ingest_writes(prov, 6)
        prov.ingest(
            [
                DataEvent(
                    txn_num=99,
                    txn_name="T99",
                    table="items",
                    kind="Insert",
                    query="late",
                    csn=2,
                    rows=[(999, ("late", 0))],
                )
            ]
        )
        assert "items" not in prov._live
        prov.create_checkpoint()
        [ck] = prov.checkpoint_csns("items")
        rows = prov.reconstruct_rows("items", ck)
        assert rows == full_reconstruction(prov, "items", ck)
        assert any(values[0] == "late" for _rid, values in rows)


class TestCheckpointSpill:
    """Large checkpoint payloads spill to disk next to the provenance
    WAL; reconstruction loads them back through a small LRU cache."""

    def test_large_checkpoint_spills_and_loads_back(self, tmp_path):
        from repro.core.provenance import _SpilledRows

        prov = make_traced_store(tmp_path)
        prov.spill_threshold = 50
        ingest_writes(prov, 120)
        prov.create_checkpoint()
        [(ck, payload)] = prov._checkpoints["items"]
        assert isinstance(payload, _SpilledRows)
        assert payload.count == 120
        assert prov.checkpoint_stats["spills"] == 1
        # Warm cache serves the first restore; a cleared cache reloads.
        rows = prov.reconstruct_rows("items", ck)
        assert prov.checkpoint_stats["spill_cache_hits"] == 1
        prov._spill_cache.clear()
        assert prov.reconstruct_rows("items", ck) == rows
        assert prov.checkpoint_stats["spill_loads"] == 1
        assert rows == full_reconstruction(prov, "items", ck)

    def test_spill_cache_evicts_by_access_order(self, tmp_path):
        prov = make_traced_store(tmp_path)
        prov.spill_threshold = 10
        prov.spill_cache_size = 2
        for round_num in range(4):
            ingest_writes(prov, 15, start_csn=round_num * 15 + 1)
            prov.create_checkpoint()
        prov._spill_cache.clear()
        for ck in prov.checkpoint_csns("items"):
            prov.reconstruct_rows("items", ck)
        assert len(prov._spill_cache) <= 2
        assert prov.checkpoint_stats["spill_loads"] >= 4

    def test_invalidation_removes_spill_files(self, tmp_path):
        import os

        prov = make_traced_store(tmp_path)
        prov.spill_threshold = 10
        ingest_writes(prov, 40)
        prov.create_checkpoint()
        [(_ck, payload)] = prov._checkpoints["items"]
        assert os.path.exists(payload.path)
        prov.invalidate_checkpoints("items")
        assert not os.path.exists(payload.path)

    def test_no_wal_means_no_spill(self):
        prov = make_traced_store()  # in-memory provenance DB: no WAL file
        prov.spill_threshold = 10
        ingest_writes(prov, 40)
        prov.create_checkpoint()
        [(_ck, payload)] = prov._checkpoints["items"]
        assert isinstance(payload, tuple)
        assert prov.checkpoint_stats["spills"] == 0


class TestCheckpointRetention:
    def test_unchanged_tables_are_not_recheckpointed(self, moodle_env):
        database, runtime, trod = moodle_env
        prov = trod.provenance
        # Only forum_sub receives writes; course/forum tables stay static.
        subscribe_history((database, runtime, trod), n=4)
        prov.create_checkpoint()
        static_tables = [
            t for t in prov.traced_tables() if t.lower() != "forum_sub"
        ]
        before = {t: prov.checkpoint_csns(t) for t in static_tables}
        subscribe_history((database, runtime, trod), n=4, offset=4)
        prov.create_checkpoint()
        assert len(prov.checkpoint_csns("forum_sub")) == 2
        for table in static_tables:
            assert prov.checkpoint_csns(table) == before[table]

    def test_per_table_checkpoints_stay_bounded(self, moodle_env):
        database, runtime, trod = moodle_env
        prov = trod.provenance
        for i in range(50):
            subscribe_history((database, runtime, trod), n=1, offset=i)
            prov.create_checkpoint()
        from repro.core.provenance import _MAX_TABLE_CHECKPOINTS

        count = len(prov.checkpoint_csns("forum_sub"))
        assert count <= _MAX_TABLE_CHECKPOINTS + 1
        # Thinning must not break correctness at any csn.
        for csn in range(0, database.last_csn + 1, 7):
            assert prov.reconstruct_rows("forum_sub", csn) == \
                full_reconstruction(prov, "forum_sub", csn)
