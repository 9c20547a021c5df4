"""Kept reconstructed states: O(delta) dev-database restores for replay.

``reconstruct_rows`` keeps each table state it computes, keyed by
``(table, csn)`` in one bounded least-recently-used memo; the next
reconstruction of that table starts from the nearest kept state at or
below its CSN and applies only the events after it. These tests pin the
core contract: a reconstruction that starts from a kept state is
*indistinguishable* from one that starts from nothing, at every CSN,
including after a redaction, a late event and an eviction.
"""

from repro.core import provenance as provenance_module
from repro.core.buffer import TraceBuffer


def subscribe_history(moodle_env, n: int = 30, offset: int = 0):
    """Attach-time snapshot plus ``n`` subscription requests."""
    database, runtime, trod = moodle_env
    for i in range(n):
        runtime.submit("subscribeUser", f"U{offset + i}", "F1")
    trod.flush()
    return database, runtime, trod


def cold_reconstruction(prov, table: str, csn: int):
    """Reference result: the same call with nothing kept."""
    prov.invalidate_checkpoints()
    return prov.reconstruct_rows(table, csn)


def late_insert(table: str, csn: int, row_id: int, values: tuple):
    """A drained buffer holding one late one-row Insert batch."""
    buffer = TraceBuffer()
    buffer.add_batch(
        table, "TXN999", 999, "Insert", "late arrival", csn, [(row_id, values)]
    )
    return buffer.drain()


class TestKeptStateReconstruction:
    def test_kept_states_match_cold_reconstruction_at_every_csn(self, moodle_env):
        database, runtime, trod = subscribe_history(moodle_env)
        prov = trod.provenance
        last = database.last_csn
        cold = [cold_reconstruction(prov, "forum_sub", csn) for csn in range(last + 1)]
        assert cold[0] != cold[last // 2] != cold[last]
        prov.invalidate_checkpoints()
        # An explicit checkpoint is a reconstruction somebody asked for.
        prov.reconstruct_state(last // 2)
        prov.reconstruct_state(last)
        assert prov.checkpoint_csns("forum_sub") == [last // 2, last]
        # First pass: every CSN starts from the nearest state below it (and
        # is kept in turn); second pass: every CSN is itself a kept state,
        # or lies above one no event has changed since.
        for _pass in range(2):
            for csn in range(last + 1):
                assert prov.reconstruct_rows("forum_sub", csn) == cold[csn], csn

    def test_restore_above_at_and_below_a_kept_state(self, moodle_env):
        database, runtime, trod = subscribe_history(moodle_env)
        prov = trod.provenance
        mid = database.last_csn // 2
        prov.reconstruct_rows("forum_sub", mid)
        assert prov.checkpoint_csns("forum_sub") == [mid]
        before = dict(prov.checkpoint_stats)
        prov.reconstruct_rows("forum_sub", mid - 1)  # below: from nothing
        assert prov.checkpoint_stats == {
            **before, "full_restores": before["full_restores"] + 1
        }
        prov.reconstruct_rows("forum_sub", mid + 1)  # above: the delta
        prov.reconstruct_rows("forum_sub", mid)  # at it: no event read
        assert prov.checkpoint_stats == {
            "full_restores": before["full_restores"] + 1,
            "checkpoint_restores": before["checkpoint_restores"] + 2,
        }

    def test_a_kept_state_is_served_without_reading_events(self, moodle_env):
        database, runtime, trod = subscribe_history(moodle_env)
        prov = trod.provenance
        first = prov.reconstruct_rows("forum_sub", database.last_csn)
        statements = []
        plain_query = prov.query
        prov.query = lambda *args: statements.append(args) or plain_query(*args)
        assert prov.reconstruct_rows("forum_sub", database.last_csn) == first
        assert statements == []

    def test_build_dev_db_agrees_warm_and_cold(self, moodle_env):
        database, runtime, trod = subscribe_history(moodle_env)
        prov = trod.provenance
        upto = database.last_csn
        prov.invalidate_checkpoints()
        dev_cold = trod.replayer.build_dev_db(upto)
        before = dict(prov.checkpoint_stats)
        dev_warm = trod.replayer.build_dev_db(upto)
        assert prov.checkpoint_stats["full_restores"] == before["full_restores"]
        assert dev_cold.catalog.table_names()
        for table in dev_cold.catalog.table_names():
            assert dev_warm.table_rows(table) == dev_cold.table_rows(table)

    def test_replay_fidelity_on_a_warm_store(self, racy_moodle):
        database, runtime, trod = racy_moodle
        prov = trod.provenance
        first = trod.replayer.replay_request("R1")
        # A footprint replay reads the rows' own events: no kept state.
        stats = dict(prov.checkpoint_stats)
        result = trod.replayer.replay_request("R1")
        assert prov.checkpoint_stats == stats
        assert result.fidelity, result.divergences
        assert len(result.dev_db.table_rows("forum_sub")) == 2
        assert result.steps == first.steps
        assert result.dev_db.table_rows("forum_sub") == \
            first.dev_db.table_rows("forum_sub")
        # A whole-table replay starts from the state the first one kept.
        trod.replayer.replay_request("R1", dependency_filter=False)
        before = dict(prov.checkpoint_stats)
        unfiltered = trod.replayer.replay_request("R1", dependency_filter=False)
        served = prov.checkpoint_stats
        assert served["checkpoint_restores"] > before["checkpoint_restores"]
        assert served["full_restores"] == before["full_restores"]
        assert unfiltered.fidelity, unfiltered.divergences
        assert unfiltered.dev_db.table_rows("forum_sub") == \
            first.dev_db.table_rows("forum_sub")


    def test_unfiltered_replay_agrees_warm_and_cold(self, racy_moodle):
        """Without the dependency filter a replay restores every table."""
        database, runtime, trod = racy_moodle
        prov = trod.provenance

        def replay():
            result = trod.replayer.replay_request("R2", dependency_filter=False)
            tables = result.dev_db.catalog.table_names()
            return result.steps, result.divergences, result.output, {
                table: result.dev_db.table_rows(table) for table in tables
            }

        cold = replay()
        assert len(cold[3]) == len(prov.traced_tables()) and not cold[1]
        full = prov.checkpoint_stats["full_restores"]
        assert replay() == cold
        assert prov.checkpoint_stats["full_restores"] == full


class TestKeptStateInvalidation:
    def test_redaction_drops_the_tables_states(self, racy_moodle):
        database, runtime, trod = racy_moodle
        trod.flush()
        prov = trod.provenance
        rows = prov.reconstruct_rows("forum_sub", database.last_csn)
        assert any("U1" in values for _rid, values in rows)
        prov.reconstruct_rows("courses", database.last_csn)
        assert prov.checkpoint_csns("forum_sub") and prov.checkpoint_csns("courses")
        trod.privacy.forget_value("forum_sub", "userId", "U1")
        # A stale state would resurrect the erased values.
        assert not prov.checkpoint_csns("forum_sub")
        assert prov.checkpoint_csns("courses")  # other tables keep theirs
        rows = prov.reconstruct_rows("forum_sub", database.last_csn)
        assert all("U1" not in values for _rid, values in rows)
        dev = trod.replayer.build_dev_db(database.last_csn)
        assert all(row["userId"] != "U1" for row in dev.table_rows("forum_sub"))

    def test_late_event_drops_exactly_the_states_at_or_after_its_csn(
        self, moodle_env
    ):
        database, runtime, trod = subscribe_history(moodle_env, n=8)
        prov = trod.provenance
        last = database.last_csn
        kept = [last - 6, last - 4, last - 2, last]
        for csn in kept:
            prov.reconstruct_rows("forum_sub", csn)
        prov.reconstruct_rows("courses", last)
        assert prov.checkpoint_csns("forum_sub") == kept
        prov.ingest(late_insert("forum_sub", last - 4, 9999, ("UX", "F9")))
        assert prov.checkpoint_csns("forum_sub") == [last - 6]
        assert prov.checkpoint_csns("courses") == [last]
        csns = range(last - 7, last + 1)
        warm = [prov.reconstruct_rows("forum_sub", csn) for csn in csns]
        for csn, rows in zip(csns, warm):
            assert rows == cold_reconstruction(prov, "forum_sub", csn)
            assert any(v[0] == "UX" for _rid, v in rows) == (csn >= last - 4)

    def test_new_base_snapshot_drops_the_tables_states(self, moodle_env):
        database, runtime, trod = subscribe_history(moodle_env, n=3)
        prov = trod.provenance
        last = database.last_csn
        prov.reconstruct_state(last)
        assert prov.checkpoint_csns("courses") == [last]
        prov.capture_snapshot("forum_sub", [(500, ("U500", "F1"))], last)
        assert prov.checkpoint_csns("forum_sub") == []
        assert prov.checkpoint_csns("courses") == [last]
        assert (500, ("U500", "F1")) in prov.reconstruct_rows("forum_sub", last)


    def test_a_state_kept_past_the_end_of_history_goes_with_the_next_write(
        self, moodle_env
    ):
        database, runtime, trod = subscribe_history(moodle_env, n=3)
        prov = trod.provenance
        ahead = database.last_csn + 5
        before = prov.reconstruct_rows("forum_sub", ahead)
        assert prov.checkpoint_csns("forum_sub") == [ahead]
        subscribe_history((database, runtime, trod), n=1, offset=3)
        assert database.last_csn < ahead
        assert prov.checkpoint_csns("forum_sub") == []
        assert len(prov.reconstruct_rows("forum_sub", ahead)) == len(before) + 1

    def test_a_flush_that_writes_nothing_to_a_table_drops_none_of_its_states(
        self, moodle_env
    ):
        database, runtime, trod = subscribe_history(moodle_env, n=3)
        prov = trod.provenance
        prov.reconstruct_state(database.last_csn)
        kept = {table: prov.checkpoint_csns(table) for table in prov.traced_tables()}
        assert all(kept.values())
        runtime.submit("fetchSubscribers", "F1")  # reads forum_sub, writes nothing
        assert trod.flush() > 0
        assert {
            table: prov.checkpoint_csns(table) for table in prov.traced_tables()
        } == kept


class TestKeptStateRetention:
    def test_memo_stays_within_its_row_bound(self, moodle_env, monkeypatch):
        database, runtime, trod = moodle_env
        prov = trod.provenance
        monkeypatch.setattr(provenance_module, "_STATE_MEMO_ROWS", 200)
        for i in range(50):
            subscribe_history((database, runtime, trod), n=1, offset=i)
            prov.reconstruct_state(database.last_csn)
            held = sum(len(state) + 1 for state in prov._states.values())
            assert held == prov._state_rows <= 200
        kept = prov.checkpoint_csns("forum_sub")
        assert 0 < len(kept) < 50 and kept[-1] == database.last_csn
        assert sorted(
            (table, csn)
            for table in prov.traced_tables()
            for csn in prov.checkpoint_csns(table)
        ) == sorted(prov._states)
        # Eviction must not break correctness at any csn.
        csns = range(0, database.last_csn + 1, 7)
        warm = [prov.reconstruct_rows("forum_sub", csn) for csn in csns]
        for csn, rows in zip(csns, warm):
            assert rows == cold_reconstruction(prov, "forum_sub", csn)

    def test_the_newest_state_stays_whatever_its_size(
        self, moodle_env, monkeypatch
    ):
        database, runtime, trod = subscribe_history(moodle_env)
        prov = trod.provenance
        monkeypatch.setattr(provenance_module, "_STATE_MEMO_ROWS", 5)
        rows = prov.reconstruct_rows("forum_sub", database.last_csn)
        assert len(rows) > 5
        assert list(prov._states) == [("forum_sub", database.last_csn)]
        prov.reconstruct_rows("forum_sub", database.last_csn - 1)
        assert list(prov._states) == [("forum_sub", database.last_csn - 1)]

    def test_empty_states_count_against_the_bound_too(self, moodle_env, monkeypatch):
        database, runtime, trod = moodle_env
        prov = trod.provenance
        monkeypatch.setattr(provenance_module, "_STATE_MEMO_ROWS", 10)
        # Nothing is ever below a descending visit: each one is kept.
        for csn in range(100, 0, -1):
            assert prov.reconstruct_rows("forum_sub", csn) == []
        assert prov.checkpoint_csns("forum_sub") == list(range(1, 11))
