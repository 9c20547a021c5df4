"""Bug replay tests (§3.5): faithfulness, injection, breakpoints."""

import gc
import weakref

import pytest

from repro.apps.moodle import subscribe_user_fixed
from repro.db import Database, IsolationLevel
from repro.errors import ReplayDivergenceError, ReplayError, TransactionError
from repro.runtime import Request
from repro.workload.generators import CheckoutWorkload, ForumWorkload


class TestFaithfulReplay:
    def test_replay_reproduces_the_duplicate(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        result = trod.replayer.replay_request("R1")
        assert result.fidelity, result.divergences
        assert result.output is True
        rows = result.dev_db.table_rows("forum_sub")
        assert rows == [
            {"userId": "U1", "forum": "F2"},
            {"userId": "U1", "forum": "F2"},
        ]

    def test_replay_of_the_other_racer(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        result = trod.replayer.replay_request("R2")
        assert result.fidelity, result.divergences

    def test_replay_of_failed_request_reproduces_error(self, racy_moodle):
        """R3 (fetchSubscribers) failed in production; replay must fail
        identically — the Heisenbug becomes a Bohrbug."""
        _db, _runtime, trod = racy_moodle
        result = trod.replayer.replay_request("R3")
        assert result.fidelity, result.divergences
        assert result.error is not None
        assert "duplicated" in result.error

    def test_dropped_databases_die_without_the_collector(self, racy_moodle):
        """A database is freed by reference counting alone: nothing it
        owns (its transaction manager, its plans) points back at it."""
        _db, _runtime, trod = racy_moodle
        trod.flush()
        gc.collect()
        gc.disable()
        try:
            database = Database()
            database.execute("CREATE TABLE t (k INTEGER, v TEXT)")
            database.execute("INSERT INTO t VALUES (1, 'a')")
            assert database.execute("SELECT v FROM t WHERE k = 1").scalar() == "a"
            dropped = weakref.ref(database)
            del database
            assert dropped() is None
            result = trod.replayer.replay_request("R1")
            assert result.fidelity, result.divergences
            dev_db = weakref.ref(result.dev_db)
            del result
            assert dev_db() is None
        finally:
            gc.enable()

    def test_retroactive_databases_die_without_the_collector(
        self, racy_moodle, monkeypatch
    ):
        """Pilot and ordering databases go with their run's result: the
        runtime that ran an ordering concurrently keeps its scheduler,
        which must not hold that runtime (and its database) in a cycle."""
        _db, _runtime, trod = racy_moodle
        trod.flush()
        created = []
        original = trod.retroactive._fresh_dev_db

        def fresh_dev_db(base_state, name):
            dev = original(base_state, name)
            created.append((name, weakref.ref(dev)))
            return dev

        monkeypatch.setattr(trod.retroactive, "_fresh_dev_db", fresh_dev_db)
        gc.collect()
        gc.disable()
        try:
            result = trod.retroactive.run(
                ["R1", "R2"], patches={"subscribeUser": subscribe_user_fixed}
            )
            assert result.all_ok
            del result
            names = sorted(name for name, _ref in created)
            assert any(n.startswith("pilot-") for n in names)
            assert any(n.startswith("retro-") for n in names)
            assert [name for name, dev in created if dev() is not None] == []
        finally:
            gc.enable()

    def test_replay_does_not_touch_production(self, racy_moodle):
        database, _runtime, trod = racy_moodle
        before = database.table_rows("forum_sub")
        trod.replayer.replay_request("R1")
        assert database.table_rows("forum_sub") == before

    def test_replay_without_txns_rejected(self, moodle_env):
        _db, runtime, trod = moodle_env
        runtime.register("pure", lambda ctx: 42)
        runtime.submit("pure")
        with pytest.raises(ReplayError):
            trod.replayer.replay_request("R1")

    def test_replay_unknown_request(self, moodle_env):
        _db, _runtime, trod = moodle_env
        with pytest.raises(ReplayError):
            trod.replayer.replay_request("R404")


class TestBreakpointsAndInjection:
    def test_breakpoints_expose_interleaved_writes(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        breakpoints = []
        trod.replayer.replay_request(
            "R1", breakpoint_cb=lambda info: breakpoints.append(info)
        )
        assert len(breakpoints) == 2
        first, second = breakpoints
        assert first.label == "isSubscribed"
        assert first.injected == []
        assert second.label == "DB.insert"
        assert [w.req_id for w in second.injected] == ["R2"]
        assert second.concurrent_writers() == ["R2"]

    def test_breakpoint_can_inspect_dev_state(self, racy_moodle):
        """The 'attach GDB' surface: inspect the dev DB between txns."""
        _db, _runtime, trod = racy_moodle
        counts = []

        def on_break(info):
            counts.append(
                info.dev_db.execute("SELECT COUNT(*) FROM forum_sub").scalar()
            )

        trod.replayer.replay_request("R1", breakpoint_cb=on_break)
        # Before txn 1: empty. Before txn 2: R2's row injected.
        assert counts == [0, 1]

    def test_apply_writes_returns_what_it_applied(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        events = trod.debugger.interleaved_writes("R1")
        assert [e["ReqId"] for e in events] == ["R2"]
        dev = trod.replayer.build_dev_db(trod.base_csn)
        applied = trod.replayer.apply_writes(dev, events)
        assert [(w.table, w.kind, w.row_id, w.csn, w.txn_id, w.req_id) for w in applied] == [
            (e["_table"], e["Type"], e["RowId"], e["Csn"], e["TxnId"], "R2")
            for e in events
        ]
        assert applied[0].values == {"userId": "U1", "forum": "F2"}
        # Injecting the same insert again fails: the transaction aborts,
        # and the call raises rather than report an earlier call's list.
        with pytest.raises(TransactionError):
            trod.replayer.apply_writes(dev, events)
        assert len(dev.table_rows("forum_sub")) == 1
        assert trod.replayer.apply_writes(dev, []) == []

    def test_dependency_filter_restores_only_used_tables(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        result = trod.replayer.replay_request("R1", dependency_filter=True)
        # Only forum_sub was used; courses tables are absent from dev.
        assert result.dev_db.catalog.has_table("forum_sub")
        assert not result.dev_db.catalog.has_table("courses")

    def test_full_restore_materializes_all_tables(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        result = trod.replayer.replay_request("R1", dependency_filter=False)
        assert result.dev_db.catalog.has_table("courses")

    def test_replay_steps_record_txn_mapping(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        result = trod.replayer.replay_request("R1")
        assert [s.label for s in result.steps] == ["isSubscribed", "DB.insert"]
        assert all(s.replayed_txn is not None for s in result.steps)


def kinds_of(statements: list[str]) -> dict[str, int]:
    """What each provenance statement of a replay asks, counted."""
    kinds = {}
    for sql in statements:
        if "FROM Requests" in sql:
            kind = "request"
        elif "FROM Executions WHERE ReqId" in sql:
            kind = "transactions"
        elif "FROM Executions WHERE TxnId IN" in sql:
            kind = "writers"
        else:
            kind = sql
        kinds[kind] = kinds.get(kind, 0) + 1
    return kinds


class TestReplayCost:
    """What a replay asks of the provenance database is set by the
    request, not by how much history was captured around it."""

    def test_statements_per_replay_do_not_grow_with_history(
        self, ecommerce_env, monkeypatch
    ):
        database, runtime, trod = ecommerce_env
        for table, column in (
            ("carts", "cartId"), ("cart_items", "cartId"), ("inventory", "sku")
        ):
            database.execute(f"CREATE INDEX ix_{table} ON {table} ({column})")
        generator = CheckoutWorkload(n_users=10, n_skus=5, seed=2)
        generator.seed_database(runtime)
        placed = []

        def capture(orders):
            for request in generator.requests(orders):
                result = runtime.execute_request(request)
                if request.handler == "checkout":
                    placed.append(result.req_id)

        prov = trod.provenance
        statements = []
        query = prov.query
        monkeypatch.setattr(
            prov,
            "query",
            lambda sql, params=(): statements.append(sql) or query(sql, params),
        )
        #: The event table of each positional read off an index.
        reads = []
        event_rows = prov._event_rows
        monkeypatch.setattr(
            prov,
            "_event_rows",
            lambda table, *args, **kw: reads.append(table) or event_rows(table, *args, **kw),
        )

        def replay_cost(req_id):
            del statements[:], reads[:]
            result = trod.replayer.replay_request(req_id)
            assert result.fidelity, result.divergences
            assert len(result.steps) == 4
            return len(statements), len(reads)

        capture(50)
        cold = replay_cost(placed[5])  # nothing kept yet: every table in full
        assert not any("COUNT(" in sql or "JOIN" in sql for sql in statements)
        # Three statements, whatever the number of transactions: the
        # request, its transactions, and the window writers' requests at
        # once. The rest is read off the event tables' indexes: each
        # transaction's events by ``TxnId`` (every event table), and one
        # reconstruction and one window read by ``Csn`` per table the
        # request used (five).
        assert kinds_of(statements) == {"request": 1, "transactions": 1, "writers": 1}
        used = {table for table in reads if reads.count(table) == 3}
        assert len(used) == 5 and len(set(reads)) == 7
        assert cold == (3, 7 + 5 + 5)
        for sql in statements:
            if "TxnId IN" in sql:  # an index probe, not a filtered scan
                assert "probe=" in prov.db.explain(sql)[-1], sql
        # A later request starts from the states that replay left (one delta
        # read per table); the same request again finds its own, and reads
        # no event to restore them.
        assert replay_cost(placed[-1]) == cold
        restores = dict(prov.checkpoint_stats)
        warm = replay_cost(placed[5])
        assert warm == (3, cold[1] - 5)
        assert prov.checkpoint_stats == {
            **restores,
            "checkpoint_restores": restores["checkpoint_restores"] + 5,
        }
        capture(350)
        assert len(placed) == 400
        assert replay_cost(placed[5]) == warm
        assert replay_cost(placed[-1]) == cold
        prov.invalidate_checkpoints()
        assert replay_cost(placed[5]) == cold


class TestDivergenceDetection:
    def test_changed_handler_detected_as_divergence(self, racy_moodle):
        """If the code changed since the trace, replay must say so rather
        than silently produce different results."""
        _db, runtime, trod = racy_moodle

        def patched(ctx, user_id, forum):
            with ctx.txn(label="isSubscribed") as t:
                t.execute(
                    "SELECT * FROM forum_sub WHERE userId = ? AND forum = ?",
                    (user_id, forum),
                )
            return "changed-output"

        runtime.registry.register("subscribeUser", patched)
        result = trod.replayer.replay_request("R1")
        assert not result.fidelity
        assert any("output mismatch" in d for d in result.divergences)
        assert any("transaction count" in d for d in result.divergences)

    def test_strict_mode_raises(self, racy_moodle):
        _db, runtime, trod = racy_moodle
        runtime.registry.register("subscribeUser", lambda ctx, u, f: "nope")
        with pytest.raises(ReplayDivergenceError):
            trod.replayer.replay_request("R1", strict=True)

    def test_write_set_divergence_detected(self, racy_moodle):
        _db, runtime, trod = racy_moodle

        def sneaky(ctx, user_id, forum):
            with ctx.txn(label="isSubscribed") as t:
                t.execute(
                    "SELECT * FROM forum_sub WHERE userId = ? AND forum = ?",
                    (user_id, forum),
                )
            with ctx.txn(label="DB.insert") as t:
                t.execute(
                    "INSERT INTO forum_sub (userId, forum) VALUES (?, ?)",
                    ("EVIL", forum),
                )
            return True

        runtime.registry.register("subscribeUser", sneaky)
        result = trod.replayer.replay_request("R1")
        assert any("write set" in d for d in result.divergences)


class TestSnapshotIsolationReenactment:
    def test_si_transactions_replay_against_their_snapshot(self):
        """Ablation A5: reenactment under SNAPSHOT isolation uses the
        recorded snapshot CSN, not the serial prefix."""
        from repro.apps import build_moodle_app
        from repro.core import Trod
        from repro.runtime import Runtime

        database = Database()
        runtime = Runtime(database, isolation=IsolationLevel.SNAPSHOT)
        names = build_moodle_app(database, runtime)
        trod = Trod(database, event_names=names).attach(runtime)
        runtime.run_concurrent(
            ForumWorkload.racy_pair(), schedule=ForumWorkload.RACY_SCHEDULE
        )
        result = trod.replayer.replay_request("R1")
        assert result.fidelity, result.divergences
        rows = result.dev_db.table_rows("forum_sub")
        assert len(rows) == 2
