"""Bug replay tests (§3.5): faithfulness, injection, breakpoints."""

import gc
from collections import Counter
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


def members_env():
    """A traced app whose ``members.name`` is UNIQUE: ``join`` reads the
    team's members, then inserts in a second transaction; ``joinSoft``
    does both in one and answers "exists" when the insert is refused."""
    from repro.core import Trod
    from repro.errors import IntegrityError
    from repro.runtime import Runtime

    database = Database()
    runtime = Runtime(database)
    database.execute("CREATE TABLE members (name TEXT UNIQUE, team TEXT)")

    def join(ctx, name, team):
        with ctx.txn(label="teamSize") as t:
            size = t.execute(
                "SELECT COUNT(*) FROM members WHERE team = ?", (team,)
            ).scalar()
        with ctx.txn(label="addMember") as t:
            t.execute("INSERT INTO members (name, team) VALUES (?, ?)", (name, team))
        return size

    def join_soft(ctx, name, team):
        with ctx.txn(label="addMember") as t:
            t.execute("SELECT name FROM members WHERE team = ?", (team,))
            try:
                t.execute(
                    "INSERT INTO members (name, team) VALUES (?, ?)", (name, team)
                )
            except IntegrityError:
                return "exists"
        return "added"

    runtime.register("join", join)
    runtime.register("joinSoft", join_soft)
    trod = Trod(database).attach(runtime)
    return database, runtime, trod


class TestFootprintRestore:
    """A replay restores the rows its request read, updated or deleted,
    as of its first snapshot; whole tables only where that cannot do."""

    def test_dev_db_holds_the_requests_footprint(self, moodle_env):
        database, runtime, trod = moodle_env
        for user in ("U1", "U2", "U3", "U4"):
            runtime.submit("subscribeUser", user, "F1")
        again = runtime.submit("subscribeUser", "U3", "F1").req_id
        result = trod.replayer.replay_request(again)
        assert result.fidelity, result.divergences
        # Its one read found U3's row: that row is the whole footprint.
        assert result.dev_db.table_rows("forum_sub") == [
            {"userId": "U3", "forum": "F1"}
        ]
        whole = trod.replayer.replay_request(again, dependency_filter=False)
        assert whole.fidelity and len(whole.dev_db.table_rows("forum_sub")) == 4

    def test_a_replayed_insert_takes_the_id_its_original_took(self, racy_moodle):
        database, _runtime, trod = racy_moodle
        trod.flush()
        prov = trod.provenance
        history = prov._row_history(prov.event_table_of("forum_sub"))
        r1 = prov.txns_of_request("R1")
        # By R1's snapshot no subscription existed; both exist by now.
        assert history.highest_at(r1[0]["SnapshotCsn"]) == 0
        assert history.highest_at(database.last_csn) == 2
        result = trod.replayer.replay_request("R1")
        assert result.fidelity, result.divergences
        # R2's insert is injected under its own id, and R1's takes the next.
        assert [w.row_id for step in result.steps for w in step.injected] == [1]
        assert result.dev_db.snapshot_rows("forum_sub") == \
            database.snapshot_rows("forum_sub")

    def test_a_history_event_below_the_newest_csn_rebuilds_the_history(
        self, racy_moodle
    ):
        """Events ingested since are read off the ``Csn`` index above the
        history's newest ``Csn``; one filed below it (a late snapshot) is
        not there, so the history is built again, as from scratch."""
        _db, _runtime, trod = racy_moodle
        trod.flush()
        prov = trod.provenance
        event_table = prov.event_table_of("forum_sub")
        before = prov._row_history(event_table)
        assert before.newest > 0
        prov.capture_snapshot("forum_sub", [(9, ("U9", "F9"))], 0)
        after = prov._row_history(event_table)
        assert after is not before and after.highest_at(0) == 9
        assert prov.reconstruct_rows("forum_sub", 0, [9]) == [(9, ("U9", "F9"))]
        prov._row_histories.clear()
        built = prov._row_history(event_table)
        for name in type(built).__slots__:
            assert getattr(after, name) == getattr(built, name), name

    @pytest.mark.parametrize("change", ["editNotes", "dropNotes"])
    def test_a_row_the_request_inserted_changed_by_another(self, notes_env, change):
        """The request inserts a row, another request updates or deletes
        it, then the request reads the table again: the replayed insert
        takes the original id, so the injected write finds its row."""
        database, runtime, trod = notes_env()
        runtime.submit("postNote", "al", "hello")
        results = runtime.run_concurrent(
            [Request("postNote", ("bo", "draft")), Request(change, ("bo",))],
            schedule=[0, 1, 0],
        )
        original = results[0]
        assert original.output == ([("final",)] if change == "editNotes" else [])
        result = trod.replayer.replay_request(original.req_id)
        assert result.fidelity, result.divergences
        assert result.output == original.output
        assert result.dev_db.snapshot_rows("notes") == [
            (row_id, values)
            for row_id, values in database.snapshot_rows("notes")
            if values[0] == "bo"
        ]

    def test_an_injected_update_installs_and_a_delete_only_reports(
        self, moodle_env
    ):
        database, runtime, trod = moodle_env
        runtime.submit("createCourse", "C1", "Intro", [])
        runtime.submit("subscribeUser", "U9", "F9")
        before = database.last_csn
        runtime.submit("deleteCourse", "C1")
        runtime.submit("unsubscribeUser", "U9", "F9")
        trod.flush()
        events = trod.provenance.writes_between(before, database.last_csn)
        assert [e["Type"] for e in events] == ["Update", "Delete"]
        dev = Database()
        for table in ("courses", "forum_sub"):
            dev.create_table(trod.provenance.app_schema(table))
        # Only a table restored as a footprint may lack a row.
        with pytest.raises(TransactionError, match="missing row"):
            trod.replayer.apply_writes(dev, events)
        applied = trod.replayer.apply_writes(
            dev, events, footprint_tables={"courses", "forum_sub"}
        )
        assert [(w.table, w.kind) for w in applied] == [
            ("courses", "Update"), ("forum_sub", "Delete")
        ]
        assert dev.snapshot_rows("courses") == [
            (events[0]["RowId"], ("C1", "Intro", "deleted"))
        ]
        assert dev.snapshot_rows("forum_sub") == []

    def test_a_unique_table_is_restored_whole(self):
        """The insert's uniqueness check met a row no event of the request
        records (another team's member): the table comes back whole."""
        database, runtime, trod = members_env()
        runtime.submit("join", "ann", "red")
        soft = runtime.submit("joinSoft", "ann", "blue")
        assert soft.output == "exists"
        trod.flush()
        events = trod.provenance.events_of_txn(soft.txn_names)
        assert {e["RowId"] for e in events[soft.txn_names[0]]["members"]} == {None}
        result = trod.replayer.replay_request(soft.req_id)
        assert result.fidelity, result.divergences
        assert result.output == "exists"
        assert result.dev_db.table_rows("members") == [{"name": "ann", "team": "red"}]

    def test_a_request_with_an_aborted_transaction_replays_it(self):
        """A committed read, then an insert refused as a duplicate: both
        transactions replay, the second aborting as it did."""
        database, runtime, trod = members_env()
        runtime.submit("join", "ann", "red")
        failed = runtime.submit("join", "ann", "red")
        assert failed.error.startswith("IntegrityError")
        trod.flush()
        txns = trod.provenance.txns_of_request(failed.req_id, committed_only=False)
        assert [t["Status"] for t in txns] == ["Committed", "Aborted"]
        result = trod.replayer.replay_request(failed.req_id)
        assert result.fidelity, result.divergences
        assert result.error == failed.error
        assert [s.label for s in result.steps] == ["teamSize", "addMember"]
        assert result.dev_db.table_rows("members") == [{"name": "ann", "team": "red"}]


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
        #: (event table, rows fetched) of each positional read off an index.
        reads = []
        event_rows = prov._event_rows

        def read(table, *args, **kw):
            rows = event_rows(table, *args, **kw)
            reads.append((table, len(rows)))
            return rows

        monkeypatch.setattr(prov, "_event_rows", read)
        #: Event rows each footprint restore fetched.
        restored = []
        restore_footprint = prov.restore_footprint

        def restore(*args, **kw):
            start = len(reads)
            counts = restore_footprint(*args, **kw)
            restored.append(sum(n for _table, n in reads[start:]))
            return counts

        monkeypatch.setattr(prov, "restore_footprint", restore)

        def replay_cost(req_id):
            del statements[:], reads[:]
            result = trod.replayer.replay_request(req_id)
            assert result.fidelity, result.divergences
            assert len(result.steps) == 4
            return len(statements), Counter(table for table, _n in reads), restored[-1]

        capture(50)
        cold = replay_cost(placed[5])
        assert not any("COUNT(" in sql or "JOIN" in sql for sql in statements)
        # Three statements, whatever the number of transactions: the
        # request, its transactions, and the window writers' requests at
        # once. The rest is read off the event tables' indexes: each
        # transaction's events by ``TxnId`` (every event table), one
        # window read by ``Csn`` per table the request used (five), and
        # one footprint read per table whose rows it read or changed
        # (three: orders and payments it only inserted into).
        assert kinds_of(statements) == {"request": 1, "transactions": 1, "writers": 1}
        assert cold == (3, {
            "CartEvents": 3, "CartItemEvents": 3, "InventoryEvents": 3,
            "OrderEvents": 2, "PaymentEvents": 2, "UserEvents": 1,
            "StagingEvents": 1,
        }, 3)
        for sql in statements:
            if "TxnId IN" in sql:  # an index probe, not a filtered scan
                assert "probe=" in prov.db.explain(sql)[-1], sql
        # A footprint restore fetches one event per row it restores (the
        # cart, its item and that item's inventory row), keeps no state,
        # and costs the same again.
        assert replay_cost(placed[5]) == cold
        assert prov.checkpoint_stats == {"checkpoint_restores": 0, "full_restores": 0}
        later = replay_cost(placed[-1])
        assert later[:2] == cold[:2]
        # Seven times the history: the same statements, the same index
        # reads, and the same event rows fetched for the same request.
        capture(350)
        assert len(placed) == 400
        assert replay_cost(placed[5]) == cold
        assert replay_cost(placed[-1])[:2] == cold[:2]
        assert prov.checkpoint_stats == {"checkpoint_restores": 0, "full_restores": 0}


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
