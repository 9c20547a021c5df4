"""Provenance corner cases: name collisions, kwargs, self-containment."""

import pytest

from repro.core import Trod
from repro.db import Database
from repro.runtime import Runtime


class TestColumnCollisions:
    """App tables whose columns collide with event-table metadata."""

    @pytest.fixture
    def colliding_env(self):
        db = Database()
        # 'Type' and 'Query' collide with event metadata columns.
        db.execute(
            "CREATE TABLE audit (Type TEXT, Query TEXT, detail TEXT)"
        )
        runtime = Runtime(db)

        def log_audit(ctx, kind, query, detail):
            with ctx.txn(label="log") as t:
                t.execute(
                    "INSERT INTO audit (Type, Query, detail) VALUES (?, ?, ?)",
                    (kind, query, detail),
                )

        runtime.register("logAudit", log_audit)
        trod = Trod(db).attach(runtime)
        return db, runtime, trod

    def test_collision_columns_renamed_in_event_table(self, colliding_env):
        _db, runtime, trod = colliding_env
        runtime.submit("logAudit", "login", "who?", "ok")
        rows = trod.query(
            "SELECT Type, Type_, Query_, detail FROM AuditEvents"
            " WHERE Type = 'Insert'"
        ).as_dicts()
        assert rows == [
            {"Type": "Insert", "Type_": "login", "Query_": "who?", "detail": "ok"}
        ]

    def test_collision_replay_roundtrip(self, colliding_env):
        _db, runtime, trod = colliding_env
        runtime.submit("logAudit", "login", "who?", "ok")
        result = trod.replayer.replay_request("R1")
        assert result.fidelity, result.divergences
        assert result.dev_db.table_rows("audit") == [
            {"Type": "login", "Query": "who?", "detail": "ok"}
        ]


class TestKwargsAndAuth:
    def test_kwargs_traced_and_reexecuted(self, moodle_env):
        _db, runtime, trod = moodle_env

        def flexible(ctx, user, forum="F-default"):
            with ctx.txn(label="ins") as t:
                t.execute(
                    "INSERT INTO forum_sub (userId, forum) VALUES (?, ?)",
                    (user, forum),
                )
            return forum

        runtime.register("flexible", flexible)
        runtime.submit("flexible", "U1", forum="F9")
        trod.flush()
        handler, args, kwargs, _auth = trod.provenance.request_args("R1")
        assert args == ("U1",)
        assert kwargs == {"forum": "F9"}
        # Retroactive re-execution uses the kwargs.
        retro = trod.retroactive.run(["R1"])
        assert retro.outcomes[0].final_state["forum_sub"] == [("U1", "F9")]

    def test_auth_user_lands_in_executions(self, profiles_env):
        _db, runtime, trod = profiles_env
        runtime.submit("createProfile", "alice", "a@x", auth_user="alice")
        users = trod.query(
            "SELECT DISTINCT AuthUser FROM Executions"
            " WHERE Status = 'Committed'"
        ).column("AuthUser")
        assert users == ["alice"]


class TestSelfContainment:
    def test_replay_survives_production_vacuum(self, racy_moodle):
        """§3.5's model: the dev environment needs only provenance. Even
        after the production store garbage-collects all history, replay
        still reconstructs the snapshot and reproduces the bug."""
        from repro.errors import TimeTravelError

        db, _runtime, trod = racy_moodle
        trod.flush()
        db.vacuum(keep_after_csn=db.last_csn)
        # Production time travel to the pre-bug state is now impossible...
        with pytest.raises(TimeTravelError):
            db.execute("SELECT * FROM forum_sub AS OF 0")
        # ...but replay never needed it: provenance is self-contained.
        result = trod.replayer.replay_request("R1")
        assert result.fidelity, result.divergences
        assert len(result.dev_db.table_rows("forum_sub")) == 2

    def test_retroactive_survives_production_vacuum(self, racy_moodle):
        from repro.apps.moodle import subscribe_user_fixed

        db, _runtime, trod = racy_moodle
        trod.flush()
        db.vacuum(keep_after_csn=db.last_csn)
        retro = trod.retroactive.run(
            ["R1", "R2"], patches={"subscribeUser": subscribe_user_fixed}
        )
        assert retro.all_ok

    def test_provenance_restore_matches_version_store(self, racy_moodle):
        """Two independent reconstruction paths must agree: the version
        store's history and the provenance roll-forward."""
        db, _runtime, trod = racy_moodle
        trod.flush()
        for csn in range(trod.base_csn, db.last_csn + 1):
            via_store = {
                rid: values for rid, values in db.store("forum_sub").scan(csn)
            }
            via_prov = dict(trod.provenance.reconstruct_rows("forum_sub", csn))
            assert via_store == via_prov, f"divergence at csn {csn}"


class TestNestedWorkflows:
    def test_three_level_rpc_edges(self, moodle_env):
        _db, runtime, trod = moodle_env

        def top(ctx):
            return ctx.call("middle")

        def middle(ctx):
            return ctx.call("leaf")

        def leaf(ctx):
            with ctx.txn(label="leafWork") as t:
                t.execute(
                    "INSERT INTO forum_sub (userId, forum) VALUES ('U', 'F')"
                )
            return "done"

        runtime.register("top", top)
        runtime.register("middle", middle)
        runtime.register("leaf", leaf)
        result = runtime.submit("top")
        assert result.output == "done"
        edges = trod.debugger.workflow(result.req_id)
        assert [(e["Caller"], e["Callee"]) for e in edges] == [
            ("top", "middle"), ("middle", "leaf"),
        ]
        # The leaf's transaction is attributed to the leaf handler but
        # the request id is the root's.
        rows = trod.query(
            "SELECT HandlerName, ReqId FROM Executions"
            " WHERE Status = 'Committed' AND Metadata = 'func:leafWork'"
        ).rows
        assert rows == [("leaf", result.req_id)]

    def test_nested_workflow_replays(self, moodle_env):
        _db, runtime, trod = moodle_env

        def top(ctx, n):
            total = 0
            for i in range(n):
                total += ctx.call("worker", i)
            return total

        def worker(ctx, i):
            with ctx.txn(label=f"w{i}") as t:
                t.execute(
                    "INSERT INTO forum_sub (userId, forum) VALUES (?, 'W')",
                    (f"U{i}",),
                )
            return i

        runtime.register("top", top)
        runtime.register("worker", worker)
        runtime.submit("top", 3)
        result = trod.replayer.replay_request("R1")
        assert result.fidelity, result.divergences
        assert result.output == 3
        assert len(result.dev_db.table_rows("forum_sub")) == 3


class TestAbortedTransactions:
    def test_aborted_txns_interleave_correctly_in_executions(self, moodle_env):
        _db, runtime, trod = moodle_env

        def flaky(ctx, should_fail):
            with ctx.txn(label="attempt") as t:
                t.execute(
                    "INSERT INTO forum_sub (userId, forum) VALUES ('U', 'F')"
                )
                if should_fail:
                    raise ValueError("rollback!")
            return True

        runtime.register("flaky", flaky)
        runtime.submit("flaky", False)
        runtime.submit("flaky", True)
        runtime.submit("flaky", False)
        statuses = trod.query(
            "SELECT Status FROM Executions ORDER BY TxnNum"
        ).column("Status")
        assert statuses == ["Committed", "Aborted", "Committed"]
        # Aborted work contributed no write events.
        inserts = trod.query(
            "SELECT COUNT(*) FROM ForumSubEvents WHERE Type = 'Insert'"
        ).scalar() if False else trod.query(
            "SELECT COUNT(*) FROM ForumEvents WHERE Type = 'Insert'"
        ).scalar()
        assert inserts == 2


class TestFailedIngest:
    """A batch that fails to ingest must leave no trace: tables, ``Seq``
    and the kept states advance only once its transaction commits."""

    @staticmethod
    def _store():
        from repro.core.provenance import ProvenanceStore
        from repro.db.schema import Column, TableSchema
        from repro.db.types import ColumnType

        prov = ProvenanceStore()
        prov.register_app_table(
            TableSchema(
                "kv", [Column("id", ColumnType.INTEGER), Column("v", ColumnType.TEXT)]
            )
        )
        return prov

    @staticmethod
    def _inserts(*inserts):
        """A drained buffer holding one one-row Insert batch per
        ``(row_id, values, csn)``."""
        from repro.core.buffer import TraceBuffer

        buffer = TraceBuffer()
        for row_id, values, csn in inserts:
            buffer.add_batch(
                "kv", f"TXN{csn}", csn, "Insert", "INSERT INTO kv ...", csn,
                [(row_id, values)],
            )
        return buffer.drain()

    def test_failed_ingest_leaves_kept_states_and_tables_untouched(self):
        from repro.errors import TypeCoercionError

        prov = self._store()
        prov.ingest(self._inserts((1, (1, "kept"), 1)))
        # Kept at csn 0 and 1: the failing batch writes at csn 0 and 3, so
        # had any of it counted, both states would be gone.
        assert prov.reconstruct_rows("kv", 1) == [(1, (1, "kept"))]
        assert prov.reconstruct_rows("kv", 0) == []

        def observed():
            return (
                prov._next_seq,
                prov.checkpoint_csns("kv"),
                {key: dict(state) for key, state in prov._states.items()},
                prov._state_rows,
                prov.event_count,
            )

        before = observed()
        assert before[1] == [0, 1]
        with pytest.raises(TypeCoercionError, match=r"KvEvents\.id"):
            prov.ingest(
                self._inserts((77, (77, "good"), 0), (78, ("not-an-int", "bad"), 3))
            )
        assert observed() == before
        # The rolled-back rows reach no reconstruction, warm or cold.
        assert prov.reconstruct_rows("kv", 10) == [(1, (1, "kept"))]
        prov.invalidate_checkpoints()
        assert prov.reconstruct_rows("kv", 10) == [(1, (1, "kept"))]
        # And the store still ingests: Seq continues where it stopped, and
        # a write that does commit drops the states at or after its csn.
        prov.ingest(self._inserts((2, (2, "next"), 1)))
        seqs = prov.query("SELECT Seq FROM KvEvents ORDER BY Seq").column("Seq")
        assert seqs == [1, 2]
        assert prov.checkpoint_csns("kv") == []

    def test_unknown_column_in_event_fails_the_batch_by_name(self):
        """Rows are positional, so a column the table does not have shows
        as a row of the wrong arity; the error names the batch and row."""
        from repro.core.buffer import TraceBuffer
        from repro.errors import ProvenanceError

        prov = self._store()
        buffer = TraceBuffer()
        buffer.add_batch(
            "kv", "TXN1", 1, "Insert", "INSERT INTO kv ...", 1,
            [(1, (1, "ok")), (2, (2, "x", "nope"))],
        )
        with pytest.raises(
            ProvenanceError, match=r"Insert event on 'kv' row 2 carries 3 values for 2"
        ):
            prov.ingest(buffer.drain())
        assert prov._next_seq == 1 and prov.event_count == 1  # TraceSchemas row


class TestRestoreSharesTheKeptState:
    """A dev database adopts the kept state a restore reconstructs: a
    row costs a version object only once the dev database writes it."""

    def test_a_row_gets_versions_only_at_its_first_write(self, moodle_env, monkeypatch):
        from repro.db import storage

        database, runtime, trod = moodle_env
        for user in ("U7", "U8"):
            runtime.submit("subscribeUser", user, "F2")
        trod.flush()
        made = []
        original = storage.RowVersion

        def counted(*args, **kwargs):
            version = original(*args, **kwargs)
            made.append(version)
            return version

        monkeypatch.setattr(storage, "RowVersion", counted)
        dev = Database()
        counts = trod.provenance.restore_into(dev, database.last_csn)
        assert counts["forum_sub"] == 2
        assert made == []
        dev.execute("UPDATE forum_sub SET forum = 'F9' WHERE userId = 'U7'")
        restored, new = made
        assert (restored.begin, restored.end) == (0, new.begin)
        assert restored.values == ("U7", "F2") and new.values == ("U7", "F9")
        dev.execute("UPDATE forum_sub SET forum = 'F8' WHERE userId = 'U7'")
        assert len(made) == 3
        # What the dev database wrote never reached the kept state.
        assert trod.provenance.reconstruct_rows("forum_sub", database.last_csn) == [
            (1, ("U7", "F2")),
            (2, ("U8", "F2")),
        ]


class TestSegmentAppDatabase:
    """A traced app database on segment storage logs an INSERT as one
    ``"append"`` change holding all its rows; provenance records each row
    as its own Insert event, with the query text of its statement."""

    def test_traced_inserts_flush_and_reconstruct(self):
        db = Database(storage="segment")
        db.execute("CREATE TABLE t (id INTEGER, k INTEGER, v TEXT)")
        db.insert_rows("t", [(0, 0, "seed")])
        trod = Trod(db).attach()
        first = "INSERT INTO t VALUES (1, 2, 'a'), (2, 3, 'b')"
        second = "INSERT INTO t VALUES (3, 2, 'c')"
        txn = db.begin()
        db.execute(first, txn=txn)
        db.execute(second, txn=txn)
        txn.commit()
        db.execute("INSERT INTO t VALUES (4, 5, 'd')")
        trod.flush()
        events = trod.query(
            "SELECT Type, Query, Csn, RowId, id FROM TEvents"
            " WHERE Type = 'Insert' ORDER BY Seq"
        ).rows
        csn = db.last_csn
        assert events == [
            ("Insert", first, csn - 1, 2, 1),
            ("Insert", first, csn - 1, 3, 2),
            ("Insert", second, csn - 1, 4, 3),
            ("Insert", "INSERT INTO t VALUES (4, 5, 'd')", csn, 5, 4),
        ]
        prov = trod.provenance
        assert prov.reconstruct_rows("t", csn) == db.snapshot_rows("t")
        assert [v for _rid, v in prov.reconstruct_rows("t", csn - 1)] == [
            (0, 0, "seed"), (1, 2, "a"), (2, 3, "b"), (3, 2, "c")
        ]
