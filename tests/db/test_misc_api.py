"""Remaining public-API surface: ResultSet, context helpers, misc."""

import pytest

from repro.db import Database, ResultSet
from repro.db.types import render_value
from repro.runtime import Runtime


class TestResultSetApi:
    def test_bool_semantics(self):
        assert not bool(ResultSet(columns=["a"], rows=[]))
        assert bool(ResultSet(columns=["a"], rows=[(1,)]))
        assert bool(ResultSet(kind="update", rowcount=3))
        assert not bool(ResultSet(kind="update", rowcount=0))

    def test_iteration_and_len(self):
        rs = ResultSet(columns=["a"], rows=[(1,), (2,)])
        assert list(rs) == [(1,), (2,)]
        assert len(rs) == 2

    def test_first_on_empty(self):
        assert ResultSet(columns=["a"], rows=[]).first() is None

    def test_select_rowcount_is_row_count(self):
        rs = ResultSet(columns=["a"], rows=[(1,), (2,)], kind="select")
        assert rs.rowcount == 2

    def test_pretty_without_truncation(self):
        rs = ResultSet(columns=["a", "bb"], rows=[(1, None), ("x", True)])
        text = rs.pretty()
        assert "null" in text and "true" in text
        assert "more rows" not in text


class TestRenderValue:
    def test_float_rendering_is_unambiguous(self):
        assert render_value(1.5) == "1.5"
        assert render_value(2.0) == "2.0"  # distinguishable from int 2

    def test_int_and_str(self):
        assert render_value(7) == "7"
        assert render_value("s") == "s"


class TestContextApi:
    @pytest.fixture
    def env(self):
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        return db, Runtime(db)

    def test_txn_handle_exposes_name(self, env):
        _db, rt = env
        names = []

        def handler(ctx):
            with ctx.txn(label="first") as t:
                names.append(t.name)

        rt.register("h", handler)
        rt.submit("h")
        assert names and names[0].startswith("TXN")

    def test_sql_shortcut_uses_verb_label(self, env):
        db, rt = env
        labels = []

        class Spy:
            events = ("txn_began",)

            def txn_began(self, txn):
                labels.append(txn.info.get("label"))

        db.add_observer(Spy())

        def handler(ctx):
            ctx.sql("INSERT INTO t VALUES (1)")

        rt.register("h", handler)
        rt.submit("h")
        assert labels == ["insert"]

    def test_side_effect_fields(self, env):
        _db, rt = env

        def handler(ctx):
            return ctx.emit("webhook", {"x": 1})

        rt.register("h", handler)
        result = rt.submit("h")
        effect = result.output
        assert effect.channel == "webhook"
        assert effect.req_id == result.req_id
        assert effect.handler == "h"
        assert effect.ts > 0

    def test_isolation_override_per_txn(self, env):
        from repro.db import IsolationLevel

        db, rt = env
        seen = []

        class Spy:
            events = ("txn_began",)

            def txn_began(self, txn):
                seen.append(txn.isolation)

        db.add_observer(Spy())

        def handler(ctx):
            with ctx.txn(isolation=IsolationLevel.SNAPSHOT) as t:
                t.execute("SELECT * FROM t")

        rt.register("h", handler)
        rt.submit("h")
        assert IsolationLevel.SNAPSHOT in seen

    def test_runtime_default_isolation(self):
        from repro.db import IsolationLevel

        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        rt = Runtime(db, isolation=IsolationLevel.SNAPSHOT)
        seen = []

        class Spy:
            events = ("txn_began",)

            def txn_began(self, txn):
                seen.append(txn.isolation)

        db.add_observer(Spy())
        rt.register("h", lambda ctx: ctx.sql("SELECT * FROM t"))
        rt.submit("h")
        assert seen == [IsolationLevel.SNAPSHOT]


class TestInterpositionInternals:
    def test_write_query_text_attached_from_statements(self, moodle_env):
        """WAL changes carry no SQL; the interposition layer matches them
        back to statement traces by (op, table, row id)."""
        _db, runtime, trod = moodle_env
        runtime.submit("subscribeUser", "U1", "F1")
        query = trod.query(
            "SELECT Query FROM ForumEvents WHERE Type = 'Insert'"
        ).scalar()
        assert "INSERT INTO forum_sub" in query

    def test_update_and_delete_query_text(self, moodle_env):
        _db, runtime, trod = moodle_env
        runtime.submit("subscribeUser", "U1", "F1")
        runtime.submit("unsubscribeUser", "U1", "F1")
        query = trod.query(
            "SELECT Query FROM ForumEvents WHERE Type = 'Delete'"
        ).scalar()
        assert "DELETE FROM forum_sub" in query

    def test_events_emitted_counter(self, moodle_env):
        _db, runtime, trod = moodle_env
        before = trod.interposition.events_emitted
        runtime.submit("subscribeUser", "U1", "F1")
        # 2 txn events + 1 read event + 1 insert event + 1 request event.
        assert trod.interposition.events_emitted - before == 5
