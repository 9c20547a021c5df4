"""Runtime tests: request execution, contexts, RPC workflows, concurrency."""

import pytest

from repro.db import Database, IsolationLevel
from repro.errors import HandlerError, UnknownHandlerError
from repro.runtime import Request, Runtime


@pytest.fixture
def env():
    db = Database()
    db.execute("CREATE TABLE kv (k TEXT NOT NULL, v INTEGER)")
    runtime = Runtime(db)
    return db, runtime


class TestSubmit:
    def test_submit_returns_output(self, env):
        db, rt = env

        def put(ctx, k, v):
            with ctx.txn(label="put") as t:
                t.execute("INSERT INTO kv VALUES (?, ?)", (k, v))
            return k

        rt.register("put", put)
        result = rt.submit("put", "a", 1)
        assert result.ok and result.output == "a"
        assert result.req_id == "R1"
        assert db.execute("SELECT v FROM kv").scalar() == 1

    def test_req_ids_assigned_sequentially(self, env):
        _db, rt = env
        rt.register("noop", lambda ctx: None)
        ids = [rt.submit("noop").req_id for _ in range(3)]
        assert ids == ["R1", "R2", "R3"]

    def test_explicit_req_id_respected(self, env):
        _db, rt = env
        rt.register("noop", lambda ctx: None)
        assert rt.submit("noop", req_id="custom-9").req_id == "custom-9"

    def test_handler_exception_captured(self, env):
        _db, rt = env

        def bad(ctx):
            raise RuntimeError("oops")

        rt.register("bad", bad)
        result = rt.submit("bad")
        assert not result.ok
        assert "oops" in result.error
        assert isinstance(result.exception, RuntimeError)

    def test_unknown_handler_reported_in_result(self, env):
        _db, rt = env
        result = rt.submit("ghost")
        assert not result.ok
        assert "ghost" in result.error

    def test_failed_txn_in_handler_aborts_cleanly(self, env):
        db, rt = env

        def partial(ctx):
            with ctx.txn() as t:
                t.execute("INSERT INTO kv VALUES ('x', 1)")
                raise ValueError("mid-txn failure")

        rt.register("partial", partial)
        result = rt.submit("partial")
        assert not result.ok
        assert db.execute("SELECT COUNT(*) FROM kv").scalar() == 0

    def test_txn_names_recorded(self, env):
        _db, rt = env

        def two_txns(ctx):
            with ctx.txn(label="a") as t:
                t.execute("SELECT * FROM kv")
            with ctx.txn(label="b") as t:
                t.execute("SELECT * FROM kv")

        rt.register("two", two_txns)
        result = rt.submit("two")
        assert len(result.txn_names) == 2

    def test_ctx_sql_shortcut(self, env):
        db, rt = env

        def quick(ctx):
            ctx.sql("INSERT INTO kv VALUES ('q', 7)")
            return ctx.sql("SELECT v FROM kv WHERE k = 'q'").scalar()

        rt.register("quick", quick)
        assert rt.submit("quick").output == 7


class TestDeterminism:
    def test_rng_is_deterministic_per_req_id(self, env):
        _db, rt = env

        def roll(ctx):
            return ctx.rng.randrange(1_000_000)

        rt.register("roll", roll)
        a = rt.submit("roll", req_id="RX").output
        b = rt.submit("roll", req_id="RX").output
        c = rt.submit("roll", req_id="RY").output
        assert a == b
        assert a != c

    def test_rng_depends_on_runtime_seed(self, env):
        db, _rt = env

        def roll(ctx):
            return ctx.rng.randrange(1_000_000)

        rt1 = Runtime(db, seed=1)
        rt2 = Runtime(db, seed=2)
        rt1.register("roll", roll)
        rt2.register("roll", roll)
        assert rt1.submit("roll", req_id="R").output != rt2.submit(
            "roll", req_id="R"
        ).output

    def test_now_is_logical(self, env):
        _db, rt = env

        def when(ctx):
            return ctx.now()

        rt.register("when", when)
        first = rt.submit("when").output
        second = rt.submit("when").output
        assert second > first  # ticks advance with requests, not wall time


class TestRpcWorkflows:
    def test_call_propagates_req_id(self, env):
        _db, rt = env
        seen = {}

        def parent(ctx):
            return ctx.call("child")

        def child(ctx):
            seen["req_id"] = ctx.req_id
            seen["depth"] = ctx.depth
            return "from-child"

        rt.register("parent", parent)
        rt.register("child", child)
        result = rt.submit("parent", req_id="R42")
        assert result.output == "from-child"
        assert seen == {"req_id": "R42", "depth": 1}

    def test_nested_rpc_chain(self, env):
        _db, rt = env
        rt.register("a", lambda ctx: ctx.call("b") + 1)
        rt.register("b", lambda ctx: ctx.call("c") + 1)
        rt.register("c", lambda ctx: 0)
        assert rt.submit("a").output == 2

    def test_child_failure_wrapped_as_handler_error(self, env):
        _db, rt = env

        def parent(ctx):
            return ctx.call("broken")

        def broken(ctx):
            raise ValueError("inner")

        rt.register("parent", parent)
        rt.register("broken", broken)
        result = rt.submit("parent")
        assert not result.ok
        assert isinstance(result.exception, HandlerError)
        assert isinstance(result.exception.__cause__, ValueError)

    def test_rpc_to_unknown_handler(self, env):
        _db, rt = env
        rt.register("parent", lambda ctx: ctx.call("ghost"))
        result = rt.submit("parent")
        assert not result.ok

    def test_side_effects_recorded(self, env, side_effect_tap):
        _db, rt = env
        tap = side_effect_tap(rt)

        def notify(ctx):
            ctx.emit("email", {"to": "x"})
            ctx.emit("export", [1, 2])

        rt.register("notify", notify)
        rt.submit("notify")
        assert [e.channel for e in tap] == ["email", "export"]


class TestRunConcurrent:
    def register_counter(self, rt):
        def bump(ctx, key):
            with ctx.txn(label="read") as t:
                rows = t.execute("SELECT v FROM kv WHERE k = ?", (key,)).rows
                current = rows[0][0] if rows else 0
            with ctx.txn(label="write") as t:
                if current == 0 and not rows:
                    t.execute("INSERT INTO kv VALUES (?, ?)", (key, 1))
                else:
                    t.execute(
                        "UPDATE kv SET v = ? WHERE k = ?", (current + 1, key)
                    )
            return current + 1

        rt.register("bump", bump)

    def test_serial_schedule_counts_correctly(self, env):
        db, rt = env
        self.register_counter(rt)
        requests = [Request("bump", ("k",)), Request("bump", ("k",))]
        results = rt.run_concurrent(requests, schedule=[0, 0, 1, 1])
        assert [r.output for r in results] == [1, 2]
        assert db.execute("SELECT v FROM kv").scalar() == 2

    def test_racy_schedule_loses_update(self, env):
        db, rt = env
        self.register_counter(rt)
        requests = [Request("bump", ("k",)), Request("bump", ("k",))]
        results = rt.run_concurrent(requests, schedule=[0, 1, 0, 1])
        # Both read 0 -> both "insert 1": the lost-update anatomy. The
        # second insert makes it two rows of v=1.
        assert [r.output for r in results] == [1, 1]
        assert db.execute("SELECT COUNT(*) FROM kv WHERE k = 'k'").scalar() == 2

    def test_req_ids_stable_across_schedules(self, env):
        _db, rt = env
        self.register_counter(rt)
        requests = [Request("bump", ("a",)), Request("bump", ("b",))]
        results = rt.run_concurrent(requests, schedule=[1, 1, 0, 0])
        # Request ids follow list order, not execution order.
        assert [r.req_id for r in results] == ["R1", "R2"]

    def test_realized_txn_order(self, env):
        _db, rt = env
        self.register_counter(rt)
        requests = [Request("bump", ("a",)), Request("bump", ("b",))]
        rt.run_concurrent(requests, schedule=[1, 0, 1, 0])
        assert rt.realized_txn_order() == [1, 0, 1, 0]

    def test_lock_contention_with_statement_granularity(self, env):
        """2PL blocking integrates with the scheduler's lock-wait state."""
        db, rt = env

        def writer(ctx, key):
            with ctx.txn(label="w") as t:
                t.execute("INSERT INTO kv VALUES (?, 1)", (key,))
                t.execute("UPDATE kv SET v = 2 WHERE k = ?", (key,))
            return key

        rt.register("writer", writer)
        requests = [Request("writer", ("a",)), Request("writer", ("b",))]
        results = rt.run_concurrent(
            requests, seed=3, granularity="statement"
        )
        assert all(r.ok for r in results)
        assert db.execute("SELECT COUNT(*) FROM kv").scalar() == 2

    def test_handler_errors_do_not_kill_the_batch(self, env):
        _db, rt = env
        rt.register("ok", lambda ctx: "fine")

        def bad(ctx):
            raise RuntimeError("boom")

        rt.register("bad", bad)
        results = rt.run_concurrent([Request("ok"), Request("bad")])
        assert results[0].ok
        assert not results[1].ok
