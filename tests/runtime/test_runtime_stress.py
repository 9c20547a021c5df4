"""Runtime/scheduler robustness under failures and larger batches."""

import pytest

from repro.db import Database
from repro.errors import LockTimeoutError
from repro.runtime import Request, Runtime


@pytest.fixture
def env():
    db = Database()
    db.execute("CREATE TABLE log (worker TEXT NOT NULL, step INTEGER)")
    runtime = Runtime(db)

    def work(ctx, name, steps, fail_at=None):
        for step in range(steps):
            if fail_at is not None and step == fail_at:
                raise RuntimeError(f"{name} failed at step {step}")
            with ctx.txn(label=f"{name}-{step}") as t:
                t.execute("INSERT INTO log VALUES (?, ?)", (name, step))
        return steps

    runtime.register("work", work)
    return db, runtime


class TestFailureHandling:
    def test_mid_batch_failure_isolated(self, env):
        db, runtime = env
        requests = [
            Request("work", ("a", 2)),
            Request("work", ("b", 3), {"fail_at": 1}),
            Request("work", ("c", 2)),
        ]
        results = runtime.run_concurrent(requests, seed=1)
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        # b committed its step 0 before failing; steps after the failure
        # never ran.
        b_steps = db.execute(
            "SELECT step FROM log WHERE worker = 'b' ORDER BY step"
        ).column("step")
        assert b_steps == [0]

    def test_all_workers_failing(self, env):
        _db, runtime = env
        requests = [
            Request("work", (name, 2), {"fail_at": 0}) for name in "abc"
        ]
        results = runtime.run_concurrent(requests, seed=2)
        assert all(not r.ok for r in results)

    def test_failure_before_first_txn(self, env):
        _db, runtime = env

        def early_fail(ctx):
            raise ValueError("before any txn")

        runtime.register("earlyFail", early_fail)
        results = runtime.run_concurrent(
            [Request("earlyFail"), Request("work", ("a", 1))], seed=0
        )
        assert not results[0].ok
        assert results[1].ok


class TestLargerBatches:
    def test_ten_workers_random_seed(self, env):
        db, runtime = env
        requests = [Request("work", (f"w{i}", 3)) for i in range(10)]
        results = runtime.run_concurrent(requests, seed=11)
        assert all(r.ok for r in results)
        assert db.execute("SELECT COUNT(*) FROM log").scalar() == 30

    def test_txn_order_has_all_steps(self, env):
        _db, runtime = env
        requests = [Request("work", (f"w{i}", 2)) for i in range(4)]
        runtime.run_concurrent(requests, seed=3)
        order = runtime.realized_txn_order()
        assert len(order) == 8
        for i in range(4):
            assert order.count(i) == 2

    def test_explicit_long_schedule(self, env):
        db, runtime = env
        requests = [Request("work", (f"w{i}", 2)) for i in range(3)]
        schedule = [0, 1, 2, 2, 1, 0]
        runtime.run_concurrent(requests, schedule=schedule)
        assert runtime.realized_txn_order() == schedule
        # Commit order in the database matches the schedule exactly.
        workers = db.execute(
            "SELECT worker FROM log"
        ).column("worker")
        assert workers == ["w0", "w1", "w2", "w2", "w1", "w0"]

    def test_mixed_handler_batch(self, env):
        db, runtime = env

        def reader(ctx):
            with ctx.txn(label="read") as t:
                return t.execute("SELECT COUNT(*) FROM log").scalar()

        runtime.register("reader", reader)
        requests = [
            Request("work", ("w", 2)),
            Request("reader"),
            Request("work", ("v", 1)),
            Request("reader"),
        ]
        results = runtime.run_concurrent(requests, seed=9)
        assert all(r.ok for r in results)
        counts = [r.output for r in results if isinstance(r.output, int) and r.handler == "reader"]
        assert all(0 <= c <= 3 for c in counts)


class TestSchedulerReuse:
    def test_sequential_batches_on_one_runtime(self, env):
        db, runtime = env
        for batch in range(3):
            requests = [Request("work", (f"b{batch}-{i}", 1)) for i in range(2)]
            results = runtime.run_concurrent(requests, seed=batch)
            assert all(r.ok for r in results)
        assert db.execute("SELECT COUNT(*) FROM log").scalar() == 6

    def test_submit_after_concurrent_batch(self, env):
        db, runtime = env
        runtime.run_concurrent([Request("work", ("a", 1))], seed=0)
        result = runtime.submit("work", "b", 1)
        assert result.ok
        assert db.execute("SELECT COUNT(*) FROM log").scalar() == 2

    def test_no_scheduler_outlives_its_batch(self, env):
        """A lock wait yields to the scheduler driving its thread; after a
        batch none drives the caller's, so contention raises at once."""
        db, runtime = env
        runtime.run_concurrent([Request("work", ("a", 1))], seed=0)
        holder = db.begin()
        db.execute("INSERT INTO log VALUES ('x', 0)", txn=holder)
        waiter = db.begin()
        with pytest.raises(LockTimeoutError, match="with no waiter"):
            db.execute("INSERT INTO log VALUES ('y', 0)", txn=waiter)
        waiter.abort()
        holder.commit()
        assert db.execute("SELECT COUNT(*) FROM log").scalar() == 2
