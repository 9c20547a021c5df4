"""One observer registry for databases and runtimes (``repro.events``).

An observer declares the events it takes; a name outside the vocabulary,
or one it has no method for, fails at subscription on every engine. An
event reaches only its subscribers, so an observer that takes no
``statement_executed`` (a replica set's ship log) leaves reads streaming
and builds no statement trace, and a shard keeps its LIMIT cap.
"""

import re
from pathlib import Path

import pytest

import repro.db.database as database_module
import repro.db.sharding as sharding_module
from repro.db import Database, ShardedDatabase
from repro.db.replication import ReplicaSet
from repro.events import EVENTS, Observers
from repro.runtime import Runtime

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class Misspelled:
    events = ("txn_commited",)

    def txn_commited(self, txn, csn, changes):
        pass


class Undeclared:
    events = ("txn_committed",)


def seeded(n: int) -> Database:
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER, v TEXT)")
    db.insert_rows("t", [(i, f"v{i}") for i in range(n)])
    return db


ENGINES = {
    "database": Database,
    "runtime": lambda: Runtime(Database()),
    "sharded": lambda: ShardedDatabase(2, shard_keys={"t": "id"}),
}


@pytest.mark.parametrize("make", ENGINES.values(), ids=ENGINES.keys())
@pytest.mark.parametrize("observer", [Misspelled, Undeclared])
def test_a_bad_subscription_raises_and_subscribes_nothing(make, observer):
    engine = make()
    error = ValueError if observer is Misspelled else TypeError
    with pytest.raises(error, match="txn_commit"):
        engine.add_observer(observer())
    registries = (
        [shard.observers for shard in engine.shards]
        if isinstance(engine, ShardedDatabase)
        else [engine.observers]
    )
    assert all(len(registry) == 0 for registry in registries)


def test_an_observer_must_declare_its_events():
    class Silent:
        def txn_committed(self, txn, csn, changes):
            pass

    with pytest.raises(TypeError, match="declares no events"):
        Database().add_observer(Silent())


def test_the_vocabulary_is_what_src_emits():
    """Every ``notify("<event>", ...)`` in ``src/`` names a vocabulary
    event, and every vocabulary event is emitted somewhere."""
    emitted = set()
    for path in SRC.rglob("*.py"):
        emitted |= set(re.findall(r'notify\(\s*"(\w+)"', path.read_text()))
    assert emitted == set(EVENTS)


def test_an_event_reaches_only_its_subscribers():
    calls = []

    class Commits:
        events = ("txn_committed",)

        def txn_began(self, txn):  # not declared: never called
            calls.append("began")

        def txn_committed(self, txn, csn, changes):
            calls.append("committed")

    db = seeded(3)
    db.add_observer(Commits())
    db.execute("UPDATE t SET v = 'x' WHERE id = 1")
    assert calls == ["committed"]
    assert db.observers.wants("txn_committed")
    assert not db.observers.wants("txn_began")


def test_the_hook_is_looked_up_at_each_call():
    """A hook wrapped on the class after subscription is the one that runs
    (how a span profiler instruments an attached tracer)."""

    class Tap:
        events = ("side_effect",)

        def side_effect(self, ctx, effect):
            pass

    seen = []
    registry = Observers()
    registry.add(Tap())
    original = Tap.side_effect
    Tap.side_effect = lambda self, ctx, effect: seen.append(effect)
    try:
        registry.notify("side_effect", None, "email")
    finally:
        Tap.side_effect = original
    assert seen == ["email"]


def test_remove_takes_out_that_observer_not_an_equal_one():
    class Tap(list):
        events = ("txn_committed",)

        def txn_committed(self, txn, csn, changes):
            self.append(csn)

    db = seeded(1)
    first, second = Tap(), Tap()
    db.add_observer(first)
    db.add_observer(second)
    db.remove_observer(second)  # equal to ``first``: both are empty
    db.execute("UPDATE t SET v = 'x' WHERE id = 0")
    assert first == [db.last_csn] and second == []


def test_runtime_observers_take_request_events():
    seen = []

    class Requests:
        events = ("request_started", "request_finished")

        def request_started(self, ctx, request):
            seen.append(("started", request.handler))

        def request_finished(self, ctx, result):
            seen.append(("finished", result.ok))

    runtime = Runtime(Database())
    runtime.register("h", lambda ctx: 1)
    observer = Requests()
    runtime.add_observer(observer)
    runtime.submit("h")
    runtime.remove_observer(observer)
    runtime.submit("h")
    assert seen == [("started", "h"), ("finished", True)]


def shipped(log) -> list[tuple]:
    records = []
    log.subscribe(
        lambda r: records.append(
            (r.kind, r.csn, r.txn_id, [(c.op, c.row_id, c.values) for c in r.changes])
        )
    )
    return records


def test_a_ship_log_only_primary_streams_and_ships_the_same_records():
    runs = []
    for stream in (True, False):
        primary = seeded(500)
        replica_set = ReplicaSet(primary, n_replicas=1, mode="sync")
        records = shipped(replica_set.log)
        primary.execute("INSERT INTO t VALUES (1000, 'new')")
        result = primary.execute("SELECT id, v FROM t", stream=stream)
        assert result.streaming is stream
        first = result.take(10) if stream else result.rows[:10]
        primary.execute("UPDATE t SET v = 'w' WHERE id = 3")
        replica_set.catch_up()
        replica = replica_set.replicas[0].database
        assert replica.last_csn == primary.last_csn
        assert replica.snapshot_rows("t") == primary.snapshot_rows("t")
        runs.append((first, records))
    assert runs[0] == runs[1]
    # The INSERT and the UPDATE; the SELECT commits nothing.
    assert [kind for kind, *_ in runs[0][1]] == ["commit"] * 2


def test_no_statement_executed_subscriber_builds_no_trace(monkeypatch):
    built = []

    class CountedTrace(database_module.StatementTrace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.sql)

    monkeypatch.setattr(database_module, "StatementTrace", CountedTrace)
    db = seeded(20)
    ReplicaSet(db, n_replicas=1, mode="sync")  # ship log: commits and DDL

    def run_statements():
        db.execute("INSERT INTO t VALUES (100, 'a')")
        db.execute("UPDATE t SET v = 'b' WHERE id = 100")
        db.execute("SELECT v FROM t WHERE id = 100").rows
        db.execute(f"SELECT COUNT(*) FROM t AS OF {db.last_csn}").rows
        db.execute("DELETE FROM t WHERE id = 100")

    run_statements()
    assert built == []

    class Statements:
        events = ("statement_executed",)

        def statement_executed(self, txn, trace):
            pass

    db.add_observer(Statements())
    run_statements()
    assert len(built) == 5


def test_a_shard_keeps_its_limit_cap_beside_a_ship_log(monkeypatch):
    drained = []
    drain = sharding_module._drain_rows

    def counting_drain(plan, ctx):
        rows = drain(plan, ctx)
        drained.append(len(rows))
        return rows

    monkeypatch.setattr(sharding_module, "_drain_rows", counting_drain)
    sharded = ShardedDatabase(4, shard_keys={"t": "id"})
    sharded.execute("CREATE TABLE t (id INTEGER, v TEXT)")
    gtxn = sharded.begin()
    for i in range(200):
        sharded.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"), txn=gtxn)
    gtxn.commit()
    sharded.attach_replicas(1, mode="sync")
    assert all(shard.observers for shard in sharded.shards)
    full = sharded.execute("SELECT id FROM t").rows
    drained.clear()
    assert sharded.execute("SELECT id FROM t LIMIT 6").rows == full[:6]
    assert drained and all(n <= 6 for n in drained)
