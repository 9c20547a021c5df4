"""A blocked lock acquisition yields to the scheduler driving its thread.

The lock manager looks the scheduler up only when an acquisition blocks:
a scheduled worker parks at a ``LOCK_WAIT`` checkpoint until the holder
finishes, on whatever engine it runs, with or without a ``Runtime``; an
unscheduled thread raises :class:`LockTimeoutError` at once.
"""

import pytest

from repro.db import Database, ReplicaSet, ShardedDatabase
from repro.runtime import CheckpointKind, CooperativeScheduler, Request, Runtime
from repro.runtime.scheduler import maybe_checkpoint

ENGINES = {
    "single": Database,
    "sharded": lambda: ShardedDatabase(2, shard_keys={"c": "k"}),
    "replicated": lambda: ReplicaSet(Database(), n_replicas=1),
}


def counter(name: str):
    engine = ENGINES[name]()
    engine.execute("CREATE TABLE c (k INTEGER, v INTEGER)")
    engine.execute("INSERT INTO c VALUES (1, 0)")
    return engine


def value(engine) -> int:
    return engine.execute("SELECT v FROM c WHERE k = 1").scalar()


@pytest.mark.parametrize("name", ["sharded", "replicated"])
def test_the_runtime_runs_concurrently_on_a_cluster_engine(name):
    engine = counter(name)
    runtime = Runtime(engine)

    def bump(ctx):
        with ctx.txn(label="bump") as t:
            v = t.execute("SELECT v FROM c WHERE k = 1").scalar()
            t.execute("UPDATE c SET v = ? WHERE k = 1", (v + 1,))
        return v + 1

    runtime.register("bump", bump)
    results = runtime.run_concurrent(
        [Request("bump"), Request("bump")], schedule=[0, 1]
    )
    assert [r.ok for r in results] == [True, True]
    assert sorted(r.output for r in results) == [1, 2]
    assert value(engine) == 2


@pytest.mark.parametrize("name", ["single", "sharded"])
def test_contending_workers_both_commit_under_a_scheduler(name):
    """No Runtime: the second worker's UPDATE blocks on the first one's
    lock, parks, and runs once the first one commits."""
    engine = counter(name)

    def bump():
        txn = engine.begin()
        maybe_checkpoint(CheckpointKind.STATEMENT, "update")
        engine.execute("UPDATE c SET v = v + 1 WHERE k = 1", txn=txn)
        maybe_checkpoint(CheckpointKind.STATEMENT, "commit")
        return txn.commit()

    scheduler = CooperativeScheduler(schedule=[0, 1, 0, 1, 1], granularity="statement")
    outcomes = scheduler.run([bump, bump])
    assert [o.error for o in outcomes] == [None, None]
    assert value(engine) == 2
    waits = [e for e in scheduler.record if e.kind is CheckpointKind.LOCK_WAIT]
    assert [e.worker for e in waits] == [1]
    assert waits[0].label.startswith("table:")

