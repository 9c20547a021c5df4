"""Old entry points keep working after the API unification (the
``execute_as_of`` shims, deprecated since then, are gone)."""

import warnings

from repro.db import (
    Database,
    ReadRouter,
    ReplicaSet,
    Session,
    ShardedDatabase,
)


def sharded_with_history() -> ShardedDatabase:
    sharded = ShardedDatabase(2, shard_keys={"t": "id"})
    sharded.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
    for i in range(6):
        sharded.execute("INSERT INTO t VALUES (?, ?)", (i, i))
    return sharded


class TestExecuteAsOfShims:
    def test_new_clause_emits_no_warning(self):
        sharded = sharded_with_history()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert (
                sharded.execute("SELECT COUNT(*) FROM t AS OF 3").scalar() == 3
            )


class TestOldEntryPointsStillWork:
    """The pre-facade surfaces stay green: tests and apps written against
    them must not notice the redesign."""

    def test_database_execute_unchanged(self):
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.execute("SELECT x FROM t").scalar() == 1

    def test_sharded_execute_unchanged(self):
        sharded = sharded_with_history()
        assert sharded.execute("SELECT COUNT(*) FROM t").scalar() == 6

    def test_read_router_with_session_unchanged(self):
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        router = ReadRouter(ReplicaSet(db, n_replicas=1, mode="sync"))
        session = Session()
        router.execute("INSERT INTO t VALUES (5)", session=session)
        assert (
            router.execute("SELECT x FROM t", session=session).scalar() == 5
        )

    def test_time_travel_objects_unchanged(self):
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("UPDATE t SET x = 2")
        assert db.time_travel.rows_as_of("t", 1)[0][1] == (1,)
