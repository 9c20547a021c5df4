"""The public API surface stays importable and the examples stay runnable.

CI runs the same checks as a workflow step; this test keeps them honest
in the tier-1 suite too.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent

#: Every example script: the paper's case studies and the API walkthroughs.
MIGRATED_EXAMPLES = sorted(
    path.relative_to(REPO).as_posix() for path in (REPO / "examples").glob("*.py")
)


class TestApiSurface:
    def test_top_level_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name
        assert callable(repro.connect)

    def test_db_all_resolves(self):
        import repro.db

        missing = [
            name for name in repro.db.__all__
            if not hasattr(repro.db, name)
        ]
        assert not missing, f"repro.db.__all__ dangles: {missing}"

    def test_core_all_resolves(self):
        import repro.core

        missing = [
            name for name in repro.core.__all__
            if not hasattr(repro.core, name)
        ]
        assert not missing, f"repro.core.__all__ dangles: {missing}"

    def test_trace_event_classes_are_gone(self):
        # Deleted, not deprecated: the hooks stage provenance rows in the
        # trace buffer (docs/api.md).
        import importlib.util

        import repro.core

        assert importlib.util.find_spec("repro.core.events") is None
        for name in (
            "DataEvent", "RequestEvent", "SideEffectEvent", "TxnEvent",
            "WorkflowEdgeEvent",
        ):
            assert name not in repro.core.__all__
            assert not hasattr(repro.core, name)

    def test_read_routers_are_gone(self):
        # Deleted, not deprecated: connect() is the one replica-aware
        # read path (docs/api.md, "Removed").
        import repro.db
        import repro.db.replication

        for name in ("ReadRouter", "ShardedReadRouter"):
            assert name not in repro.db.__all__
            assert not hasattr(repro.db, name)
            assert not hasattr(repro.db.replication, name)

    def test_simulated_backend_is_gone(self):
        # Deleted, not deprecated: a backend cost model lives in the
        # benchmark that uses it, as a database observer (docs/api.md,
        # "Removed").
        from importlib.util import find_spec

        import repro.db

        assert find_spec("repro.db.backend") is None
        for name in (
            "SimulatedBackend",
            "LatencyProfile",
            "PROFILES",
            "VOLTDB_PROFILE",
            "POSTGRES_PROFILE",
            "NULL_PROFILE",
        ):
            assert name not in repro.db.__all__
            assert not hasattr(repro.db, name)
        with pytest.raises(TypeError):
            repro.db.Database(backend=None)

    def test_engine_protocol_documents_the_contract(self):
        from repro.db import (
            Database,
            ReplicaSet,
            ShardedDatabase,
        )
        from repro.db.connection import _ENGINE_SURFACE

        sharded = ShardedDatabase(1)
        engines = [Database(), sharded, ReplicaSet(Database())]
        for engine in engines:
            for attr in _ENGINE_SURFACE:
                assert hasattr(engine, attr), (type(engine).__name__, attr)


def sharded_with_history():
    from repro.db import ShardedDatabase

    sharded = ShardedDatabase(2, shard_keys={"t": "id"})
    sharded.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
    for i in range(6):
        sharded.execute("INSERT INTO t VALUES (?, ?)", (i, i))
    return sharded


class TestDirectEntryPoints:
    """The engine-level surfaces beneath ``connect()`` stay usable on
    their own: tests and apps written against them must keep working."""

    def test_as_of_clause_emits_no_warning(self):
        sharded = sharded_with_history()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert (
                sharded.execute("SELECT COUNT(*) FROM t AS OF 3").scalar() == 3
            )

    def test_database_execute(self):
        from repro.db import Database

        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.execute("SELECT x FROM t").scalar() == 1

    def test_sharded_execute(self):
        assert sharded_with_history().execute("SELECT COUNT(*) FROM t").scalar() == 6

    def test_replica_set_with_session_through_connect(self):
        import repro
        from repro.db import Database, ReplicaSet, Session

        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        replica_set = ReplicaSet(db, n_replicas=1, mode="sync")
        conn = repro.connect(replica_set, session=Session())
        conn.execute("INSERT INTO t VALUES (5)")
        assert conn.execute("SELECT x FROM t").scalar() == 5
        assert replica_set.stats["replica_reads"] == 1

    def test_database_as_of(self):
        from repro.db import Database

        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("UPDATE t SET x = 2")
        assert db.execute("SELECT x FROM t AS OF 1").scalar() == 1


@pytest.mark.parametrize("example", MIGRATED_EXAMPLES)
def test_migrated_example_runs(example):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, str(REPO / example)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        cwd=str(REPO),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()  # the examples narrate what they show
