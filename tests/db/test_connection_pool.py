"""ConnectionPool: checkout/checkin reuse and pooled workload parity."""

import pytest

import repro
from repro.db import (
    Connection,
    ConnectionPool,
    Database,
    ReplicaSet,
    Session,
    ShardedDatabase,
)
from repro.errors import InterfaceError
from repro.workload.generators import ConnectionWorkload
from repro.workload.harness import checked_out


def seeded_db(n: int = 10) -> Database:
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER, v TEXT)")
    for i in range(n):
        db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
    return db


class TestPoolBasics:
    def test_exported_at_top_level(self):
        assert repro.ConnectionPool is ConnectionPool

    def test_checkout_creates_then_reuses(self):
        pool = ConnectionPool(seeded_db(), size=2)
        conn = pool.checkout()
        assert isinstance(conn, Connection)
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 10
        pool.checkin(conn)
        again = pool.checkout()
        assert again is conn  # same object came back
        pool.checkin(again)
        assert pool.stats == {
            "checkouts": 2, "creates": 1, "reuses": 1, "discarded": 0,
            "retired_dead": 0,
        }

    def test_burst_grows_then_caps_idle_retention(self):
        pool = ConnectionPool(seeded_db(), size=2)
        borrowed = [pool.checkout() for _ in range(4)]
        assert pool.stats["creates"] == 4
        assert pool.in_use == 4
        for conn in borrowed:
            pool.checkin(conn)
        # Only `size` idle connections are retained; the rest are closed.
        assert pool.idle == 2
        assert pool.stats["discarded"] == 2
        assert borrowed[-1].closed

    def test_context_manager_checkout(self):
        pool = ConnectionPool(seeded_db(), size=1)
        with pool.connection() as conn:
            assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 10
        assert pool.idle == 1 and pool.in_use == 0

    def test_closed_connection_is_not_pooled(self):
        pool = ConnectionPool(seeded_db(), size=2)
        conn = pool.checkout()
        conn.close()
        pool.checkin(conn)
        assert pool.idle == 0
        assert pool.stats["discarded"] == 1
        fresh = pool.checkout()
        assert not fresh.closed

    def test_idle_connection_closed_behind_pools_back_is_counted(self):
        pool = ConnectionPool(seeded_db(), size=2)
        conn = pool.checkout()
        pool.checkin(conn)
        conn.close()  # retired while sitting idle in the pool
        fresh = pool.checkout()
        assert not fresh.closed and fresh is not conn
        assert pool.stats["discarded"] == 1
        assert pool.stats["creates"] == 2 and pool.stats["reuses"] == 0

    def test_checkin_retires_connection_to_fenced_engine(self):
        """A failover fences the node behind a checked-out connection;
        checkin must retire it, not recycle a handle to a demoted node."""
        db = seeded_db()
        pool = ConnectionPool(db, size=2)
        conn = pool.checkout()
        db.fenced = True  # demoted behind the pool's back
        pool.checkin(conn)
        assert conn.closed
        assert pool.idle == 0
        assert pool.stats["retired_dead"] == 1
        assert pool.stats["discarded"] == 1

    def test_checkin_retires_connection_to_killed_engine(self):
        db = seeded_db()
        pool = ConnectionPool(db, size=2)
        conn = pool.checkout()
        db.crashed = True
        pool.checkin(conn)
        assert conn.closed and pool.idle == 0
        assert pool.stats["retired_dead"] == 1

    def test_close_refuses_further_checkouts(self):
        pool = ConnectionPool(seeded_db(), size=2)
        conn = pool.checkout()
        pool.checkin(conn)
        pool.close()
        assert conn.closed
        with pytest.raises(InterfaceError, match="closed"):
            pool.checkout()

    def test_size_validation(self):
        with pytest.raises(InterfaceError, match="size"):
            ConnectionPool(seeded_db(), size=0)

    def test_double_checkin_rejected(self):
        pool = ConnectionPool(seeded_db(), size=2)
        conn = pool.checkout()
        pool.checkin(conn)
        with pytest.raises(InterfaceError, match="already checked in"):
            pool.checkin(conn)
        # The pool still hands out distinct connections.
        a, b = pool.checkout(), pool.checkout()
        assert a is not b

    def test_checked_out_helper_returns_on_error(self):
        pool = ConnectionPool(seeded_db(), size=1)
        with pytest.raises(RuntimeError):
            with checked_out(pool):
                raise RuntimeError("boom")
        assert pool.idle == 1 and pool.in_use == 0


class TestPooledSessionGuarantees:
    def test_pooled_connections_share_one_session(self):
        pool = ConnectionPool(seeded_db(), size=3)
        a = pool.checkout()
        b = pool.checkout()
        assert a.session is b.session is pool.session
        pool.checkin(a)
        pool.checkin(b)

    def test_read_your_writes_across_pooled_connections(self):
        cluster = ReplicaSet(seeded_db(), n_replicas=2, mode="async")
        cluster.catch_up()
        pool = ConnectionPool(cluster, size=2)
        writer = pool.checkout()
        writer.execute("UPDATE t SET v = ? WHERE k = ?", ("fresh", 1))
        pool.checkin(writer)
        # The replicas lag; a *different* pooled connection must still
        # see the write because the session token is pool-wide.
        reader = pool.checkout()
        assert (
            reader.execute("SELECT v FROM t WHERE k = ?", (1,)).scalar()
            == "fresh"
        )
        pool.checkin(reader)
        assert cluster.stats["stale_fallbacks"] == 1

    def test_explicit_session_is_shared_outside_the_pool(self):
        session = Session("external")
        db = seeded_db()
        pool = ConnectionPool(db, session=session)
        with pool.connection() as conn:
            conn.execute("UPDATE t SET v = ? WHERE k = ?", ("w", 2))
        assert session.last_write_csn == db.last_csn


class TestPooledWorkload:
    def test_pooled_run_matches_dedicated_connection(self):
        """The pooled driver produces byte-identical fingerprints."""
        dedicated_db = seeded_db(0)
        pooled_db = seeded_db(0)

        workload = ConnectionWorkload(n_keys=24, seed=3)
        conn = repro.connect(dedicated_db)
        workload.seed(conn)
        direct = workload.run(conn, 120)

        workload = ConnectionWorkload(n_keys=24, seed=3)
        pool = ConnectionPool(pooled_db, size=3)
        workload.seed(pool)
        pooled = workload.run(pool, 120)

        assert pooled == direct
        assert pool.stats["creates"] <= pool.size
        assert pool.stats["reuses"] > 100  # no per-statement construction

    def test_pooled_run_on_sharded_engine(self):
        sdb = ShardedDatabase(2, shard_keys={"ledger": "acct"})
        workload = ConnectionWorkload(n_keys=16, seed=1)
        pool = ConnectionPool(sdb, size=2)
        workload.seed(pool)
        out = workload.run(pool, 60)
        assert len(out) == 60
