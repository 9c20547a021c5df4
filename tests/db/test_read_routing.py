"""The one replica-aware read path, held to a table.

``ReplicaSet.target`` is the only code that chooses between a replica
and the primary, and every engine reaches it through ``execute_read``,
which is what ``repro.connect()`` calls. This file states the routing
decision as a plain-Python model — *who answers* — and checks it over

    engine          {ReplicaSet, ShardedDatabase + replicas}
  x path            {a connection, the engine's own execute_read}
  x read_preference {primary, replica, wait}
  x replica state   {caught up, behind the session floor, crashed,
                     none attached}
  x statement       {live, AS OF covered, AS OF below a replica's
                     bootstrap horizon}

asserting the serving node through ``ReplicaSet.stats`` deltas,
read-your-writes for the session, rows identical to the model (and so to
the primary), and that no read consumes a CSN on any node.
"""

import gc
import itertools
import weakref

import pytest

import repro
from repro.db import Database, ReplicaSet, ShardedDatabase
from repro.db.connection import READ_PREFERENCES

ENGINES = ("replica_set", "sharded")
PATHS = ("connect", "execute_read")
STATES = ("caught_up", "behind", "crashed", "none")
STATEMENTS = ("live", "as_of_covered", "as_of_below_horizon")
ROUTING_COUNTERS = (
    "replica_reads",
    "primary_reads",
    "stale_fallbacks",
    "catch_up_waits",
)
N_KEYS = 12
N_SHARDS = 3

LIVE_SQL = "SELECT k, v FROM t ORDER BY k"
AS_OF_SQL = "SELECT k, v FROM t ORDER BY k AS OF ?"
BUMP_SQL = "UPDATE t SET v = v + 1"  # every row: every shard, one 2PC


def who_answers(read_preference: str, state: str, statement: str) -> dict:
    """The model: routing-counter deltas *per replica set asked*."""
    answer = dict.fromkeys(ROUTING_COUNTERS, 0)
    if statement == "live":
        if read_preference == "primary" or state == "none":
            answer["primary_reads"] = 1
        elif state == "caught_up":
            answer["replica_reads"] = 1
        else:
            # Every replica is below the floor (or down). 'wait' forces a
            # catch-up: a lagging replica then serves, a dead one cannot.
            if read_preference == "wait":
                answer["catch_up_waits"] = 1
            if read_preference == "wait" and state == "behind":
                answer["replica_reads"] = 1
            else:
                answer["stale_fallbacks"] = 1
    elif (
        read_preference != "primary"
        and statement == "as_of_covered"
        and state in ("caught_up", "behind")
    ):
        # Coverage, not the session floor, qualifies a historical read:
        # a replica behind the floor still covers an older bookmark.
        answer["replica_reads"] = 1
    else:
        answer["primary_reads"] = 1
    return answer


class Cluster:
    """One engine in one replica state, with a model of its history."""

    def __init__(self, engine_kind: str, state: str, read_preference: str):
        self.sharded = engine_kind == "sharded"
        n_replicas = 0 if state == "none" else 2
        if self.sharded:
            engine = ShardedDatabase(N_SHARDS, shard_keys={"t": "k"})
        else:
            engine = Database(name="primary")
        self._seed(engine)
        # Replicas bootstrap one commit *after* this bookmark: it sits
        # strictly under their time-travel horizon.
        self.below_horizon = engine.last_commit_csn
        self.model = {self.below_horizon: self._rows(0)}
        engine.execute(BUMP_SQL)
        if self.sharded:
            engine.attach_replicas(n_replicas, mode="async")
            self.replica_sets = list(engine.replica_sets.values())
            self.catch_up = engine.catch_up
        else:
            replica_set = ReplicaSet(engine, n_replicas=n_replicas, mode="async")
            self.replica_sets = [replica_set]
            self.catch_up = replica_set.catch_up
            engine = replica_set
        self.read_preference = read_preference
        self.conn = repro.connect(engine, read_preference=read_preference)
        # One shipped write (the covered AS OF bookmark), one more that
        # sets the session floor and — in 'behind' — stays unshipped.
        self.conn.execute(BUMP_SQL)
        self.covered = self.conn.last_commit_csn
        self.model[self.covered] = self._rows(2)
        self.catch_up()
        self.conn.execute(BUMP_SQL)
        self.latest = self._rows(3)
        if state != "behind":
            self.catch_up()
        if state == "crashed":
            for replica in self.replicas():
                replica.database.crashed = True

    @staticmethod
    def _seed(engine) -> None:
        engine.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
        txn = engine.begin()
        for k in range(N_KEYS):
            engine.execute("INSERT INTO t VALUES (?, ?)", (k, 10 * k), txn=txn)
        txn.commit()

    @staticmethod
    def _rows(bumps: int) -> list[tuple]:
        return [(k, 10 * k + bumps) for k in range(N_KEYS)]

    def read(self, path: str, sql: str, params: tuple = ()) -> list:
        """One SELECT through a connection, or straight to the engine with
        the session floor and preference a connection would pass."""
        if path == "connect":
            return self.conn.execute(sql, params).rows
        return self.conn.engine.execute_read(
            sql,
            params,
            floor=self.conn.session.last_write_csn,
            preference=self.read_preference,
        ).rows

    def replicas(self):
        return [r for rs in self.replica_sets for r in rs.replicas]

    def counters(self) -> dict[str, int]:
        return {
            key: sum(rs.stats[key] for rs in self.replica_sets)
            for key in ROUTING_COUNTERS
        }

    def csn_positions(self) -> tuple[list[int], list[int]]:
        """Every node's commit clock (crashed nodes included)."""
        return (
            [rs.primary.txn_manager.last_csn for rs in self.replica_sets],
            [r.database.txn_manager.last_csn for r in self.replicas()],
        )


@pytest.mark.parametrize(
    "engine_kind, path, read_preference, state, statement",
    list(itertools.product(ENGINES, PATHS, READ_PREFERENCES, STATES, STATEMENTS)),
)
def test_routing_table(engine_kind, path, read_preference, state, statement):
    cluster = Cluster(engine_kind, state, read_preference)
    counters_before = cluster.counters()
    primaries_before, replicas_before = cluster.csn_positions()

    if statement == "live":
        rows = cluster.read(path, LIVE_SQL)
        # Read-your-writes: the session's last (maybe unshipped) write.
        expected_rows = cluster.latest
    else:
        bookmark = (
            cluster.covered
            if statement == "as_of_covered"
            else cluster.below_horizon
        )
        rows = cluster.read(path, AS_OF_SQL, (bookmark,))
        expected_rows = cluster.model[bookmark]
    assert [tuple(row) for row in rows] == expected_rows

    # Who answered: the model's delta, once per replica set asked (the
    # statement touches every shard).
    per_set = who_answers(read_preference, state, statement)
    counters_after = cluster.counters()
    assert {
        key: counters_after[key] - counters_before[key]
        for key in ROUTING_COUNTERS
    } == {key: per_set[key] * len(cluster.replica_sets) for key in per_set}
    if cluster.sharded:
        stats = cluster.conn.engine.cluster_stats
        assert {key: stats[key] for key in ROUTING_COUNTERS} == counters_after

    # No read consumes a CSN on any node. A 'wait' catch-up is the one
    # thing that may move a (live) replica's clock — up to its primary's.
    primaries_after, replicas_after = cluster.csn_positions()
    assert primaries_after == primaries_before
    if per_set["catch_up_waits"] and state == "behind":
        assert cluster.replica_sets[0].max_lag() == 0
        assert all(
            after > before
            for before, after in zip(replicas_before, replicas_after)
        )
    else:
        assert replicas_after == replicas_before


@pytest.mark.parametrize(
    "read_preference, state, statement",
    list(itertools.product(READ_PREFERENCES, STATES, STATEMENTS)),
)
def test_target_names_the_modelled_node(read_preference, state, statement):
    # The choice itself, with no statement run: the session floor goes in
    # with every read, and an AS OF read ignores it.
    cluster = Cluster("replica_set", state, read_preference)
    (replica_set,) = cluster.replica_sets
    floor = cluster.conn.session.last_write_csn
    as_of = {
        "live": None,
        "as_of_covered": cluster.covered,
        "as_of_below_horizon": cluster.below_horizon,
    }[statement]
    before = cluster.counters()
    served = replica_set.target(floor, as_of, read_preference)
    after = cluster.counters()
    expected = who_answers(read_preference, state, statement)
    assert {key: after[key] - before[key] for key in ROUTING_COUNTERS} == expected
    if expected["replica_reads"]:
        assert served in [replica.database for replica in replica_set.replicas]
    else:
        assert served is replica_set.primary


def test_sharded_engine_without_replica_sets_reads_primaries():
    # No attach_replicas() at all: nothing to count, same rows, no CSNs.
    sharded = ShardedDatabase(N_SHARDS, shard_keys={"t": "k"})
    Cluster._seed(sharded)
    before = [shard.last_csn for shard in sharded.shards]
    bookmark = sharded.last_commit_csn
    for read_preference in READ_PREFERENCES:
        conn = repro.connect(sharded, read_preference=read_preference)
        assert conn.execute(LIVE_SQL).rows == Cluster._rows(0)
        assert conn.execute(AS_OF_SQL, (bookmark,)).rows == Cluster._rows(0)
    assert [shard.last_csn for shard in sharded.shards] == before
    assert not set(ROUTING_COUNTERS) & set(sharded.cluster_stats)


def test_counters_survive_reconnects_and_preference_flips():
    # They live on the replica set, not on the connection that routed the
    # statement: a new connection or a per-statement override
    # accumulates, never resets.
    db = Database()
    Cluster._seed(db)
    replica_set = ReplicaSet(db, n_replicas=1, mode="sync")
    repro.connect(replica_set).execute(LIVE_SQL)
    conn = repro.connect(replica_set)
    conn.execute(LIVE_SQL)
    conn.execute(LIVE_SQL, read_preference="wait")
    conn.execute(LIVE_SQL, read_preference="primary")
    assert replica_set.stats["replica_reads"] == 3
    assert replica_set.stats["primary_reads"] == 1


def sharded_with_replicas() -> ShardedDatabase:
    sharded = ShardedDatabase(2)
    sharded.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
    sharded.attach_replicas()
    return sharded


@pytest.mark.parametrize("sql", ("SELECT * FROM t", "SELECT * FROM t AS OF ?"))
@pytest.mark.parametrize(
    "make_engine",
    (
        Database,
        lambda: ReplicaSet(Database(), n_replicas=1),
        lambda: ShardedDatabase(2),
        sharded_with_replicas,
    ),
    ids=("database", "replica_set", "sharded", "sharded_replicas"),
)
def test_unknown_read_preference_is_rejected(make_engine, sql):
    # Refused alike whether or not the engine has replicas to route to:
    # a typo must not read as "replica" on some engines and fail on others.
    from repro.errors import InterfaceError

    engine = make_engine()
    if not engine.catalog.has_table("t"):
        engine.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
    engine.execute("INSERT INTO t VALUES (1, 1)")
    params = (engine.last_commit_csn,) if "AS OF" in sql else ()
    with pytest.raises(
        InterfaceError, match=r"'nearest' \(choose from primary, replica, wait\)"
    ):
        engine.execute_read(sql, params, preference="nearest")


def test_promotion_past_a_crashed_replica_releases_the_replaced_replicas():
    # A promotion re-provisions a crashed replica from the new primary (a
    # resync: the replica keeps its name, its database is new). Nothing
    # may keep the replaced database alive: no plan holds a database, and
    # the replica set and its log let go of it.
    sharded = ShardedDatabase(2, shard_keys={"t": "k"})
    conn = repro.connect(sharded)
    conn.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
    for k in range(8):
        conn.execute("INSERT INTO t VALUES (?, ?)", (k, 0))
    sharded.attach_replicas(2, mode="async")
    sql = "SELECT k, v FROM t WHERE v >= ? ORDER BY k"
    conn.execute(sql, (0,))  # plans a scatter read over the replicas
    crashed = [rs.replicas[0] for rs in sharded.replica_sets.values()]
    doomed = [weakref.ref(replica.database) for replica in crashed]
    for replica in crashed:
        replica.database.crashed = True
    for k in range(8):
        conn.execute("UPDATE t SET v = ? WHERE k = ?", (k + 1, k))
    for store in sharded.store_names:
        sharded.failover(store)
    rows = conn.execute(sql, (0,), read_preference="wait").rows
    assert rows == [(k, k + 1) for k in range(8)]
    assert sharded.cluster_stats["resyncs"] == 2
    assert not any(replica.database.crashed for replica in crashed)
    gc.collect()
    assert [ref() for ref in doomed] == [None, None]
