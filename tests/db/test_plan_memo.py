"""The process-wide plan memo: a plan is a value.

A plan is a function of the statement text, the catalog's shape and the
plan kind, and holds no storage: so databases with the same DDL share
one plan per statement, databases one index apart each get their own,
and a dropped database is not kept alive by any plan.
"""

from __future__ import annotations

import functools
import gc
import types
import weakref

import pytest

from repro.db import Database, ShardedDatabase
from repro.db.connection import connect
from repro.db.index import HashIndex, IndexSet, SortedIndex
from repro.db.pages import PagedTableStore
from repro.db.segments import SegmentStore
from repro.db.sharding import BroadcastExchange
from repro.db.sql import executor
from repro.db.storage import TableStore

POINT = "SELECT v FROM t WHERE k = ?"
STATEMENTS = [
    (POINT, (3,)),
    ("SELECT k, COUNT(*) FROM t WHERE v > ? GROUP BY k ORDER BY k", ("v",)),
    ("SELECT a.v, b.v FROM t a JOIN t b ON a.k = b.k WHERE a.k < ?", (2,)),
    ("UPDATE t SET v = ? WHERE k = ?", ("w", 4)),
    ("DELETE FROM t WHERE k = ?", (5,)),
]


def build(index: bool = True) -> Database:
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER, v TEXT)")
    if index:
        db.execute("CREATE INDEX ix_k ON t (k)")
    db.insert_rows("t", [(k, f"v{k}") for k in range(8)])
    return db


def builds(db: Database) -> int:
    stats = db.plan_cache_stats
    return stats["misses"] + stats["dml_misses"]


def explain(db: Database) -> str:
    return "\n".join(db.explain(POINT))


def run_all(db) -> None:
    for sql, params in STATEMENTS:
        db.execute(sql, params)


class TestSharing:
    def test_a_second_database_plans_nothing(self, monkeypatch):
        first, second = build(), build()
        run_all(first)
        assert builds(first) == len(STATEMENTS)
        planned = []
        for name in ("select_plan", "dml_plan"):
            original = getattr(Database, name)
            monkeypatch.setattr(
                Database, name,
                lambda self, stmt, _o=original: planned.append(stmt) or _o(self, stmt),
            )
        run_all(second)
        assert planned == []
        assert builds(second) == 0
        stats = second.plan_cache_stats
        assert stats["hits"] + stats["dml_hits"] == len(STATEMENTS)

    def test_one_index_apart(self):
        probed, plain = build(index=True), build(index=False)
        assert "probe=ix_k[k]" in explain(probed)
        assert "probe" not in explain(plain)
        assert probed.execute(POINT, (3,)).rows == plain.execute(POINT, (3,)).rows
        # The same index on both: the second one shares the first's plan.
        plain.execute("CREATE INDEX ix_k ON t (k)")
        misses = plain.plan_cache_stats["misses"]
        assert "probe=ix_k[k]" in explain(plain)
        assert plain.plan_cache_stats["misses"] == misses
        # Dropping it on one leaves the other's probe right.
        probed.execute("DROP INDEX ix_k ON t")
        assert "probe" not in explain(probed)
        assert "probe=ix_k[k]" in explain(plain)
        plain.execute("UPDATE t SET k = 30 WHERE k = 3")
        assert plain.execute(POINT, (3,)).rows == []
        assert plain.execute(POINT, (30,)).rows == [("v3",)]
        assert probed.execute(POINT, (3,)).rows == [("v3",)]

    def test_shards_share_one_node_and_one_partial_plan(self):
        sharded = ShardedDatabase(4, shard_keys={"t": "k"})
        sharded.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        sharded.execute("CREATE INDEX ix_k ON t (k)")
        for k in range(20):
            sharded.execute("INSERT INTO t VALUES (?, ?)", (k, f"v{k}"))
        scatter = "SELECT k, v FROM t WHERE v > ? ORDER BY k"
        aggregate = "SELECT v, COUNT(*) FROM t GROUP BY v"
        sharded.execute(scatter, ("v",))
        sharded.execute(aggregate)
        kinds = sorted(key[0] for key in executor._plan_memo)
        # A coordinator plan and a shard-side plan per statement: the
        # FROM/WHERE node and the partial aggregate serve all four shards.
        assert kinds == ["select", "select", "shard", "shard"]
        assert sum(builds(shard) for shard in sharded.shards) == 4

    def test_a_sharded_join_is_planned_once(self, monkeypatch):
        sharded = ShardedDatabase(4, shard_keys={"t": "k"})
        sharded.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        for k in range(20):
            sharded.execute("INSERT INTO t VALUES (?, ?)", (k, f"v{k}"))
        joins = []
        original = executor.HashJoinNode.__init__
        monkeypatch.setattr(
            executor.HashJoinNode, "__init__",
            lambda self, *args: joins.append(self) or original(self, *args),
        )
        sql = "SELECT a.k, b.v FROM t a JOIN t b ON a.v = b.v WHERE a.k < ? ORDER BY a.k"
        first = sharded.execute(sql, (12,)).rows
        built = len(joins)
        misses = sum(shard.plan_cache_stats["misses"] for shard in sharded.shards)
        assert sharded.execute(sql, (12,)).rows == first == [
            (k, f"v{k}") for k in range(12)
        ]
        # The four shards share one shard-side join (and the coordinator
        # plan its layout): built once, and not again the second time.
        assert built <= 2
        assert len(joins) == built
        assert sum(shard.plan_cache_stats["misses"] for shard in sharded.shards) == misses


#: What no memoised plan may hold: anything that belongs to one database.
STORAGE = (
    Database, TableStore, PagedTableStore, SegmentStore, IndexSet, HashIndex, SortedIndex,
)


def reachable(value, seen: set[int]):
    """What a plan reaches (nodes, tuples, programs), stopping at storage."""
    if id(value) in seen:
        return
    seen.add(id(value))
    yield value
    if isinstance(value, STORAGE):
        return
    if isinstance(value, (tuple, list, set, frozenset)):
        children = list(value)
    elif isinstance(value, dict):
        children = list(value.values())
    elif isinstance(value, executor.PlanNode):
        children = list(vars(value).values())
    elif isinstance(value, functools.partial):
        children = [value.func, *value.args, *value.keywords.values()]
    elif isinstance(value, types.MethodType):
        children = [value.__self__]
    elif isinstance(value, types.FunctionType):
        children = [cell.cell_contents for cell in value.__closure__ or ()]
        if value.__code__.co_filename == "<repro-codegen>":
            children += list(value.__globals__.values())
    else:
        return
    for child in children:
        yield from reachable(child, seen)


def held_storage(value, seen: set[int]) -> list:
    """Storage objects reachable from a plan."""
    return [found for found in reachable(value, seen) if isinstance(found, STORAGE)]


class TestPlansHoldNoStorage:
    def test_no_plan_node_holds_storage(self):
        single = build()
        run_all(single)
        sharded = ShardedDatabase(2, shard_keys={"t": "k"})
        sharded.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        sharded.execute("CREATE SORTED INDEX sx_k ON t (k)")
        for k in range(8):
            sharded.execute("INSERT INTO t VALUES (?, ?)", (k, f"v{k}"))
        sharded.attach_replicas(1, mode="sync")
        conn = connect(sharded)
        for sql, params in STATEMENTS:
            conn.execute(sql, params)
        conn.execute("SELECT v FROM t WHERE k > ? AND k < ?", (1, 6))
        assert executor._plan_memo
        assert held_storage(executor._plan_memo, set()) == []
        # The sharded join's plan is memoised too, and holds no rows.
        held = list(reachable(executor._plan_memo, set()))
        assert any(isinstance(node, BroadcastExchange) for node in held)
        rows = [values for _row_id, values in sharded.snapshot_rows("t")]
        assert [value for value in held if isinstance(value, tuple) and value in rows] == []

    def test_a_dropped_database_is_not_kept_by_its_plans(self):
        db = build()
        run_all(db)
        refs = [
            weakref.ref(obj)
            for obj in (db, db.store("t"), db.index_set("t"), db.index_set("t").indexes["ix_k"])
        ]
        del db
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
        assert executor._plan_memo  # the plans outlive their database

    def test_a_resynced_replica_is_not_kept_by_plans(self):
        sharded = ShardedDatabase(2, shard_keys={"t": "k"})
        sharded.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        sharded.execute("CREATE INDEX ix_k ON t (k)")
        for k in range(8):
            sharded.execute("INSERT INTO t VALUES (?, ?)", (k, f"v{k}"))
        replica_sets = sharded.attach_replicas(1, mode="sync")
        conn = connect(sharded)
        for sql, params in STATEMENTS[:3]:
            conn.execute(sql, params)
        assert sharded.cluster_stats["replica_reads"] > 0
        old = [weakref.ref(rs.replicas[0].database) for rs in replica_sets.values()]
        for replica_set in replica_sets.values():
            replica_set.resync(replica_set.replicas[0])
        gc.collect()
        assert [ref() for ref in old] == [None] * len(old)
        assert conn.execute(POINT, (3,)).rows == [("v3",)]


@pytest.mark.parametrize("ddl", [
    "CREATE INDEX ix_v ON t (v)",
    "CREATE UNIQUE INDEX ux_k ON t (k)",
    "CREATE SORTED INDEX ix_k ON t (k)",
])
def test_a_catalog_change_changes_the_shape(ddl):
    db, twin = build(index=False), build(index=False)
    assert db.catalog_shape == twin.catalog_shape
    db.execute(ddl)
    assert db.catalog_shape != twin.catalog_shape
    twin.execute(ddl)
    assert db.catalog_shape == twin.catalog_shape
