"""Compiled programs vs planner closures inside the one batch pipeline.

A cached plan carries generated batch programs; an uncached one
(``plan_cache_enabled = False``) runs the planner's closures in the same
operators. The programs must be a pure performance transformation: every
query returns exactly the rows the closures return, read provenance is
byte-identical when tracking is on, and the ``executor_stats`` counters
describe what the pipeline actually did.
"""

import dataclasses
from functools import cmp_to_key

import pytest

from repro.db import Database, IsolationLevel, ShardedDatabase
from repro.db.types import compare_values


def build_db(programs: bool = True, pushdown: bool = True) -> Database:
    db = Database()
    db.plan_cache_enabled = programs
    db.predicate_pushdown_enabled = pushdown
    _populate(db)
    return db


def build_sharded(programs: bool = True) -> ShardedDatabase:
    """``programs=False`` replans every shard-local statement (routed
    reads, partial aggregates) on closures; scatter branches and
    coordinator merges live in the cluster's own caches and always carry
    programs."""
    sdb = ShardedDatabase(3, shard_keys={"items": "id"})
    for shard in sdb.shards:
        shard.plan_cache_enabled = programs
    _populate(sdb)
    return sdb


def _populate(db) -> None:
    db.execute("CREATE TABLE items (id INTEGER, grp TEXT, val FLOAT)")
    db.execute("CREATE TABLE grps (grp TEXT, label TEXT)")
    for i in range(40):
        db.execute(
            "INSERT INTO grps VALUES (?, ?)",
            (f"g{i}", f"label{i}"),
        )
    for i in range(300):
        db.execute(
            "INSERT INTO items VALUES (?, ?, ?)",
            (i, f"g{i % 7}", float(i % 13)),
        )
    # One NULL-bearing row per table: joins and filters must treat NULL
    # keys identically on both paths.
    db.execute("INSERT INTO items VALUES (9000, NULL, NULL)")
    db.execute("INSERT INTO grps VALUES (NULL, 'null-label')")


#: 1, 1.0, TRUE, '1' and NULL in one column: 1 and 1.0 are one key, TRUE
#: (which Python hashes and compares as 1) and '1' are two more.
MIXED_KEY = (
    "CASE WHEN id % 5 = 0 THEN 1 WHEN id % 5 = 1 THEN 1.0"
    " WHEN id % 5 = 2 THEN TRUE WHEN id % 5 = 3 THEN '1' END"
)

#: Query shapes spanning every batch operator: scans with filters at
#: each selectivity, projections with expressions, inner/left joins with
#: and without residuals, aggregates (global, grouped, DISTINCT,
#: HAVING), DISTINCT, ORDER BY, LIMIT/OFFSET, and subquery-free unions
#: of those features.
QUERIES = [
    "SELECT * FROM items",
    "SELECT id, val FROM items WHERE val > 6.0",
    "SELECT id FROM items WHERE val > 100.0",
    "SELECT id + 1, val * 2.0 FROM items WHERE id < 20",
    "SELECT id FROM items WHERE grp = 'g3' AND val >= 5.0",
    "SELECT id FROM items WHERE grp = 'g1' OR val < 2.0",
    "SELECT COUNT(*) FROM items",
    "SELECT COUNT(*), COUNT(*) FROM items",
    "SELECT COUNT(val), SUM(val), AVG(val), MIN(val), MAX(id) FROM items",
    "SELECT grp, COUNT(*) FROM items GROUP BY grp",
    "SELECT grp, SUM(val) FROM items GROUP BY grp HAVING SUM(val) > 200",
    "SELECT COUNT(DISTINCT grp) FROM items",
    "SELECT DISTINCT grp FROM items",
    "SELECT i.id, g.label FROM items i JOIN grps g ON i.grp = g.grp",
    "SELECT COUNT(*) FROM items i JOIN grps g ON i.grp = g.grp",
    (
        "SELECT COUNT(*) FROM items i JOIN grps g "
        "ON i.grp = g.grp AND i.val > 4.0"
    ),
    (
        "SELECT i.id, g.label FROM items i "
        "LEFT JOIN grps g ON i.grp = g.grp WHERE i.id < 15"
    ),
    (
        "SELECT g.label, COUNT(*) FROM items i "
        "JOIN grps g ON i.grp = g.grp WHERE i.val > 3.0 GROUP BY g.label"
    ),
    "SELECT id FROM items ORDER BY val, id LIMIT 7",
    "SELECT id FROM items ORDER BY id LIMIT 5 OFFSET 3",
    "SELECT val FROM items WHERE id BETWEEN 10 AND 30 ORDER BY id",
    "SELECT id FROM items WHERE grp LIKE 'g_'",
    "SELECT id FROM items WHERE grp IN ('g1', 'g2') ORDER BY id",
    "SELECT CASE WHEN val > 6 THEN 'hi' ELSE 'lo' END FROM items",
    "SELECT id FROM items WHERE grp IS NULL",
    # One key column holding every comparison class at once.
    f"SELECT DISTINCT {MIXED_KEY} FROM items WHERE id < 25",
    f"SELECT {MIXED_KEY}, COUNT(*) FROM items WHERE id < 25 GROUP BY {MIXED_KEY}",
    f"SELECT id, {MIXED_KEY} FROM items WHERE id < 25 ORDER BY {MIXED_KEY} DESC, id",
    # Three-valued IN: a NULL item turns every miss into NULL.
    (
        "SELECT id, grp IN ('g1', NULL), grp NOT IN ('g1', NULL),"
        " grp IN ('g1', 'g2'), grp NOT IN ('g1', 'g2'), id IN (1, 2.0, TRUE)"
        " FROM items WHERE id < 4 OR id = 9000"
    ),
]


def _canon(rows):
    return sorted(rows, key=repr)


class TestDifferential:
    """Generated programs vs the planner closures they were lowered from."""

    def test_single_node_all_query_shapes(self):
        compiled = build_db(programs=True)
        closures = build_db(programs=False)
        for sql in QUERIES:
            got = compiled.query(sql).rows
            want = closures.query(sql).rows
            assert got == want, sql
            # Value types must match too (1 vs 1.0 vs True).
            for g, w in zip(got, want):
                assert tuple(map(type, g)) == tuple(map(type, w)), sql
        # The twins really took different branches of the pipeline.
        assert compiled.executor_stats["plans_compiled"] >= len(QUERIES)
        assert closures.executor_stats["plans_compiled"] == 0
        assert closures.executor_stats["batches_processed"] > 0

    @pytest.mark.parametrize("programs", [True, False])
    def test_mixed_class_keys_follow_compare_values(self, programs):
        db = build_db(programs=programs)
        order = cmp_to_key(compare_values)
        keys = [
            key
            for (key,) in db.query(
                f"SELECT {MIXED_KEY} FROM items WHERE id < 25 ORDER BY {MIXED_KEY}"
            ).rows
        ]
        assert keys == sorted(keys, key=order)
        assert [type(k) for k in keys[:5] + keys[-5:]] == [type(None)] * 5 + [str] * 5
        distinct = [key for (key,) in db.query(QUERIES[-4]).rows]
        groups = db.query(QUERIES[-3]).rows
        assert sorted(distinct, key=order) == [None, True, 1, "1"]
        assert sorted(groups, key=lambda g: order(g[0])) == [
            (None, 5), (True, 5), (1, 10), ("1", 5)
        ]
        assert db.query(QUERIES[-1]).rows == [
            (0, None, None, False, True, False),
            (1, True, False, True, False, True),
            (2, None, None, True, False, True),
            (3, None, None, False, True, False),
            (9000, None, None, None, None, False),
        ]

    def test_sharded_all_query_shapes(self):
        compiled = build_sharded(programs=True)
        replanned = build_sharded(programs=False)
        closures = build_db(programs=False)
        for sql in QUERIES:
            got = compiled.execute(sql).rows
            want = replanned.execute(sql).rows
            # Shard gather order is deterministic, but ordered queries
            # must match exactly; unordered compare as multisets.
            if "ORDER BY" in sql:
                assert got == want, sql
            else:
                assert _canon(got) == _canon(want), sql
            # ... and both agree with single-node closures.
            assert _canon(got) == _canon(closures.query(sql).rows), sql

    def test_pushdown_knob_is_result_invariant(self):
        pushed = build_db(pushdown=True)
        unpushed = build_db(pushdown=False)
        for sql in QUERIES:
            assert pushed.query(sql).rows == unpushed.query(sql).rows, sql


class _TraceCollector:
    def __init__(self):
        self.traces = []

    def statement_executed(self, txn, trace):
        self.traces.append(trace)


def _read_tuples(traces):
    return [row for t in traces for read_set in t.reads for row in read_set.rows()]


class TestTrodParity:
    """Provenance must be byte-identical with or without programs."""

    def test_track_reads_identical_single_node(self):
        baseline = build_db(programs=False)
        subject = build_db(programs=True)
        for db in (baseline, subject):
            db.track_reads = True
        probe = [
            "SELECT id FROM items WHERE val > 6.0",
            "SELECT grp, COUNT(*) FROM items GROUP BY grp",
            "SELECT COUNT(*) FROM items i JOIN grps g ON i.grp = g.grp",
            "SELECT id FROM items WHERE id > 100000",
        ]
        for sql in probe:
            collectors = []
            for db in (baseline, subject):
                collector = _TraceCollector()
                db.add_observer(collector)
                rows = db.query(sql).rows
                db.remove_observer(collector)
                collectors.append((rows, collector))
            (want_rows, want), (got_rows, got) = collectors
            assert got_rows == want_rows, sql
            assert _read_tuples(got.traces) == _read_tuples(want.traces), sql

    def test_track_reads_identical_sharded(self):
        baseline = build_sharded(programs=False)
        subject = build_sharded(programs=True)
        for sdb in (baseline, subject):
            sdb.track_reads = True
        sql = "SELECT grp, COUNT(*) FROM items GROUP BY grp"
        reads = []
        for sdb in (baseline, subject):
            collected = []
            collectors = []
            for shard in sdb.shards:
                collector = _TraceCollector()
                shard.add_observer(collector)
                collectors.append((shard, collector))
            rows = sdb.execute(sql).rows
            for shard, collector in collectors:
                shard.remove_observer(collector)
                collected.extend(_read_tuples(collector.traces))
            reads.append((_canon(rows), collected))
        assert reads[0] == reads[1]

    def test_traced_statement_runs_the_batch_pipeline(self):
        """Tracing changes what is recorded, not which executor runs."""
        db = build_db()
        sql = "SELECT id FROM items WHERE val > 6.0"
        untraced = db.query(sql).rows
        db.track_reads = True
        collector = _TraceCollector()
        db.add_observer(collector)
        before = db.executor_stats["batches_processed"]
        assert db.query(sql).rows == untraced
        assert db.executor_stats["batches_processed"] > before
        assert len(_read_tuples(collector.traces[-1:])) == len(untraced)


class TestExecutorStats:
    def test_plans_compiled_counts_cache_misses_only(self):
        db = build_db()
        start = db.executor_stats["plans_compiled"]
        db.query("SELECT id FROM items WHERE val > 6.0")
        after_first = db.executor_stats["plans_compiled"]
        assert after_first == start + 1
        db.query("SELECT id FROM items WHERE val > 6.0")
        assert db.executor_stats["plans_compiled"] == after_first

    def test_pairs_filter_is_generated_by_the_first_traced_run(self, monkeypatch):
        """An untraced cache miss generates one scan-filter program, not two."""
        from repro.db.sql import compile as codegen

        calls = []
        generate = codegen.compile_predicate_batch

        def counting(expr, layout, pairs=False):
            calls.append(pairs)
            return generate(expr, layout, pairs)

        monkeypatch.setattr(codegen, "compile_predicate_batch", counting)
        db = build_db()
        sql = "SELECT id FROM items WHERE val > 6.0"
        untraced = db.query(sql).rows
        assert calls == [False]
        db.track_reads = True
        assert db.query(sql).rows == untraced
        assert calls == [False, True]
        assert db.query(sql).rows == untraced
        assert calls == [False, True]

    def test_rows_filtered_at_scan_vs_post_join(self):
        db = build_db()
        db.query("SELECT id FROM items WHERE val > 100.0")
        stats = db.executor_stats
        # All 301 item rows are filtered out inside the scan.
        assert stats["rows_filtered_at_scan"] >= 301
        assert stats["batches_processed"] >= 1

    def test_sharded_stats_aggregate_across_shards(self):
        sdb = build_sharded()
        sdb.execute("SELECT id FROM items WHERE val > 100.0")
        stats = sdb.executor_stats
        assert stats["plans_compiled"] >= 1
        assert stats["rows_filtered_at_scan"] >= 301


class TestTransactionalVisibility:
    """Batch scans must honor snapshots and private writes."""

    def test_own_uncommitted_writes_visible(self):
        db = build_db()
        txn = db.begin()
        db.execute(
            "INSERT INTO items VALUES (7777, 'g0', 1.5)", txn=txn
        )
        rows = db.execute(
            "SELECT id FROM items WHERE id = 7777", txn=txn
        ).rows
        assert rows == [(7777,)]
        txn.abort()
        assert db.query("SELECT id FROM items WHERE id = 7777").rows == []

    def test_snapshot_ignores_later_commits(self):
        db = build_db()
        txn = db.begin(IsolationLevel.SNAPSHOT)
        before = db.execute("SELECT COUNT(*) FROM items", txn=txn).rows
        db.execute("INSERT INTO items VALUES (8888, 'g1', 2.0)")
        again = db.execute("SELECT COUNT(*) FROM items", txn=txn).rows
        txn.abort()
        assert again == before
        assert db.query("SELECT COUNT(*) FROM items").rows[0][0] == (
            before[0][0] + 1
        )

    def test_writes_invalidate_materialized_values(self):
        db = build_db()
        sql = "SELECT COUNT(*) FROM items WHERE val > 6.0"
        first = db.query(sql).rows[0][0]
        db.execute("INSERT INTO items VALUES (9999, 'g2', 7.5)")
        assert db.query(sql).rows[0][0] == first + 1
        db.execute("DELETE FROM items WHERE id = 9999")
        assert db.query(sql).rows[0][0] == first
