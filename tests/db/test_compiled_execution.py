"""Generated programs inside the one batch pipeline, engine against engine.

Every plan runs generated programs, so there is no second evaluator inside
the engine to compare with (``Expr.eval`` is the reference, and
``tests/property/test_prop_compiled_expr.py`` holds every program form to
it). What this module compares is the engine against itself along every
axis that changes which programs run over which rows: one node and three
shards, a plan's first execution and its cache hits. Every query returns
the same rows with the same value types, read provenance is byte-identical
when tracking is on, and the ``executor_stats`` counters describe what the
pipeline actually did. Where a WHERE conjunct runs — pushed into a scan or
above a join — is held to a nested-loop model instead, by
``tests/property/test_prop_sql.py``.
"""

from functools import cmp_to_key

import pytest

from repro.db import Database, IsolationLevel, ShardedDatabase
from repro.db.types import compare_values
from repro.errors import ExecutionError, PlanningError

from eager_reads import read_rows


def build_db() -> Database:
    db = Database()
    _populate(db)
    return db


def build_sharded() -> ShardedDatabase:
    sdb = ShardedDatabase(3, shard_keys={"items": "id"})
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


#: ``(sql, params)`` shapes that only planner closures ran before there
#: was one evaluator: keyless joins, computed IN items and LIKE patterns,
#: a broadcast join side's pushed filter, ORDER BY on input columns, on
#: output aliases and on computed keys. With nothing to fall back to, a
#: shape the code generator cannot lower fails here.
PARAM_QUERIES = [
    (
        "SELECT i.id, g.grp FROM items i JOIN grps g"
        " ON i.val > 11.0 AND g.label < 'label11' ORDER BY i.id, g.grp",
        (),
    ),
    (
        "SELECT i.id, g.label FROM items i CROSS JOIN grps g"
        " WHERE i.id < 3 AND g.label LIKE ? ORDER BY i.id, g.label",
        ("label3%",),
    ),
    (
        "SELECT i.id, g.label FROM items i LEFT JOIN grps g"
        " ON i.val < 1.0 AND g.label = 'label1' WHERE i.id < 30 ORDER BY i.id",
        (),
    ),
    ("SELECT id FROM items WHERE id IN (?, ?, 290 - id) ORDER BY id", (3, 5.0)),
    ("SELECT id, grp IN (?, NULL), id NOT IN (?, val + 1) FROM items WHERE id < 4", ("g1", 2)),
    ("SELECT id FROM items WHERE grp LIKE ? ORDER BY id", ("g_",)),
    ("SELECT id FROM items WHERE grp NOT LIKE ? || '%' AND id < 9", ("g1",)),
    ("SELECT grp, grp LIKE grp, grp LIKE NULL FROM items WHERE id > 295", ()),
    (
        "SELECT i.id, g.label FROM items i JOIN grps g ON i.grp = g.grp"
        " WHERE g.label LIKE ? AND i.id < 40 ORDER BY i.id",
        ("label_",),
    ),
    ("SELECT grp FROM items WHERE id < 30 ORDER BY val DESC, id", ()),
    ("SELECT id AS k, val FROM items WHERE id < 30 ORDER BY val, k DESC", ()),
    ("SELECT id FROM items WHERE id < 30 ORDER BY (id * 7) % 11, id", ()),
    ("SELECT id FROM items ORDER BY id LIMIT ? OFFSET ?", (4, 2)),
    # GROUP BY with nothing to aggregate (generated code once read ``(,)``).
    ("SELECT grp FROM items GROUP BY grp HAVING grp > ? ORDER BY grp", ("g3",)),
]


def _canon(rows):
    return sorted(rows, key=repr)


def _same(got, want, label) -> None:
    """Equal rows, value types included (1 vs 1.0 vs True)."""
    assert got == want, label
    for g, w in zip(got, want):
        assert tuple(map(type, g)) == tuple(map(type, w)), label


class TestDifferential:
    """One set of programs, every arrangement of rows under them."""

    def test_first_execution_matches_cache_hits(self):
        db = build_db()
        for sql, params in [(q, ()) for q in QUERIES] + PARAM_QUERIES:
            hits = db.plan_cache_stats["hits"]
            first = db.execute(sql, params).rows
            again = db.execute(sql, params).rows
            assert db.plan_cache_stats["hits"] == hits + 1, sql
            _same(again, first, sql)
        assert db.executor_stats["batches_processed"] > 0

    def test_mixed_class_keys_follow_compare_values(self):
        db = build_db()
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
        sharded = build_sharded()
        single = build_db()
        for sql, params in [(q, ()) for q in QUERIES] + PARAM_QUERIES:
            want = single.execute(sql, params).rows
            for run in ("first execution", "cache hit"):
                got = sharded.execute(sql, params).rows
                # Shard gather order is deterministic, but only ordered
                # queries must match exactly; the rest are multisets.
                if "ORDER BY" in sql:
                    _same(got, want, (sql, run))
                else:
                    _same(_canon(got), _canon(want), (sql, run))


class TestShapesOnlyClosuresRan:
    """The values, not just the agreement, of what the generator learned."""

    def test_keyless_joins(self):
        db = build_db()
        assert db.explain(PARAM_QUERIES[0][0])[2].strip() == "NestedLoopJoin(inner)"
        rows = db.execute(*PARAM_QUERIES[0]).rows
        # val = 12.0 on ids 12, 25, ... (23 of them) x labels 0, 1, 10.
        assert len(rows) == 23 * 3 and rows[:3] == [(12, "g0"), (12, "g1"), (12, "g10")]
        assert db.execute(*PARAM_QUERIES[1]).rows == [
            (i, label)
            for i in range(3)
            for label in sorted(["label3"] + [f"label3{d}" for d in range(10)])
        ]
        left = db.execute(*PARAM_QUERIES[2]).rows
        assert len(left) == 30
        assert [r for r in left if r[1] is not None] == [
            (0, "label1"), (13, "label1"), (26, "label1")
        ]

    def test_computed_in_items_and_like_patterns(self):
        db = build_db()
        assert db.execute(*PARAM_QUERIES[3]).rows == [(3,), (5,), (145,)]
        assert db.execute(*PARAM_QUERIES[4]).rows == [
            (0, None, True),
            (1, True, True),
            (2, None, False),
            (3, None, True),
        ]
        assert len(db.execute(*PARAM_QUERIES[5]).rows) == 300
        assert db.execute(*PARAM_QUERIES[6]).rows == [
            (i,) for i in range(9) if i % 7 != 1
        ]
        assert db.execute(*PARAM_QUERIES[7]).rows == [
            (f"g{i % 7}", True, None) for i in range(296, 300)
        ] + [(None, None, None)]

    def test_update_assignments(self):
        db = build_db()
        sql = "UPDATE items SET val = val * ? + id, grp = grp || '-' || ? WHERE id < ?"
        for run in range(2):  # the plan's first execution, then a cache hit
            before = db.query("SELECT id, grp, val FROM items WHERE id < 5").rows
            assert db.execute(sql, (2, "x", 5)).rowcount == 5
            assert db.query("SELECT id, grp, val FROM items WHERE id < 5").rows == [
                (i, f"{grp}-x", val * 2 + i) for i, grp, val in before
            ]
        # A value is stored, or refused, as its column would on INSERT.
        assert db.execute("UPDATE items SET val = id WHERE id = 7").rowcount == 1
        (stored,) = db.query("SELECT val FROM items WHERE id = 7").rows[0]
        assert stored == 7.0 and type(stored) is float
        with pytest.raises(Exception, match=r"items\.val: expected FLOAT"):
            db.execute("UPDATE items SET val = grp WHERE id = 7")
        with pytest.raises(ExecutionError, match="division by zero"):
            db.execute("UPDATE items SET val = 1 / (id - id) WHERE id = 7")

    def test_broadcast_side_filter_runs_on_every_shard(self):
        sharded = build_sharded()
        sql, params = PARAM_QUERIES[8]
        before = sharded.stats["broadcast_joins"]
        rows = sharded.execute(sql, params).rows
        assert sharded.stats["broadcast_joins"] == before + 1
        # grps' single-digit labels: g0..g6 are the groups items use.
        assert rows == [(i, f"label{i % 7}") for i in range(40)]

    def test_order_by_resolves_on_input_then_on_output(self):
        db = build_db()
        on_input = db.explain(PARAM_QUERIES[9][0])
        assert on_input[0].startswith("Project") and on_input[1].strip().startswith("Sort")
        on_alias = db.explain(PARAM_QUERIES[10][0])
        assert on_alias[0].startswith("Sort") and on_alias[1].strip().startswith("Project")
        with pytest.raises(PlanningError, match="unknown column nosuch"):
            db.explain("SELECT id FROM items ORDER BY nosuch")
        with pytest.raises(PlanningError, match=r"aggregate COUNT\(\) is not allowed"):
            db.explain("SELECT id FROM items WHERE COUNT(*) > 1")

    def test_long_chains_generate_flat_code(self):
        """CPython nests 20 blocks and 100 indents; an expression may be longer."""
        db = build_db()
        total = " + ".join(["id"] * 60)
        assert db.query(f"SELECT {total} FROM items WHERE id = 2").rows == [(120,)]
        arms = " ".join(f"WHEN id = {i} THEN {i * i}" for i in range(150))
        assert db.query(
            f"SELECT CASE {arms} ELSE -1 END FROM items WHERE id IN (149, 150) ORDER BY id"
        ).rows == [(149 * 149,), (-1,)]
        items = ", ".join(f"id + {i}" for i in range(1, 120))
        assert db.query(
            f"SELECT COUNT(*) FROM items WHERE 299 IN ({items})"
        ).rows == [(119,)]


class _TraceCollector:
    events = ("statement_executed",)

    def __init__(self):
        self.traces = []

    def statement_executed(self, txn, trace):
        self.traces.append(trace)


def _read_tuples(traces, db):
    return [row for t in traces for row in read_rows(t.reads, db)]


class TestTrodParity:
    """Provenance must be byte-identical on a first execution and a cache hit."""

    def test_track_reads_identical_single_node(self):
        db = build_db()
        probe = [
            "SELECT id FROM items WHERE val > 6.0",
            "SELECT grp, COUNT(*) FROM items GROUP BY grp",
            "SELECT COUNT(*) FROM items i JOIN grps g ON i.grp = g.grp",
            "SELECT id FROM items WHERE id > 100000",
        ]
        for sql in probe:
            runs = []
            for _run in ("first execution", "cache hit"):
                collector = _TraceCollector()
                db.add_observer(collector)
                rows = db.query(sql).rows
                db.remove_observer(collector)
                runs.append((rows, _read_tuples(collector.traces, db)))
            assert runs[0] == runs[1], sql
            assert runs[0][1], sql  # a null read at the least

    def test_track_reads_identical_sharded(self):
        sdb = build_sharded()
        sql = "SELECT grp, COUNT(*) FROM items GROUP BY grp"
        runs = []
        for _run in ("first execution", "cache hit"):
            collectors = []
            for shard in sdb.shards:
                collector = _TraceCollector()
                shard.add_observer(collector)
                collectors.append((shard, collector))
            rows = sdb.execute(sql).rows
            collected = []
            for shard, collector in collectors:
                shard.remove_observer(collector)
                collected.extend(_read_tuples(collector.traces, shard))
            runs.append((_canon(rows), collected))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == 301

    def test_traced_statement_runs_the_batch_pipeline(self):
        """Tracing changes what is recorded, not which executor runs."""
        db = build_db()
        sql = "SELECT id FROM items WHERE val > 6.0"
        untraced = db.query(sql).rows
        collector = _TraceCollector()
        db.add_observer(collector)
        before = db.executor_stats["batches_processed"]
        assert db.query(sql).rows == untraced
        assert db.executor_stats["batches_processed"] > before
        assert len(_read_tuples(collector.traces[-1:], db)) == len(untraced)


class TestExecutorStats:
    def test_each_filter_form_is_generated_by_its_first_run(self, monkeypatch):
        """A scan generates the filter program it runs, when it first runs it."""
        from repro.db.sql import compile as codegen

        calls = []
        generate = codegen.compile_predicate_batch

        def counting(expr, layout, pairs=False):
            calls.append(pairs)
            return generate(expr, layout, pairs)

        monkeypatch.setattr(codegen, "compile_predicate_batch", counting)
        db = build_db()
        sql = "SELECT id FROM items WHERE val > 6.0"
        assert db.explain(sql) and calls == []  # planning generates nothing
        untraced = db.query(sql).rows
        assert calls == [False]
        db.add_observer(_TraceCollector())  # tracing: the scan keeps pairs
        assert db.query(sql).rows == untraced
        assert calls == [False, True]
        assert db.query(sql).rows == untraced
        assert calls == [False, True]

    def test_databases_share_compiled_code(self, monkeypatch):
        """Two fresh databases running one statement call ``compile()`` once."""
        from repro.db.sql import compile as codegen

        compiled = []

        def counting(source, *args, **kwargs):
            compiled.append(source)
            return compile(source, *args, **kwargs)

        monkeypatch.setattr(codegen, "compile", counting, raising=False)
        codegen._code_memo.clear()
        sql = (
            "SELECT grp, SUM(val * ?) FROM items WHERE id % 3 = 1"
            " GROUP BY grp ORDER BY grp LIMIT 4"
        )
        first = build_db().execute(sql, (2,)).rows
        sources = list(compiled)
        assert len(sources) == len(set(sources)) >= 4  # filter, agg, sort, project
        assert build_db().execute(sql, (2,)).rows == first
        assert build_sharded().shards[0].execute(sql, (2,)).rows
        assert compiled == sources

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
        assert stats["batches_processed"] >= 3
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
