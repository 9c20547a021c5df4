"""UPDATE/DELETE access paths against a plain-Python model.

The match phase of an UPDATE or DELETE is the scan a SELECT with the same
WHERE would run: an index probe where one applies (at every isolation
level), a table scan otherwise, the transaction's own writes merged in
either way.
Whichever path serves it, the statement must do exactly what a loop over
the visible rows does. The model below is that loop; the matrix crosses

    index        none | hash (k) | sorted (k) | hash (k, g)
    isolation    SERIALIZABLE | SNAPSHOT | READ_COMMITTED
    predicate    equality | range | equality + residual | NULL key |
                 no match | no WHERE | the spans: strict, BETWEEN with
                 float bounds, low above high, a NULL bound, a TEXT
                 bound, wider than the table
    transaction  autocommit | a matching row inserted earlier | the indexed
                 column changed earlier (the shared index is stale both
                 ways) | a matching row deleted earlier
    statement    UPDATE | DELETE
    plan         a cache hit | the plan's first execution

on a :class:`Database` and on every shard of a :class:`ShardedDatabase`,
and compares ``rowcount``, ``row_ids``, the final rows, the WAL changes
of the commit, and the read provenance (none: a write's
provenance is the rows it wrote).

A range with both bounds under the hash index on ``k`` is a span probe;
the module lowers its cutoff to one live row per key
(``executor.SPAN_ROWS_PER_KEY``), so a narrow span on these small tables
looks its keys up and the wide one scans, as do the spans whose bounds
are not finite numbers.
"""

from __future__ import annotations

import pytest

from repro.db import Database, IsolationLevel, ShardedDatabase
from repro.db.sql import executor

from eager_reads import ReadLog


@pytest.fixture(autouse=True)
def narrow_span_cutoff(monkeypatch):
    monkeypatch.setattr(executor, "SPAN_ROWS_PER_KEY", 1)

TABLE_DDL = "CREATE TABLE t (k INTEGER, g INTEGER, v INTEGER)"


def initial_rows() -> list[tuple]:
    """24 rows: ``k`` repeats (and is NULL every eighth row), ``v`` is unique."""
    return [
        (None if i % 8 == 7 else i % 6, i % 4, i * 10) for i in range(24)
    ]


INDEXES = {
    "none": None,
    "hash": "CREATE INDEX ix ON t (k)",
    "sorted": "CREATE SORTED INDEX ix ON t (k)",
    "hash2": "CREATE INDEX ix ON t (k, g)",
}

#: name -> (WHERE text, params, the same predicate over (k, g, v))
PREDICATES = {
    "equality": ("WHERE k = ?", (3,), lambda k, g, v: k == 3),
    "range": (
        "WHERE k >= ? AND k < ?",
        (2, 5),
        lambda k, g, v: k is not None and 2 <= k < 5,
    ),
    "equality+residual": (
        "WHERE k = ? AND g = ? AND v >= ?",
        (3, 1, 100),
        lambda k, g, v: k == 3 and g == 1 and v >= 100,
    ),
    "null key": ("WHERE k = ?", (None,), lambda k, g, v: False),
    "no match": ("WHERE k = ?", (999,), lambda k, g, v: False),
    "no where": ("", (), lambda k, g, v: True),
    "span strict": (
        "WHERE k > ? AND k <= ?",
        (1, 3),
        lambda k, g, v: k is not None and 1 < k <= 3,
    ),
    "span between floats": (
        "WHERE k BETWEEN ? AND ?",
        (1.5, 3.5),
        lambda k, g, v: k is not None and 1.5 <= k <= 3.5,
    ),
    "span empty": ("WHERE k >= ? AND k < ?", (4, 2), lambda k, g, v: False),
    "span null bound": ("WHERE k >= ? AND k < ?", (None, 3), lambda k, g, v: False),
    "span text bound": (
        # Every number sorts below TEXT.
        "WHERE k > ? AND k < ?",
        (2, "a"),
        lambda k, g, v: k is not None and k > 2,
    ),
    "span wide": (
        "WHERE ? <= k AND k < ?",
        (-1000, 1000),
        lambda k, g, v: k is not None,
    ),
}

SPANS = ("range", "span strict", "span between floats", "span empty",
         "span null bound", "span text bound", "span wide")

#: (index, predicate) -> what the plan's scan line must show, under every
#: isolation level. Every other cell is a plain scan.
PROBES = {
    ("hash", "equality"): "probe=ix[k]",
    ("hash", "equality+residual"): "probe=ix[k]",
    ("hash", "null key"): "probe=ix[k]",
    ("hash", "no match"): "probe=ix[k]",
    ("hash2", "equality+residual"): "probe=ix[k, g]",
    **{("sorted", span): "range=ix[k]" for span in SPANS},
    **{("hash", span): "span=ix[k]" for span in SPANS},
}

STATEMENTS = {
    "update": ("UPDATE t SET g = g + 10 {where}", lambda k, g, v: (k, g + 10, v)),
    "delete": ("DELETE FROM t {where}", None),
}

#: Earlier statements of the same transaction: (sql, params, model op).
#: Model ops are ("insert", values) | ("update", predicate, rewrite) |
#: ("delete", predicate), over (k, g, v).
STATES = {
    "autocommit": [],
    "inserted": [
        ("INSERT INTO t VALUES (?, ?, ?)", (3, 1, 500), ("insert", (3, 1, 500))),
    ],
    "key changed": [
        # Moves a row into every k = 3 predicate; the shared index still
        # files it under k = 1 ...
        (
            "UPDATE t SET k = 3 WHERE v = 130",
            (),
            ("update", lambda k, g, v: v == 130, lambda k, g, v: (3, g, v)),
        ),
        # ... and one out of them, which the shared index still files
        # under k = 3.
        (
            "UPDATE t SET k = 40 WHERE v = 210",
            (),
            ("update", lambda k, g, v: v == 210, lambda k, g, v: (40, g, v)),
        ),
    ],
    "deleted": [
        ("DELETE FROM t WHERE v = 210", (), ("delete", lambda k, g, v: v == 210)),
    ],
}


class Model:
    """One node's table as a dict, and the changes a transaction made to it."""

    def __init__(self, rows: list[tuple[int, tuple]]):
        self.rows = dict(rows)
        self.next_row_id = max(self.rows, default=0) + 1
        #: (op, row_id, values, old_values) in execution order.
        self.changes: list[tuple] = []

    def apply(self, op: tuple) -> list[int]:
        """Run one model op; returns the row ids it wrote, ascending."""
        if op[0] == "insert":
            row_id = self.next_row_id
            self.next_row_id += 1
            self.rows[row_id] = op[1]
            self.changes.append(("insert", row_id, op[1], None))
            return [row_id]
        matches = [rid for rid in sorted(self.rows) if op[1](*self.rows[rid])]
        for row_id in matches:
            old = self.rows[row_id]
            if op[0] == "update":
                self.rows[row_id] = op[2](*old)
                self.changes.append(("update", row_id, self.rows[row_id], old))
            else:
                del self.rows[row_id]
                self.changes.append(("delete", row_id, None, old))
        return matches


class Traces:
    """Observer collecting every statement trace and every non-empty
    commit's changes a node emits."""

    events = ("statement_executed", "txn_committed")

    def __init__(self) -> None:
        self.seen: list = []
        self.commits: list[tuple] = []

    def statement_executed(self, _txn, trace) -> None:
        self.seen.append(trace)

    def txn_committed(self, _txn, _csn, changes) -> None:
        if changes:
            self.commits.append(changes)


class Node:
    """One :class:`Database` under test, with its model and its probes."""

    def __init__(self, db: Database):
        self.db = db
        self.traces = Traces()
        db.add_observer(self.traces)  # a SELECT now records its reads
        self.model = Model(db.snapshot_rows("t"))

    def check(self, label: str) -> None:
        db, model = self.db, self.model
        assert dict(db.snapshot_rows("t")) == model.rows, label
        new_commits = self.traces.commits
        changes = [c for commit in new_commits for c in commit]
        logged = [(c.op, c.row_id, c.values, c.old_values) for c in changes]
        assert logged == model.changes, label
        assert len(new_commits) == (1 if model.changes else 0), label
        assert all(c.table == "t" for c in changes), label
        # A match phase records no read set: the rows a write touched are
        # its provenance. One that matched nothing records a null read, as
        # a SELECT does.
        for trace in self.traces.seen:
            expected = [] if trace.rowcount else [("t", [(None, None)])]
            assert [(r.table, r.pairs) for r in trace.reads] == expected, label
        # The indexes followed the commit: a fresh probe finds the new state.
        for k in (3, 40):
            expected = sorted(v for key, _g, v in model.rows.values() if key == k)
            got = sorted(db.execute("SELECT v FROM t WHERE k = ?", (k,)).column("v"))
            assert got == expected, label


def single_node(index: str) -> tuple[Database, list[Node]]:
    db = Database()
    db.execute(TABLE_DDL)
    db.insert_rows("t", initial_rows())
    if INDEXES[index]:
        db.execute(INDEXES[index])
    return db, [Node(db)]


def sharded(index: str) -> tuple[ShardedDatabase, list[Node]]:
    # Sharded on v: no predicate below pins it, so every statement under
    # test scatters to, and is planned on, both shards.
    engine = ShardedDatabase(2, shard_keys={"t": "v"})
    engine.execute(TABLE_DDL)
    for row in initial_rows():
        engine.execute("INSERT INTO t VALUES (?, ?, ?)", row)
    if INDEXES[index]:
        engine.execute(INDEXES[index])
    nodes = [Node(shard) for shard in engine.shards]
    assert all(node.model.rows for node in nodes)  # both shards hold rows
    return engine, nodes


ENGINES = {"single": single_node, "sharded": sharded}


def owner(engine, nodes: list[Node], values: tuple) -> Node:
    """The node an INSERT of ``values`` lands on."""
    if len(nodes) == 1:
        return nodes[0]
    schema = nodes[0].db.catalog.get("t")
    store = engine.router.shard_for_row("t", schema, values)
    return nodes[engine.store_names.index(store)]


def apply_everywhere(engine, nodes: list[Node], op: tuple) -> list[list[int]]:
    """Run a model op on the node(s) it reaches; the row ids it wrote, per node."""
    if op[0] == "insert":
        target = owner(engine, nodes, op[1])
        return [node.model.apply(op) if node is target else [] for node in nodes]
    return [node.model.apply(op) for node in nodes]


@pytest.mark.parametrize("cache_hit", [True, False], ids=["cache-hit", "first-run"])
@pytest.mark.parametrize("isolation", list(IsolationLevel), ids=lambda i: i.value)
@pytest.mark.parametrize("index", sorted(INDEXES))
@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_dml_matches_model(engine_name, index, isolation, cache_hit):
    for predicate, (where, params, matches) in PREDICATES.items():
        for statement, (template, rewrite) in STATEMENTS.items():
            sql = " ".join(template.format(where=where).split())
            dml = (statement, matches, rewrite) if rewrite else (statement, matches)
            for state, earlier in STATES.items():
                label = f"{engine_name}/{index}/{isolation.value}/{predicate}/{statement}/{state}"
                engine, nodes = ENGINES[engine_name](index)

                # The access path, on every node that will run the statement.
                probe = PROBES.get((index, predicate))
                for node in nodes:
                    lines = node.db.explain(sql)
                    assert lines[0] == f"{statement.capitalize()}(t)", label
                    assert lines[1].startswith("  Scan(t)"), label
                    if probe is None:
                        assert "=ix[" not in lines[1], label
                    else:
                        assert probe in lines[1], label
                    if not cache_hit:
                        # Forget the plan just explained: the statement
                        # under test plans, and generates its programs, anew.
                        executor._plan_memo.clear()

                if state == "autocommit" and isolation is IsolationLevel.SERIALIZABLE:
                    result = engine.execute(sql, params)
                else:
                    txn = engine.begin(isolation)
                    for pre_sql, pre_params, op in earlier:
                        engine.execute(pre_sql, pre_params, txn=txn)
                        apply_everywhere(engine, nodes, op)
                    result = engine.execute(sql, params, txn=txn)
                    txn.commit()
                per_node = apply_everywhere(engine, nodes, dml)
                expected = [row_id for row_ids in per_node for row_id in row_ids]

                assert result.kind == statement, label
                assert result.rowcount == len(expected), label
                assert list(result.row_ids) == expected, label
                for node, row_ids in zip(nodes, per_node):
                    trace = node.traces.seen[-1]  # the statement under test
                    assert (trace.sql, trace.kind) == (sql, statement), label
                    assert trace.rowcount == len(row_ids), label
                    assert trace.writes == [(statement, "t", r) for r in row_ids], label
                    node.check(label)
                if hasattr(engine, "close"):
                    engine.close()


def test_update_of_the_probed_column_moves_the_row_between_probes():
    """An UPDATE that rewrites the column it probed keeps the index right."""
    db, (node,) = single_node("hash")
    assert "probe=ix[k]" in db.explain("UPDATE t SET k = k + 100 WHERE k = ?")[1]
    moved = db.execute("UPDATE t SET k = k + 100 WHERE k = ?", (3,))
    assert moved.rowcount == 3 and list(moved.row_ids) == sorted(moved.row_ids)
    assert db.execute("UPDATE t SET v = 0 WHERE k = ?", (3,)).rowcount == 0
    assert db.execute("DELETE FROM t WHERE k = ?", (103,)).rowcount == 3
    assert db.execute("SELECT COUNT(*) FROM t").scalar() == 21


def test_match_drains_before_the_first_write():
    """A row an UPDATE moves *into* its own predicate is not matched twice."""
    for index in sorted(INDEXES):
        db, _nodes = single_node(index)
        # k = 2 rows become k = 3 rows; the k = 3 rows become k = 4 rows.
        before = db.execute("SELECT COUNT(*) FROM t WHERE k IN (2, 3)").scalar()
        result = db.execute("UPDATE t SET k = k + 1 WHERE k >= 2 AND k < 4")
        assert result.rowcount == before, index
        assert db.execute("SELECT COUNT(*) FROM t WHERE k = 2").scalar() == 0, index


def test_dml_records_no_reads_where_a_select_does():
    db, (node,) = single_node("hash")
    log = ReadLog.on(db)
    txn = db.begin()
    db.execute("UPDATE t SET v = 1 WHERE k = ?", (3,), txn=txn)
    db.execute("DELETE FROM t WHERE k = ?", (4,), txn=txn)
    assert log[txn] == []
    db.execute("SELECT v FROM t WHERE k = ?", (3,), txn=txn)
    # Tracking was on all along.
    assert len([row for read_set in log[txn] for row in read_set.rows()]) == 3
    txn.commit()


def test_each_span_takes_its_path(monkeypatch):
    """Under the hash index a narrow span looks its keys up, an empty one
    (low above high, a NULL bound) looks up nothing, and one with a TEXT
    bound or wider than the table's live rows scans."""
    taken: list = []
    span_keys = executor.ScanNode._span_keys

    def spy(self, ctx):
        keys = span_keys(self, ctx)
        taken.append(keys)
        return keys

    monkeypatch.setattr(executor.ScanNode, "_span_keys", spy)
    expected = {
        "range": ((2,), (3,), (4,), (5,)),
        "span strict": ((1,), (2,), (3,)),
        "span between floats": ((2,), (3,)),
        "span empty": (),
        "span null bound": (),
        "span text bound": None,
        "span wide": None,
    }
    for predicate, keys in expected.items():
        for statement, (template, _rewrite) in STATEMENTS.items():
            db, _nodes = single_node("hash")
            where, params, _matches = PREDICATES[predicate]
            taken.clear()
            db.execute(template.format(where=where), params)
            assert taken == [keys], (predicate, statement)
