"""Property test: a span probe answers what the table scan it replaces does.

A range with both bounds on a hash-indexed INTEGER column is a span
probe: it looks up every integer between its bounds, or, when a bound is
not a finite number or the span is too wide for the table
(``executor.SPAN_ROWS_PER_KEY``), scans. Each example writes a random
history to ``t (id, k, v)`` — inserts, re-keys (``A -> B -> A`` among
them), value-only updates, deletes and a delete then a re-insert under
the old row id — and then runs span statements (SELECT, UPDATE, DELETE;
strict, inclusive and ``BETWEEN`` bounds; integer, float, infinite, NaN,
NULL, TEXT and BOOLEAN bounds) twice over the same history: once with the
cutoff at zero, so every finite span probes, and once with it past any
table, so every span scans. The two runs must agree on every answer, row
order, row count, written row id and the final table:

* on memory and on paged storage;
* in a transaction that wrote the table first (its own pending writes);
* at every readable CSN through ``AS OF``;
* on a two-shard engine;
* traced, where the scan records its predicate and the probe its rows:
  every provenance table, ``Seq`` for ``Seq``, matches the eager
  recorder's (``tests/eager_reads.py``).
"""

from __future__ import annotations

import math
import tempfile
from contextlib import contextmanager
from typing import Any, Iterator
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core import Trod
from repro.db import Database, ShardedDatabase
from repro.db.sql import executor
from repro.errors import ReproError

from eager_reads import answers, eager_reads

N_IDS = 8
KEYS = st.integers(0, 5)
idents = st.integers(0, N_IDS - 1)

steps = st.one_of(
    st.tuples(st.just("insert"), idents, KEYS),
    st.tuples(st.just("rekey"), idents, KEYS),
    st.tuples(st.just("rekey_back"), idents, KEYS),
    st.tuples(st.just("value"), idents, st.just(0)),
    st.tuples(st.just("delete"), idents, st.just(0)),
    st.tuples(st.just("reinsert"), idents, KEYS),
)

bounds = st.one_of(
    st.integers(-2, 7),
    st.sampled_from([-0.5, 1.5, 2.5, 4.0, None, "a", True, math.inf, -math.inf, math.nan]),
)
FORMS = (
    "k >= ? AND k < ?",
    "k > ? AND k <= ?",
    "k BETWEEN ? AND ?",
    "? <= k AND k < ?",
)
TEMPLATES = (
    "SELECT id, k, v FROM t WHERE {span}",
    "SELECT id, k, v FROM t WHERE {span} ORDER BY k DESC, id",
    "SELECT COUNT(*), SUM(id) FROM t WHERE {span} AND v <> 'zz'",
    "UPDATE t SET v = v || 'u' WHERE {span}",
    "DELETE FROM t WHERE {span}",
)
statements = st.lists(
    st.tuples(st.sampled_from(TEMPLATES), st.sampled_from(FORMS), bounds, bounds),
    min_size=1,
    max_size=8,
)


@contextmanager
def spans(probe: bool) -> Iterator[list[int]]:
    """Every span with keys probes (``probe``) or scans; yields
    ``[spans that looked keys up]``. An empty span (low above high, a
    NULL bound) matches nothing either way and looks nothing up."""
    probed = [0]
    span_keys = executor.ScanNode._span_keys

    def spy(self, ctx):
        keys = span_keys(self, ctx)
        probed[0] += bool(keys)
        return keys

    cutoff = 0 if probe else 10**9
    with mock.patch.object(executor, "SPAN_ROWS_PER_KEY", cutoff), \
            mock.patch.object(executor.ScanNode, "_span_keys", spy):
        yield probed


def outcome(engine: Any, sql: str, params: tuple, txn: Any = None) -> tuple:
    try:
        result = engine.execute(sql, params, txn=txn)
    except ReproError as exc:
        return ("error", type(exc).__name__)
    if result.kind == "select":
        return ("rows", result.rows)
    return (result.kind, result.rowcount, list(result.row_ids))


def live_row_id(db: Database, ident: int) -> int | None:
    for row_id, row in db.store("t").scan(None):
        if row[0] == ident:
            return row_id
    return None


def write_history(db: Database, history: list[tuple]) -> None:
    """Run the history's steps; a delete's row id comes back on re-insert."""
    gone: dict[int, int] = {}
    for kind, ident, key in history:
        row_id = live_row_id(db, ident)
        if kind == "insert" and row_id is None and ident not in gone:
            db.execute("INSERT INTO t VALUES (?, ?, ?)", (ident, key, "new"))
        elif kind == "rekey" and row_id is not None:
            db.execute("UPDATE t SET k = ? WHERE id = ?", (key, ident))
        elif kind == "rekey_back" and row_id is not None:
            (old,) = db.execute("SELECT k FROM t WHERE id = ?", (ident,)).rows[0]
            db.execute("UPDATE t SET k = ? WHERE id = ?", ((key + 1) % 6, ident))
            db.execute("UPDATE t SET k = ? WHERE id = ?", (old, ident))
        elif kind == "value" and row_id is not None:
            db.execute("UPDATE t SET v = v || 'x' WHERE id = ?", (ident,))
        elif kind == "delete" and row_id is not None:
            db.execute("DELETE FROM t WHERE id = ?", (ident,))
            gone[ident] = row_id
        elif kind == "reinsert" and ident in gone:
            txn = db.begin()
            txn.insert_with_id("t", (ident, key, "back"), gone.pop(ident))
            txn.commit()


def loaded(engine: Any) -> Any:
    engine.execute("CREATE TABLE t (id INTEGER, k INTEGER, v TEXT)")
    engine.execute("CREATE INDEX ix_k ON t (k)")
    for ident in range(N_IDS // 2):
        engine.execute("INSERT INTO t VALUES (?, ?, ?)", (ident, ident % 6, "v"))
    return engine


def sql_of(template: str, form: str, low: Any, high: Any) -> tuple[str, tuple]:
    return template.format(span=form), (low, high)


def single_run(storage: str, history, stmts, probe: bool) -> tuple[list, int]:
    """Every statement's outcome — at each readable CSN, in a transaction
    after its own writes, then autocommitted — and the final table."""
    with tempfile.TemporaryDirectory() as data_dir, spans(probe) as probed:
        if storage == "paged":
            db = Database(storage="paged", data_dir=data_dir, buffer_pool_pages=4, page_size=512)
        else:
            db = Database()
        loaded(db)
        write_history(db, history)
        out = []
        last = db.last_csn
        for template, form, low, high in stmts:
            if template.startswith("SELECT id, k, v FROM t WHERE {span}"):
                sql, params = sql_of(template, form, low, high)
                for csn in range(db.history_horizon, last + 1):
                    out.append(outcome(db, f"{sql} AS OF ?", (*params, csn)))
        txn = db.begin()
        out.append(outcome(db, "INSERT INTO t VALUES (?, ?, ?)", (20, 2, "own"), txn))
        out.append(outcome(db, "UPDATE t SET k = k + 1 WHERE id = ?", (1,), txn))
        out.append(outcome(db, "DELETE FROM t WHERE id = ?", (2,), txn))
        for template, form, low, high in stmts:
            out.append(outcome(db, *sql_of(template, form, low, high), txn))
        txn.abort()
        for template, form, low, high in stmts:
            out.append(outcome(db, *sql_of(template, form, low, high)))
        out.append(sorted(db.snapshot_rows("t")))
        db.close()
        return out, probed[0]


@settings(max_examples=150, deadline=None)
@given(
    storage=st.sampled_from(["memory", "paged"]),
    history=st.lists(steps, max_size=20),
    stmts=statements,
)
def test_a_span_probe_answers_as_the_scan_does(storage, history, stmts):
    probed, probes = single_run(storage, history, stmts, probe=True)
    scanned, scans = single_run(storage, history, stmts, probe=False)
    assert probed == scanned
    assert scans == 0
    spanned = [
        (low, high) for _t, _f, low, high in stmts
        if all(type(b) in (int, float) and math.isfinite(b) for b in (low, high))
        and math.ceil(low) <= math.floor(high)
    ]
    assert (probes > 0) == bool(spanned)


def sharded_run(history, stmts, probe: bool) -> list:
    with spans(probe):
        engine = loaded(ShardedDatabase(2, shard_keys={"t": "id"}))
        for kind, ident, key in history:
            if kind == "insert":
                engine.execute("INSERT INTO t VALUES (?, ?, ?)", (ident + N_IDS, key, "new"))
            elif kind in ("rekey", "rekey_back"):
                engine.execute("UPDATE t SET k = ? WHERE id = ?", (key, ident))
            elif kind == "delete":
                engine.execute("DELETE FROM t WHERE id = ?", (ident,))
        out = []
        txn = engine.begin()
        out.append(outcome(engine, "INSERT INTO t VALUES (?, ?, ?)", (30, 3, "own"), txn))
        for template, form, low, high in stmts:
            out.append(outcome(engine, *sql_of(template, form, low, high), txn))
        txn.commit()
        for template, form, low, high in stmts:
            out.append(outcome(engine, *sql_of(template, form, low, high)))
        out.append(sorted(engine.execute("SELECT id, k, v FROM t").rows))
        return out


@settings(max_examples=60, deadline=None)
@given(history=st.lists(steps, max_size=12), stmts=statements)
def test_a_sharded_span_probe_answers_as_the_scan_does(history, stmts):
    assert sharded_run(history, stmts, probe=True) == sharded_run(history, stmts, probe=False)


def traced_run(history, stmts, probe: bool) -> dict:
    with spans(probe):
        db = Database()
        loaded(db)
        trod = Trod(db).attach()
        write_history(db, history)
        txn = db.begin()
        outcome(db, "INSERT INTO t VALUES (?, ?, ?)", (20, 2, "own"), txn)
        for template, form, low, high in stmts:
            outcome(db, *sql_of(template, form, low, high), txn)
        txn.commit()
        for template, form, low, high in stmts:
            outcome(db, *sql_of(template, form, low, high))
        trod.flush()
        return answers(trod)


@settings(max_examples=60, deadline=None)
@given(history=st.lists(steps, max_size=12), stmts=statements)
def test_traced_span_probes_record_what_the_eager_recorder_does(history, stmts):
    probed = traced_run(history, stmts, probe=True)
    scanned = traced_run(history, stmts, probe=False)
    with eager_reads():
        eager = traced_run(history, stmts, probe=False)
    assert probed == scanned == eager
