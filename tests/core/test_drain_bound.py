"""No request absorbs more than a slice of trace: a count, not a timing.

A commit or abort drains the trace buffer once it holds a slice of its
capacity (``capacity // DRAIN_SLICES`` rows). On a default ``Trod`` over
a long checkout stream, and over a ``connect()`` scan stream shaped like
the ``scan_traced`` benchmark workload:

* after every commit or abort hook, fewer than a slice of rows is staged;
* every boundary drain ingests fewer than a slice plus the rows staged
  since the previous boundary: those of the transaction that triggered
  it, and the request records (``Requests``, ``WorkflowEdges``,
  ``SideEffects``) the runtime staged between the two transactions;
* every provenance table and ``Seq`` equal those of a twin whose buffer
  never fills and that flushes once, at the end.

A single statement that stages more than ``capacity`` rows still drains
inline, in the hook that staged them, with the same provenance. The scan
streams run under the eager read recorder (``eager_reads.py``), which
stages every row a scan reads: with scan predicates, the ``scan_traced``
mix stages a row or two per statement and never fills a slice — which
the last tests here pin, with the expansion of each predicate left to
the first reader.
"""

from __future__ import annotations

import random

import repro
from repro.apps import build_ecommerce_app
from repro.core import Trod
from repro.core.buffer import DRAIN_SLICES
from repro.db import Database
from repro.runtime import Runtime
from repro.workload.generators import CheckoutWorkload

from eager_reads import eager_reads, provenance_tables

NEVER_FULL = 10**9
ORDERS = 1500


class DrainProbe:
    """Checks every boundary drain of ``trod``, as an observer of its
    engine added after ``trod`` attached (so its hooks run after the
    interposition layer's, drain included), plus a wrapper around
    ``trod.flush`` and ``trod.request_flush``."""

    def __init__(self, trod: Trod):
        self.trod = trod
        self.slice = trod.buffer.capacity // DRAIN_SLICES
        self._last_boundary = trod.buffer.appended
        self._pending: list[int] = []
        self.boundaries = 0
        self.boundary_drains = 0
        self.inline_drains = 0
        self.violations: list[tuple] = []
        self._inline = False
        flush, request_flush = trod.flush, trod.request_flush

        def recording_flush() -> int:
            count = flush()
            if count and not self._inline:
                self._pending.append(count)
            return count

        def counting_request_flush() -> None:
            self.inline_drains += 1
            self._inline = True
            try:
                request_flush()
            finally:
                self._inline = False

        trod.flush = recording_flush
        trod.request_flush = counting_request_flush
        trod.database.add_observer(self)

    events = ("txn_committed", "txn_aborted")

    def txn_committed(self, txn, csn, changes) -> None:
        self._boundary(txn)

    def txn_aborted(self, txn) -> None:
        self._boundary(txn)

    def _boundary(self, txn) -> None:
        # Recorded, not asserted: the runtime turns an exception raised in
        # a commit into a failed request.
        buffer = self.trod.buffer
        since = buffer.appended - self._last_boundary
        self._last_boundary = buffer.appended
        if len(buffer) >= max(1, self.slice):
            self.violations.append(("staged", txn.name, len(buffer)))
        for drained in self._pending:
            if drained >= self.slice + since:
                self.violations.append(("drained", txn.name, drained, since))
        self.boundaries += 1
        self.boundary_drains += len(self._pending)
        self._pending.clear()

    def final_flush(self) -> None:
        assert not self._pending
        self.trod.flush()
        self._pending.clear()
        assert not self.violations, self.violations[:5]


def provenance(trod: Trod):
    prov = trod.provenance
    tables = {
        name: prov.db.snapshot_rows(name) for name in prov.db.catalog.table_names()
    }
    return tables, prov._next_seq


def abandon(ctx, cart):
    """Writes, then aborts: an ``Aborted`` row and no write events."""
    with ctx.txn(label="abandon") as t:
        t.execute("DELETE FROM cart_items WHERE cartId = ?", (cart,))
        raise ValueError("changed my mind")


def checkout_stream(capacity: int, probe: bool) -> tuple[Trod, DrainProbe | None]:
    database = Database()
    runtime = Runtime(database)
    event_names = build_ecommerce_app(database, runtime)
    runtime.register("abandon", abandon)
    generator = CheckoutWorkload(n_users=50, n_skus=20, seed=7)
    generator.seed_database(runtime)
    for table, column in (("carts", "cartId"), ("cart_items", "cartId")):
        database.execute(f"CREATE INDEX ix_{table}_{column} ON {table} ({column})")
    trod = Trod(database, event_names=event_names, buffer_capacity=capacity)
    trod.attach(runtime)
    checker = DrainProbe(trod) if probe else None
    for i, request in enumerate(generator.requests(ORDERS)):
        runtime.execute_request(request)
        if i % 50 == 7:
            runtime.submit("abandon", request.args[0])
    runtime.submit("checkout", "no-such-cart", "U1")
    if checker is not None:
        checker.final_flush()
    else:
        trod.flush()
    return trod, checker


REGIONS = ("north", "south", "east", "west")


def value_range(rng: random.Random) -> tuple[int, int]:
    low = rng.randrange(900)  # 10% of the rows: val is uniform on [0, 1000)
    return low, low + 100


#: The ``scan_traced`` mix: each statement with a function of the rng
#: that draws its parameters.
SCAN_OPS = (
    ("SELECT grp, COUNT(*), SUM(val) FROM items GROUP BY grp ORDER BY grp",
     lambda rng: ()),
    ("SELECT id, val FROM items WHERE val >= ? AND val < ?", value_range),
    ("SELECT COUNT(*) FROM items i JOIN grps g ON i.grp = g.grp WHERE g.region = ?",
     lambda rng: (rng.choice(REGIONS),)),
    ("SELECT id, val FROM items ORDER BY val DESC, id LIMIT 10", lambda rng: ()),
    ("SELECT val FROM items WHERE id = ?", lambda rng: (rng.randrange(1000),)),
)


def scan_engine(rng: random.Random) -> Database:
    """1 000 items and 50 groups, ``items.id`` indexed."""
    engine = Database(name="scan")
    loader = repro.connect(engine)
    loader.execute("CREATE TABLE items (id INTEGER, grp INTEGER, val INTEGER, tag TEXT)")
    loader.execute("CREATE TABLE grps (grp INTEGER, region TEXT)")
    with loader.transaction() as txn:
        for i in range(1000):
            txn.execute(
                "INSERT INTO items VALUES (?, ?, ?, ?)",
                (i, rng.randrange(50), rng.randrange(1000), f"t{i % 7}"),
            )
        for g in range(50):
            txn.execute("INSERT INTO grps VALUES (?, ?)", (g, REGIONS[g % 4]))
    loader.execute("CREATE INDEX ix_items_id ON items (id)")
    return engine


def scan_stream(capacity: int, probe: bool, ops: int = 150):
    """Analytic statements through ``connect()``, one transaction each,
    over :func:`scan_engine`, plus an occasional update."""
    rng = random.Random(7)
    engine = scan_engine(rng)
    trod = Trod(engine, buffer_capacity=capacity)
    conn = repro.connect(engine, trod=trod)
    checker = DrainProbe(trod) if probe else None
    for i in range(ops):
        sql, draw = SCAN_OPS[i % len(SCAN_OPS)]
        conn.execute(sql, draw(rng)).rows
        if i % 20 == 3:
            conn.execute("UPDATE items SET val = val + 1 WHERE id = ?", (i,))
    if checker is not None:
        checker.final_flush()
    else:
        trod.flush()
    return trod, checker


def test_a_checkout_stream_drains_in_slices_at_the_default_capacity():
    trod, probe = checkout_stream(65536, probe=True)
    assert probe.slice == 4096
    assert probe.boundaries > 4 * ORDERS
    assert trod.buffer.appended > 6 * probe.slice
    assert probe.boundary_drains >= trod.buffer.appended // probe.slice // 2
    assert probe.inline_drains == 0
    statuses = {values[7] for _row_id, values in trod.provenance.db.snapshot_rows("Executions")}
    assert statuses == {"Committed", "Aborted"}
    assert provenance(trod) == provenance(checkout_stream(NEVER_FULL, probe=False)[0])


def test_a_connect_scan_stream_drains_in_slices_at_the_default_capacity():
    with eager_reads():
        trod, probe = scan_stream(65536, probe=True)
        twin = scan_stream(NEVER_FULL, probe=False)[0]
    assert probe.boundary_drains >= trod.buffer.appended // probe.slice // 2 >= 4
    assert probe.inline_drains == 0
    assert provenance(trod) == provenance(twin)


def test_a_statement_staging_more_than_capacity_still_drains_inline():
    # Each GROUP BY and top-k reads 1 000 rows in one statement.
    with eager_reads():
        trod, probe = scan_stream(256, probe=True, ops=40)
        twin = scan_stream(NEVER_FULL, probe=False, ops=40)[0]
    assert probe.inline_drains >= 8
    assert probe.boundary_drains >= 8
    assert provenance(trod) == provenance(twin)


class ExpansionSpy:
    """Counts ``trod.provenance.expand_reads`` calls that expanded rows,
    and those made inside one of ``trod``'s drains."""

    def __init__(self, trod: Trod):
        self.expanded = 0
        self.in_drain = 0
        self._draining = False
        expand, flush = trod.provenance.expand_reads, trod.flush

        def spying_expand(tables=None) -> int:
            rows = expand(tables)
            self.expanded += bool(rows)
            self.in_drain += self._draining
            return rows

        def spying_flush() -> int:
            self._draining = True
            try:
                return flush()
            finally:
                self._draining = False

        trod.provenance.expand_reads = spying_expand
        trod.flush = spying_flush


def scan_mix(
    capacity: int, statements: int = 250
) -> tuple[Trod, ExpansionSpy, list[str]]:
    """``statements`` of the ``scan_traced`` mix through ``connect()``;
    returns the tracer, the spy on its expansions, and a problem per
    statement that staged more than one row per scan in its plan plus its
    ``Executions`` row."""
    rng = random.Random(11)
    engine = scan_engine(rng)
    trod = Trod(engine, buffer_capacity=capacity)
    spy = ExpansionSpy(trod)
    conn = repro.connect(engine, trod=trod)
    problems = []
    for i in range(statements):
        sql, draw = SCAN_OPS[i % len(SCAN_OPS)]
        params = draw(rng)
        scans = sum("Scan(" in line for line in engine.explain(sql, params))
        before = trod.buffer.appended
        conn.execute(sql, params).rows
        staged = trod.buffer.appended - before
        if staged > scans + 1:
            problems.append(f"{sql} {params}: {staged} rows for {scans} scans")
    return trod, spy, problems


def test_the_scan_traced_mix_stages_a_row_per_scan_and_expands_when_read():
    trod, spy, problems = scan_mix(65536)
    assert not problems, problems[:5]
    assert trod.buffer.stats()["flushes"] == 0  # no boundary drain
    trod.flush()
    assert trod.buffer.stats()["flushes"] == 1
    assert spy.expanded == 0  # not even the closing flush expands
    reads = trod.query(
        "SELECT COUNT(*) FROM ItemsEvents WHERE Type = 'Read'"
    ).scalar()
    assert spy.expanded == 1 and spy.in_drain == 0
    # 50 of each statement: GROUP BY, top-k and join read all 1 000 items,
    # the filter about 100, the probe one.
    assert reads > 150 * 1000


def test_a_boundary_drain_never_expands_a_predicate():
    # An 80-row buffer drains at nearly every boundary (its slice is 5).
    trod, spy, _problems = scan_mix(80, statements=60)
    with eager_reads():
        eager, _spy, _problems = scan_mix(80, statements=60)
    assert trod.buffer.stats()["flushes"] >= 20
    assert spy.expanded == spy.in_drain == 0
    pending = trod.provenance.pending_scans()
    assert pending
    assert provenance_tables(trod) == provenance_tables(eager)
    # The readers expanded, once per event table with a predicate.
    tables = {read.table for read in pending}
    assert spy.expanded == len(tables) and spy.in_drain == 0
    assert not trod.provenance.pending_scans()
