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
inline, in the hook that staged them, with the same provenance.
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


def scan_stream(capacity: int, probe: bool, ops: int = 150):
    """Analytic statements through ``connect()``, one transaction each,
    over 1 000 items and 50 groups, plus an occasional update."""
    rng = random.Random(7)
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
    trod, probe = scan_stream(65536, probe=True)
    assert probe.boundary_drains >= trod.buffer.appended // probe.slice // 2 >= 4
    assert probe.inline_drains == 0
    assert provenance(trod) == provenance(scan_stream(NEVER_FULL, probe=False)[0])


def test_a_statement_staging_more_than_capacity_still_drains_inline():
    # Each GROUP BY and top-k reads 1 000 rows in one statement.
    trod, probe = scan_stream(256, probe=True, ops=40)
    assert probe.inline_drains >= 8
    assert probe.boundary_drains >= 8
    assert provenance(trod) == provenance(scan_stream(NEVER_FULL, probe=False, ops=40)[0])
