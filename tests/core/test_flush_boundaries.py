"""Where the trace buffer's flushes fall changes no provenance.

A flush ingests whatever the buffer staged since the last one, and a
batch's ``Seq`` is the store's counter plus the batch's ordinal in that
drain. The same traced app stream at four buffer capacities — a flush
per record, every few records, every few requests, and one at the end —
must leave every provenance table identical, ``Seq`` included; and at
each of them a batch that fails to ingest fails whole, leaving ``Seq``
and the kept states as they were.
"""

import pytest

from repro.apps import build_ecommerce_app
from repro.core import Trod
from repro.db import Database
from repro.errors import ProvenanceError, TypeCoercionError
from repro.runtime import Runtime
from repro.workload.generators import CheckoutWorkload

CAPACITIES = (1, 3, 64, 65536)


def abandon(ctx, cart):
    """Writes, then aborts: an ``Aborted`` row and no write events."""
    with ctx.txn(label="abandon") as t:
        t.execute("DELETE FROM cart_items WHERE cartId = ?", (cart,))
        raise ValueError("changed my mind")


def traced_stream(capacity):
    """Checkout orders with workflow edges and side effects, aborted
    transactions, a failed request and a multi-row read set."""
    database = Database()
    runtime = Runtime(database)
    event_names = build_ecommerce_app(database, runtime)
    runtime.register("abandon", abandon)
    generator = CheckoutWorkload(n_users=5, n_skus=3, seed=5)
    generator.seed_database(runtime)  # these rows become the base snapshot
    trod = Trod(database, event_names=event_names, buffer_capacity=capacity)
    trod.attach(runtime)
    for i, request in enumerate(generator.requests(12)):
        runtime.execute_request(request)
        if i % 7 == 2:
            runtime.submit("abandon", request.args[0])
    runtime.submit("checkout", "no-such-cart", "U1")
    database.execute("SELECT sku, SUM(qty) FROM cart_items GROUP BY sku")
    trod.flush()
    return database, trod


def provenance(trod):
    prov = trod.provenance
    tables = {
        name: prov.db.snapshot_rows(name) for name in prov.db.catalog.table_names()
    }
    return tables, prov._next_seq


@pytest.fixture(scope="module")
def reference():
    return provenance(traced_stream(65536)[1])


@pytest.mark.parametrize("capacity", CAPACITIES)
def test_every_table_and_seq_is_the_same_at_any_capacity(capacity, reference):
    database, trod = traced_stream(capacity)
    assert provenance(trod) == reference
    # One flush at the end, or the boundaries all through the stream.
    flushes = trod.buffer.stats()["flushes"]
    if capacity == 65536:
        assert flushes == 1
    else:
        assert flushes >= trod.buffer.appended // capacity // 2 >= 2
    tables, seq = reference
    # Nothing compared is empty by accident.
    for name in ("Executions", "Requests", "WorkflowEdges", "SideEffects"):
        assert tables[name], name
    statuses = {values[7] for _row_id, values in tables["Executions"]}
    assert statuses == {"Committed", "Aborted"}
    kinds = {
        values[2]
        for name, rows in tables.items()
        if name.endswith("Events")
        for _row_id, values in rows
    }
    assert kinds == {"Snapshot", "Read", "Insert", "Update"}
    assert seq > 100 and database.last_csn > 50


@pytest.mark.parametrize("capacity", CAPACITIES)
@pytest.mark.parametrize(
    "bad_values, error",
    [
        (("C1", "SKU0", 1), ProvenanceError),  # arity: 3 values for 4 columns
        (("C1", "SKU0", "many", 9.99), TypeCoercionError),
    ],
)
def test_a_failing_batch_fails_whole_at_any_capacity(capacity, bad_values, error):
    database, trod = traced_stream(capacity)
    prov = trod.provenance
    last = database.last_csn
    prov.reconstruct_state(last - 10)
    prov.reconstruct_state(last)

    def observed():
        return (
            provenance(trod),
            {table: prov.checkpoint_csns(table) for table in prov.traced_tables()},
            {key: dict(state) for key, state in prov._states.items()},
        )

    before = observed()
    assert all(before[1].values())
    # A good row, a good batch, then the bad batch, at csns at or below
    # every kept state: had any of it counted, every state would be gone.
    buffer = trod.buffer
    late = ("cart_items", "TXN999", 999, "Insert", "late", 1)
    buffer.add_row(
        "Executions",
        ("TXN999", 999, 0, None, None, "", "SERIALIZABLE", "Committed", 1, 0, None),
    )
    buffer.add_batch(*late, [(9001, ("C1", "SKU0", 1, 9.99))])
    buffer.add_batch(*late, [(9002, bad_values)])
    with pytest.raises(error):
        trod.flush()
    assert len(trod.buffer) == 0  # drained, not retried
    assert observed() == before
