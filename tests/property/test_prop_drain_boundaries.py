"""Boundary drains at any capacity leave one final flush's provenance.

A commit or abort drains the trace buffer once it holds a slice of its
capacity (``capacity // DRAIN_SLICES`` rows), and an append that reaches
the capacity itself drains inline. Hypothesis draws the capacity and a
request mix — checkout orders, aborted transactions, failed requests,
null reads, and analytic reads and writes through ``connect()`` on the
same traced database — and:

* every provenance table and ``Seq`` equal those of a twin whose buffer
  never fills and that flushes once, at the end;
* a batch that fails to ingest fails whole, leaving ``Seq`` and the kept
  states as they were, wherever the drains before it fell.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.apps import build_ecommerce_app
from repro.core import Trod
from repro.db import Database
from repro.errors import ProvenanceError
from repro.runtime import Runtime
from repro.workload.generators import CheckoutWorkload

NEVER_FULL = 10**9

capacities = st.one_of(st.integers(1, 64), st.integers(65, 4096))

mixes = st.lists(
    st.sampled_from(
        ["order", "order", "order", "abandon", "fail", "null_read", "null_update",
         "scan", "restock"]
    ),
    min_size=4,
    max_size=30,
)


def abandon(ctx, cart):
    """Writes, then aborts: an ``Aborted`` row and no write events."""
    with ctx.txn(label="abandon") as t:
        t.execute("DELETE FROM cart_items WHERE cartId = ?", (cart,))
        raise ValueError("changed my mind")


def traced_mix(capacity, mix):
    database = Database()
    runtime = Runtime(database)
    event_names = build_ecommerce_app(database, runtime)
    runtime.register("abandon", abandon)
    generator = CheckoutWorkload(n_users=4, n_skus=3, seed=3)
    generator.seed_database(runtime)  # these rows become the base snapshot
    trod = Trod(database, event_names=event_names, buffer_capacity=capacity)
    trod.attach(runtime)
    conn = repro.connect(database, trod=trod)
    orders = generator.requests(len(mix))
    cart = "C0"
    for step in mix:
        if step == "order":
            add, checkout = next(orders), next(orders)
            cart = add.args[0]
            runtime.execute_request(add)
            runtime.execute_request(checkout)
        elif step == "abandon":
            runtime.submit("abandon", cart)
        elif step == "fail":
            runtime.submit("checkout", "no-such-cart", "U1")
        elif step == "null_read":
            conn.execute("SELECT qty FROM cart_items WHERE cartId = ?", ("nobody",)).rows
        elif step == "null_update":
            conn.execute("UPDATE inventory SET stock = stock + 1 WHERE sku = ?", ("none",))
        elif step == "scan":
            conn.execute("SELECT sku, SUM(qty) FROM cart_items GROUP BY sku").rows
        else:
            conn.execute("UPDATE inventory SET stock = stock + 5 WHERE sku = ?", ("SKU1",))
    trod.flush()
    return database, trod


def provenance(trod):
    prov = trod.provenance
    tables = {
        name: prov.db.snapshot_rows(name) for name in prov.db.catalog.table_names()
    }
    return tables, prov._next_seq


@settings(max_examples=40, deadline=None)
@given(capacity=capacities, mix=mixes)
def test_drains_at_any_capacity_leave_one_final_flushs_provenance(capacity, mix):
    _database, trod = traced_mix(capacity, mix)
    assert len(trod.buffer) == 0
    assert provenance(trod) == provenance(traced_mix(NEVER_FULL, mix)[1])


@settings(max_examples=25, deadline=None)
@given(capacity=capacities, mix=mixes)
def test_a_failing_batch_fails_whole_at_any_capacity(capacity, mix):
    database, trod = traced_mix(capacity, mix)
    prov = trod.provenance
    last = database.last_csn
    prov.reconstruct_state(max(trod.base_csn, last - 3))
    prov.reconstruct_state(last)

    def observed():
        return (
            provenance(trod),
            {table: prov.checkpoint_csns(table) for table in prov.traced_tables()},
            {key: dict(state) for key, state in prov._states.items()},
        )

    before = observed()
    assert all(before[1].values())
    # A good row and a good batch, then one with 3 values for 4 columns,
    # at csns at or below every kept state: had any of it counted, every
    # kept state would be gone.
    late = ("cart_items", "TXN999", 999, "Insert", "late", 1)
    trod.buffer.add_row(
        "Executions",
        ("TXN999", 999, 0, None, None, "", "SERIALIZABLE", "Committed", 1, 0, None),
    )
    trod.buffer.add_batch(*late, [(9001, ("C1", "SKU0", 1, 9.99))])
    trod.buffer.add_batch(*late, [(9002, ("C1", "SKU0", 1))])
    with pytest.raises(ProvenanceError):
        trod.flush()
    assert len(trod.buffer) == 0  # drained, not retried
    assert observed() == before
