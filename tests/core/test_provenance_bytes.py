"""What one stored provenance row costs in memory, on a traced checkout.

About 1 000 orders go through the e-commerce app with TROD attached, and
the flushed provenance stores are walked object by object
(``gc.get_referents``), each object counted once at ``sys.getsizeof``.
Left out is everything the application database holds — the values a
trace shares with the rows it read or wrote — and the table schemas.
Segment runs keep columns (int arrays, pointer lists, one header per
stretch), not a tuple per row; the row-tuple layout they replaced came to
242 bytes per stored row on this stream, and the bound is half of that.
"""

from __future__ import annotations

import gc
import sys

from repro.apps import build_ecommerce_app
from repro.core import Trod
from repro.db import Database
from repro.runtime import Runtime
from repro.workload.generators import CheckoutWorkload

#: Bytes per stored row of the row-tuple layout, on the stream below.
ROW_TUPLE_BYTES_PER_ROW = 242
ORDERS = 1000


def reachable(roots, skip: set[int] | frozenset[int] = frozenset()) -> dict[int, object]:
    """Every object a ``gc.get_referents`` walk from ``roots`` reaches,
    by id, not entering types or the objects in ``skip``."""
    found = {id(root): root for root in roots if id(root) not in skip}
    stack = list(found.values())
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) in found or id(ref) in skip or isinstance(ref, type):
                continue
            found[id(ref)] = ref
            stack.append(ref)
    return found


def traced_checkout() -> tuple[Database, Trod]:
    db = Database(name="shop")
    runtime = Runtime(db)
    event_names = build_ecommerce_app(db, runtime)
    trod = Trod(db, event_names=event_names).attach(runtime)
    workload = CheckoutWorkload(n_users=100, n_skus=20, seed=7)
    workload.seed_database(runtime)
    for request in workload.requests(ORDERS):
        runtime.execute_request(request)
    trod.flush()
    trod.provenance.expand_reads()  # its stores are measured directly
    return db, trod


def test_a_stored_provenance_row_costs_under_half_a_row_tuple():
    db, trod = traced_checkout()
    provenance_db = trod.provenance.db
    stores = [provenance_db.store(t) for t in provenance_db.catalog.table_names()]
    rows = sum(store.row_count() for store in stores)
    assert rows > 20 * ORDERS
    # The application database reaches the tracer through its observers.
    skip = set(reachable([db], skip={id(trod)}))
    skip |= set(reachable([store.schema for store in stores]))
    held = reachable(stores, skip)
    per_row = sum(map(sys.getsizeof, held.values())) / rows
    assert per_row <= ROW_TUPLE_BYTES_PER_ROW / 2, per_row
