"""Provenance read off its indexes against the SQL statements it replaced.

A replay's reconstruction, its injection window and a request's events
are positional reads: ``ProvenanceStore._event_rows`` fetches the rows an
index names (the ``Csn`` index for a range of commits, the ``TxnId``
index for transactions) and sorts them by (Csn, Seq) or by Seq. The
references below are the statements each read replaced, kept verbatim:
a ``Csn`` range with a ``Type IN`` filter, a ``TxnId IN`` probe and the
window read that ``writes_between`` ran per table. They must agree on
every backing of the provenance database, over a history holding base
snapshot rows, redacted rows, updates and deletes.
"""

import random

import pytest

from repro.apps import build_ecommerce_app
from repro.core import Trod
from repro.core.buffer import TraceBuffer
from repro.core.provenance import REDACTED, ProvenanceStore
from repro.db import Database
from repro.runtime import Runtime
from repro.workload.generators import CheckoutWorkload

BACKINGS = ["segment", "memory", "paged"]


def clear_cart(ctx, cart_id):
    with ctx.txn(label="clearCart") as t:
        t.execute("DELETE FROM cart_items WHERE cartId = ?", (cart_id,))


def history(backing: str):
    """Checkout orders over pre-attach rows (the base snapshot), a
    redaction, a kept state, more orders, a DELETE and a write that
    arrives late: stored after rows with higher CSNs."""
    database = Database()
    runtime = Runtime(database)
    event_names = build_ecommerce_app(database, runtime)
    runtime.register("clearCart", clear_cart)
    generator = CheckoutWorkload(n_users=5, n_skus=3, seed=13)
    generator.seed_database(runtime)
    provenance = ProvenanceStore(db=Database(name="provenance", storage=backing))
    trod = Trod(database, provenance=provenance, event_names=event_names)
    trod.attach(runtime)
    requests = list(generator.requests(16))
    for request in requests[:8]:
        assert runtime.execute_request(request).ok
    trod.flush()
    trod.privacy.forget_value("users", "email", "u1@example.com")
    kept = database.last_csn
    trod.provenance.reconstruct_state(kept)
    for request in requests[8:]:
        assert runtime.execute_request(request).ok
    runtime.submit("clearCart", "C2")
    trod.flush()
    row_id, values = trod.provenance.reconstruct_rows("orders", kept - 2)[0]
    late = TraceBuffer()
    late.add_batch(
        "orders", "TXN999", 999, "Update", "late", kept - 2, [(row_id, values)]
    )
    trod.provenance.ingest(late.drain())
    assert trod.provenance.db.storage == backing
    return database, trod, kept


@pytest.fixture(scope="module", params=BACKINGS)
def traced(request):
    return history(request.param)


def sql_range(prov, event_table, after, upto, kinds):
    """The reconstruction's old range read."""
    marks = ", ".join(f"'{kind}'" for kind in kinds)
    return prov.query(
        f"SELECT * FROM {event_table}"
        f" WHERE Csn > ? AND Csn <= ? AND Type IN ({marks})"
        " ORDER BY Csn ASC, Seq ASC",
        (after, upto),
    ).rows


def sql_writes_between(prov, low, high, tables=None, exclude_req=None):
    """``writes_between`` as it was: one window read per table."""
    if high <= low:
        return []
    names = [t.lower() for t in tables] if tables is not None else sorted(prov._event_tables)
    found = []
    for table in names:
        if table not in prov._event_tables:
            continue
        rows = prov.query(
            f"SELECT * FROM {prov._event_tables[table]}"
            " WHERE Csn > ? AND Csn <= ?"
            " AND Type IN ('Insert', 'Update', 'Delete')",
            (low, high),
        ).as_dicts()
        name = prov._app_schemas[table].name
        found += [(name, row) for row in rows if row["Query"] != REDACTED]
    req_of = {}
    txn_ids = sorted({row["TxnId"] for _name, row in found})
    if txn_ids:
        for txn_id, req_id in prov.query(
            "SELECT TxnId, ReqId FROM Executions"
            f" WHERE TxnId IN ({', '.join('?' * len(txn_ids))})"
            " ORDER BY TxnNum, Csn",
            tuple(txn_ids),
        ).rows:
            req_of.setdefault(txn_id, req_id)
    out = []
    for name, row in found:
        req_id = req_of.get(row["TxnId"])
        if exclude_req is None or req_id != exclude_req:
            out.append({"ReqId": req_id, **row, "_table": name})
    out.sort(key=lambda r: (r["Csn"], r["Seq"]))
    return out


def sql_events_of_txn(prov, txn_names):
    """``events_of_txn`` as it was: one ``TxnId IN`` probe per table."""
    found = {name: {} for name in txn_names}
    if not found:
        return found
    marks = ", ".join("?" * len(found))
    for table, event_table in prov._event_tables.items():
        for event in prov.query(
            f"SELECT * FROM {event_table} WHERE TxnId IN ({marks}) ORDER BY Seq",
            tuple(found),
        ).as_dicts():
            found[event["TxnId"]].setdefault(table, []).append(event)
    return found


def test_the_history_holds_every_kind_of_row(traced):
    database, trod, kept = traced
    prov = trod.provenance
    kinds = set()
    for event_table in prov._event_tables.values():
        kinds.update(
            (row[2], row[3] == REDACTED) for _rid, row in prov.db.snapshot_rows(event_table)
        )
    assert {("Snapshot", False), ("Read", False), ("Insert", False),
            ("Update", False), ("Delete", False), ("Snapshot", True)} <= kinds
    assert kept in prov.checkpoint_csns("users")
    assert trod.base_csn < kept < database.last_csn


def test_the_reader_returns_the_stored_rows_in_the_order_asked(traced):
    _database, trod, _kept = traced
    prov = trod.provenance
    prov.expand_reads()  # the stores are read directly below
    rng = random.Random(3)
    read = 0
    for event_table in prov._event_tables.values():
        stored = dict(prov.db.snapshot_rows(event_table))
        ids = rng.sample(sorted(stored), k=min(len(stored), 25)) + [0, 10**6]
        got = prov._event_rows(event_table, ids, key=lambda row: row[5])
        assert got == sorted((stored[i] for i in ids if i in stored), key=lambda r: r[5])
        timed = [i for i in ids if i in stored and stored[i][4] is not None]
        assert prov._event_rows(event_table, timed) == sorted(
            (stored[i] for i in timed), key=lambda r: (r[4], r[5])
        )
        assert prov._event_rows(event_table, []) == []
        read += len(got)
    assert read > 100


def test_range_reads_match_the_range_statement(traced):
    database, trod, kept = traced
    prov = trod.provenance
    writes = ("Insert", "Update", "Delete")
    bounds = [
        (-1, database.last_csn),  # a full restore
        (kept, database.last_csn),  # from a kept state's own CSN
        (trod.base_csn, kept),
        (kept, kept + 1),
        (kept, kept),  # empty
        (database.last_csn, database.last_csn + 5),  # past the history
    ]
    non_empty = 0
    for table, event_table in prov._event_tables.items():
        for after, upto in bounds:
            for snapshots in (False, True):
                kinds = ("Snapshot", *writes) if snapshots else writes
                expected = sql_range(prov, event_table, after, upto, kinds)
                got = prov._writes(event_table, after, upto, snapshots)
                assert got == expected, (table, after, upto, snapshots)
                non_empty += bool(got)
    assert non_empty > 10


def test_writes_between_matches_the_window_statements(traced):
    database, trod, kept = traced
    prov = trod.provenance
    last = database.last_csn
    req_ids = [row[0] for row in prov.query("SELECT ReqId FROM Requests").rows]
    cases = [
        (0, last, None, None),
        (kept, last, None, None),  # the low bound is a kept state's CSN
        (trod.base_csn, kept, ["users", "orders"], None),
        (kept, last, ["Inventory", "cart_items", "nope"], req_ids[9]),
        (kept - 3, kept + 3, None, req_ids[4]),
        (kept, kept, None, None),  # empty ranges
        (last, kept, None, None),
        (last, last + 10, None, None),
    ]
    for low, high, tables, exclude in cases:
        expected = sql_writes_between(prov, low, high, tables, exclude)
        assert prov.writes_between(low, high, tables, exclude) == expected, (low, high)
    everything = prov.writes_between(0, last)
    assert {w["Type"] for w in everything} == {"Insert", "Update", "Delete"}
    assert len(everything) > 40


def test_events_of_txn_matches_the_txn_probe(traced):
    _database, trod, _kept = traced
    prov = trod.provenance
    names = [row[0] for row in prov.query("SELECT TxnId FROM Executions").rows]
    for txns in (names[:1], names[5:9], names[::3], ["SNAPSHOT"], ["TXN404"],
                 [names[2], "TXN404", names[7]], []):
        expected = sql_events_of_txn(prov, txns)
        got = prov.events_of_txn(txns)
        assert got == expected, txns
        # The same tables, in the same order.
        assert [list(v) for v in got.values()] == [list(v) for v in expected.values()]
    assert prov.events_of_txn(["TXN404"]) == {"TXN404": {}}
    assert prov.events_of_txn(["SNAPSHOT"])["SNAPSHOT"]
