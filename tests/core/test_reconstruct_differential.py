"""Positional reconstruction against the dict-based fold it replaced.

``reconstruct_rows`` reads event rows as positional tuples over a ``Csn``
range the sorted index can probe, and decides "the base snapshot
postdates this CSN" from the CSN ``capture_snapshot`` recorded. The
reference below is the fold it replaced, kept here verbatim in spirit:
``SELECT *`` over the whole event table → ``as_dicts()`` → values picked
by column name, no checkpoints, the error decided by scanning for
Snapshot rows. The two must agree for every traced table at every CSN of
a generated history, whichever of the full and the checkpoint path
serves the CSN.
"""

import pytest

from repro.apps import build_ecommerce_app
from repro.core import Trod
from repro.db import Database
from repro.errors import ProvenanceError
from repro.runtime import Runtime
from repro.workload.generators import CheckoutWorkload


def reference_rows(prov, table: str, upto_csn: int) -> list[tuple[int, tuple]]:
    """Rows of ``table`` as of ``upto_csn`` by the dict-based full fold."""
    schema = prov.app_schema(table)
    column_map = prov._column_maps[table.lower()]
    rows = prov.query(
        f"SELECT * FROM {prov.event_table_of(table)}"
        " WHERE Type = 'Snapshot' OR (Csn <= ? AND"
        " Type IN ('Insert', 'Update', 'Delete'))"
        " ORDER BY Csn ASC, Seq ASC",
        (upto_csn,),
    ).as_dicts()
    snapshot_csns = [r["Csn"] for r in rows if r["Type"] == "Snapshot"]
    if snapshot_csns and min(snapshot_csns) > upto_csn:
        raise ProvenanceError(
            f"cannot reconstruct {table!r} at csn {upto_csn}: base "
            f"snapshot was taken at csn {min(snapshot_csns)}"
        )
    state: dict[int, tuple] = {}
    for row in rows:
        if row["Type"] == "Delete" or row.get("Query") == "[redacted]":
            state.pop(row["RowId"], None)
            continue
        state[row["RowId"]] = tuple(
            row[column_map[col]] for col in schema.column_names
        )
    return sorted(state.items())


def clear_cart(ctx, cart_id):
    with ctx.txn(label="clearCart") as t:
        t.execute("DELETE FROM cart_items WHERE cartId = ?", (cart_id,))


def leave_note(ctx, note_id, body):
    with ctx.txn(label="leaveNote") as t:
        t.execute("INSERT INTO notes VALUES (?, ?)", (note_id, body))


def generated_history(checkpoint_interval):
    """Checkout orders over pre-attach rows, then a redaction, a
    checkpoint, more orders, a DELETE and a table created after attach —
    flushed every few requests, so an interval lands its checkpoints."""
    database = Database()
    runtime = Runtime(database)
    event_names = build_ecommerce_app(database, runtime)
    runtime.register("clearCart", clear_cart)
    runtime.register("leaveNote", leave_note)
    generator = CheckoutWorkload(n_users=5, n_skus=3, seed=11)
    generator.seed_database(runtime)  # these rows become the base snapshot
    trod = Trod(
        database, event_names=event_names, checkpoint_interval=checkpoint_interval
    ).attach(runtime)
    requests = list(generator.requests(12))

    def serve(batch):
        for request in batch:
            assert runtime.execute_request(request).ok
            if request.handler == "checkout":
                trod.flush()

    runtime.submit("registerUser", "U9", "u9@example.com", "4000-9")
    runtime.submit("restock", "SKU0", 5)
    runtime.submit("harvestData", "tag")
    serve(requests[:12])
    trod.privacy.forget_value("users", "email", "u1@example.com")
    trod.provenance.create_checkpoint()
    serve(requests[12:])
    runtime.submit("clearCart", "C2")
    database.execute("CREATE TABLE notes (id INTEGER, body TEXT)")
    runtime.submit("leaveNote", 1, "created after attach")
    runtime.submit("leaveNote", 2, "and written twice")
    trod.flush()
    return database, trod


@pytest.mark.parametrize("checkpoint_interval", [None, 8])
def test_reconstruction_matches_the_dict_fold_at_every_csn(checkpoint_interval):
    database, trod = generated_history(checkpoint_interval)
    prov = trod.provenance
    tables = prov.traced_tables()
    assert len(tables) == 8 and "notes" in tables
    before = dict(prov.checkpoint_stats)
    for table in tables:
        states = []
        for csn in range(trod.base_csn, database.last_csn + 1):
            expected = reference_rows(prov, table, csn)
            assert prov.reconstruct_rows(table, csn) == expected, (table, csn)
            states.append(expected)
        # Non-vacuity: the table's state moved somewhere along the way.
        assert any(a != b for a, b in zip(states, states[1:])), table
    # ... the redaction took a row out, the DELETE took rows out ...
    emails = [v[1] for _rid, v in prov.reconstruct_rows("users", database.last_csn)]
    assert "u0@example.com" in emails and "u1@example.com" not in emails
    assert all(
        v[0] != "C2"
        for _rid, v in prov.reconstruct_rows("cart_items", database.last_csn)
    )
    # ... and both restore paths served their share of the CSNs.
    served = prov.checkpoint_stats
    assert served["full_restores"] > before["full_restores"]
    assert served["checkpoint_restores"] > before["checkpoint_restores"]
    if checkpoint_interval is not None:
        assert len(prov.checkpoint_csns("orders")) > 1


def test_a_csn_below_the_base_snapshot_raises_the_same_error():
    _database, trod = generated_history(None)
    prov = trod.provenance
    assert trod.base_csn > 0
    for table in ("users", "inventory"):
        with pytest.raises(ProvenanceError) as expected:
            reference_rows(prov, table, trod.base_csn - 1)
        with pytest.raises(ProvenanceError) as raised:
            prov.reconstruct_rows(table, trod.base_csn - 1)
        assert str(raised.value) == str(expected.value)
    # A table with no base snapshot is simply empty that far back.
    assert prov.reconstruct_rows("orders", trod.base_csn - 1) == []
    assert reference_rows(prov, "orders", trod.base_csn - 1) == []
