"""Reconstruction against the dict-based fold it replaced.

``reconstruct_rows`` reads event rows as positional tuples over a ``Csn``
range the sorted index can probe, starts from the nearest state an
earlier reconstruction kept, and decides "the base snapshot postdates
this CSN" from the CSN ``capture_snapshot`` recorded. The reference below
is the fold it replaced, kept here verbatim in spirit: ``SELECT *`` over
the whole event table → ``as_dicts()`` → values picked by column name,
nothing kept between calls, the error decided by scanning for Snapshot
rows. The two must agree for every traced table at every CSN of a
generated history, in whatever order the CSNs are visited and whichever
of a kept state, a kept state plus its delta and the full history serves
the CSN.
"""

import random

import pytest

from repro.apps import build_ecommerce_app
from repro.core import Trod
from repro.core import provenance as provenance_module
from repro.core.buffer import TraceBuffer
from repro.db import Database
from repro.errors import ProvenanceError, TypeCoercionError
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


def generated_history():
    """Checkout orders over pre-attach rows, then a redaction, a
    reconstruction of every table, more orders, a DELETE and a table
    created after attach — flushed every few requests."""
    database = Database()
    runtime = Runtime(database)
    event_names = build_ecommerce_app(database, runtime)
    runtime.register("clearCart", clear_cart)
    runtime.register("leaveNote", leave_note)
    generator = CheckoutWorkload(n_users=5, n_skus=3, seed=11)
    generator.seed_database(runtime)  # these rows become the base snapshot
    trod = Trod(database, event_names=event_names).attach(runtime)
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
    trod.provenance.reconstruct_state(database.last_csn)
    serve(requests[12:])
    runtime.submit("clearCart", "C2")
    database.execute("CREATE TABLE notes (id INTEGER, body TEXT)")
    runtime.submit("leaveNote", 1, "created after attach")
    runtime.submit("leaveNote", 2, "and written twice")
    trod.flush()
    return database, trod


def test_reconstruction_matches_the_dict_fold_in_any_visiting_order(monkeypatch):
    # All the states of this history come to ~450 rows: under this bound
    # the memo keeps evicting, whatever the order.
    monkeypatch.setattr(provenance_module, "_STATE_MEMO_ROWS", 200)
    database, trod = generated_history()
    prov = trod.provenance
    tables = prov.traced_tables()
    assert len(tables) == 8 and "notes" in tables
    csns = list(range(trod.base_csn, database.last_csn + 1))
    expected = {
        (table, csn): reference_rows(prov, table, csn)
        for table in tables
        for csn in csns
    }
    for table in tables:
        # Non-vacuity: the table's state moved somewhere along the way.
        states = [expected[table, csn] for csn in csns]
        assert any(a != b for a, b in zip(states, states[1:])), table
    orders = {
        "ascending": csns,
        "descending": csns[::-1],
        "shuffled": random.Random(5).sample(csns, len(csns)),
    }
    ever_kept = set()
    for order, visit in orders.items():
        served = {"kept state": 0, "kept state + delta": 0, "full history": 0}
        for csn in visit:
            for table in tables:
                usable = [k for k in prov.checkpoint_csns(table) if k <= csn]
                before = dict(prov.checkpoint_stats)
                assert prov.reconstruct_rows(table, csn) == expected[table, csn], (
                    order, table, csn
                )
                if not usable:
                    how, counted = "full history", "full_restores"
                elif usable[-1] == csn:
                    how, counted = "kept state", "checkpoint_restores"
                else:
                    how, counted = "kept state + delta", "checkpoint_restores"
                served[how] += 1
                assert prov.checkpoint_stats == {**before, counted: before[counted] + 1}
                ever_kept.update((table, k) for k in prov.checkpoint_csns(table))
                assert prov._state_rows <= 200
        # Each way of serving a CSN served some, in every order.
        assert all(served.values()), (order, served)
    assert len(ever_kept) > 3 * len(prov._states)  # and states were evicted
    # The redaction took a row out, the DELETE took rows out.
    emails = [v[1] for _rid, v in prov.reconstruct_rows("users", database.last_csn)]
    assert "u0@example.com" in emails and "u1@example.com" not in emails
    assert all(
        v[0] != "C2"
        for _rid, v in prov.reconstruct_rows("cart_items", database.last_csn)
    )


def test_what_a_restore_hands_out_can_be_altered_without_altering_later_ones():
    database, trod = generated_history()
    prov = trod.provenance
    csn = database.last_csn - 3
    expected = {table: reference_rows(prov, table, csn) for table in prov.traced_tables()}
    later = {
        table: reference_rows(prov, table, database.last_csn)
        for table in prov.traced_tables()
    }
    state = prov.reconstruct_state(csn)
    assert state == expected and len(state["orders"]) > 2
    dev = Database()
    prov.load_state(dev, state)
    # The caller edits its lists ...
    for rows in state.values():
        rows.reverse()
        rows[:1] = [(10**6, ("clobbered",))]
        del rows[2:]
    # ... and the dev database loaded from them is written to.
    dev.execute("UPDATE orders SET status = 'clobbered'")
    dev.execute("DELETE FROM users")
    dev.execute("INSERT INTO inventory VALUES ('SKU-X', 1)")
    assert dev.table_rows("orders")[0]["status"] == "clobbered"
    before = dict(prov.checkpoint_stats)
    assert prov.reconstruct_state(csn) == expected  # the kept states themselves
    assert prov.reconstruct_state(database.last_csn) == later  # ... plus a delta
    assert prov.checkpoint_stats["full_restores"] == before["full_restores"]
    fresh = Database()
    prov.restore_into(fresh, csn)
    for table, rows in expected.items():
        assert fresh.snapshot_rows(table) == rows


def test_two_dev_databases_share_one_kept_state_and_one_writes():
    database, trod = generated_history()
    prov = trod.provenance
    csn = database.last_csn - 3
    expected = {table: reference_rows(prov, table, csn) for table in prov.traced_tables()}
    kept = prov.kept_state(csn)
    writer, reader = Database(), Database()
    prov.load_state(writer, kept)
    prov.load_state(reader, kept)
    contents = {table: dict(rows) for table, rows in kept.items()}
    # What the first adoption published, shared by both databases.
    published = {
        table: tuple(map(list, rows.published))
        for table, rows in kept.items()
        if rows
    }
    assert len(published) >= 5
    txn = writer.begin()
    for table, rows in expected.items():
        if len(rows) < 2:
            continue
        (first, first_values), (_second, second_values) = rows[:2]
        txn.insert(table, first_values)
        txn.update(table, first, second_values)
        txn.delete(table, rows[-1][0])
    txn.commit()
    for table, rows in expected.items():
        if len(rows) >= 2:
            assert writer.snapshot_rows(table) != rows
        assert reader.snapshot_rows(table) == rows
        assert list(reader.store(table).scan(0)) == rows
        assert dict(kept[table]) == contents[table]
        if rows:
            assert tuple(map(list, kept[table].published)) == published[table]
        assert prov.reconstruct_rows(table, csn) == rows
        assert prov.reconstruct_rows(table, database.last_csn) == reference_rows(
            prov, table, database.last_csn
        )
    # The reader writes after the writer did, and a third restore of the
    # same kept state still starts from the past state.
    reader.execute("DELETE FROM orders")
    reader.execute("INSERT INTO inventory VALUES ('SKU-Y', 2)")
    assert reader.table_rows("orders") == []
    fresh = Database()
    prov.restore_into(fresh, csn)
    for table, rows in expected.items():
        assert fresh.snapshot_rows(table) == rows


def redaction(trod, csn):
    trod.privacy.forget_value("users", "email", "u2@example.com")


def late_write(trod, csn):
    row_id = trod.provenance.reconstruct_rows("orders", csn)[0][0]
    buffer = TraceBuffer()
    buffer.add_batch(
        "orders", "TXN999", 999, "Delete", "late arrival", csn, [(row_id, None)]
    )
    trod.provenance.ingest(buffer.drain())


def failed_ingest(trod, csn):
    row_id, values = trod.provenance.reconstruct_rows("orders", csn)[0]
    update = ("orders", "TXN999", 999, "Update", "never committed", csn)
    buffer = TraceBuffer()
    buffer.add_batch(*update, [(row_id, values)])
    buffer.add_batch(*update, [(row_id, ("not", "an", "order", "row", "!"))])
    with pytest.raises(TypeCoercionError):
        trod.provenance.ingest(buffer.drain())


@pytest.mark.parametrize("disturb", [redaction, late_write, failed_ingest])
def test_kept_states_outlive_only_what_leaves_them_true(disturb):
    database, trod = generated_history()
    prov = trod.provenance
    visits = [
        (table, csn)
        for table in prov.traced_tables()
        for csn in range(trod.base_csn, database.last_csn + 1)
    ]

    def reference():
        return {visit: reference_rows(prov, *visit) for visit in visits}

    def kept():
        return {table: prov.checkpoint_csns(table) for table in prov.traced_tables()}

    before = reference()
    for visit in random.Random(7).sample(visits, len(visits)):
        assert prov.reconstruct_rows(*visit) == before[visit]
    warm = kept()
    disturb(trod, (trod.base_csn + database.last_csn) // 2)
    after = reference()
    if disturb is failed_ingest:
        assert after == before and kept() == warm
    else:
        assert after != before and kept() != warm
    restores = dict(prov.checkpoint_stats)
    for visit in random.Random(8).sample(visits, len(visits)):
        assert prov.reconstruct_rows(*visit) == after[visit], visit
    # Non-vacuity: states kept before the event served most of that pass.
    cold = prov.checkpoint_stats["full_restores"] - restores["full_restores"]
    assert cold < len(visits) // 10


def test_a_csn_below_the_base_snapshot_raises_the_same_error():
    _database, trod = generated_history()
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
