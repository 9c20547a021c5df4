"""A footprint replay is faithful to the whole-table oracle.

A replay restores, per table the request used, only the rows its
transactions read, updated or deleted, as of its first snapshot
(``ProvenanceStore.restore_footprint``). Over racy Moodle, checkout and
notes request mixes (a note is inserted, then read back in a later
transaction while other requests rewrite or delete it) run under seeded
schedules, with a flush between two halves of each run, this holds for
every request replayed:

* at every breakpoint, each row the original step read from a state the
  step did not write itself — rows an earlier step of the request
  inserted included — is in the dev database under the same id with the
  values it read (its Read events' ``RowId`` and values);
* every restored row is the row ``reconstruct_rows(table, base_csn,
  row_ids)`` gives and the row ``reconstruct_rows(table, base_csn)``, the
  whole-table reconstruction, holds;
* a row history extended across flush boundaries equals one built from
  scratch.
"""

from hypothesis import given, settings, strategies as st

from repro.apps import build_ecommerce_app, build_moodle_app
from repro.core.provenance import RowHistory
from repro.core import Trod
from repro.db import Database
from repro.runtime import Request, Runtime
from repro.workload.generators import CheckoutWorkload

moodle_requests = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["subscribeUser", "unsubscribeUser"]),
            st.sampled_from(["U1", "U2", "U3"]),
            st.sampled_from(["F1", "F2"]),
        ),
        st.tuples(st.just("fetchSubscribers"), st.sampled_from(["F1", "F2"])),
    ),
    min_size=4,
    max_size=10,
)

#: Checkout orders plus restocks and a whole-table aggregate, by index:
#: an order takes the generator's next (addToCart, checkout) pair.
checkout_requests = st.lists(
    st.sampled_from(["order", "order", "restock", "weeklyReport"]),
    min_size=3,
    max_size=8,
)


notes_requests = st.lists(
    st.one_of(
        st.tuples(
            st.just("postNote"),
            st.sampled_from(["al", "bo"]),
            st.sampled_from(["x", "y"]),
        ),
        st.tuples(st.sampled_from(["editNotes", "dropNotes"]), st.sampled_from(["al", "bo"])),
    ),
    min_size=3,
    max_size=8,
)


def run_halves(runtime, trod, requests, seed):
    """Run ``requests`` in two concurrent halves, replaying everything
    traced after each (which builds, then extends, the row histories);
    return the request ids."""
    req_ids = []
    half = len(requests) // 2
    for part in (requests[:half], requests[half:]):
        results = runtime.run_concurrent(part, seed=seed)
        trod.flush()
        req_ids += [result.req_id for result in results]
        for req_id in req_ids:
            check_replay(trod, req_id)
    return req_ids


def check_replay(trod, req_id):
    prov = trod.provenance
    txns = prov.txns_of_request(req_id, committed_only=False)
    if not txns:
        return
    events = prov.events_of_txn(txn["TxnId"] for txn in txns)
    committed = {txn["TxnId"] for txn in txns if txn["Csn"] is not None}
    restore_footprint = prov.restore_footprint

    def restore(target, upto_csn, footprint):
        counts = restore_footprint(target, upto_csn, footprint)
        for table, row_ids in footprint.items():
            whole = dict(prov.reconstruct_rows(table, upto_csn))
            expected = [(rid, whole[rid]) for rid in sorted(row_ids) if rid in whole]
            assert prov.reconstruct_rows(table, upto_csn, row_ids) == expected, table
            assert target.snapshot_rows(table) == expected, table
        return counts

    def on_break(info):
        if info.txn_name not in committed:
            return  # an aborted step is bounded by its snapshot, not its reads
        for table, table_events in events[info.txn_name].items():
            columns = prov.app_schema(table).column_names
            column_map = prov._column_maps[table]
            written = {e["RowId"] for e in table_events if e["Type"] != "Read"}
            for event in table_events:
                row_id = event["RowId"]
                if event["Type"] != "Read" or row_id is None or row_id in written:
                    continue
                read = tuple(event[column_map[c]] for c in columns)
                held = info.dev_db.store(table).get(row_id)
                assert held == read, (req_id, info.txn_name, table, row_id)

    prov.restore_footprint = restore
    try:
        result = trod.replayer.replay_request(req_id, breakpoint_cb=on_break)
    finally:
        del prov.restore_footprint
    assert result.fidelity, (req_id, result.divergences)


def check_histories_extend_as_built(trod):
    prov = trod.provenance
    extended = dict(prov._row_histories)
    assert extended
    prov._row_histories.clear()
    for event_table, history in extended.items():
        built = prov._row_history(event_table)
        assert (built.row_ids, built.csns, built.positions) == (
            history.row_ids, history.csns, history.positions
        ), event_table
        assert (built.by_csn, built.highest_by_csn) == (
            history.by_csn, history.highest_by_csn
        ), event_table
        assert (built.indexed, built.newest, built.end) == (
            history.indexed, history.newest, history.end
        ), event_table


#: History events of one table: (kind, app row id, Csn), one per event
#: position, in position order; Read events are in the Csn index too
#: only when they carry a Csn, so they are left out here.
history_events = st.lists(
    st.tuples(
        st.sampled_from(["Snapshot", "Insert", "Update", "Delete", "Other"]),
        st.integers(1, 12),
        st.integers(0, 30),
    ),
    min_size=1,
    max_size=80,
)


@given(history_events, st.lists(st.integers(1, 80), max_size=6), st.integers(0, 31))
@settings(max_examples=200, deadline=None)
def test_a_history_filed_in_batches_equals_one_filed_at_once(events, cuts, csn):
    """Appended, inserted in place or re-sorted, in any batches (a batch
    may hold Csns below those filed): the columns are the same, and so
    are the answers, which a scan of the events gives too."""
    pairs = [
        (position, ("T", 0, kind, "q", event_csn, position, row_id))
        for position, (kind, row_id, event_csn) in enumerate(events, 1)
    ]
    at_once, in_batches = RowHistory(), RowHistory()
    at_once.add(pairs)
    # The last event alone is a batch few enough to be inserted in place.
    last = len(pairs) - 1
    bounds = sorted({0, last, len(pairs), *(c for c in cuts if c < last)})
    for low, high in zip(bounds, bounds[1:]):
        in_batches.add(pairs[low:high])
    for name in RowHistory.__slots__:
        assert getattr(in_batches, name) == getattr(at_once, name), name
    history = [
        (row_id, event_csn, position)
        for position, (kind, row_id, event_csn) in enumerate(events, 1)
        if kind != "Other"
    ]
    assert in_batches.highest_at(csn) == max(
        (row_id for row_id, event_csn, _p in history if event_csn <= csn), default=0
    )
    for row_id in range(1, 13):
        csns = [c for r, c, _p in history if r == row_id and c <= csn]
        expected = sorted(p for r, c, p in history if r == row_id and csns and c == max(csns))
        assert list(in_batches.latest(row_id, csn)) == expected, row_id


class TestFootprintReplayOracle:
    @given(moodle_requests, st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_racy_moodle(self, specs, seed):
        database = Database()
        runtime = Runtime(database)
        trod = Trod(database, event_names=build_moodle_app(database, runtime))
        trod.attach(runtime)
        requests = [Request(spec[0], tuple(spec[1:])) for spec in specs]
        run_halves(runtime, trod, requests, seed)
        check_histories_extend_as_built(trod)

    @given(checkout_requests, st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_racy_checkout(self, kinds, seed):
        database = Database()
        runtime = Runtime(database)
        trod = Trod(database, event_names=build_ecommerce_app(database, runtime))
        trod.attach(runtime)
        generator = CheckoutWorkload(n_users=3, n_skus=2, seed=seed)
        generator.seed_database(runtime)
        orders = generator.requests(len(kinds))
        requests = []
        for kind in kinds:
            if kind == "order":
                requests += next(orders), next(orders)
            elif kind == "restock":
                requests.append(Request("restock", ("SKU0", 5)))
            else:
                requests.append(Request("weeklyReport", ()))
        run_halves(runtime, trod, requests, seed)
        check_histories_extend_as_built(trod)

    @given(notes_requests, st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_racy_notes(self, notes_env, specs, seed):
        _database, runtime, trod = notes_env()
        requests = [Request(spec[0], tuple(spec[1:])) for spec in specs]
        run_halves(runtime, trod, requests, seed)
        check_histories_extend_as_built(trod)
