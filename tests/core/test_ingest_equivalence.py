"""Provenance ingest held to a plain-Python model.

``ProvenanceStore.ingest`` takes a drained trace buffer — rows of the
fixed-width tables as staged, and per app table one header per batch
plus one flat pair list — lays the batches out and inserts each table at
once. What must not depend on that: the rows, row ids and ``Seq`` of
every provenance table, every ``reconstruct_rows`` answer and every
checkpoint payload. The model below derives all of them from the staged
records alone, with no engine code, for a stream that mixes all five
provenance tables, reads that matched nothing, deletes, rows with NULL
columns, an aborted transaction and a table nobody registered.

Nor may they depend on what backs the provenance database: its own
append-only segments (the default), or a caller's MVCC database in memory
or on pages. Every test runs on all three, and the three are also held
to each other directly.
"""

import json

import pytest

from repro.core.buffer import TraceBuffer
from repro.core.provenance import ProvenanceStore
from repro.db import Database
from repro.db.schema import Column, TableSchema
from repro.db.types import ColumnType

ACCOUNTS = TableSchema(
    "accounts",
    [
        Column("id", ColumnType.INTEGER),
        Column("owner", ColumnType.TEXT),
        Column("balance", ColumnType.FLOAT),
    ],
)
#: 'Type' collides with event metadata, so its event column is 'Type_'.
AUDIT = TableSchema(
    "audit", [Column("Type", ColumnType.TEXT), Column("detail", ColumnType.TEXT)]
)
APP_COLUMNS = {"accounts": ("id", "owner", "balance"), "audit": ("Type", "detail")}
EVENT_TABLES = {"accounts": "AccountsEvents", "audit": "AuditLog"}
SNAPSHOT = [(1, (1, "ann", 10.0)), (2, (2, "bob", 20.0))]
BASE_CSN = 4

# A record is ``(provenance table, row)`` for a fixed-width table, or
# ``(app table, (TxnId, TxnNum, Type, Query, Csn), pairs)`` for a batch.


def txn(num, status="Committed", csn=None, req="R1", label="step"):
    return "Executions", (
        f"TXN{num}", num, 100 + num, "transfer", req,
        f"func:{label}" if label else "", "SERIALIZABLE", status, csn,
        (csn or BASE_CSN) - 1, "ann" if num % 2 else None,
    )


def data(num, table, kind, row_id, values, csn=None, query="q"):
    """A one-row batch; ``values`` by column name, absent columns NULL."""
    if values is not None:
        values = tuple(values.get(col) for col in APP_COLUMNS.get(table, values))
    return table, (f"TXN{num}", num, kind, f"{query}{num}", csn), [(row_id, values)]


def request(req_id, handler, args, kwargs, *rest):
    """A ``Requests`` row: ``rest`` is AuthUser .. Error, as stored."""
    args_json, kwargs_json = json.dumps(list(args)), json.dumps(kwargs)
    return "Requests", (req_id, handler, args_json, kwargs_json, *rest)


def stage(records):
    """What a trace buffer that staged ``records`` drains."""
    buffer = TraceBuffer()
    for record in records:
        if len(record) == 2:
            buffer.add_row(*record)
        else:
            table, meta, pairs = record
            buffer.add_batch(table, *meta, pairs)
    return buffer.drain()


def batches():
    """Three flushes' worth of records."""
    first = [
        data(5, "accounts", "Read", 1, {"id": 1, "owner": "ann", "balance": 10.0}),
        data(5, "accounts", "Read", None, None),  # matched nothing
        data(5, "untraced", "Read", 9, {"x": 1}),  # skipped, consumes no Seq
        txn(5, csn=5),
        data(5, "accounts", "Update", 1, {"id": 1, "owner": "ann", "balance": 7.5}, csn=5),
        data(5, "accounts", "Insert", 3, {"id": 3, "owner": "cy"}, csn=5),  # partial
        data(5, "audit", "Insert", 1, {"Type": "debit", "detail": "2.5"}, csn=5),
        ("WorkflowEdges", ("R1", "transfer", "notify", 1, 107)),
        ("SideEffects", ("R1", "notify", "email", "{'to': 'ann'}", 108)),
        txn(6, status="Aborted", label=""),
        request("R1", "transfer", ("ann", 2.5), {"memo": "rent"}, "ann", 100, 109,
                "OK", "'done'", None),
    ]
    second = [
        txn(7, csn=6, req="R2"),
        data(7, "accounts", "Delete", 2, None, csn=6),
        data(7, "audit", "Insert", 2, {"detail": "closed"}, csn=6),
        data(7, "accounts", "Update", 3, {"id": 3, "owner": "cy", "balance": 1.0}, csn=6),
        request("R2", "close", (), {}, None, 110, 111, "Error", None, "boom"),
    ]
    third = [
        txn(8, csn=7, req=None),
        data(8, "accounts", "Insert", 2, {"id": 2, "owner": "bob2", "balance": 0.0}, csn=7),
        data(8, "accounts", "Read", 2, {"id": 2, "owner": "bob2", "balance": 0.0}),
    ]
    return [first, second, third]


class Model:
    """What the provenance tables must hold, from the records alone."""

    def __init__(self):
        self.tables = {
            name: [] for name in
            ("Executions", "Requests", "WorkflowEdges", "SideEffects",
             "AccountsEvents", "AuditLog")
        }
        self.seq = 1
        for row_id, values in SNAPSHOT:
            self.tables["AccountsEvents"].append(
                ("SNAPSHOT", 0, "Snapshot", "base snapshot", BASE_CSN, self.seq,
                 row_id, *values)
            )
            self.seq += 1

    def add(self, record):
        if len(record) == 2:
            table, row = record
            self.tables[table].append(row)
            return
        table, meta, pairs = record
        if table not in APP_COLUMNS:
            return
        for row_id, values in pairs:
            values = values or (None,) * len(APP_COLUMNS[table])
            self.tables[EVENT_TABLES[table]].append(
                (*meta, self.seq, row_id, *values)
            )
            self.seq += 1

    def stored(self, table):
        """``(row_id, values)``: ids count up per table in event order."""
        return list(enumerate(self.tables[table], 1))

    def state(self, app_table, upto_csn):
        """The app table as of ``upto_csn``, folded from its event rows."""
        rows = [
            r for r in self.tables[EVENT_TABLES[app_table]]
            if r[2] == "Snapshot"
            or (r[2] in ("Insert", "Update", "Delete") and r[4] <= upto_csn)
        ]
        state = {}
        for row in sorted(rows, key=lambda r: (r[4], r[5])):
            if row[2] == "Delete":
                state.pop(row[6], None)
            else:
                state[row[6]] = tuple(row[7:])
        return sorted(state.items())


#: What backs the provenance database: None is its own (segments).
BACKINGS = {
    "segment": lambda: None,
    "memory": lambda: Database(name="provenance", storage="memory"),
    "paged": lambda: Database(name="provenance", storage="paged"),
}


@pytest.fixture(params=list(BACKINGS))
def backing(request):
    return request.param


def make_store(backing="segment"):
    prov = ProvenanceStore(db=BACKINGS[backing]())
    assert prov.db.storage == backing
    prov.register_app_table(ACCOUNTS)
    prov.register_app_table(AUDIT, event_table="AuditLog")
    assert prov.capture_snapshot("accounts", SNAPSHOT, BASE_CSN) == 2
    return prov


def ingest_all(backing):
    prov, model = make_store(backing), Model()
    for batch in batches():
        assert prov.ingest(stage(batch)) == len(batch)
        for record in batch:
            model.add(record)
    return prov, model


@pytest.fixture
def ingested(backing):
    return ingest_all(backing)


class TestTablesMatchTheModel:
    def test_rows_row_ids_and_seq_of_every_table(self, ingested):
        prov, model = ingested
        for table in model.tables:
            assert prov.db.snapshot_rows(table) == model.stored(table), table
        assert prov._next_seq == model.seq
        # Seq is one counter across the event tables, in staging order.
        seqs = sorted(
            row[5]
            for table in EVENT_TABLES.values()
            for row in model.tables[table]
        )
        assert seqs == list(range(1, model.seq))

    def test_event_table_layout_and_collision_rename(self, ingested):
        prov, _model = ingested
        assert prov.db.catalog.get("AuditLog").column_names == (
            "TxnId", "TxnNum", "Type", "Query", "Csn", "Seq", "RowId",
            "Type_", "detail",
        )
        assert prov.query(
            "SELECT Type, Type_, detail FROM AuditLog ORDER BY Seq"
        ).rows == [("Insert", "debit", "2.5"), ("Insert", None, "closed")]

    def test_one_commit_one_lock_per_table_per_flush(self, backing, commit_tap):
        prov = make_store(backing)
        manager = prov.db.txn_manager
        commits = manager.stats["committed"]
        tap = commit_tap(prov.db)
        locks = manager.locks.stats["acquisitions"]
        batch = batches()[0]
        prov.ingest(stage(batch))
        assert manager.stats["committed"] == commits + 1
        assert len(tap) == 1
        # Executions, Requests, WorkflowEdges, SideEffects, two event tables.
        assert manager.locks.stats["acquisitions"] == locks + 6
        # Changes grouped per table, in staging order inside each group:
        # one "append" run per table on segments, one change per stored
        # record (all but the untraced read) on MVCC — the same rows
        # either way.
        changes = tap[-1].changes
        tables = [change.table for change in changes]
        assert tables == sorted(tables, key=tables.index)
        if backing == "segment":
            assert [change.op for change in changes] == ["append"] * 6
            logged = [
                (change.table, row_id, values)
                for change in changes
                for row_id, values in enumerate(change.values, change.row_id)
            ]
        else:
            assert [change.op for change in changes] == ["insert"] * (len(batch) - 1)
            logged = [(c.table, c.row_id, c.values) for c in changes]
        twin = make_store("memory")
        twin_tap = commit_tap(twin.db)
        twin.ingest(stage(batch))
        assert logged == [(c.table, c.row_id, c.values) for c in twin_tap[-1].changes]

    def test_a_batch_lays_out_as_its_pairs_staged_one_by_one(self, backing):
        """A batch's pairs share one header; its rows and ``Seq`` are
        those of the same pairs staged as one-row batches, around it as
        well as in it."""
        pairs = [(i, (i, f"u{i}", float(i))) for i in range(1, 6)]
        meta = ("TXN9", 9, "Read", "scan", None)
        around = [data(9, "accounts", "Read", None, None), txn(9, csn=9)]
        batched = stage([around[0], ("accounts", meta, pairs), around[1]])
        one_by_one = stage(
            [around[0], *[("accounts", meta, [pair]) for pair in pairs], around[1]]
        )
        answers = []
        for staged in (batched, one_by_one):
            prov = make_store(backing)
            assert prov.ingest(staged) == len(pairs) + 2
            answers.append(
                (prov._next_seq, [prov.db.snapshot_rows(t) for t in Model().tables])
            )
        assert answers[0] == answers[1]

    def test_queries_over_the_ingested_rows(self, ingested):
        prov, _model = ingested
        assert [t["TxnId"] for t in prov.txns_of_request("R1")] == ["TXN5"]
        events = prov.events_of_txn(["TXN7", "TXN5", "TXN404"])
        assert set(events["TXN7"]) == {"accounts", "audit"}
        assert events["TXN404"] == {}
        assert prov.request_args("R1") == ("transfer", ("ann", 2.5), {"memo": "rent"}, "ann")
        kinds = [e["Type"] for e in events["TXN5"]["accounts"]]
        assert kinds == ["Read", "Read", "Update", "Insert"]
        assert [w["RowId"] for w in prov.writes_between(5, 7, tables=["accounts"])] == [
            2, 3, 2
        ]


class TestReconstructionMatchesTheModel:
    @pytest.mark.parametrize("csn", [4, 5, 6, 7, 99])
    def test_reconstruct_rows_from_events_and_from_kept_states(self, ingested, csn):
        prov, model = ingested
        for table in APP_COLUMNS:
            expected = model.state(table, csn)
            prov.invalidate_checkpoints()
            assert prov.reconstruct_rows(table, csn) == expected  # from nothing
            prov.invalidate_checkpoints()
            prov.reconstruct_rows(table, 5)
            assert prov.reconstruct_rows(table, csn) == expected  # from csn 5
            prov.reconstruct_rows(table, 7)
            assert prov.reconstruct_rows(table, csn) == expected  # from the nearest

    def test_a_kept_state_is_the_folded_table(self, ingested):
        prov, model = ingested
        prov.reconstruct_state(7)
        for table in APP_COLUMNS:
            assert prov.checkpoint_csns(table) == [7]
            assert sorted(prov._states[table, 7].items()) == model.state(table, 7)

    def test_ingest_keeps_no_state_ahead_of_need(self, ingested):
        prov, model = ingested
        assert not prov._states
        assert prov.checkpoint_stats == {"checkpoint_restores": 0, "full_restores": 0}
        # The first restore computes the state, the second starts from it.
        for restores in ((0, 1), (1, 1)):
            assert prov.reconstruct_rows("accounts", 6) == model.state("accounts", 6)
            assert tuple(prov.checkpoint_stats.values()) == restores
        assert prov.checkpoint_csns("accounts") == [6]

    def test_a_late_write_drops_the_states_it_makes_stale(self, ingested):
        prov, model = ingested
        prov.reconstruct_state(5)
        prov.reconstruct_state(7)
        late = data(9, "accounts", "Update", 1, {"id": 1, "owner": "ann", "balance": 0.0}, csn=6)
        prov.ingest(stage([late]))
        model.add(late)
        assert prov.checkpoint_csns("accounts") == [5]
        assert prov.checkpoint_csns("audit") == [5, 7]
        for csn in (5, 6, 7):
            assert prov.reconstruct_rows("accounts", csn) == model.state("accounts", csn)

    def test_restore_into_a_dev_database(self, ingested):
        prov, model = ingested
        dev = Database()
        assert prov.restore_into(dev, 6) == {"accounts": 2, "audit": 2}
        for table in APP_COLUMNS:
            assert dev.snapshot_rows(table) == model.state(table, 6)
        assert dev.store("accounts").stats()["next_row_id"] == 4


class TestBackingsAgree:
    """The three backings held to each other directly, answer by answer."""

    @staticmethod
    def answers(prov):
        out = {"seq": prov._next_seq}
        for table in Model().tables:
            out[table] = prov.db.snapshot_rows(table)
        for table in APP_COLUMNS:
            for csn in range(BASE_CSN, 9):
                prov.invalidate_checkpoints()
                out[table, csn, "from nothing"] = prov.reconstruct_rows(table, csn)
            prov.invalidate_checkpoints()
            for csn in range(BASE_CSN, 9):  # each from the state before it
                out[table, csn, "from a kept state"] = prov.reconstruct_rows(table, csn)
        out["restores"] = dict(prov.checkpoint_stats)
        out["writes"] = prov.writes_between(0, 9)
        out["events"] = prov.events_of_txn(("SNAPSHOT", "TXN5", "TXN7", "TXN8"))
        out["txns"] = {
            req: prov.txns_of_request(req, committed_only=False) for req in ("R1", "R2")
        }
        return out

    def test_every_answer_is_the_same_on_every_backing(self):
        answers = {backing: self.answers(ingest_all(backing)[0]) for backing in BACKINGS}
        reference = answers["memory"]
        # Nothing compared is empty by accident.
        assert all(reference[table] for table in Model().tables)
        assert reference["accounts", 8, "from nothing"]
        assert reference["restores"]["checkpoint_restores"] > 0
        assert len(reference["writes"]) == 7
        assert all(reference["events"].values())
        assert reference["txns"]["R1"] and reference["txns"]["R2"]
        for backing, got in answers.items():
            assert got == reference, backing
