"""How one provenance flush is laid out and type-checked.

``ProvenanceStore.ingest`` lays each app table's batches out as event
rows in C-level passes and checks their types once per distinct header,
row id type and values tuple. A table that passes is inserted as laid
out; any other table is coerced row by row, with the errors coercion
raises. Neither path may change what is stored: the rows, their types
and their ``Seq`` are those of a plain-Python model of the staged
records, coercion included. A wrong-width batch fails with the message
it always had and leaves no trace, and a Read event (``Csn`` NULL) costs
no entry in the event table's sorted ``Csn`` index.
"""

from __future__ import annotations

import cProfile
import pstats
import random

import pytest

import repro
from repro.core import Trod
from repro.core.buffer import TraceBuffer
from repro.core.provenance import ProvenanceStore
from repro.db import Database
from repro.db.schema import Column, TableSchema
from repro.db.types import ColumnType
from repro.errors import ProvenanceError, TypeCoercionError

from eager_reads import eager_reads

ACCOUNTS = TableSchema(
    "accounts",
    [
        Column("id", ColumnType.INTEGER),
        Column("owner", ColumnType.TEXT),
        Column("balance", ColumnType.FLOAT),
    ],
)
AUDIT = TableSchema(
    "audit", [Column("id", ColumnType.INTEGER), Column("detail", ColumnType.TEXT)]
)
EVENTS = {"accounts": "AccountsEvents", "audit": "AuditEvents"}
FIXED = ("Executions", "Requests", "WorkflowEdges", "SideEffects")
BACKINGS = {
    "segment": lambda: None,
    "memory": lambda: Database(name="provenance", storage="memory"),
    "paged": lambda: Database(name="provenance", storage="paged"),
}


def execution(num: int, csn: int | None) -> tuple:
    status = "Committed" if csn is not None else "Aborted"
    return (
        f"TXN{num}", num, num, "h", "R1", "", "SERIALIZABLE", status, csn, 0, None
    )


#: Shared like a store's rows: several reads hand in the same tuples.
ANN, BOB = (1, "ann", 10.0), (2, "bob", 20.0)


def records() -> list[tuple]:
    """``(table, row)`` for a fixed-width table, or ``(app table, header,
    pairs)`` for a batch, in staging order."""
    return [
        ("Executions", execution(5, 5)),
        ("accounts", ("TXN5", 5, "Read", "scan", None), [(1, ANN), (2, BOB), (1, ANN)]),
        ("accounts", ("TXN5", 5, "Read", "miss", None), [(None, None)]),
        ("ghosts", ("TXN5", 5, "Read", "untraced", None), [(7, (7,)), (8, (8,))]),
        ("audit", ("TXN5", 5, "Insert", "log", 5), [(1, (1, "opened")), (2, (2, None))]),
        ("accounts", ("TXN5", 5, "Delete", "drop", 5), [(2, None)]),
        ("accounts", ("TXN5", 5, "Update", "pay", 5), [(1, (1, "ann", 7.5))]),
        # An int in the FLOAT column: stored as 5.0.
        ("accounts", ("TXN5", 5, "Insert", "add", 5), [(3, (3, "cy", 5))]),
        ("Executions", execution(6, None)),
        # A float TxnNum: stored as 6.
        ("accounts", ("TXN6", 6.0, "Read", "scan", None), [(1, (1, "ann", 7.5)), (3, ANN)]),
        ("audit", ("TXN6", 6, "Read", "scan", None), [(1, (1, "opened"))] * 3),
    ]


def stage(recs) -> tuple:
    buffer = TraceBuffer()
    for record in recs:
        if len(record) == 2:
            buffer.add_row(*record)
        else:
            table, header, pairs = record
            buffer.add_batch(table, *header, pairs)
    return buffer.drain()


def model(recs, seq: int = 1) -> dict[str, list[tuple]]:
    """Every table's stored rows, with each value as its column stores it."""
    tables: dict[str, list[tuple]] = {name: [] for name in (*FIXED, *EVENTS.values())}
    schemas = {"accounts": ACCOUNTS, "audit": AUDIT}
    for record in recs:
        if len(record) == 2:
            tables[record[0]].append(record[1])
            continue
        table, (txn_name, txn_num, kind, query, csn), pairs = record
        if table not in schemas:
            continue  # untraced: skipped, takes no Seq
        columns = schemas[table].columns
        for row_id, values in pairs:
            values = values or (None,) * len(columns)
            values = tuple(
                float(v) if c.col_type is ColumnType.FLOAT and v is not None else v
                for c, v in zip(columns, values)
            )
            tables[EVENTS[table]].append(
                (txn_name, int(txn_num), kind, query, csn, seq, row_id, *values)
            )
            seq += 1
    return tables


def typed(rows) -> list[tuple]:
    """Rows with each value's type beside it: ``5 == 5.0`` must not pass."""
    return [tuple((type(value), value) for value in row) for row in rows]


def make_store(backing: str) -> ProvenanceStore:
    prov = ProvenanceStore(db=BACKINGS[backing]())
    prov.register_app_table(ACCOUNTS)
    prov.register_app_table(AUDIT)
    return prov


def stored(prov: ProvenanceStore) -> dict[str, list[tuple]]:
    return {
        table: [values for _rid, values in prov.db.snapshot_rows(table)]
        for table in (*FIXED, *EVENTS.values())
    }


@pytest.mark.parametrize("backing", sorted(BACKINGS))
def test_a_mixed_flush_stores_the_model_rows_and_seqs(backing, monkeypatch):
    prov = make_store(backing)
    coerced = []
    insert_rows = prov.db.insert_rows

    def spy(table, rows, txn=None):
        coerced.append(table)
        return insert_rows(table, rows, txn=txn)

    monkeypatch.setattr(prov.db, "insert_rows", spy)
    recs = records()
    assert prov.ingest(stage(recs)) == sum(
        1 if len(r) == 2 else len(r[2]) for r in recs
    )
    want = model(recs)
    got = stored(prov)
    for table in want:
        assert typed(got[table]) == typed(want[table]), table
    assert prov._next_seq == 1 + len(want["AccountsEvents"]) + len(want["AuditEvents"])
    # The accounts batches needed coercion; the audit ones went in as laid out.
    assert coerced == ["Executions", "AccountsEvents"]
    # A later flush takes the next Seqs.
    later = [("audit", ("TXN7", 7, "Read", "again", None), [(2, (2, None))])]
    prov.ingest(stage(later))
    assert stored(prov)["AuditEvents"][-1][5] == prov._next_seq - 1 == 15


def wrong_width_flush() -> list[tuple]:
    return [
        ("Executions", execution(8, 8)),
        ("audit", ("TXN8", 8, "Insert", "log", 8), [(5, (5, "fine"))]),
        ("accounts", ("TXN8", 8, "Read", "scan", None), [(1, ANN)]),
        (
            "accounts",
            ("TXN8", 8, "Update", "pay", 8),
            [(1, (1, "ann", 1.0)), (12, (12, "short")), (13, (13,))],
        ),
    ]


@pytest.mark.parametrize("backing", sorted(BACKINGS))
def test_a_wrong_width_batch_fails_whole_with_its_message(backing):
    prov = make_store(backing)
    prov.ingest(stage(records()))
    before = stored(prov), prov._next_seq
    with pytest.raises(
        ProvenanceError,
        match=r"^Update event on 'accounts' row 12 carries 2 values for 3 columns$",
    ):
        prov.ingest(stage(wrong_width_flush()))
    assert (stored(prov), prov._next_seq) == before


@pytest.mark.parametrize("backing", sorted(BACKINGS))
def test_a_value_coercion_refuses_fails_whole(backing):
    prov = make_store(backing)
    before = stored(prov), prov._next_seq
    bad = [
        ("audit", ("TXN9", 9, "Insert", "log", 9), [(5, (5, "fine"))]),
        ("accounts", ("TXN9", 9, "Insert", "add", 9), [(4, (4, "dee", "lots"))]),
    ]
    with pytest.raises(TypeCoercionError, match="balance"):
        prov.ingest(stage(bad))
    assert (stored(prov), prov._next_seq) == before


@pytest.mark.parametrize("backing", sorted(BACKINGS))
def test_read_events_cost_no_csn_index_entry(backing):
    prov = make_store(backing)
    index = prov.db.index_set("AccountsEvents").indexes["ix_accountsevents_csn"]
    reads = [r for r in records() if len(r) == 3 and r[1][2] == "Read"]
    prov.ingest(stage(reads))
    assert prov.query("SELECT COUNT(*) FROM AccountsEvents").scalar() == 6
    assert len(index) == 0
    writes = [r for r in records() if len(r) == 3 and r[1][4] is not None]
    prov.ingest(stage(writes))
    assert len(index) == 3  # the Delete, the Update and the Insert
    assert prov.query(
        "SELECT Type FROM AccountsEvents WHERE Csn >= 5 ORDER BY Seq"
    ).rows == [("Delete",), ("Update",), ("Insert",)]


def scan_traced(rows: int) -> tuple:
    """``scan_traced``'s statements, run until the trace buffer holds
    ``rows`` rows: the tracer, and the number of statements run."""
    rng = random.Random(7)
    db = Database(name="scan", storage="memory")
    loader = repro.connect(db)
    loader.execute("CREATE TABLE items (id INTEGER, grp INTEGER, val INTEGER, tag TEXT)")
    loader.execute("CREATE TABLE grps (grp INTEGER, region TEXT)")
    db.insert_rows(
        "items",
        [(i, rng.randrange(50), rng.randrange(1000), f"t{i % 7}") for i in range(1000)],
    )
    db.insert_rows("grps", [(g, ("north", "south", "east", "west")[g % 4]) for g in range(50)])
    loader.execute("CREATE INDEX ix_items_id ON items (id)")
    trod = Trod(db, buffer_capacity=10**9)
    conn = repro.connect(db, trod=trod)
    statements = [
        ("SELECT grp, COUNT(*), SUM(val) FROM items GROUP BY grp ORDER BY grp", ()),
        ("SELECT id, val FROM items WHERE val >= ? AND val < ?", (300, 400)),
        (
            "SELECT COUNT(*) FROM items i JOIN grps g ON i.grp = g.grp"
            " WHERE g.region = ?",
            ("north",),
        ),
        ("SELECT id, val FROM items ORDER BY val DESC, id LIMIT 10", ()),
        ("SELECT val FROM items WHERE id = ?", (17,)),
    ]
    step = 0
    while len(trod.buffer) < rows:
        conn.execute(*statements[step % len(statements)]).rows
        step += 1
    return trod, step


def scan_traced_flush(rows: int = 65536) -> tuple:
    """What ``scan_traced``'s statements stage, every row they read as a
    row (``eager_reads``), until ``rows`` are due."""
    with eager_reads():
        trod, _step = scan_traced(rows)
    return trod, trod.buffer.drain()


def test_an_expansion_makes_few_python_calls():
    """The Read rows of ``scan_traced``'s predicates go in set-oriented,
    as a flush of the same rows staged as pairs does."""
    trod, statements = scan_traced(2 * 5 * 60)
    trod.flush()
    assert len(trod.provenance.pending_scans()) >= 3 * 60
    profile = cProfile.Profile()
    profile.enable()
    expanded = trod.provenance.expand_reads()
    profile.disable()
    assert expanded >= 65536 and not trod.provenance.pending_scans()
    # Python functions, that is: a filter's program appends each row it
    # keeps, as the scan's did.
    python_calls = sum(
        calls
        for (file, _line, _name), (_cc, calls, *_rest) in pstats.Stats(profile).stats.items()
        if file != "~"
    )
    assert python_calls < 10 * statements  # O(predicates), not O(rows)


def test_a_scan_traced_flush_makes_few_python_calls():
    trod, staged = scan_traced_flush()
    staged_rows = sum(map(len, staged[0].values())) + sum(
        len(pairs) for _headers, pairs in staged[1].values()
    )
    assert staged_rows >= 65536
    profile = cProfile.Profile()
    profile.enable()
    ingested = trod.provenance.ingest(staged)
    profile.disable()
    assert ingested == staged_rows
    stats = pstats.Stats(profile)
    assert stats.total_calls < 5000
    # Each distinct values tuple is checked once, not each of its reads.
    checks = sum(
        calls
        for (_file, _line, name), (_cc, calls, *_rest) in stats.stats.items()
        if name == "stores_as_is"
    )
    assert 0 < checks < 50
