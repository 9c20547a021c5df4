"""The eager read recorder, kept as the reference for scan predicates.

A traced whole-table scan in one chunk records its predicate (a
:class:`~repro.db.txn.manager.ScanRead`), which the provenance store
reenacts into Read rows when they are read. Every other read records the
rows that passed its filter, a chunk at a time: that per-row recorder is
what every traced scan did before predicates, and :func:`eager_reads`
routes every scan through it again. A run under it is the reference a
run with predicates is held to, the way ``sql_oracle.py`` is for SQL:
after expansion, the same provenance, ``Seq`` for ``Seq``
(:func:`provenance_tables`).

Tests import it as ``from eager_reads import ...`` (tests/ is on
``sys.path`` through its ``conftest.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.db.sql.executor import ScanNode
from repro.db.txn.manager import ScanRead


@contextmanager
def eager_reads() -> Iterator[None]:
    """Within the block, no scan records a predicate: each records its
    rows, as every traced scan did before predicates."""
    reenactable = ScanNode._reenactable
    ScanNode._reenactable = lambda self, ctx, batch: False
    try:
        yield
    finally:
        ScanNode._reenactable = reenactable


class ReadLog(dict):
    """A ``statement_executed`` subscriber: ``log[txn]`` is every read the
    traces of ``txn``'s statements carried, in order (``[]`` for a
    transaction that read nothing). Subscribing it is what turns read
    tracking on; :meth:`on` subscribes a new one to an engine.

    On a sharded engine each shard reports its own branch's statements:
    ``log[gtxn.on(store)]``."""

    events = ("statement_executed",)

    @classmethod
    def on(cls, engine) -> "ReadLog":
        log = cls()
        engine.add_observer(log)
        return log

    def __missing__(self, txn) -> list:
        return []

    def statement_executed(self, txn, trace) -> None:
        self.setdefault(txn, []).extend(trace.reads)

    def tables(self, txn) -> set[str]:
        """The tables ``txn``'s statements read."""
        return {read.table for read in self[txn]}


def read_rows(reads, db) -> list[tuple]:
    """One ``(table, row_id, values, query)`` per row ``reads`` (the read
    records of a :class:`ReadLog` or of one statement trace) read from ``db``,
    in order: a read set's rows, and a scan predicate reenacted over
    ``db``'s own version store at its CSN."""
    out = []
    for read in reads:
        if isinstance(read, ScanRead):
            rows = read.reenact(sorted(db.store(read.table).scan(read.csn)))
            out += [(read.table, row_id, values, read.query) for row_id, values in rows]
        else:
            out += read.rows()
    return out


def provenance_tables(trod) -> dict[str, list[tuple]]:
    """Every provenance table of ``trod`` through its reader barrier
    (``Trod.query``), in a storage-independent order: event tables by
    ``Seq``, every other table by all its columns."""
    provenance = trod.provenance
    events = {provenance.event_table_of(t) for t in provenance.traced_tables()}
    out = {}
    for table in provenance.db.catalog.table_names():
        if table in events:
            out[table] = trod.query(f"SELECT * FROM {table} ORDER BY Seq").rows
        else:
            rows = trod.query(f"SELECT * FROM {table}").rows
            out[table] = sorted(rows, key=lambda row: [(v is None, repr(v)) for v in row])
    return out


def replay_answer(trod, req_id: str) -> tuple:
    """A replay of ``req_id``, less its dev database: what it returned,
    whether it was faithful, and each step's injected writes."""
    result = trod.replayer.replay_request(req_id)
    steps = [(s.original_txn, s.label, s.injected) for s in result.steps]
    return result.output, result.error, result.divergences, steps


def answers(trod, req_ids=(), retro=()) -> dict:
    """What ``trod`` answers about its run: every provenance table, the
    transactions touching each traced table, the access-control and
    taint analyses over each, each request in ``req_ids`` tracked and
    replayed, and a retroactive run of ``retro`` when given."""
    out = {"provenance": provenance_tables(trod)}
    for table in trod.provenance.traced_tables():
        out[table] = (
            trod.debugger.transactions_touching(table).rows,
            trod.security.authentication(table, ("Read", "Insert", "Update", "Delete")),
            trod.taint.compute_taint([table]),
        )
    for req_id in req_ids:
        out[req_id] = trod.taint.track_request(req_id), replay_answer(trod, req_id)
    if retro:
        out["retro"] = trod.retroactive.run(list(retro))
    return out
