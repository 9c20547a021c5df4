"""TROD's provenance database (§3.4).

Captured traces land in an *analytical* database — itself an instance of
our engine — with the schema of the paper:

* ``Executions`` (aliased as ``Invocations``, the name Table 1 uses):
  one row per transaction, with request metadata.
* ``<Table>Events``: one row per data operation on each traced app table
  (Table 2), carrying the app table's own columns so reads and writes are
  directly queryable. Base snapshots captured at attach time are stored as
  ``Type = 'Snapshot'`` rows, which makes a past database state
  reconstructible *from provenance alone* — the property bug replay needs.
* ``Requests``, ``WorkflowEdges``, ``SideEffects``: request lifecycles,
  RPC workflow edges, and recorded external effects.
"""

from __future__ import annotations

import bisect
import json
from array import array
from collections import OrderedDict
from itertools import accumulate, chain, islice, repeat
from operator import add, itemgetter
from typing import Callable, Collection, Iterable, Iterator

from repro.core.buffer import Staged
from repro.db.database import Database
from repro.db.index import HashIndex, SortedIndex, split_pairs
from repro.db.result import ResultSet
from repro.db.schema import Column, TableSchema
from repro.db.segments import ColumnBatch, transpose
from repro.db.storage import KeptRows
from repro.db.types import ColumnType
from repro.errors import ProvenanceError

#: Metadata columns prepended to every event table.
_EVENT_META = [
    ("TxnId", ColumnType.TEXT),
    ("TxnNum", ColumnType.INTEGER),
    ("Type", ColumnType.TEXT),
    ("Query", ColumnType.TEXT),
    ("Csn", ColumnType.INTEGER),
    ("Seq", ColumnType.INTEGER),
    ("RowId", ColumnType.INTEGER),
]

_WRITE_KINDS = ("Insert", "Update", "Delete")
#: What a full reconstruction folds: the base snapshot, then the writes.
_HISTORY_KINDS = ("Snapshot", *_WRITE_KINDS)

#: Sort keys over a positional event row, and its values in a stored pair.
_CSN_SEQ = itemgetter(4, 5)
_SEQ = itemgetter(5)
_VALUES = itemgetter(1)

#: Written into the ``Query`` column of a redacted event
#: (:mod:`repro.core.privacy`); reconstruction treats the row as absent
#: and replay injection skips it.
REDACTED = "[redacted]"

#: Rows the reconstructed-state memo may hold across all its states; the
#: newest state stays whatever its size.
_STATE_MEMO_ROWS = 16384


def _kinds(tuples: Iterable[tuple]) -> set[tuple[type, ...]]:
    """The distinct type signatures of ``tuples``."""
    return set(map(tuple, map(map, repeat(type), tuples)))


def _raise_wrong_width(
    table: str, headers: list, row_ids: list, values: list, width: int
) -> None:
    """Raise for the first of ``values`` that is not ``width`` long."""
    ends = list(accumulate(header[6] for header in headers))
    for at, row in enumerate(values):
        if len(row) != width:
            kind = headers[bisect.bisect_right(ends, at)][2]
            raise ProvenanceError(
                f"{kind} event on {table!r} row {row_ids[at]} carries "
                f"{len(row)} values for {width} columns"
            )


class RowHistory:
    """Where each row's history lies in one event table: the Snapshot /
    Insert / Update / Delete events as three parallel ``array('q')``
    columns — app ``row_ids``, ``csns`` and ``positions`` (the event's
    row id in the event store) — sorted by (row id, Csn, position), and
    the same events' ``Csn`` values ascending in ``by_csn`` beside the
    highest app row id among them up to each in ``highest_by_csn``. It
    holds ints only, never a value: an erased value lives in the event
    row alone. ``indexed`` counts the ``Csn``-index entries it has
    looked at, ``newest`` is their highest ``Csn`` and ``end`` one past
    their highest position.
    """

    __slots__ = (
        "row_ids", "csns", "positions", "by_csn", "highest_by_csn",
        "indexed", "newest", "end",
    )

    def __init__(self) -> None:
        self.row_ids = array("q")
        self.csns = array("q")
        self.positions = array("q")
        self.by_csn = array("q")
        self.highest_by_csn = array("q")
        self.indexed = 0
        self.newest = -1  # below every CSN
        self.end = 0

    def add(self, pairs: list[tuple[int, tuple]]) -> None:
        """File the history events among positional ``(position, event
        row)`` pairs, all past :attr:`end`."""
        if not pairs:
            return
        self.indexed += len(pairs)
        self.end = max(self.end, max(map(itemgetter(0), pairs)) + 1)
        self.newest = max(self.newest, max(row[4] for _position, row in pairs))
        events = sorted(
            (row[6], row[4], position)
            for position, row in pairs
            if row[2] in _HISTORY_KINDS
        )
        if events:
            self._file(events)
            self._file_by_csn(sorted(map(itemgetter(1, 0), events)))

    def _file(self, events: list[tuple[int, int, int]]) -> None:
        """Merge sorted ``(row id, Csn, position)`` keys into the columns:
        appended when they all sort last (a first build; inserts of new
        rows), inserted one by one when they are few, else re-sorted."""
        row_ids, csns, positions = self.row_ids, self.csns, self.positions
        if not row_ids or events[0] > (row_ids[-1], csns[-1], positions[-1]):
            row_ids.extend(map(itemgetter(0), events))
            csns.extend(map(itemgetter(1), events))
            positions.extend(map(itemgetter(2), events))
        elif len(events) * 16 <= len(row_ids):
            for row_id, csn, position in events:
                low = bisect.bisect_left(row_ids, row_id)
                high = bisect.bisect_right(row_ids, row_id, low)
                low = bisect.bisect_left(csns, csn, low, high)
                high = bisect.bisect_right(csns, csn, low, high)
                at = bisect.bisect_right(positions, position, low, high)
                row_ids.insert(at, row_id)
                csns.insert(at, csn)
                positions.insert(at, position)
        else:
            merged = sorted(chain(zip(row_ids, csns, positions), events))
            self.row_ids = array("q", map(itemgetter(0), merged))
            self.csns = array("q", map(itemgetter(1), merged))
            self.positions = array("q", map(itemgetter(2), merged))

    def _file_by_csn(self, events: list[tuple[int, int]]) -> None:
        """Extend ``by_csn`` / ``highest_by_csn`` with sorted ``(Csn, row
        id)`` keys, or re-derive both from the columns when a key is not
        above every one filed."""
        by_csn, highest = self.by_csn, self.highest_by_csn
        if by_csn and events[0][0] <= by_csn[-1]:
            events = sorted(zip(self.csns, self.row_ids))
            self.by_csn = by_csn = array("q")
            self.highest_by_csn = highest = array("q")
        start = highest[-1] if highest else events[0][1]
        by_csn.extend(map(itemgetter(0), events))
        running = accumulate(map(itemgetter(1), events), max, initial=start)
        highest.extend(islice(running, 1, None))

    def latest(self, row_id: int, upto_csn: int) -> array:
        """Positions of ``row_id``'s events at the highest ``Csn`` at or
        below ``upto_csn`` (none if it has none): each event carries the
        whole row, so they alone decide its state then."""
        low = bisect.bisect_left(self.row_ids, row_id)
        high = bisect.bisect_right(self.row_ids, row_id, low)
        at = bisect.bisect_right(self.csns, upto_csn, low, high)
        if at == low:
            return self.positions[:0]
        first = bisect.bisect_left(self.csns, self.csns[at - 1], low, at)
        return self.positions[first:at]

    def highest_at(self, upto_csn: int) -> int:
        """The highest app row id with an event at or below ``upto_csn``
        (0 if none): the highest id the table had handed out by then,
        deleted rows' included."""
        at = bisect.bisect_right(self.by_csn, upto_csn)
        return self.highest_by_csn[at - 1] if at else 0


def default_event_table_name(table: str) -> str:
    """forum_sub -> ForumSubEvents."""
    camel = "".join(part.capitalize() for part in table.split("_"))
    return f"{camel}Events"


class ProvenanceStore:
    """Ingests trace records and answers declarative debugging queries."""

    def __init__(self, db: Database | None = None):
        #: Its own database keeps every table as append-only segments (no
        #: row versions: a redaction overwrites the only copy); a caller's
        #: ``db`` keeps whatever storage it was opened with.
        self.db = db or Database(name="provenance", storage="segment")
        self._next_seq = 1
        #: app table (canonical) -> event table name
        self._event_tables: dict[str, str] = {}
        #: app table (canonical) -> app TableSchema
        self._app_schemas: dict[str, TableSchema] = {}
        #: app table -> {app column -> event-table column}
        self._column_maps: dict[str, dict[str, str]] = {}
        #: app table -> (event table, a None per app column): what ingest
        #: needs to lay a staged pair's ``values`` out as the tail of a
        #: positional row.
        self._event_layouts: dict[str, tuple[str, tuple]] = {}
        #: app table -> CSN of its (earliest) base snapshot, when it has
        #: one: no state before it can be reconstructed.
        self._snapshot_csns: dict[str, int] = {}
        #: (app table, csn) -> ``row_id -> values`` of the table as of
        #: that csn, least recently used first: what reconstructions
        #: computed, kept so the next one applies only the events after
        #: the nearest state at or below its csn. A kept dict is never
        #: handed out or altered.
        self._states: OrderedDict[tuple[str, int], dict[int, tuple]] = OrderedDict()
        #: app table -> ascending csns of its kept states.
        self._state_csns: dict[str, list[int]] = {}
        self._state_rows = 0
        #: event table -> its :class:`RowHistory`, built on first use.
        self._row_histories: dict[str, RowHistory] = {}
        #: event table -> the ``values`` tuples of its last ingested batch,
        #: by ``id``, when their types passed the check: a read of the same
        #: store rows in the next drain is not checked again. Holding the
        #: tuples keeps their ids from naming any other object.
        self._checked: dict[str, dict[int, tuple]] = {}
        self.checkpoint_stats = {"checkpoint_restores": 0, "full_restores": 0}
        self._create_base_tables()

    # ------------------------------------------------------------------
    # Schema management
    # ------------------------------------------------------------------

    def _create_base_tables(self) -> None:
        self.db.execute(
            "CREATE TABLE Executions ("
            " TxnId TEXT NOT NULL, TxnNum INTEGER NOT NULL,"
            " Timestamp INTEGER, HandlerName TEXT, ReqId TEXT,"
            " Metadata TEXT, Isolation TEXT, Status TEXT,"
            " Csn INTEGER, SnapshotCsn INTEGER, AuthUser TEXT)"
        )
        # The paper's Table 1 calls this table "Invocations" while its SQL
        # queries say "Executions"; both names work here.
        self.db.add_table_alias("Invocations", "Executions")
        self.db.execute(
            "CREATE TABLE Requests ("
            " ReqId TEXT NOT NULL, HandlerName TEXT NOT NULL,"
            " ArgsJson TEXT, KwargsJson TEXT, AuthUser TEXT,"
            " StartTs INTEGER, EndTs INTEGER,"
            " Status TEXT, Output TEXT, Error TEXT)"
        )
        self.db.execute(
            "CREATE TABLE WorkflowEdges ("
            " ReqId TEXT NOT NULL, Caller TEXT, Callee TEXT,"
            " Seq INTEGER, Timestamp INTEGER)"
        )
        self.db.execute(
            "CREATE TABLE SideEffects ("
            " ReqId TEXT NOT NULL, HandlerName TEXT, Channel TEXT,"
            " Payload TEXT, Timestamp INTEGER)"
        )
        self.db.execute(
            "CREATE TABLE TraceSchemas ("
            " TableName TEXT NOT NULL, EventTable TEXT NOT NULL, Ddl TEXT)"
        )
        self.db.create_index("ix_exec_txn", "Executions", ["TxnId"])
        self.db.create_index("ix_exec_req", "Executions", ["ReqId"])
        self.db.create_index("ix_req_id", "Requests", ["ReqId"])
        self.db.create_index("ix_edges_req", "WorkflowEdges", ["ReqId"])

    def register_app_table(
        self, schema: TableSchema, event_table: str | None = None
    ) -> str:
        """Create the ``<Table>Events`` table for one traced app table."""
        canonical = schema.name.lower()
        if canonical in self._event_tables:
            return self._event_tables[canonical]
        name = event_table or default_event_table_name(schema.name)
        meta_names = {m.lower() for m, _t in _EVENT_META}
        column_map: dict[str, str] = {}
        columns = [
            Column(name=cname, col_type=ctype, nullable=(cname != "TxnId"))
            for cname, ctype in _EVENT_META
        ]
        for col in schema.columns:
            out_name = col.name
            if out_name.lower() in meta_names:
                out_name = f"{col.name}_"
            column_map[col.name] = out_name
            columns.append(Column(name=out_name, col_type=col.col_type, nullable=True))
        self.db.create_table(TableSchema(name, columns))
        self.db.create_index(f"ix_{name}_txn".lower(), name, ["TxnId"])
        # A read of a Csn range (``_writes``) keeps reconstruction from a
        # kept state O(delta): it fetches only the events after that state.
        self.db.create_index(
            f"ix_{name}_csn".lower(), name, ["Csn"], sorted_index=True
        )
        self._event_tables[canonical] = name
        self._app_schemas[canonical] = schema
        self._column_maps[canonical] = column_map
        self._event_layouts[canonical] = (name, (None,) * len(schema.columns))
        self.db.execute(
            "INSERT INTO TraceSchemas (TableName, EventTable, Ddl) VALUES (?, ?, ?)",
            (schema.name, name, schema.ddl()),
        )
        return name

    def event_table_of(self, table: str) -> str:
        try:
            return self._event_tables[table.lower()]
        except KeyError:
            raise ProvenanceError(
                f"table {table!r} is not traced (known: "
                f"{sorted(self._event_tables)})"
            ) from None

    def app_schema(self, table: str) -> TableSchema:
        try:
            return self._app_schemas[table.lower()]
        except KeyError:
            raise ProvenanceError(f"table {table!r} is not traced") from None

    def traced_tables(self) -> list[str]:
        return [self._app_schemas[k].name for k in sorted(self._app_schemas)]

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def capture_snapshot(
        self, table: str, rows: Iterable[tuple[int, tuple]], csn: int
    ) -> int:
        """Record the full content of ``table`` as Type='Snapshot' events."""
        event_table = self.event_table_of(table)
        # A new base snapshot redefines the table's reconstruction floor.
        self.invalidate_checkpoints(table)
        event_rows = [
            ("SNAPSHOT", 0, "Snapshot", "base snapshot", csn, seq, row_id, *values)
            for seq, (row_id, values) in enumerate(rows, self._next_seq)
        ]
        self.db.insert_rows(event_table, event_rows)
        self._next_seq += len(event_rows)
        if event_rows:
            key = table.lower()
            self._snapshot_csns[key] = min(csn, self._snapshot_csns.get(key, csn))
        return len(event_rows)

    def ingest(self, staged: Staged) -> int:
        """Store what one :meth:`TraceBuffer.drain
        <repro.core.buffer.TraceBuffer.drain>` staged, in one transaction;
        returns the trace rows it held.

        Rows of the fixed-width tables go in as staged. Each app table's
        batches become one :class:`~repro.db.segments.ColumnBatch` of its
        event table, in staging order: a header ``(TxnId, TxnNum, Type,
        Query, Csn, ordinal, count)`` is one stretch of the leading
        columns over the next ``count`` pairs of its table's pair list,
        the i-th of them the row ``(TxnId, TxnNum, Type, Query, Csn, Seq,
        RowId, *values)`` with ``Seq = _next_seq + ordinal + i``, less the
        pairs of earlier batches on tables nobody traces (skipped, they
        take no ``Seq``). The ``Seq``, ``RowId`` and value columns are
        built from the pairs directly; no row tuple is made. An event
        table whose headers, row ids and values all have the types its
        columns store takes the batch as it is; any other table is
        coerced row by row (:meth:`Database.insert_rows`). Every table is
        one insert — one table lock per table per flush — and only once
        the transaction has committed does ``Seq`` allocation advance and
        do the kept states a write makes stale go: a batch that fails
        leaves no trace.
        """
        rows, batches = staged
        if not (rows or batches):
            return 0
        count = sum(map(len, rows.values()))
        groups: dict[str, list[tuple] | ColumnBatch] = dict(rows)
        #: Tables whose rows go through coercion: every fixed-width one,
        #: and each event table a batch failed the type check on.
        coerced = set(rows)
        traced = []
        #: (ordinal, count) of each batch on an untraced table (e.g. one
        #: created after attach without a hook): skipped rather than
        #: failing the whole flush.
        skipped: list[tuple[int, int]] = []
        for table, (headers, pairs) in batches.items():
            count += len(pairs)
            layout = self._event_layouts.get(table.lower())
            if layout is None:
                skipped += [header[5:] for header in headers]
            else:
                traced.append((table, layout, headers, pairs))
        skipped.sort()
        skipped_at = [ordinal for ordinal, _count in skipped]
        skipped_before = list(accumulate((n for _o, n in skipped), initial=0))
        #: app table -> lowest CSN of the writes this batch brings it.
        written: dict[str, int] = {}
        base = self._next_seq
        for table, (event_table, nulls), headers, pairs in traced:
            heads = [header[:5] for header in headers]
            counts = [header[6] for header in headers]
            starts = [
                base + o - skipped_before[bisect.bisect_left(skipped_at, o)]
                for _h, _n, _k, _q, _c, o, _count in headers
            ]
            row_ids, values = split_pairs(pairs)
            if None in values:
                # A read that matched nothing, or a delete: every data
                # column of the event row stays NULL.
                values = [nulls if v is None else v for v in values]
            # Read pairs share the store's tuples: each is checked once,
            # and not at all when the table's last drain checked it.
            distinct = dict(zip(map(id, values), values))
            checked = self._checked.pop(event_table, {})
            fresh = list(map(distinct.__getitem__, distinct.keys() - checked.keys()))
            if set(map(len, fresh)) - {len(nulls)}:
                _raise_wrong_width(table, headers, row_ids, values, len(nulls))
            # Headers fill columns 0-4, row ids RowId (6), values 7 on.
            schema = self.db.catalog.get(event_table)
            if (
                all(map(schema.stores_as_is, _kinds(set(heads))))
                and all(map(schema.stores_as_is, _kinds(fresh), repeat(7)))
                and all(schema.stores_as_is((k,), 6) for k in set(map(type, row_ids)))
            ):
                self._checked[event_table] = distinct
            else:
                coerced.add(event_table)
            seqs = array(
                "q", chain.from_iterable(map(range, starts, map(add, starts, counts)))
            )
            batch = ColumnBatch(
                [seqs, row_ids, *transpose(values, len(nulls))],
                heads,
                counts,
                len(pairs),
            )
            if event_table in groups:  # the app table staged under two spellings
                batch = ColumnBatch.concat([groups[event_table], batch])
            groups[event_table] = batch
            csns = [h[4] for h in heads if h[4] is not None and h[2] in _WRITE_KINDS]
            if csns:
                key = table.lower()
                written[key] = min(written.get(key, csns[0]), *csns)
        txn = self.db.begin()
        try:
            for table in list(groups):
                group = groups.pop(table)
                if table in coerced:
                    self.db.insert_rows(table, group, txn=txn)
                else:
                    txn.insert_many(table, group)
            txn.commit()
        except Exception:
            txn.abort()
            raise
        self._next_seq = base + sum(len(pairs) for *_t, pairs in traced)
        for key, csn in written.items():
            # A write at or before a kept state makes that state stale.
            self._drop_states(key, csn)
        return count

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, sql: str, params: tuple = ()) -> ResultSet:
        return self.db.execute(sql, params)

    def txns_of_request(self, req_id: str, committed_only: bool = True) -> list[dict]:
        """This request's committed transactions in commit order, or with
        ``committed_only=False`` all of them (aborted ones have no
        ``Csn``) in execution order (``TxnNum``)."""
        sql = (
            "SELECT TxnId, TxnNum, Timestamp, HandlerName, Metadata, Csn,"
            " SnapshotCsn, Isolation, Status"
            " FROM Executions WHERE ReqId = ?"
        )
        if committed_only:
            sql += " AND Status = 'Committed' ORDER BY Csn ASC, TxnNum ASC"
        else:
            sql += " ORDER BY TxnNum ASC"
        return self.query(sql, (req_id,)).as_dicts()

    def request_row(self, req_id: str) -> dict:
        rows = self.query(
            "SELECT * FROM Requests WHERE ReqId = ?", (req_id,)
        ).as_dicts()
        if not rows:
            raise ProvenanceError(f"no traced request {req_id!r}")
        return rows[0]

    def request_args(self, req_id: str) -> tuple[str, tuple, dict, str | None]:
        """(handler, args, kwargs, auth_user) needed to re-execute a request."""
        return self.call_of(self.request_row(req_id))

    @staticmethod
    def call_of(row: dict) -> tuple[str, tuple, dict, str | None]:
        """:meth:`request_args` from a :meth:`request_row` already read."""
        args = tuple(json.loads(row["ArgsJson"] or "[]"))
        kwargs = dict(json.loads(row["KwargsJson"] or "{}"))
        return row["HandlerName"], args, kwargs, row["AuthUser"]

    def writes_between(
        self,
        low_csn: int,
        high_csn: int,
        tables: Iterable[str] | None = None,
        exclude_req: str | None = None,
    ) -> list[dict]:
        """Committed write events with ``low_csn < Csn <= high_csn``.

        This is the §3.5 injection set: the state changes a replayed
        transaction depends on. ``tables`` restricts to the data the
        transaction actually uses (ablation A1); ``exclude_req`` drops the
        replayed request's own writes (re-execution recreates them).
        Each table's events come off its ``Csn`` index (:meth:`_writes`);
        the writers' requests are one ``Executions`` statement.
        """
        if high_csn <= low_csn:
            return []  # an empty range: nothing to ask the event tables
        names = (
            [t.lower() for t in tables]
            if tables is not None
            else sorted(self._event_tables)
        )
        # (app table name, event table columns, event row) of each write.
        found: list[tuple[str, tuple, tuple]] = []
        for table in names:
            event_table = self._event_tables.get(table)
            if event_table is not None:
                name = self._app_schemas[table].name
                columns = self.db.catalog.get(event_table).column_names
                # A redacted row was erased under the privacy extension:
                # replay proceeds from partial data (§5) rather than
                # leaking values.
                found += [
                    (name, columns, row)
                    for row in self._writes(event_table, low_csn, high_csn)
                    if row[3] != REDACTED
                ]
        # Each writer's request, read at once: the first of its
        # ``Executions`` rows by (TxnNum, Csn); None when it has none.
        req_of: dict[str, str | None] = {}
        txn_ids = sorted({row[0] for _name, _columns, row in found})
        if txn_ids:
            for txn_id, req_id in self.query(
                "SELECT TxnId, ReqId FROM Executions"
                f" WHERE TxnId IN ({', '.join('?' * len(txn_ids))})"
                " ORDER BY TxnNum, Csn",
                tuple(txn_ids),
            ).rows:
                req_of.setdefault(txn_id, req_id)
        found.sort(key=lambda write: _CSN_SEQ(write[2]))
        out = []
        for name, columns, row in found:
            req_id = req_of.get(row[0])
            if exclude_req is None or req_id != exclude_req:
                out.append({"ReqId": req_id, **dict(zip(columns, row)), "_table": name})
        return out

    def events_of_txn(self, txn_names: Iterable[str]) -> dict[str, dict[str, list[dict]]]:
        """Each transaction's data events in ``Seq`` order, keyed by the
        (canonical) app table — only the tables it read or wrote, ``{}``
        when none (an unknown name too). Each event table's rows are the
        names' entries in its ``TxnId`` index, read by :meth:`_event_rows`."""
        found: dict[str, dict[str, list[dict]]] = {name: {} for name in txn_names}
        if not found:
            return found
        for table, event_table in self._event_tables.items():
            index = self._index(event_table, "txn")
            row_ids = sorted(set().union(*(index.lookup((name,)) for name in found)))
            columns = self.db.catalog.get(event_table).column_names
            for row in self._event_rows(event_table, row_ids, key=_SEQ):
                found[row[0]].setdefault(table, []).append(dict(zip(columns, row)))
        return found

    def history(
        self, table: str, upto_csn: int | None = None
    ) -> Iterator[tuple[str, int, int, str, tuple]]:
        """``table``'s base snapshot and write events with ``Csn <=
        upto_csn`` (all if None), in (Csn, Seq) order, each as ``(kind,
        row_id, csn, txn_id, values)``: the fold a reconstruction makes,
        one event at a time, for a caller that checks every step
        (:mod:`repro.core.quality`). Read off the ``Csn`` index
        (:meth:`_writes`)."""
        tail = len(_EVENT_META)
        event_table = self.event_table_of(table)
        for row in self._writes(event_table, -1, upto_csn, snapshots=True):
            yield row[2], row[6], row[4], row[0], row[tail:]

    # ------------------------------------------------------------------
    # State reconstruction (replay's substrate)
    # ------------------------------------------------------------------

    def reconstruct_rows(
        self, table: str, upto_csn: int, row_ids: Iterable[int] | None = None
    ) -> list[tuple[int, tuple]]:
        """Rows of ``table`` as of ``upto_csn``, from provenance alone,
        in row-id order; the list returned is the caller's own.

        With ``row_ids``, only those of them that exist then: per row, its
        events at the highest ``Csn`` at or below ``upto_csn``
        (:meth:`RowHistory.latest`), all read in one :meth:`_event_rows`
        call. No kept state is read or kept, and what is read does not
        grow with the history after ``upto_csn``."""
        if row_ids is None:
            return sorted(self._kept_table(table, upto_csn).items())
        self._check_floor(table, upto_csn)
        event_table = self.event_table_of(table)
        latest = self._row_history(event_table).latest
        positions = sorted(
            chain.from_iterable(map(latest, set(row_ids), repeat(upto_csn)))
        )
        state: dict[int, tuple] = {}
        if positions:
            self._apply_event_rows(state, self._event_rows(event_table, positions))
        return sorted(state.items())

    def _row_history(self, event_table: str) -> RowHistory:
        """``event_table``'s :class:`RowHistory`, current with the store.

        Kept current off the ``Csn`` index, which holds every history
        event (a Read event has no ``Csn``): when the index has entries
        the history has not looked at, they are the ones at or above its
        newest ``Csn`` and past its end, read in one batch. Anything else
        (a history event filed below that ``Csn``) rebuilds it from the
        whole index. Ingest does nothing for it, so tracing pays nothing."""
        index = self._index(event_table, "csn")
        history = self._row_histories.get(event_table) or RowHistory()
        if history.indexed != len(index):
            new = [
                position
                for position in index.scan_between((history.newest,), None)
                if position >= history.end
            ]
            if history.indexed + len(new) != len(index):
                history = RowHistory()
                new = index.scan_between(None, None)
            history.add(self.db.store(event_table).get_many(sorted(new)))
        self._row_histories[event_table] = history
        return history

    def _check_floor(self, table: str, upto_csn: int) -> None:
        """Raise unless ``table`` has a state at ``upto_csn``: none lies
        before its base snapshot."""
        snapshot_csn = self._snapshot_csns.get(table.lower())
        if snapshot_csn is not None and snapshot_csn > upto_csn:
            raise ProvenanceError(
                f"cannot reconstruct {table!r} at csn {upto_csn}: base "
                f"snapshot was taken at csn {snapshot_csn}"
            )

    def _kept_table(self, table: str, upto_csn: int) -> dict[int, tuple]:
        """The kept ``row_id -> values`` state of ``table`` at ``upto_csn``
        itself — read it, never write it.

        Starts from the nearest kept state at or before ``upto_csn`` and
        applies only the write events after it; with no such state,
        applies the base snapshot and then every committed write event
        with ``Csn <= upto_csn``. Either way the events are the ids the
        ``Csn`` index holds in that range, read as positional rows in
        (Csn, Seq) order (:meth:`_writes`): a Read event's ``Csn`` is
        NULL and the index files no NULL, so none is fetched.
        What was computed — anything but a kept state no event changed —
        is kept for the next reconstruction, in a new dict: a kept state
        is never changed once kept.
        """
        key = table.lower()
        event_table = self.event_table_of(table)
        csns = self._state_csns.get(key, ())
        at = bisect.bisect_right(csns, upto_csn)
        if at:
            self.checkpoint_stats["checkpoint_restores"] += 1
            after_csn = csns[at - 1]
            state = self._states[key, after_csn]
            self._states.move_to_end((key, after_csn))
        else:
            self.checkpoint_stats["full_restores"] += 1
            self._check_floor(table, upto_csn)
            state = None
            after_csn = -1  # below every CSN
        delta = ()
        if upto_csn > after_csn:
            delta = self._writes(event_table, after_csn, upto_csn, state is None)
        if delta or state is None:
            state = KeptRows(state or ())
            self._apply_event_rows(state, delta)
            self._keep_state(key, upto_csn, state)
        return state

    def _writes(
        self,
        event_table: str,
        after_csn: int,
        upto_csn: int | None,
        snapshots: bool = False,
    ) -> list[tuple]:
        """The write events in ``event_table`` with ``after_csn < Csn <=
        upto_csn`` (no upper bound if None) — the base snapshot rows too
        if ``snapshots`` — as positional rows in (Csn, Seq) order: the
        ids the ``Csn`` index holds in that range, read by
        :meth:`_event_rows`."""
        row_ids = self._index(event_table, "csn").scan_between(
            (after_csn,), None if upto_csn is None else (upto_csn,)
        )
        kinds = _HISTORY_KINDS if snapshots else _WRITE_KINDS
        return [
            row
            for row in self._event_rows(event_table, row_ids)
            if row[2] in kinds and row[4] != after_csn
        ]

    def _event_rows(
        self, event_table: str, row_ids: Collection[int], key: Callable = _CSN_SEQ
    ) -> list[tuple]:
        """The rows of ``event_table`` under ``row_ids``, positional as
        :meth:`ingest` lays them out, sorted by ``key`` — (Csn, Seq) or
        ``Seq``, never by row id. One batch read of the store fetches them
        at its latest committed state, the state the index the ids came
        from describes."""
        pairs = self.db.store(event_table).get_many(row_ids)
        return sorted(map(_VALUES, pairs), key=key)

    def _index(self, event_table: str, column: str) -> HashIndex | SortedIndex:
        """``ix_<event_table>_<column>``, the index :meth:`register_app_table`
        made."""
        name = f"ix_{event_table}_{column}".lower()
        return self.db.index_set(event_table).indexes[name]

    @staticmethod
    def _apply_event_rows(state: dict[int, tuple], rows: list[tuple]) -> None:
        """Fold ordered event rows — positional, as :meth:`ingest` lays
        them out: ``Type`` / ``Query`` / ``RowId`` in slots 2 / 3 / 6, the
        app columns the tail — into a ``row_id -> values`` state."""
        tail = len(_EVENT_META)
        for row in rows:
            if row[2] == "Delete" or row[3] == REDACTED:
                # A redacted row's values were erased; reconstruction
                # proceeds from partial data — the row is simply absent.
                state.pop(row[6], None)
            else:
                state[row[6]] = row[tail:]

    # ------------------------------------------------------------------
    # Kept states (what a reconstruction starts from)
    # ------------------------------------------------------------------

    def _keep_state(self, key: str, csn: int, state: dict[int, tuple]) -> None:
        """Memoise ``state`` as the newest entry, evicting least recently
        used ones while the memo is over its bound. A state costs its
        rows plus one, so empty states are bounded too."""
        self._states[key, csn] = state
        bisect.insort(self._state_csns.setdefault(key, []), csn)
        self._state_rows += len(state) + 1
        while self._state_rows > _STATE_MEMO_ROWS and len(self._states) > 1:
            (old_key, old_csn), old = self._states.popitem(last=False)
            self._state_csns[old_key].remove(old_csn)
            self._state_rows -= len(old) + 1

    def _drop_states(self, key: str, from_csn: float = float("-inf")) -> None:
        """Forget the states of one table kept at or after ``from_csn``."""
        csns = self._state_csns.get(key)
        if not csns:
            return
        at = bisect.bisect_left(csns, from_csn)
        for csn in csns[at:]:
            self._state_rows -= len(self._states.pop((key, csn))) + 1
        del csns[at:]

    def invalidate_checkpoints(self, table: str | None = None) -> None:
        """Drop kept states (all tables, or one) after out-of-band edits,
        and the values tuples ingest keeps as checked (all tables).

        The privacy extension rewrites event rows in place; a state
        reconstructed beforehand would resurrect the erased values, and a
        kept tuple would still hold them.
        """
        keys = [table.lower()] if table is not None else list(self._state_csns)
        for key in keys:
            self._drop_states(key)
        self._checked.clear()

    def checkpoint_csns(self, table: str) -> list[int]:
        """CSNs at which a state of ``table`` is kept, ascending."""
        return list(self._state_csns.get(table.lower(), ()))

    def reconstruct_state(
        self, upto_csn: int, tables: Iterable[str] | None = None
    ) -> dict[str, list[tuple[int, tuple]]]:
        """Traced tables (all, or ``tables``) as of ``upto_csn``: app
        table name -> its :meth:`reconstruct_rows`, lists the caller
        owns. One state may be loaded into any number of databases."""
        return {
            table: sorted(rows.items())
            for table, rows in self.kept_state(upto_csn, tables).items()
        }

    def kept_state(
        self, upto_csn: int, tables: Iterable[str] | None = None
    ) -> dict[str, dict[int, tuple]]:
        """:meth:`reconstruct_state` as the kept ``row_id -> values``
        states themselves, for :meth:`load_state` to hand over by
        reference: read them, never write them."""
        names = tables if tables is not None else sorted(self._app_schemas)
        return {
            self.app_schema(table).name: self._kept_table(table, upto_csn)
            for table in names
        }

    def load_state(
        self,
        target: Database,
        state: dict[str, dict[int, tuple] | list[tuple[int, tuple]]],
    ) -> dict[str, int]:
        """Create (where missing) and fill ``state``'s tables in a dev
        database. The rows are only read: an in-memory dev database
        shares a kept state (:meth:`kept_state`) and copies a row into a
        version chain on that row's first write."""
        for table, rows in state.items():
            if not target.catalog.has_table(table):
                target.create_table(self.app_schema(table))
            target.bulk_load(table, rows)
        return {table: len(rows) for table, rows in state.items()}

    def restore_into(
        self, target: Database, upto_csn: int, tables: Iterable[str] | None = None
    ) -> dict[str, int]:
        """Materialize traced tables at ``upto_csn`` into a dev database."""
        return self.load_state(target, self.kept_state(upto_csn, tables))

    def restore_footprint(
        self, target: Database, upto_csn: int, footprint: dict[str, Iterable[int]]
    ) -> dict[str, int]:
        """Materialize only the rows ``footprint`` names (app table ->
        row ids) as of ``upto_csn`` into a dev database
        (:meth:`reconstruct_rows`). Each table's next row id starts above
        the highest id the table had handed out by ``upto_csn``
        (:meth:`RowHistory.highest_at`), as the original table's did, and
        an injected insert raises it as the original insert did: so a
        replayed insert takes the id its original took, and a later
        injected write of that row finds it."""
        counts = self.load_state(
            target,
            {
                self.app_schema(table).name: self.reconstruct_rows(
                    table, upto_csn, row_ids
                )
                for table, row_ids in footprint.items()
            },
        )
        for table in footprint:
            history = self._row_history(self.event_table_of(table))
            store = target.store(table)
            highest = history.highest_at(upto_csn)
            store._next_row_id = max(store._next_row_id, highest + 1)
        return counts

    @property
    def event_count(self) -> int:
        """Total rows across all provenance tables (benchmark E8's x-axis)."""
        total = 0
        for name in self.db.catalog.table_names():
            total += self.db.store(name).row_count(None)
        return total
