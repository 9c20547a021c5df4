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
import os
from collections import OrderedDict
from typing import Any, Iterable

from repro.core.events import (
    DataEvent,
    RequestEvent,
    SideEffectEvent,
    TraceEvent,
    TxnEvent,
    WorkflowEdgeEvent,
)
from repro.db.database import Database
from repro.db.result import ResultSet
from repro.db.schema import Column, TableSchema
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

#: Per-table checkpoint cap; exceeding it thins the older half so memory
#: stays O(cap * table size) while coverage still spans the history.
_MAX_TABLE_CHECKPOINTS = 16


class _LiveState:
    """Incrementally maintained live rows of one traced table.

    Folding committed write events into this map at ingest time makes
    :meth:`ProvenanceStore.create_checkpoint` O(table size) instead of
    O(history): the materialized state is already there, no event replay
    or SQL scan needed. ``dirty`` counts folds since the last checkpoint
    taken from this state, so unchanged tables are skipped without even
    a COUNT query. Any event the fold cannot apply faithfully (out of
    order, missing values) drops the state; the next checkpoint falls
    back to event replay and re-seeds it.
    """

    __slots__ = ("rows", "csn", "dirty")

    def __init__(self, rows: dict[int, tuple], csn: int, dirty: int = 0):
        self.rows = rows
        self.csn = csn
        self.dirty = dirty


class _SpilledRows:
    """Placeholder payload for a checkpoint written to disk."""

    __slots__ = ("path", "count")

    def __init__(self, path: str, count: int):
        self.path = path
        self.count = count


def default_event_table_name(table: str) -> str:
    """forum_sub -> ForumSubEvents."""
    camel = "".join(part.capitalize() for part in table.split("_"))
    return f"{camel}Events"


class ProvenanceStore:
    """Ingests trace events and answers declarative debugging queries."""

    def __init__(
        self,
        db: Database | None = None,
        checkpoint_interval: int | None = 256,
    ):
        # Nobody subscribes to the provenance database's own change
        # stream, so by default it retains (and so builds) no record of it.
        self.db = db or Database(name="provenance", cdc_retain=0)
        self._next_seq = 1
        #: app table (canonical) -> event table name
        self._event_tables: dict[str, str] = {}
        #: app table (canonical) -> app TableSchema
        self._app_schemas: dict[str, TableSchema] = {}
        #: app table -> {app column -> event-table column}
        self._column_maps: dict[str, dict[str, str]] = {}
        #: app table -> (event table, app column names in event-row order,
        #: the same as a set): what ingest needs to lay an event's
        #: ``values`` dict out as the tail of a positional row.
        self._event_layouts: dict[str, tuple[str, tuple, frozenset]] = {}
        #: Automatic checkpointing (None disables it): a checkpoint is
        #: considered once per :meth:`ingest` — i.e. per trace-buffer
        #: flush — and taken when at least this many commits have been
        #: ingested since the last one. It lands at the flush's last CSN,
        #: not every N commits: a history ingested in one flush gets one
        #: checkpoint, at its end.
        self.checkpoint_interval = checkpoint_interval
        #: app table -> ascending [(csn, ((row_id, values), ...)), ...];
        #: each entry is the table's full live state as of that csn, so
        #: reconstruction replays only the events after the nearest one.
        self._checkpoints: dict[str, list[tuple[int, tuple]]] = {}
        self._commits_since_checkpoint = 0
        self._max_write_csn = 0
        #: app table -> CSN of its (earliest) base snapshot, when it has
        #: one: no state before it can be reconstructed.
        self._snapshot_csns: dict[str, int] = {}
        #: app table -> incrementally folded live state (see _LiveState).
        self._live: dict[str, _LiveState] = {}
        #: Checkpoints whose row payload exceeds this many rows spill to
        #: disk (next to the provenance database's WAL) instead of being
        #: pinned in memory. Spilling is disabled when the provenance
        #: database has no on-disk WAL to anchor the spill directory.
        self.spill_threshold = 2048
        #: Spilled payloads loaded back for reconstruction, LRU by access.
        self.spill_cache_size = 4
        self._spill_cache: OrderedDict[tuple[str, int], tuple] = OrderedDict()
        self.checkpoint_stats = {
            "checkpoints": 0,
            "checkpoint_restores": 0,
            "full_restores": 0,
            "spills": 0,
            "spill_loads": 0,
            "spill_cache_hits": 0,
        }
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
        # Range probes over Csn keep checkpointed reconstruction O(delta):
        # the delta query reads only events after the checkpoint.
        self.db.create_index(
            f"ix_{name}_csn".lower(), name, ["Csn"], sorted_index=True
        )
        self._event_tables[canonical] = name
        self._app_schemas[canonical] = schema
        self._column_maps[canonical] = column_map
        self._event_layouts[canonical] = (name, (None,) * len(schema.columns))
        # The table starts empty, so its live state is trivially current.
        self._live[canonical] = _LiveState({}, 0)
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

    def create_app_tables_in(self, target: Database) -> None:
        """Recreate every traced app table's schema in ``target`` (dev DB)."""
        for key in sorted(self._app_schemas):
            schema = self._app_schemas[key]
            if not target.catalog.has_table(schema.name):
                target.create_table(schema)

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
        snapshot_rows = {row_id: tuple(values) for row_id, values in rows}
        event_rows = [
            ("SNAPSHOT", 0, "Snapshot", "base snapshot", csn, seq, row_id, *values)
            for seq, (row_id, values) in enumerate(
                snapshot_rows.items(), self._next_seq
            )
        ]
        self.db.insert_rows(event_table, event_rows)
        self._next_seq += len(event_rows)
        key = table.lower()
        if event_rows:
            self._snapshot_csns[key] = min(csn, self._snapshot_csns.get(key, csn))
        # The snapshot *is* the live state as of its csn.
        self._live[key] = _LiveState(snapshot_rows, csn)
        return len(event_rows)

    def ingest(self, events: list[TraceEvent]) -> int:
        """Store a batch of drained trace events in one transaction;
        returns the trace rows they carried.

        The events become positional rows grouped per provenance table
        (each group in event order, ``Seq`` numbered across groups in
        event order; a :class:`DataEvent` batch is laid out straight
        from its ``(row_id, values)`` tuples), every group is one
        ``insert_rows`` — one table lock per table per flush — and only
        once the transaction has committed do ``Seq`` allocation, the
        checkpoint counters and the live-state fold advance: a batch
        that fails leaves no trace.
        """
        if not events:
            return 0
        groups: dict[str, list[tuple]] = {}
        writes: list[DataEvent] = []
        seq, commits, high_csn = self._next_seq, 0, self._max_write_csn
        count = 0
        layouts = self._event_layouts
        for event in events:
            if isinstance(event, DataEvent):
                count += len(event.rows)
                layout = layouts.get(event.table.lower())
                if layout is None:
                    # Untraced table (e.g. created after attach without a
                    # hook): skip rather than fail the whole batch.
                    continue
                table, nulls = layout
                width = len(nulls)
                group = groups.setdefault(table, [])
                meta = (
                    event.txn_name, event.txn_num, event.kind, event.query,
                    event.csn,
                )
                for row_id, values in event.rows:
                    if values is None:
                        # A read that matched nothing, or a delete: every
                        # data column of the event row stays NULL.
                        values = nulls
                    elif len(values) != width:
                        raise ProvenanceError(
                            f"{event.kind} event on {event.table!r} row "
                            f"{row_id} carries {len(values)} values for "
                            f"{width} columns"
                        )
                    group.append((*meta, seq, row_id, *values))
                    seq += 1
                if event.kind in _WRITE_KINDS:
                    writes.append(event)
                    if event.csn is not None and event.csn > high_csn:
                        high_csn = event.csn
                continue
            if isinstance(event, TxnEvent):
                table = "Executions"
                row = (
                    event.txn_name, event.txn_num, event.ts, event.handler,
                    event.req_id, f"func:{event.label}" if event.label else "",
                    event.isolation, event.status, event.csn,
                    event.snapshot_csn, event.auth_user,
                )
                if event.status == "Committed" and event.csn is not None:
                    commits += 1
                    if event.csn > high_csn:
                        high_csn = event.csn
            elif isinstance(event, RequestEvent):
                table = "Requests"
                row = (
                    event.req_id, event.handler,
                    json.dumps(list(event.args), default=repr),
                    json.dumps(event.kwargs, default=repr),
                    event.auth_user, event.start_ts, event.end_ts,
                    event.status, event.output_repr, event.error,
                )
            elif isinstance(event, WorkflowEdgeEvent):
                table = "WorkflowEdges"
                row = (event.req_id, event.caller, event.callee, event.seq, event.ts)
            elif isinstance(event, SideEffectEvent):
                table = "SideEffects"
                row = (
                    event.req_id, event.handler, event.channel,
                    event.payload_repr, event.ts,
                )
            else:  # pragma: no cover - event union is closed
                raise ProvenanceError(f"unknown event type {type(event)}")
            groups.setdefault(table, []).append(row)
            count += 1
        txn = self.db.begin()
        try:
            for table in list(groups):
                self.db.insert_rows(table, groups.pop(table), txn=txn)
            txn.commit()
        except Exception:
            txn.abort()
            raise
        self._next_seq = seq
        self._commits_since_checkpoint += commits
        self._max_write_csn = high_csn
        for event in writes:
            self._note_write(event)
        if (
            self.checkpoint_interval is not None
            and self._commits_since_checkpoint >= self.checkpoint_interval
        ):
            self.create_checkpoint()
        return count

    def _note_write(self, event: DataEvent) -> None:
        """Account one ingested (committed) batch of writes: checkpoints
        it makes stale, then the live-state fold."""
        table = event.table.lower()
        # An event landing at or before an existing checkpoint would
        # make that checkpoint stale — drop the affected ones.
        checkpoints = self._checkpoints.get(table)
        if (
            checkpoints
            and event.csn is not None
            and event.csn <= checkpoints[-1][0]
        ):
            kept = [e for e in checkpoints if e[0] < event.csn]
            self._discard_payloads(table, checkpoints[len(kept):])
            self._checkpoints[table] = kept
        self._fold_live(table, event)

    def _fold_live(self, table: str, event: DataEvent) -> None:
        """Apply one committed batch of writes to the table's live state.

        The fold mirrors :meth:`_apply_event_rows` exactly; anything it
        cannot apply faithfully (no csn, csn below the state's watermark,
        missing row id or values) invalidates the state instead of
        guessing — correctness falls back to event replay.
        """
        live = self._live.get(table)
        if live is None:
            return
        if event.csn is None or event.csn < live.csn:
            del self._live[table]
            return
        deleting = event.kind == "Delete"
        for row_id, values in event.rows:
            if row_id is None or (values is None and not deleting):
                del self._live[table]
                return
            if deleting:
                live.rows.pop(row_id, None)
            else:
                live.rows[row_id] = values
        live.csn = event.csn
        live.dirty += len(event.rows)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, sql: str, params: tuple = ()) -> ResultSet:
        return self.db.execute(sql, params)

    def txns_of_request(self, req_id: str, committed_only: bool = True) -> list[dict]:
        """This request's transactions in commit order."""
        sql = (
            "SELECT TxnId, TxnNum, Timestamp, HandlerName, Metadata, Csn,"
            " SnapshotCsn, Isolation, Status"
            " FROM Executions WHERE ReqId = ?"
        )
        if committed_only:
            sql += " AND Status = 'Committed'"
        sql += " ORDER BY Csn ASC, TxnNum ASC"
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
        row = self.request_row(req_id)
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
        """
        if high_csn <= low_csn:
            return []  # an empty range: nothing to ask the event tables
        names = (
            [t.lower() for t in tables]
            if tables is not None
            else sorted(self._event_tables)
        )
        out: list[dict] = []
        req_of: dict[str, str | None] = {}
        for table in names:
            if table not in self._event_tables:
                continue
            rows = self.query(
                f"SELECT * FROM {self._event_tables[table]}"
                " WHERE Csn > ? AND Csn <= ?"
                " AND Type IN ('Insert', 'Update', 'Delete')",
                (low_csn, high_csn),
            ).as_dicts()
            for row in rows:
                if row["Query"] == "[redacted]":
                    # Erased under the privacy extension: replay proceeds
                    # from partial data (§5) rather than leaking values.
                    continue
                txn_id = row["TxnId"]
                if txn_id not in req_of:
                    req_of[txn_id] = self._req_of_txn(txn_id)
                if exclude_req is not None and req_of[txn_id] == exclude_req:
                    continue
                out.append(
                    {
                        "ReqId": req_of[txn_id],
                        **row,
                        "_table": self._app_schemas[table].name,
                    }
                )
        out.sort(key=lambda r: (r["Csn"], r["Seq"]))
        return out

    def _req_of_txn(self, txn_name: str) -> str | None:
        """The request a transaction ran for (None: no ``Executions`` row)."""
        first = self.query(
            "SELECT ReqId FROM Executions WHERE TxnId = ?"
            " ORDER BY TxnNum, Csn LIMIT 1",
            (txn_name,),
        ).first()
        return first[0] if first else None

    def events_of_txn(self, txn_name: str) -> dict[str, list[dict]]:
        """A transaction's data events in ``Seq`` order, keyed by the
        (canonical) app table — only the tables it read or wrote; one
        ``TxnId`` probe per event table."""
        found = {}
        for table in self._event_tables:
            events = self.data_events_of_txn(txn_name, table)
            if events:
                found[table] = events
        return found

    def tables_used_by_txn(self, txn_name: str) -> set[str]:
        """App tables a transaction read or wrote (canonical names)."""
        return set(self.events_of_txn(txn_name))

    def data_events_of_txn(self, txn_name: str, table: str) -> list[dict]:
        event_table = self.event_table_of(table)
        return self.query(
            f"SELECT * FROM {event_table} WHERE TxnId = ? ORDER BY Seq",
            (txn_name,),
        ).as_dicts()

    # ------------------------------------------------------------------
    # State reconstruction (replay's substrate)
    # ------------------------------------------------------------------

    def reconstruct_rows(self, table: str, upto_csn: int) -> list[tuple[int, tuple]]:
        """Rows of ``table`` as of ``upto_csn``, from provenance alone.

        Restores from the nearest checkpoint at or before ``upto_csn`` and
        applies only the write events after it; without a usable
        checkpoint, applies the base snapshot and then every committed
        write event with ``Csn <= upto_csn`` in (Csn, Seq) order. Either
        way the events come off the ``Csn`` index as positional rows: a
        Read event's ``Csn`` is NULL, outside any range, so none is
        fetched.
        """
        key = table.lower()
        event_table = self.event_table_of(table)
        checkpoint = self._nearest_checkpoint(table, upto_csn)
        if checkpoint is not None:
            self.checkpoint_stats["checkpoint_restores"] += 1
            state: dict[int, tuple] = dict(self._checkpoint_rows(key, checkpoint))
            after_csn, kinds = checkpoint[0], "'Insert', 'Update', 'Delete'"
        else:
            self.checkpoint_stats["full_restores"] += 1
            snapshot_csn = self._snapshot_csns.get(key)
            if snapshot_csn is not None and snapshot_csn > upto_csn:
                raise ProvenanceError(
                    f"cannot reconstruct {table!r} at csn {upto_csn}: base "
                    f"snapshot was taken at csn {snapshot_csn}"
                )
            state = {}
            # A lower bound below every CSN keeps the range two-sided: the
            # index probe then starts past the NULL keys of the Read events.
            after_csn, kinds = -1, "'Snapshot', 'Insert', 'Update', 'Delete'"
        if upto_csn > after_csn:
            self._apply_event_rows(
                state,
                self.query(
                    f"SELECT * FROM {event_table}"
                    f" WHERE Csn > ? AND Csn <= ? AND Type IN ({kinds})"
                    " ORDER BY Csn ASC, Seq ASC",
                    (after_csn, upto_csn),
                ).rows,
            )
        return sorted(state.items())

    @staticmethod
    def _apply_event_rows(state: dict[int, tuple], rows: list[tuple]) -> None:
        """Fold ordered event rows — positional, as :meth:`ingest` lays
        them out: ``Type`` / ``Query`` / ``RowId`` in slots 2 / 3 / 6, the
        app columns the tail — into a ``row_id -> values`` state."""
        tail = len(_EVENT_META)
        for row in rows:
            if row[2] == "Delete" or row[3] == "[redacted]":
                # A redacted row's values were erased; reconstruction
                # proceeds from partial data — the row is simply absent.
                state.pop(row[6], None)
            else:
                state[row[6]] = row[tail:]

    # ------------------------------------------------------------------
    # Checkpoints (replay accelerator)
    # ------------------------------------------------------------------

    def create_checkpoint(self, csn: int | None = None) -> int:
        """Materialize every traced table's state as of ``csn``.

        ``csn`` defaults to the highest committed write CSN ingested so
        far. Returns the checkpoint CSN. Subsequent reconstructions at or
        after it replay only the delta, turning replay's dev-database
        restore from O(history) into O(delta).
        """
        if csn is None:
            csn = self._max_write_csn
        for table in sorted(self._app_schemas):
            entries = self._checkpoints.setdefault(table, [])
            if entries and entries[-1][0] >= csn:
                continue
            live = self._live.get(table)
            if live is not None and csn >= live.csn:
                # Fast path: the incrementally folded state *is* the
                # table at every csn from live.csn through ``csn`` (no
                # later events exist). O(table size), O(1) in history.
                if entries and live.dirty == 0:
                    # Nothing folded since the newest checkpoint: it
                    # already serves restores up to ``csn`` for free.
                    continue
                rows = sorted(live.rows.items())
                live.dirty = 0
            else:
                # Slow path: no live state (invalidated) or an explicit
                # historical ``csn`` below its watermark — replay events.
                if entries and not self._has_events_between(
                    table, entries[-1][0], csn
                ):
                    continue
                try:
                    rows = self.reconstruct_rows(table, csn)
                except ProvenanceError:
                    # e.g. the table's base snapshot postdates ``csn``.
                    continue
                if live is None and csn >= self._max_write_csn:
                    # The result is current — re-seed the live state so
                    # future checkpoints take the fast path again.
                    self._live[table] = _LiveState(dict(rows), csn)
            entries.append((csn, self._maybe_spill(table, csn, tuple(rows))))
            self.checkpoint_stats["checkpoints"] += 1
            if len(entries) > _MAX_TABLE_CHECKPOINTS:
                # Thin the older half (keep every other entry plus the
                # newest) so retention stays bounded but spread out.
                thinned = entries[0::2]
                if thinned[-1][0] != entries[-1][0]:
                    thinned.append(entries[-1])
                kept = {entry[0] for entry in thinned}
                self._discard_payloads(
                    table, [e for e in entries if e[0] not in kept]
                )
                self._checkpoints[table] = thinned
        self._commits_since_checkpoint = 0
        return csn

    # -- checkpoint spill-to-disk ---------------------------------------

    def _spill_dir(self) -> str | None:
        """Directory for spilled checkpoints, or None to keep in memory.

        Spills land beside the provenance database's WAL so they share
        its durability domain and lifecycle (ephemeral data dirs clean
        them up automatically).
        """
        wal = getattr(self.db, "wal", None)
        path = wal.path if wal is not None else None
        if not path:
            return None
        return os.path.join(os.path.dirname(path) or ".", "prov_spill")

    def _maybe_spill(self, table: str, csn: int, rows: tuple) -> Any:
        """Write a large payload to disk, returning its stub (or rows)."""
        if len(rows) < self.spill_threshold:
            return rows
        spill_dir = self._spill_dir()
        if spill_dir is None:
            return rows
        os.makedirs(spill_dir, exist_ok=True)
        path = os.path.join(spill_dir, f"{table}-{csn}.ckpt.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [[row_id, list(values)] for row_id, values in rows], handle
            )
        self.checkpoint_stats["spills"] += 1
        # A fresh spill is the likeliest next restore base: warm the cache.
        self._cache_spilled(table, csn, rows)
        return _SpilledRows(path, len(rows))

    def _checkpoint_rows(self, table: str, entry: tuple[int, Any]) -> tuple:
        """Resolve a checkpoint entry's payload, loading spills via LRU."""
        csn, payload = entry
        if not isinstance(payload, _SpilledRows):
            return payload
        cached = self._spill_cache.get((table, csn))
        if cached is not None:
            self._spill_cache.move_to_end((table, csn))
            self.checkpoint_stats["spill_cache_hits"] += 1
            return cached
        with open(payload.path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        rows = tuple((row_id, tuple(values)) for row_id, values in data)
        self.checkpoint_stats["spill_loads"] += 1
        self._cache_spilled(table, csn, rows)
        return rows

    def _cache_spilled(self, table: str, csn: int, rows: tuple) -> None:
        self._spill_cache[(table, csn)] = rows
        self._spill_cache.move_to_end((table, csn))
        while len(self._spill_cache) > self.spill_cache_size:
            self._spill_cache.popitem(last=False)

    def _discard_payloads(
        self, table: str, entries: Iterable[tuple[int, Any]]
    ) -> None:
        """Release spilled files and cache slots of dropped checkpoints."""
        for csn, payload in entries:
            self._spill_cache.pop((table, csn), None)
            if isinstance(payload, _SpilledRows):
                try:
                    os.unlink(payload.path)
                except OSError:
                    pass

    def _has_events_between(self, table: str, low_csn: int, high_csn: int) -> bool:
        """Whether any committed write events land in (low_csn, high_csn]."""
        event_table = self._event_tables[table]
        count = self.query(
            f"SELECT COUNT(*) FROM {event_table}"
            " WHERE Csn > ? AND Csn <= ? AND"
            " Type IN ('Insert', 'Update', 'Delete')",
            (low_csn, high_csn),
        ).scalar()
        return bool(count)

    def _nearest_checkpoint(
        self, table: str, upto_csn: int
    ) -> tuple[int, tuple] | None:
        """The latest checkpoint of ``table`` with csn <= ``upto_csn``."""
        entries = self._checkpoints.get(table.lower())
        if not entries:
            return None
        index = bisect.bisect_right(entries, upto_csn, key=lambda e: e[0])
        if index == 0:
            return None
        return entries[index - 1]

    def invalidate_checkpoints(self, table: str | None = None) -> None:
        """Drop checkpoints (all tables, or one) after out-of-band edits.

        The privacy extension rewrites event rows in place; checkpoints
        created beforehand would resurrect the erased values.
        """
        if table is None:
            for name, entries in self._checkpoints.items():
                self._discard_payloads(name, entries)
            self._checkpoints.clear()
            self._live.clear()
        else:
            key = table.lower()
            self._discard_payloads(key, self._checkpoints.pop(key, ()))
            self._live.pop(key, None)

    def checkpoint_csns(self, table: str) -> list[int]:
        return [csn for csn, _rows in self._checkpoints.get(table.lower(), [])]

    def reconstruct_state(
        self, upto_csn: int, tables: Iterable[str] | None = None
    ) -> dict[str, list[tuple[int, tuple]]]:
        """Traced tables (all, or ``tables``) as of ``upto_csn``: app
        table name -> its :meth:`reconstruct_rows`. One state may be
        loaded into any number of databases."""
        names = tables if tables is not None else sorted(self._app_schemas)
        return {
            self.app_schema(table).name: self.reconstruct_rows(table, upto_csn)
            for table in names
        }

    def load_state(
        self, target: Database, state: dict[str, list[tuple[int, tuple]]]
    ) -> dict[str, int]:
        """Create (where missing) and fill ``state``'s tables in a dev
        database; the row lists are only read."""
        for table, rows in state.items():
            if not target.catalog.has_table(table):
                target.create_table(self.app_schema(table))
            target.bulk_load(table, rows)
        return {table: len(rows) for table, rows in state.items()}

    def restore_into(
        self, target: Database, upto_csn: int, tables: Iterable[str] | None = None
    ) -> dict[str, int]:
        """Materialize traced tables at ``upto_csn`` into a dev database."""
        return self.load_state(target, self.reconstruct_state(upto_csn, tables))

    @property
    def event_count(self) -> int:
        """Total rows across all provenance tables (benchmark E8's x-axis)."""
        total = 0
        for name in self.db.catalog.table_names():
            total += self.db.store(name).row_count(None)
        return total
