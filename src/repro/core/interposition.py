"""The TROD interposition layer (§3.1, §3.4).

One object implements both interposition surfaces:

* **database observer** — ``txn_began`` / ``statement_executed`` /
  ``txn_committed`` / ``txn_aborted`` / ``table_created``, capturing
  transaction metadata, read sets (the executor's, one batch per scan
  chunk), and write sets (from the commit's WAL record, so aborted work
  never produces write provenance);
* **runtime hooks** — ``request_started`` / ``request_finished`` /
  ``handler_called`` / ``side_effect``, capturing request lifecycles and
  workflow edges.

Each hook stages what it captured in the trace buffer in the layout of
the provenance table it lands in: a transaction, request, workflow edge
or side effect as its final ``Executions`` / ``Requests`` /
``WorkflowEdges`` / ``SideEffects`` row, a read set or a run of a
commit's changes as one batch of ``(row_id, values)`` pairs whose event
rows ingest lays out (:class:`~repro.core.buffer.TraceBuffer`).

Every hook self-times with ``perf_counter_ns`` and accumulates into
``overhead_ns`` — that counter divided by the request count is the
"<100µs per request" figure of §3.7, which benchmark E7 reports. A
commit or abort hook then drains the buffer once it holds a slice of its
capacity (:data:`~repro.core.buffer.DRAIN_SLICES`), outside that timing.
"""

from __future__ import annotations

import json
import sys
import time
from itertools import groupby
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tracer import Trod
    from repro.db.database import StatementTrace
    from repro.db.schema import TableSchema
    from repro.db.txn.manager import Transaction
    from repro.db.txn.wal import WalChange

#: A change's kind as its event rows spell it. Like ``txn.name`` and the
#: interned ``Metadata`` text, one string object serves every record:
#: the provenance store keeps a pointer per row, not a copy.
_EVENT_KIND = {"insert": "Insert", "update": "Update", "delete": "Delete"}


class InterpositionLayer:
    """Stages trace records from database and runtime hook invocations."""

    def __init__(self, trod: "Trod"):
        self._trod = trod
        #: id(txn) -> list of StatementTrace, for attaching query text to
        #: the WAL changes the commit will log. Keyed by object identity,
        #: not txn id: on a sharded engine each shard assigns its own txn
        #: ids, and branches of different global transactions may collide.
        self._txn_statements: dict[int, list["StatementTrace"]] = {}
        #: req_id -> workflow edges emitted so far, for the requests in
        #: flight that have called a child handler.
        self._edge_seq: dict[str, int] = {}
        self.overhead_ns = 0
        self.requests_traced = 0

    # ------------------------------------------------------------------
    # Database observer interface
    # ------------------------------------------------------------------

    def txn_began(self, txn: "Transaction") -> None:
        start = time.perf_counter_ns()
        txn.info["ts"] = self._trod.clock.tick()
        self._txn_statements[id(txn)] = []
        self.overhead_ns += time.perf_counter_ns() - start

    def statement_executed(self, txn: "Transaction", trace: "StatementTrace") -> None:
        start = time.perf_counter_ns()
        statements = self._txn_statements.setdefault(id(txn), [])
        statements.append(trace)
        # Read provenance is staged immediately (writes wait for commit).
        buffer = self._trod.buffer
        for table, query, pairs in trace.reads:
            if buffer.add_batch(
                table, txn.name, txn.txn_id, "Read", query, None, pairs
            ):
                self._trod.request_flush()
        self.overhead_ns += time.perf_counter_ns() - start

    def txn_committed(
        self, txn: "Transaction", csn: int, changes: tuple["WalChange", ...]
    ) -> None:
        start = time.perf_counter_ns()
        self._add_row("Executions", self._execution_row(txn, "Committed", csn))
        statements = self._txn_statements.pop(id(txn), [])
        # The query text of a change is that of the first statement that
        # wrote the row the same way. An "append" is a segment table's run
        # of inserts from one call, named by its first row id; each of its
        # rows is recorded as an insert.
        queries: dict[tuple[str, str, int], str] = {}
        for trace in statements:
            for write in trace.writes:
                queries.setdefault(write, trace.sql)

        def run_key(change: "WalChange") -> tuple[str, str, str]:
            op = change.op
            write = ("insert" if op == "append" else op, change.table, change.row_id)
            return change.table, op, queries.get(write, "")

        buffer = self._trod.buffer
        for (table, op, query), run in groupby(changes, run_key):
            if op == "append":
                op = "insert"
                pairs = [
                    pair for change in run
                    for pair in enumerate(change.values, change.row_id)
                ]
            else:
                pairs = [(change.row_id, change.values) for change in run]
            if buffer.add_batch(
                table, txn.name, txn.txn_id, _EVENT_KIND[op], query, csn, pairs
            ):
                self._trod.request_flush()
        self.overhead_ns += time.perf_counter_ns() - start
        self._drain_at_boundary()

    def txn_aborted(self, txn: "Transaction") -> None:
        start = time.perf_counter_ns()
        self._txn_statements.pop(id(txn), None)
        self._add_row("Executions", self._execution_row(txn, "Aborted", None))
        self.overhead_ns += time.perf_counter_ns() - start
        self._drain_at_boundary()

    def _drain_at_boundary(self) -> None:
        """A transaction boundary drains the buffer once it holds a slice.

        Called after the hook's self-timing closed: the drain's time is
        ``Trod.flush_ns``, and ``overhead_ns`` stays the hooks alone.
        """
        if self._trod.buffer.slice_staged:
            self._trod.flush()

    def table_created(self, schema: "TableSchema") -> None:
        # New table while attached: register it for event capture.
        self._trod.on_table_created(schema)

    @staticmethod
    def _execution_row(txn: "Transaction", status: str, csn: int | None) -> tuple:
        info = txn.info
        label = info.get("label")
        return (
            txn.name, txn.txn_id, info.get("ts", 0), info.get("handler"),
            info.get("req_id"), sys.intern(f"func:{label}") if label else "",
            txn.isolation.value, status, csn, txn.snapshot_csn,
            info.get("auth_user"),
        )

    # ------------------------------------------------------------------
    # Runtime hook interface
    # ------------------------------------------------------------------

    def request_started(self, ctx: Any, request: Any) -> None:
        start = time.perf_counter_ns()
        ctx._trod_start_ts = self._trod.clock.tick()
        ctx._trod_request = request
        self.overhead_ns += time.perf_counter_ns() - start

    def request_finished(self, ctx: Any, result: Any) -> None:
        start = time.perf_counter_ns()
        request = getattr(ctx, "_trod_request", None)
        args, kwargs = ((), {}) if request is None else (request.args, request.kwargs)
        self._add_row(
            "Requests",
            (
                result.req_id, result.handler,
                json.dumps(list(args), default=repr),
                json.dumps(dict(kwargs), default=repr),
                ctx.auth_user, getattr(ctx, "_trod_start_ts", 0),
                self._trod.clock.tick(), "OK" if result.ok else "Error",
                repr(result.output) if result.ok else None, result.error,
            ),
        )
        self._edge_seq.pop(ctx.req_id, None)
        self.requests_traced += 1
        self.overhead_ns += time.perf_counter_ns() - start

    def handler_called(self, parent_ctx: Any, child_ctx: Any) -> None:
        start = time.perf_counter_ns()
        seq = self._edge_seq.get(parent_ctx.req_id, 0) + 1
        self._edge_seq[parent_ctx.req_id] = seq
        self._add_row(
            "WorkflowEdges",
            (
                parent_ctx.req_id, parent_ctx.handler_name, child_ctx.handler_name,
                seq, self._trod.clock.tick(),
            ),
        )
        self.overhead_ns += time.perf_counter_ns() - start

    def side_effect(self, ctx: Any, effect: Any) -> None:
        start = time.perf_counter_ns()
        self._add_row(
            "SideEffects",
            (
                effect.req_id, effect.handler, effect.channel,
                repr(effect.payload), effect.ts,
            ),
        )
        self.overhead_ns += time.perf_counter_ns() - start

    # ------------------------------------------------------------------

    def _add_row(self, table: str, row: tuple) -> None:
        if self._trod.buffer.add_row(table, row):
            self._trod.request_flush()

    @property
    def events_emitted(self) -> int:
        """Trace rows staged since the layer was made."""
        return self._trod.buffer.appended

    @property
    def overhead_us_per_request(self) -> float:
        if self.requests_traced == 0:
            return 0.0
        return self.overhead_ns / 1000.0 / self.requests_traced
