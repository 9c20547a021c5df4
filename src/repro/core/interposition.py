"""The TROD interposition layer (§3.1, §3.4).

One object implements both interposition surfaces:

* **database observer** — ``txn_began`` / ``statement_executed`` /
  ``txn_committed`` / ``txn_aborted`` / ``table_created``, capturing
  transaction metadata, read sets (the executor's, one event per scan
  chunk, its pair list as recorded), and write sets (from the commit's
  WAL record, so aborted work never produces write provenance);
* **runtime hooks** — ``request_started`` / ``request_finished`` /
  ``handler_called`` / ``side_effect``, capturing request lifecycles and
  workflow edges.

Every hook self-times with ``perf_counter_ns`` and accumulates into
``overhead_ns`` — that counter divided by the request count is the
"<100µs per request" figure of §3.7, which benchmark E7 reports.
"""

from __future__ import annotations

import time
from itertools import groupby
from typing import TYPE_CHECKING, Any

from repro.core.events import (
    DataEvent,
    RequestEvent,
    SideEffectEvent,
    TxnEvent,
    WorkflowEdgeEvent,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tracer import Trod
    from repro.db.database import StatementTrace
    from repro.db.schema import TableSchema
    from repro.db.txn.manager import Transaction
    from repro.db.txn.wal import WalChange


class InterpositionLayer:
    """Builds trace events from database and runtime hook invocations."""

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
        self.events_emitted = 0

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
        # Read provenance is emitted immediately (writes wait for commit).
        for table, query, pairs in trace.reads:
            self._emit(
                DataEvent(txn.txn_id, txn.name, table, "Read", query, None, pairs),
                len(pairs),
            )
        self.overhead_ns += time.perf_counter_ns() - start

    def txn_committed(
        self, txn: "Transaction", csn: int, changes: tuple["WalChange", ...]
    ) -> None:
        start = time.perf_counter_ns()
        self._emit(self._txn_event(txn, status="Committed", csn=csn))
        statements = self._txn_statements.pop(id(txn), [])
        # The query text of a change is that of the first statement that
        # wrote the row the same way.
        queries: dict[tuple[str, str, int], str] = {}
        for trace in statements:
            for write in trace.writes:
                queries.setdefault(write, trace.sql)

        def run_key(change: "WalChange") -> tuple[str, str, str]:
            write = (change.op, change.table, change.row_id)
            return change.table, change.op, queries.get(write, "")

        for (table, op, query), run in groupby(changes, run_key):
            rows = [(change.row_id, change.values) for change in run]
            self._emit(
                DataEvent(
                    txn.txn_id, txn.name, table, op.capitalize(), query, csn, rows
                ),
                len(rows),
            )
        self.overhead_ns += time.perf_counter_ns() - start

    def txn_aborted(self, txn: "Transaction") -> None:
        start = time.perf_counter_ns()
        self._txn_statements.pop(id(txn), None)
        self._emit(self._txn_event(txn, status="Aborted", csn=None))
        self.overhead_ns += time.perf_counter_ns() - start

    def table_created(self, schema: "TableSchema") -> None:
        # New table while attached: register it for event capture.
        self._trod.on_table_created(schema)

    def _txn_event(self, txn: "Transaction", status: str, csn: int | None) -> TxnEvent:
        info = txn.info
        return TxnEvent(
            txn_num=txn.txn_id,
            txn_name=txn.name,
            ts=info.get("ts", 0),
            req_id=info.get("req_id"),
            handler=info.get("handler"),
            label=info.get("label", ""),
            isolation=txn.isolation.value,
            status=status,
            csn=csn,
            snapshot_csn=txn.snapshot_csn,
            auth_user=info.get("auth_user"),
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
        self._emit(
            RequestEvent(
                req_id=result.req_id,
                handler=result.handler,
                args=tuple(request.args) if request is not None else (),
                kwargs=dict(request.kwargs) if request is not None else {},
                auth_user=ctx.auth_user,
                start_ts=getattr(ctx, "_trod_start_ts", 0),
                end_ts=self._trod.clock.tick(),
                status="OK" if result.ok else "Error",
                output_repr=repr(result.output) if result.ok else None,
                error=result.error,
            )
        )
        self._edge_seq.pop(ctx.req_id, None)
        self.requests_traced += 1
        self.overhead_ns += time.perf_counter_ns() - start

    def handler_called(self, parent_ctx: Any, child_ctx: Any) -> None:
        start = time.perf_counter_ns()
        seq = self._edge_seq.get(parent_ctx.req_id, 0) + 1
        self._edge_seq[parent_ctx.req_id] = seq
        self._emit(
            WorkflowEdgeEvent(
                req_id=parent_ctx.req_id,
                caller=parent_ctx.handler_name,
                callee=child_ctx.handler_name,
                seq=seq,
                ts=self._trod.clock.tick(),
            )
        )
        self.overhead_ns += time.perf_counter_ns() - start

    def side_effect(self, ctx: Any, effect: Any) -> None:
        start = time.perf_counter_ns()
        self._emit(
            SideEffectEvent(
                req_id=effect.req_id,
                handler=effect.handler,
                channel=effect.channel,
                payload_repr=repr(effect.payload),
                ts=effect.ts,
            )
        )
        self.overhead_ns += time.perf_counter_ns() - start

    # ------------------------------------------------------------------

    def _emit(self, event: Any, weight: int = 1) -> None:
        """Buffer one event; ``weight`` is the trace rows it carries."""
        self.events_emitted += weight
        if self._trod.buffer.append(event, weight):
            self._trod.request_flush()

    @property
    def overhead_us_per_request(self) -> float:
        if self.requests_traced == 0:
            return 0.0
        return self.overhead_ns / 1000.0 / self.requests_traced
