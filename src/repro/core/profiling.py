"""Performance profiling extension (§5 "Debugging Performance and Data
Issues").

"TROD can similarly augment its execution tracing to record performance
metrics such as latencies of individual handlers and end-to-end
executions, and store this information in a structured and queryable
format."

The profiler is an optional second runtime / database observer that
measures wall-clock durations (performance is inherently non-deterministic,
so these live in their own ``PerfEvents`` table and never participate in
replay) and exposes APM-style analyses: slowest requests, per-handler
latency summaries, per-transaction-label costs.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

from repro.db.result import ResultSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tracer import Trod


class PerformanceProfiler:
    """Latency recording over the same interposition points TROD uses."""

    events = (
        "request_started", "request_finished", "handler_called",
        "handler_returned", "txn_began", "txn_committed", "txn_aborted",
    )

    def __init__(self, trod: "Trod"):
        self._trod = trod
        self._pending: list[dict[str, Any]] = []
        self._txn_starts: dict[int, int] = {}  # txn_id -> ns
        self.enabled = False
        self._ensure_table()

    def _ensure_table(self) -> None:
        db = self._trod.provenance.db
        if not db.catalog.has_table("PerfEvents"):
            db.execute(
                "CREATE TABLE PerfEvents ("
                " ReqId TEXT, HandlerName TEXT, Kind TEXT NOT NULL,"
                " Label TEXT, DurationUs FLOAT NOT NULL,"
                " Timestamp INTEGER)"
            )
            db.create_index("ix_perf_req", "PerfEvents", ["ReqId"])

    # -- lifecycle -----------------------------------------------------------

    def attach(self) -> "PerformanceProfiler":
        if self.enabled:
            return self
        if self._trod.runtime is None:
            raise RuntimeError("attach TROD to a runtime before profiling")
        self._trod.runtime.add_observer(self)
        self._trod.database.add_observer(self)
        self.enabled = True
        return self

    def detach(self) -> None:
        if not self.enabled:
            return
        if self._trod.runtime is not None:
            self._trod.runtime.remove_observer(self)
        self._trod.database.remove_observer(self)
        self.enabled = False

    # -- runtime hooks ------------------------------------------------------------

    def request_started(self, ctx: Any, request: Any) -> None:
        ctx._perf_start_ns = time.perf_counter_ns()

    def request_finished(self, ctx: Any, result: Any) -> None:
        started = getattr(ctx, "_perf_start_ns", None)
        self._record(started, result.req_id, result.handler, "request", "end-to-end")

    def handler_called(self, parent_ctx: Any, child_ctx: Any) -> None:
        child_ctx._perf_start_ns = time.perf_counter_ns()

    def handler_returned(self, child_ctx: Any, output: Any) -> None:
        started = getattr(child_ctx, "_perf_start_ns", None)
        self._record(started, child_ctx.req_id, child_ctx.handler_name, "handler", "rpc")

    # -- database observer ------------------------------------------------------------

    def txn_began(self, txn: Any) -> None:
        self._txn_starts[txn.txn_id] = time.perf_counter_ns()

    def txn_committed(self, txn: Any, csn: int, changes: Any) -> None:
        self._finish_txn(txn)

    def txn_aborted(self, txn: Any) -> None:
        self._finish_txn(txn)

    def _finish_txn(self, txn: Any) -> None:
        started, info = self._txn_starts.pop(txn.txn_id, None), txn.info
        label = info.get("label") or txn.name
        self._record(started, info.get("req_id"), info.get("handler"), "txn", label)

    def _record(
        self, started: int | None, req_id: Any, handler: Any, kind: str, label: str
    ) -> None:
        """Stage one span that began at ``started`` (ns), if it was timed."""
        if started is None:
            return
        duration_us = (time.perf_counter_ns() - started) / 1000.0
        self._pending.append({
            "ReqId": req_id, "HandlerName": handler, "Kind": kind, "Label": label,
            "DurationUs": duration_us, "Timestamp": self._trod.clock.now(),
        })

    # -- persistence & queries ------------------------------------------------------------

    def flush(self) -> int:
        """Store the pending records as one insert (one run of
        ``PerfEvents`` rows, in record order); returns how many."""
        if not self._pending:
            return 0
        self._trod.provenance.db.insert_rows("PerfEvents", self._pending)
        count = len(self._pending)
        self._pending = []
        return count

    def query(self, sql: str, params: tuple = ()) -> ResultSet:
        self.flush()
        return self._trod.provenance.db.execute(sql, params)

    def slowest_requests(self, limit: int = 10) -> list[dict]:
        return self.query(
            "SELECT ReqId, HandlerName, DurationUs FROM PerfEvents"
            " WHERE Kind = 'request' ORDER BY DurationUs DESC LIMIT ?",
            (limit,),
        ).as_dicts()

    def handler_stats(self) -> list[dict]:
        """Per-handler request latency summary (count / mean / max)."""
        return self.query(
            "SELECT HandlerName, COUNT(*) AS n, AVG(DurationUs) AS mean_us,"
            " MAX(DurationUs) AS max_us FROM PerfEvents"
            " WHERE Kind = 'request' GROUP BY HandlerName"
            " ORDER BY mean_us DESC"
        ).as_dicts()

    def txn_label_stats(self) -> list[dict]:
        """Which transaction (by func label) costs the most overall."""
        return self.query(
            "SELECT Label, COUNT(*) AS n, AVG(DurationUs) AS mean_us,"
            " SUM(DurationUs) AS total_us FROM PerfEvents"
            " WHERE Kind = 'txn' GROUP BY Label ORDER BY total_us DESC"
        ).as_dicts()

    def request_breakdown(self, req_id: str) -> list[dict]:
        """Every measured span of one request, slowest first."""
        return self.query(
            "SELECT Kind, Label, HandlerName, DurationUs FROM PerfEvents"
            " WHERE ReqId = ? ORDER BY DurationUs DESC",
            (req_id,),
        ).as_dicts()
