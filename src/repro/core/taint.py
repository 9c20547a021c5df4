"""Workflow taint tracking and exfiltration detection (§4.2).

"Attackers can leverage RPCs between handlers to move stolen data
laterally through workflow executions and finally exfiltrate data over a
seemingly valid workflow. Since TROD traces the entire workflow of handler
invocations that serve each request, developers can query TROD provenance
data to track all subsequent changes made by a request that improperly
accessed sensitive data, and determine if the data is exfiltrated."

The tracker computes a fixpoint over request-level taint: a request is
tainted if it reads a sensitive (or tainted) table; every table a tainted
request writes becomes tainted. A tainted request that produces an
external side effect on a sink channel is a potential exfiltration flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tracer import Trod


@dataclass
class FlowReport:
    """One potential exfiltration flow."""

    req_id: str
    handler: str
    sources: list[str]  # sensitive/tainted tables this request read
    workflow: list[str]  # handler chain (RPC edges) of the request
    sinks: list[dict]  # side effects on sink channels
    hops: int  # 1 = direct read->sink; >1 = lateral movement via tables


@dataclass
class TaintState:
    tainted_tables: set[str] = field(default_factory=set)
    tainted_requests: dict[str, int] = field(default_factory=dict)  # req -> hop
    table_hop: dict[str, int] = field(default_factory=dict)


class ExfiltrationTracker:
    """Multi-hop taint analysis over the provenance database."""

    def __init__(self, trod: "Trod"):
        self._trod = trod

    # -- primitive queries ----------------------------------------------------

    def requests_reading(self, table: str) -> set[str]:
        event_table = self._trod.provenance.event_table_of(table)
        rows = self._trod.query(
            "SELECT DISTINCT E.ReqId AS ReqId"
            f" FROM Executions AS E, {event_table} AS F ON E.TxnId = F.TxnId"
            " WHERE F.Type = 'Read' AND E.ReqId IS NOT NULL"
        )
        return {row[0] for row in rows}

    def tables_written_by(self, req_id: str) -> set[str]:
        out: set[str] = set()
        for table in self._trod.provenance.traced_tables():
            event_table = self._trod.provenance.event_table_of(table)
            count = self._trod.query(
                f"SELECT COUNT(*) FROM {event_table} AS F"
                " LEFT JOIN Executions AS E ON F.TxnId = E.TxnId"
                " WHERE E.ReqId = ? AND F.Type IN ('Insert', 'Update', 'Delete')",
                (req_id,),
            ).scalar()
            if count:
                out.add(table.lower())
        return out

    def tables_read_by(self, req_id: str) -> set[str]:
        out: set[str] = set()
        for table in self._trod.provenance.traced_tables():
            event_table = self._trod.provenance.event_table_of(table)
            count = self._trod.query(
                f"SELECT COUNT(*) FROM {event_table} AS F"
                " LEFT JOIN Executions AS E ON F.TxnId = E.TxnId"
                " WHERE E.ReqId = ? AND F.Type = 'Read'",
                (req_id,),
            ).scalar()
            if count:
                out.add(table.lower())
        return out

    def workflow_chain(self, req_id: str) -> list[str]:
        """Root handler followed by RPC callees, in call order."""
        rows = self._trod.query(
            "SELECT HandlerName FROM Requests WHERE ReqId = ?", (req_id,)
        ).rows
        chain = [rows[0][0]] if rows else []
        edges = self._trod.query(
            "SELECT Callee FROM WorkflowEdges WHERE ReqId = ? ORDER BY Seq",
            (req_id,),
        ).rows
        chain.extend(edge[0] for edge in edges)
        return chain

    def side_effects_of(self, req_id: str, channels: Iterable[str] | None = None) -> list[dict]:
        rows = self._trod.query(
            "SELECT Channel, Payload, HandlerName, Timestamp FROM SideEffects"
            " WHERE ReqId = ? ORDER BY Timestamp",
            (req_id,),
        ).as_dicts()
        if channels is not None:
            wanted = {c.lower() for c in channels}
            rows = [r for r in rows if r["Channel"].lower() in wanted]
        return rows

    # -- taint fixpoint -----------------------------------------------------------

    def compute_taint(self, sensitive_tables: Iterable[str]) -> TaintState:
        """Propagate taint through read/write edges until fixpoint."""
        self._trod.flush()
        state = TaintState()
        for table in sensitive_tables:
            key = table.lower()
            state.tainted_tables.add(key)
            state.table_hop[key] = 0
        changed = True
        while changed:
            changed = False
            for table in sorted(state.tainted_tables):
                hop = state.table_hop[table] + 1
                for req_id in sorted(self.requests_reading(table)):
                    if req_id not in state.tainted_requests or (
                        hop < state.tainted_requests[req_id]
                    ):
                        state.tainted_requests[req_id] = hop
                        changed = True
            for req_id, hop in list(state.tainted_requests.items()):
                for table in sorted(self.tables_written_by(req_id)):
                    if table not in state.tainted_tables or (
                        hop < state.table_hop.get(table, 1 << 30)
                    ):
                        state.tainted_tables.add(table)
                        state.table_hop[table] = hop
                        changed = True
        return state

    def find_flows(
        self,
        sensitive_tables: Iterable[str],
        sink_channels: Iterable[str] = ("export", "email", "http"),
    ) -> list[FlowReport]:
        """Exfiltration candidates: tainted requests hitting sink channels."""
        sensitive = [t.lower() for t in sensitive_tables]
        state = self.compute_taint(sensitive)
        flows: list[FlowReport] = []
        for req_id in sorted(state.tainted_requests):
            sinks = self.side_effects_of(req_id, channels=sink_channels)
            if not sinks:
                continue
            reads = self.tables_read_by(req_id)
            sources = sorted(t for t in reads if t in state.tainted_tables)
            handler = self._trod.provenance.request_row(req_id)["HandlerName"]
            flows.append(
                FlowReport(
                    req_id=req_id,
                    handler=handler,
                    sources=sources,
                    workflow=self.workflow_chain(req_id),
                    sinks=sinks,
                    hops=state.tainted_requests[req_id],
                )
            )
        return flows

    def track_request(self, req_id: str) -> dict:
        """Everything one request touched — §4.2's forensic starting point."""
        self._trod.flush()
        return {
            "request": self._trod.provenance.request_row(req_id),
            "workflow": self.workflow_chain(req_id),
            "tables_read": sorted(self.tables_read_by(req_id)),
            "tables_written": sorted(self.tables_written_by(req_id)),
            "side_effects": self.side_effects_of(req_id),
            "transactions": self._trod.provenance.txns_of_request(
                req_id, committed_only=False
            ),
        }
