"""Declarative debugging (§3.3, §3.4).

Raw SQL over the provenance database plus canned analyses for the
questions the paper walks through: who inserted these duplicated rows,
what did a request execute, and which concurrent executions updated the
database between a request's transactions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.db.result import ResultSet
from repro.db.types import sql_literal
from repro.errors import ProvenanceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tracer import Trod


class Debugger:
    """Query-level debugging interface."""

    def __init__(self, trod: "Trod"):
        self._trod = trod

    # -- raw SQL -----------------------------------------------------------

    def sql(self, query: str, params: tuple = ()) -> ResultSet:
        return self._trod.query(query, params)

    # -- canned analyses ------------------------------------------------------

    def find_writers(
        self,
        table: str,
        kind: str = "Insert",
        **column_filters: Any,
    ) -> ResultSet:
        """Which requests wrote matching rows — the paper's §3.3 query.

        ``find_writers("forum_sub", UserId="U1", Forum="F2")`` builds and
        runs exactly the query shown in the paper (modulo the generated
        filter list) and returns (Timestamp, ReqId, HandlerName, TxnId)
        rows in timestamp order.
        """
        event_table = self._trod.provenance.event_table_of(table)
        filters = [f"F.Type = {sql_literal(kind)}"]
        for column, value in column_filters.items():
            filters.append(f"F.{column} = {sql_literal(value)}")
        query = (
            "SELECT Timestamp, ReqId, HandlerName, E.TxnId AS TxnId\n"
            f"FROM Executions as E, {event_table} as F\n"
            "ON E.TxnId = F.TxnId\n"
            f"WHERE {' AND '.join(filters)}\n"
            "ORDER BY Timestamp ASC"
        )
        return self.sql(query)

    def duplicate_inserts(self, table: str, key_columns: list[str]) -> list[dict]:
        """Key values inserted more than once, with the inserting requests.

        The first debugging step for MDL-59854 / MW-44325 style bugs.
        """
        event_table = self._trod.provenance.event_table_of(table)
        keys = ", ".join(f"F.{c}" for c in key_columns)
        rows = self.sql(
            f"SELECT {keys}, COUNT(*) AS n FROM {event_table} AS F"
            " WHERE F.Type = 'Insert'"
            f" GROUP BY {keys} HAVING COUNT(*) > 1"
        ).as_dicts()
        out = []
        for row in rows:
            filters = {c: row[c] for c in key_columns}
            writers = self.find_writers(table, kind="Insert", **filters).as_dicts()
            out.append({"key": filters, "count": row["n"], "writers": writers})
        return out

    def request_timeline(self, req_id: str) -> list[dict]:
        """Every transaction a request executed, aborted ones included,
        in execution order."""
        return self._trod.provenance.txns_of_request(req_id, committed_only=False)

    def requests(self, status: str | None = None) -> ResultSet:
        if status is None:
            return self.sql("SELECT * FROM Requests ORDER BY StartTs")
        return self.sql(
            "SELECT * FROM Requests WHERE Status = ? ORDER BY StartTs", (status,)
        )

    def failed_requests(self) -> list[dict]:
        return self.requests(status="Error").as_dicts()

    def interleaved_writes(self, req_id: str) -> list[dict]:
        """Writes by *other* requests between this request's transactions.

        §3.5: "TROD makes it easy for developers to query which concurrent
        executions may have updated the database between transactions."
        Each returned row is a write event, annotated with ``_table`` and
        positioned strictly between this request's first and last commits.
        """
        self._trod.flush()
        txns = self._trod.provenance.txns_of_request(req_id)
        if not txns:
            raise ProvenanceError(f"request {req_id!r} has no committed txns")
        first_csn = txns[0]["Csn"]
        last_csn = txns[-1]["Csn"]
        if first_csn == last_csn:
            return []
        return self._trod.provenance.writes_between(
            first_csn, last_csn - 1, exclude_req=req_id
        )

    def workflow(self, req_id: str) -> list[dict]:
        """The RPC edges of one request's workflow, in call order."""
        return self.sql(
            "SELECT Caller, Callee, Seq, Timestamp FROM WorkflowEdges"
            " WHERE ReqId = ? ORDER BY Seq",
            (req_id,),
        ).as_dicts()

    def transactions_touching(self, table: str, kind: str | None = None) -> ResultSet:
        """All transactions that produced events on ``table``."""
        event_table = self._trod.provenance.event_table_of(table)
        where = "WHERE F.Type != 'Snapshot'"
        params: tuple = ()
        if kind is not None:
            where = "WHERE F.Type = ?"
            params = (kind,)
        return self.sql(
            "SELECT DISTINCT E.TxnId AS TxnId, E.ReqId AS ReqId,"
            " E.HandlerName AS HandlerName, E.Csn AS Csn"
            f" FROM Executions AS E, {event_table} AS F ON E.TxnId = F.TxnId"
            f" {where} ORDER BY Csn, TxnId",
            params,
        )
