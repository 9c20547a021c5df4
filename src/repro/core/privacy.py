"""Privacy extension (§5 "Guaranteeing Security and Privacy").

"TROD needs to let users completely remove any provenance data entry that
potentially contains their personal information and support debugging
from partial data. Therefore, we plan to research ways to maintain
non-sensitive but critical metadata."

Implemented as targeted redaction: :meth:`PrivacyManager.forget_value`
nulls every data column of matching event rows (and scrubs request
arguments) while preserving the non-sensitive metadata — transaction ids,
timestamps, operation kinds, row ids — so execution-structure debugging
keeps working. Redacted write events are excluded from replay injection;
replays that depended on the erased data degrade to reported divergences
rather than crashes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.provenance import REDACTED
from repro.errors import ProvenanceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tracer import Trod


@dataclass(frozen=True)
class RedactionReport:
    """What one forget-request removed (no sensitive values retained)."""

    table: str
    column: str
    events_redacted: int
    requests_scrubbed: int


class PrivacyManager:
    """GDPR/CCPA-style erasure over the provenance database."""

    def __init__(self, trod: "Trod"):
        self._trod = trod
        self._ensure_audit_table()
        self.reports: list[RedactionReport] = []

    def _ensure_audit_table(self) -> None:
        db = self._trod.provenance.db
        if not db.catalog.has_table("Redactions"):
            db.execute(
                "CREATE TABLE Redactions ("
                " TableName TEXT NOT NULL, ColumnName TEXT NOT NULL,"
                " EventsRedacted INTEGER NOT NULL,"
                " RequestsScrubbed INTEGER NOT NULL,"
                " Timestamp INTEGER NOT NULL)"
            )

    def forget_value(self, table: str, column: str, value: str) -> RedactionReport:
        """Erase every provenance trace of ``value`` in ``table.column``.

        Data columns of matching event rows become NULL and their Query
        text becomes the redaction marker; metadata columns survive.
        Request rows whose recorded arguments contain the value have
        those arguments scrubbed too (they would otherwise leak through
        retroactive re-execution).
        """
        self._trod.flush()
        provenance = self._trod.provenance
        # A scan predicate of the table reenacts its rows from the history
        # about to lose the value, and any predicate's params may hold it:
        # expand those first. One that cannot be expanded stays pending
        # (its table's readers raise) without the value.
        holding = {
            read.table for read in provenance.pending_scans() if value in read.params
        }
        try:
            provenance.expand_reads({table, *holding})
        except ProvenanceError:
            provenance.scrub_pending(value)
        schema = provenance.app_schema(table)
        column_map = provenance._column_maps[table.lower()]
        event_table = provenance.event_table_of(table)
        target = column_map[schema.column(column).name]

        data_columns = ", ".join(
            f"{column_map[c]} = NULL" for c in schema.column_names
        )
        result = provenance.db.execute(
            f"UPDATE {event_table} SET {data_columns}, Query = ?"
            f" WHERE {target} = ?",
            (REDACTED, value),
        )
        events_redacted = result.rowcount
        # States reconstructed before the redaction still hold the erased
        # values; drop them so reconstruction cannot resurrect data.
        provenance.invalidate_checkpoints(table)
        if events_redacted:
            provenance.stop_reenacting(table)

        requests_scrubbed = self._scrub_request_args(value)
        report = RedactionReport(
            table=schema.name,
            column=schema.column(column).name,
            events_redacted=events_redacted,
            requests_scrubbed=requests_scrubbed,
        )
        self.reports.append(report)
        provenance.db.execute(
            "INSERT INTO Redactions (TableName, ColumnName, EventsRedacted,"
            " RequestsScrubbed, Timestamp) VALUES (?, ?, ?, ?, ?)",
            (
                report.table,
                report.column,
                report.events_redacted,
                report.requests_scrubbed,
                self._trod.clock.now(),
            ),
        )
        return report

    def _scrub_request_args(self, value: str) -> int:
        provenance = self._trod.provenance
        rows = provenance.query(
            "SELECT ReqId, ArgsJson, KwargsJson FROM Requests"
        ).as_dicts()
        scrubbed = 0
        for row in rows:
            args = json.loads(row["ArgsJson"] or "[]")
            kwargs = json.loads(row["KwargsJson"] or "{}")
            hit = False
            new_args = []
            for arg in args:
                if arg == value:
                    new_args.append(REDACTED)
                    hit = True
                else:
                    new_args.append(arg)
            new_kwargs = {}
            for key, arg in kwargs.items():
                if arg == value:
                    new_kwargs[key] = REDACTED
                    hit = True
                else:
                    new_kwargs[key] = arg
            if hit:
                provenance.db.execute(
                    "UPDATE Requests SET ArgsJson = ?, KwargsJson = ?"
                    " WHERE ReqId = ?",
                    (json.dumps(new_args), json.dumps(new_kwargs), row["ReqId"]),
                )
                scrubbed += 1
        return scrubbed

    # -- partial-data introspection --------------------------------------------

    def redacted_event_count(self, table: str) -> int:
        event_table = self._trod.provenance.event_table_of(table)
        return self._trod.provenance.query(
            f"SELECT COUNT(*) FROM {event_table} WHERE Query = ?",
            (REDACTED,),
        ).scalar()

    def audit_log(self) -> list[dict]:
        return self._trod.provenance.query(
            "SELECT * FROM Redactions ORDER BY Timestamp"
        ).as_dicts()
