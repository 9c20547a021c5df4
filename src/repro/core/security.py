"""Access-control pattern checking (§4.2).

The paper demonstrates checking Near & Jackson's access-control patterns
over provenance with plain SQL. Two patterns are built in — **User
Profiles** (only users themselves may update their profiles; the paper's
query is generated verbatim) and **Authentication** (only logged-in users
may read certain objects) — and arbitrary custom patterns can be
registered as parameterized SQL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.db.result import ResultSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tracer import Trod


@dataclass(frozen=True)
class PatternViolation:
    """One access-control violation found in the trace."""

    pattern: str
    req_id: str | None
    handler: str | None
    timestamp: int | None
    details: dict[str, Any] = field(default_factory=dict)


class AccessControlChecker:
    """SQL-driven detection of access-control violations."""

    def __init__(self, trod: "Trod"):
        self._trod = trod
        self._patterns: dict[str, tuple[str, tuple]] = {}

    # -- built-in patterns ---------------------------------------------------

    def user_profiles(
        self,
        table: str,
        owner_column: str = "UserName",
        updater_column: str = "UpdatedBy",
    ) -> list[PatternViolation]:
        """The paper's User Profiles query: updates not made by the owner.

        Generates exactly the §4.2 query over the table's event log::

            SELECT Timestamp, ReqId, HandlerName
            FROM Executions as E, ProfileEvents as P ON E.TxnId = P.TxnId
            WHERE P.UserName != P.UpdatedBy AND P.Type = 'Update'
        """
        event_table = self._trod.provenance.event_table_of(table)
        rows = self._trod.query(
            "SELECT Timestamp, ReqId, HandlerName\n"
            f"FROM Executions as E, {event_table} as P\n"
            "ON E.TxnId = P.TxnId\n"
            f"WHERE P.{owner_column} != P.{updater_column} "
            "AND P.Type = 'Update'"
        ).as_dicts()
        return [
            PatternViolation(
                pattern="user-profiles",
                req_id=row["ReqId"],
                handler=row["HandlerName"],
                timestamp=row["Timestamp"],
                details={"table": table},
            )
            for row in rows
        ]

    def authentication(
        self, table: str, kinds: tuple[str, ...] = ("Read",)
    ) -> list[PatternViolation]:
        """Accesses to a protected table by unauthenticated requests."""
        event_table = self._trod.provenance.event_table_of(table)
        kind_list = ", ".join(f"'{k}'" for k in kinds)
        rows = self._trod.query(
            "SELECT E.Timestamp AS Timestamp, E.ReqId AS ReqId,"
            " E.HandlerName AS HandlerName, P.Type AS Kind\n"
            f"FROM Executions as E, {event_table} as P\n"
            "ON E.TxnId = P.TxnId\n"
            f"WHERE E.AuthUser IS NULL AND P.Type IN ({kind_list})\n"
            # The first access of each kind, whatever the storage order.
            "ORDER BY Timestamp, P.Seq"
        ).as_dicts()
        seen: set[tuple] = set()
        out: list[PatternViolation] = []
        for row in rows:
            key = (row["ReqId"], row["HandlerName"], row["Kind"])
            if key in seen:
                continue
            seen.add(key)
            out.append(
                PatternViolation(
                    pattern="authentication",
                    req_id=row["ReqId"],
                    handler=row["HandlerName"],
                    timestamp=row["Timestamp"],
                    details={"table": table, "kind": row["Kind"]},
                )
            )
        return out

    # -- custom patterns --------------------------------------------------------

    def register_pattern(self, name: str, sql: str, params: tuple = ()) -> None:
        """Register a custom access-control query.

        The query should return (Timestamp, ReqId, HandlerName, ...) rows;
        each result row becomes a violation.
        """
        self._patterns[name] = (sql, params)

    def run_pattern(self, name: str) -> list[PatternViolation]:
        sql, params = self._patterns[name]
        rows = self._trod.query(sql, params).as_dicts()
        return [
            PatternViolation(
                pattern=name,
                req_id=row.get("ReqId"),
                handler=row.get("HandlerName"),
                timestamp=row.get("Timestamp"),
                details={
                    k: v
                    for k, v in row.items()
                    if k not in ("ReqId", "HandlerName", "Timestamp")
                },
            )
            for row in rows
        ]

    def run_all(self) -> dict[str, list[PatternViolation]]:
        return {name: self.run_pattern(name) for name in sorted(self._patterns)}

    def raw(self, sql: str, params: tuple = ()) -> ResultSet:
        return self._trod.query(sql, params)
