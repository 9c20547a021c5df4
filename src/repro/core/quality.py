"""Data-quality debugging extension (§5).

"We may support data quality tests over TROD's provenance database to
discover erroneous edits, and find requests that caused data quality
degradation."

Checks are declarative (per-row predicates or table-level uniqueness);
the monitor walks the table's write history *in commit order*,
maintaining the reconstructed state, and reports the first commit — and
therefore the first transaction and request — at which each check began
to fail. That pinpoints "the request that degraded data quality" without
any instrumentation of the application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tracer import Trod

RowPredicate = Callable[[dict[str, Any]], bool]


@dataclass(frozen=True)
class QualityViolation:
    """The first point in history where a check failed."""

    check: str
    table: str
    csn: int
    txn_id: str | None
    req_id: str | None
    handler: str | None
    detail: str


@dataclass
class _Check:
    name: str
    table: str  # canonical
    kind: str  # 'row' | 'unique'
    predicate: RowPredicate | None = None
    columns: tuple[str, ...] = ()
    description: str = ""


class DataQualityMonitor:
    """Runs declarative quality checks over traced history."""

    def __init__(self, trod: "Trod"):
        self._trod = trod
        self._checks: dict[str, _Check] = {}

    # -- registration -----------------------------------------------------------

    def add_row_check(
        self,
        name: str,
        table: str,
        predicate: RowPredicate,
        description: str = "",
    ) -> None:
        """Register a per-row validity predicate (True = row is valid)."""
        self._checks[name] = _Check(
            name=name,
            table=table.lower(),
            kind="row",
            predicate=predicate,
            description=description,
        )

    def add_unique_check(self, name: str, table: str, columns: list[str]) -> None:
        """Register an application-level uniqueness requirement."""
        schema = self._trod.provenance.app_schema(table)
        resolved = tuple(schema.column(c).name for c in columns)
        self._checks[name] = _Check(
            name=name, table=table.lower(), kind="unique", columns=resolved
        )

    # -- scanning ------------------------------------------------------------------

    def scan(self, upto_csn: int | None = None) -> list[QualityViolation]:
        """First violation of each registered check, in history order."""
        self._trod.flush()
        violations = []
        for name in sorted(self._checks):
            violation = self.first_degradation(name, upto_csn=upto_csn)
            if violation is not None:
                violations.append(violation)
        return violations

    def first_degradation(
        self, check_name: str, upto_csn: int | None = None
    ) -> QualityViolation | None:
        """Walk the write history until ``check_name`` first fails: the
        base snapshot and the write events up to ``upto_csn``, in (Csn,
        Seq) order (:meth:`ProvenanceStore.history
        <repro.core.provenance.ProvenanceStore.history>`)."""
        self._trod.flush()
        check = self._checks[check_name]
        provenance = self._trod.provenance
        schema = provenance.app_schema(check.table)
        state: dict[int, dict[str, Any]] = {}
        key_counts: dict[tuple, int] = {}

        def key_of(values: dict[str, Any]) -> tuple:
            return tuple(values[c] for c in check.columns)

        for kind, row_id, csn, txn_id, row in provenance.history(check.table, upto_csn):
            if kind == "Delete":
                removed = state.pop(row_id, None)
                if check.kind == "unique" and removed is not None:
                    key_counts[key_of(removed)] -= 1
                continue
            values = schema.row_dict(row)
            if check.kind == "unique":
                previous = state.get(row_id)
                if previous is not None:
                    key_counts[key_of(previous)] -= 1
                key = key_of(values)
                key_counts[key] = key_counts.get(key, 0) + 1
                if key_counts[key] > 1 and kind != "Snapshot":
                    return self._violation(
                        check, csn, txn_id, f"key {key!r} now appears "
                        f"{key_counts[key]} times"
                    )
            state[row_id] = values
            if check.kind == "row" and kind != "Snapshot":
                if not check.predicate(values):
                    return self._violation(
                        check, csn, txn_id, f"row {values!r} failed predicate"
                    )
        return None

    def _violation(
        self, check: _Check, csn: int, txn_id: str, detail: str
    ) -> QualityViolation:
        """The violation at the event ``txn_id`` wrote at ``csn``, with
        the request and handler of that transaction."""
        execution = self._trod.provenance.query(
            "SELECT ReqId, HandlerName FROM Executions WHERE TxnId = ?",
            (txn_id,),
        ).as_dicts()
        req_id = execution[0]["ReqId"] if execution else None
        handler = execution[0]["HandlerName"] if execution else None
        return QualityViolation(
            check=check.name,
            table=check.table,
            csn=csn,
            txn_id=txn_id,
            req_id=req_id,
            handler=handler,
            detail=detail,
        )

    def validate_current_state(self) -> dict[str, list[str]]:
        """Run all checks against the latest reconstructed state only."""
        self._trod.flush()
        out: dict[str, list[str]] = {}
        for name in sorted(self._checks):
            check = self._checks[name]
            schema = self._trod.provenance.app_schema(check.table)
            rows = [
                schema.row_dict(values)
                for _rid, values in self._trod.provenance.reconstruct_rows(
                    check.table, upto_csn=1 << 60
                )
            ]
            problems: list[str] = []
            if check.kind == "row":
                problems = [
                    f"invalid row {row!r}"
                    for row in rows
                    if not check.predicate(row)
                ]
            else:
                seen: dict[tuple, int] = {}
                for row in rows:
                    key = tuple(row[c] for c in check.columns)
                    seen[key] = seen.get(key, 0) + 1
                problems = [
                    f"key {key!r} appears {count} times"
                    for key, count in sorted(seen.items(), key=str)
                    if count > 1
                ]
            out[name] = problems
        return out
