"""Rendering provenance as the paper presents it.

``render_table1`` and ``render_table2`` regenerate the paper's Table 1
(transaction execution log) and Table 2 (data operations log);
``history_diagram`` draws Figure 3-style transaction histories with one
lane per request in commit order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.db.result import text_table
from repro.db.types import render_value

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tracer import Trod


def render_table1(trod: "Trod", req_ids: list[str] | None = None) -> str:
    """The Invocations/Executions log in the paper's Table 1 format."""
    trod.flush()
    rows = trod.provenance.query(
        "SELECT TxnId, Timestamp, HandlerName, ReqId, Metadata"
        " FROM Executions WHERE Status = 'Committed'"
        " ORDER BY Csn ASC"
    ).as_dicts()
    if req_ids is not None:
        wanted = set(req_ids)
        rows = [r for r in rows if r["ReqId"] in wanted]
    cells = [
        [
            r["TxnId"],
            f"TS{r['Timestamp']}",
            r["HandlerName"] or "-",
            r["ReqId"] or "-",
            r["Metadata"] or "",
        ]
        for r in rows
    ]
    return text_table(["TxnId", "Timestamp", "HandlerName", "ReqId", "Metadata"], cells)


def render_table2(trod: "Trod", table: str, include_snapshot: bool = False) -> str:
    """The data-operations log for one app table (the paper's Table 2)."""
    trod.flush()
    provenance = trod.provenance
    event_table = provenance.event_table_of(table)
    schema = provenance.app_schema(table)
    rows = provenance.query(
        f"SELECT * FROM {event_table} ORDER BY Seq ASC"
    ).as_dicts()
    if not include_snapshot:
        rows = [r for r in rows if r["Type"] != "Snapshot"]
    column_map = provenance._column_maps[table.lower()]
    headers = ["TxnId", "Type", "Query"] + list(schema.column_names)
    cells = [
        [
            r["TxnId"],
            r["Type"],
            r["Query"] or "",
            *(render_value(r[column_map[c]]) for c in schema.column_names),
        ]
        for r in rows
    ]
    return text_table(headers, cells)


def render_retroactive(result) -> str:
    """Figure 3 (bottom)-style summary of a retroactive run.

    One block per tested ordering: the schedule, each re-executed
    request's outcome vs the original, followup outcomes, and the final
    state of every traced table.
    """
    lines = [result.summary(), ""]
    for outcome in result.outcomes:
        lines.append(f"ordering {outcome.schedule}:")
        for request in outcome.requests:
            original = request.original_error or request.original_output
            now = request.error or request.output_repr
            marker = "*" if request.changed else " "
            lines.append(
                f"  {marker} {request.req_id}' {request.handler}: "
                f"{now} (was: {original})"
            )
        for followup in outcome.followups:
            original = followup.original_error or followup.original_output
            now = followup.error or followup.output_repr
            marker = "*" if followup.changed else " "
            lines.append(
                f"  {marker} then {followup.req_id}' {followup.handler}: "
                f"{now} (was: {original})"
            )
        for table, rows in sorted(outcome.final_state.items()):
            lines.append(f"    {table}: {rows}")
        if outcome.invariant_violations:
            lines.append(
                f"    invariant violations: {outcome.invariant_violations}"
            )
        lines.append("")
    return "\n".join(lines).rstrip()


def history_diagram(trod: "Trod", req_ids: list[str] | None = None) -> str:
    """Figure 3-style history: lanes per request, columns in commit order."""
    trod.flush()
    rows = trod.provenance.query(
        "SELECT TxnId, ReqId, HandlerName, Metadata, Csn FROM Executions"
        " WHERE Status = 'Committed' AND ReqId IS NOT NULL ORDER BY Csn ASC"
    ).as_dicts()
    if req_ids is not None:
        wanted = set(req_ids)
        rows = [r for r in rows if r["ReqId"] in wanted]
    if not rows:
        return "(no committed transactions)"
    lanes = []
    for row in rows:
        if row["ReqId"] not in lanes:
            lanes.append(row["ReqId"])
    labels = []
    for row in rows:
        metadata = row["Metadata"] or ""
        label = metadata.removeprefix("func:") or row["HandlerName"] or row["TxnId"]
        labels.append(f"[{label}]")
    width = max(len(l) for l in labels) + 1
    lane_width = max(len(l) for l in lanes)
    lines = []
    for lane in lanes:
        cells = [
            labels[i].ljust(width) if row["ReqId"] == lane else " " * width
            for i, row in enumerate(rows)
        ]
        lines.append(f"{lane.rjust(lane_width)} |{''.join(cells)}")
    ruler = "".join(f"t{i + 1}".ljust(width) for i in range(len(rows)))
    lines.append(f"{' ' * lane_width} |{ruler}")
    return "\n".join(lines)
