"""Trace event records produced by the interposition layer.

These are the in-memory shapes that flow through the trace buffer before
being flattened into provenance tables. One committed transaction yields
one :class:`TxnEvent` (a row of the paper's Table 1) plus
:class:`DataEvent` batches whose rows are the rows it read or wrote (the
rows of Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence


@dataclass(frozen=True)
class TxnEvent:
    """One transaction execution (a row of Table 1 / ``Executions``)."""

    txn_num: int  # numeric id, e.g. 7
    txn_name: str  # display id, e.g. "TXN7"
    ts: int  # logical timestamp assigned at begin
    req_id: str | None
    handler: str | None
    label: str  # the paper's "func:..." metadata
    isolation: str
    status: str  # 'Committed' | 'Aborted'
    csn: int | None  # commit sequence number (None if aborted)
    snapshot_csn: int
    auth_user: str | None = None


@dataclass(frozen=True)
class DataEvent:
    """A batch of data operations of one kind by one statement on one
    table (each of ``rows`` becomes a row of Table 2 / ``<Table>Events``).

    ``rows`` holds positional ``(row_id, values)`` pairs in operation
    order, ``values`` in the app table's column order: a scan chunk's
    read set as the executor recorded it, or a run of a commit's
    changes. ``values`` is None for deletes and, with a None ``row_id``,
    for a read that matched nothing (logged with null data columns, as
    in Table 2). A single operation is a batch of one.
    """

    txn_num: int
    txn_name: str
    table: str  # canonical app-table name
    kind: str  # 'Read' | 'Insert' | 'Update' | 'Delete'
    query: str
    csn: int | None  # commit CSN for writes; None for reads
    rows: Sequence[tuple[int | None, tuple | None]]


@dataclass(frozen=True)
class RequestEvent:
    """One request execution (a row of ``Requests``)."""

    req_id: str
    handler: str
    args: tuple
    kwargs: dict[str, Any]
    auth_user: str | None
    start_ts: int
    end_ts: int
    status: str  # 'OK' | 'Error'
    output_repr: str | None
    error: str | None


@dataclass(frozen=True)
class WorkflowEdgeEvent:
    """One RPC edge in a request's workflow (a row of ``WorkflowEdges``)."""

    req_id: str
    caller: str
    callee: str
    seq: int
    ts: int


@dataclass(frozen=True)
class SideEffectEvent:
    """One recorded external side effect (a row of ``SideEffects``)."""

    req_id: str
    handler: str
    channel: str
    payload_repr: str
    ts: int


TraceEvent = (
    TxnEvent | DataEvent | RequestEvent | WorkflowEdgeEvent | SideEffectEvent
)
