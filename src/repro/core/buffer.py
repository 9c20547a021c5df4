"""High-performance in-memory trace buffer.

§3.7: "we implement always-on tracing using a high-performance in-memory
buffer". Appends must be as close to free as possible because they sit on
the request hot path, so a trace record is staged in the layout of the
provenance table it lands in, per table:

* a row of a fixed-width table (``Executions``, ``Requests``,
  ``WorkflowEdges``, ``SideEffects``) is staged as its final positional
  row tuple;
* a read set, or a run of one commit's changes, on an app table is staged
  as one header ``(TxnId, TxnNum, Type, Query, Csn, ordinal, count)``
  plus its ``count`` ``(row_id, values)`` pairs, appended to one flat
  pair list per app table. ``ordinal`` is the number of pairs staged
  before it (on any table): ingest numbers the batch's ``Seq`` from there.

Rows are laid out from the pairs only at flush, and a buffer of any size
is a few lists per table: once a young collection has untracked the
tuples, the collector has O(tables) objects to walk, not O(records).

Everything is counted in *trace rows*: ``capacity``, ``len()``,
``appended``. Once the buffer holds ``capacity`` rows an append signals
that a flush is needed; the tracer then drains it into the provenance
database inline, on the request that filled it, not out of band as in the
paper. Nothing is ever dropped — replay must see every record — and a
batch is never split, so the buffer can overshoot its capacity by less
than one batch, and by more if the caller does not flush.
"""

from __future__ import annotations

from typing import Sequence

#: What :meth:`TraceBuffer.drain` returns and ``ProvenanceStore.ingest``
#: takes: ``(rows, batches)``, provenance table -> its staged rows, and
#: app table -> ``(headers, pairs)``.
Staged = tuple[dict[str, list[tuple]], dict[str, tuple[list[tuple], list[tuple]]]]


class TraceBuffer:
    """Per-table staging of trace records, O(1) per trace row, sized in rows."""

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._rows: dict[str, list[tuple]] = {}
        self._batches: dict[str, tuple[list[tuple], list[tuple]]] = {}
        self._count = 0  # trace rows staged
        self._ordinal = 0  # pairs staged: the next batch's Seq offset
        self._drained = 0
        self.flushes = 0

    def add_row(self, table: str, row: tuple) -> bool:
        """Stage one row of a fixed-width provenance table; True when a
        flush is due."""
        rows = self._rows.get(table)
        if rows is None:
            rows = self._rows[table] = []
        rows.append(row)
        self._count += 1
        return self._count >= self.capacity

    def add_batch(
        self,
        table: str,
        txn_name: str,
        txn_num: int,
        kind: str,
        query: str,
        csn: int | None,
        pairs: Sequence[tuple[int | None, tuple | None]],
    ) -> bool:
        """Stage one batch of ``kind`` operations on app table ``table``:
        its header, and its ``(row_id, values)`` pairs (copied, so the
        caller's sequence is not kept). True when a flush is due."""
        staged = self._batches.get(table)
        if staged is None:
            staged = self._batches[table] = ([], [])
        count = len(pairs)
        staged[0].append((txn_name, txn_num, kind, query, csn, self._ordinal, count))
        staged[1].extend(pairs)
        self._ordinal += count
        self._count += count
        return self._count >= self.capacity

    def drain(self) -> Staged:
        """Remove and return everything staged, each table's records
        oldest first; only a drain that returns records counts as a
        flush."""
        if not (self._rows or self._batches):
            return {}, {}
        staged = self._rows, self._batches
        self._rows, self._batches = {}, {}
        self._drained += self._count
        self._count = self._ordinal = 0
        self.flushes += 1
        return staged

    def __len__(self) -> int:
        """Trace rows staged."""
        return self._count

    @property
    def appended(self) -> int:
        """Trace rows ever staged."""
        return self._drained + self._count

    @property
    def high_water(self) -> bool:
        return self._count >= self.capacity

    def stats(self) -> dict[str, int]:
        return {
            "buffered": self._count,
            "appended": self.appended,
            "flushes": self.flushes,
            "capacity": self.capacity,
        }
