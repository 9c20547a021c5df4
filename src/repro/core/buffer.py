"""High-performance in-memory trace buffer.

§3.7: "we implement always-on tracing using a high-performance in-memory
buffer". Appends must be as close to free as possible because they sit on
the request hot path. An event may be a batch (a scan chunk's read set is
one event), so everything here is counted in *trace rows* — the weight
each append declares — not in event objects: ``capacity``, ``len()``,
``appended``. Once the buffer holds ``capacity`` rows an append signals
that a flush is needed; the tracer then drains it into the provenance
database inline, on the request that filled it, not out of band as in the
paper. Nothing is ever dropped — replay must see every event — and a
batch is never split, so the buffer can overshoot its capacity by less
than one batch, and by more if the caller does not flush.
"""

from __future__ import annotations

from typing import Any


class TraceBuffer:
    """Append-only event buffer with O(1) append, sized in rows."""

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: list[Any] = []
        self._rows = 0
        self.appended = 0
        self.flushes = 0

    def append(self, event: Any, weight: int = 1) -> bool:
        """Add one event of ``weight`` trace rows; True when a flush is due."""
        self.appended += weight
        self._items.append(event)
        self._rows += weight
        return self._rows >= self.capacity

    def extend(self, events: list[Any]) -> bool:
        need_flush = False
        for event in events:
            need_flush = self.append(event) or need_flush
        return need_flush

    def drain(self) -> list[Any]:
        """Remove and return everything buffered (oldest first); only a
        drain that returns events counts as a flush."""
        items = self._items
        if items:
            self._items, self._rows = [], 0
            self.flushes += 1
        return items

    def peek(self) -> list[Any]:
        return list(self._items)

    def __len__(self) -> int:
        """Trace rows buffered (the sum of the buffered events' weights)."""
        return self._rows

    @property
    def high_water(self) -> bool:
        return self._rows >= self.capacity

    def stats(self) -> dict[str, int]:
        return {
            "buffered": self._rows,
            "appended": self.appended,
            "flushes": self.flushes,
            "capacity": self.capacity,
        }
