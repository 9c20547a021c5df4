"""Change data capture.

Every committed row change is published as a :class:`ChangeRecord` on the
database's :class:`CdcStream`, in commit order, with before- and
after-images. The paper's §3.4 observes that write provenance can
"leverage the change data capture feature provided by most databases" —
TROD's interposition layer is exactly such a CDC subscriber.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.db.txn.wal import WalChange


@dataclass(frozen=True, slots=True)
class ChangeRecord:
    """One committed row change."""

    seq: int  # global CDC sequence number (total order)
    csn: int  # commit sequence number of the owning transaction
    txn_id: int
    table: str  # canonical table name
    op: str  # 'insert' | 'update' | 'delete'
    row_id: int
    values: tuple | None  # after-image (None for delete)
    old_values: tuple | None  # before-image (None for insert)


class CdcStream:
    """In-order stream of committed changes with subscriber fan-out.

    Subscribers are called synchronously at commit time (still inside the
    committing worker's turn, so they observe a consistent database).
    History is retained so late consumers can catch up via :meth:`since`.
    """

    def __init__(self, retain: int | None = None):
        self._history: list[ChangeRecord] = []
        self._subscribers: list[Callable[[ChangeRecord], None]] = []
        self._next_seq = 1
        self._retain = retain
        self._dropped = 0

    def subscribe(self, callback: Callable[[ChangeRecord], None]) -> Callable[[], None]:
        """Register ``callback``; returns an unsubscribe function."""
        self._subscribers.append(callback)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass

        return unsubscribe

    def emit(
        self,
        csn: int,
        txn_id: int,
        table: str,
        op: str,
        row_id: int,
        values: tuple | None,
        old_values: tuple | None,
    ) -> ChangeRecord:
        """Publish one change (the one-record :meth:`emit_commit`)."""
        change = WalChange(op, table, row_id, values, old_values)
        return self.emit_commit(csn, txn_id, (change,))[0]

    def emit_commit(
        self,
        csn: int,
        txn_id: int,
        changes: Sequence[WalChange],
        observed: bool = True,
    ) -> list[ChangeRecord]:
        """Publish one commit's applied changes in order; returns the records.

        The whole commit enters the history (and retention trims it)
        before the first subscriber call, so a subscriber that reads the
        history sees the commit complete.

        Records are built only when something can read them: a
        subscriber, a history that retains at least one, or the caller
        (``observed``: the committing database has observers to hand
        them to). Otherwise the commit is accounted as building and then
        trimming its records would leave it — sequence numbers consumed,
        every record ``dropped`` — and nothing is returned.
        """
        if not (observed or self._subscribers or self._retain != 0):
            self._next_seq += len(changes)
            self._dropped += len(changes)
            return []
        records = [
            ChangeRecord(seq, csn, txn_id, c.table, c.op, c.row_id, c.values, c.old_values)
            for seq, c in enumerate(changes, self._next_seq)
        ]
        self._next_seq += len(records)
        self._history += records
        if self._retain is not None and len(self._history) > self._retain:
            overflow = len(self._history) - self._retain
            del self._history[:overflow]
            self._dropped += overflow
        subscribers = list(self._subscribers)
        if subscribers:
            for record in records:
                for subscriber in subscribers:
                    subscriber(record)
        return records

    def since(self, seq: int = 0) -> Iterator[ChangeRecord]:
        """Records with sequence number > ``seq`` still retained.

        Retention may have evicted records after ``seq``; a catch-up
        consumer that must not miss changes should first check
        ``stream.first_seq <= seq + 1`` (or ``dropped``) and fall back to
        a full resync when the gap is real.
        """
        for record in self._history:
            if record.seq > seq:
                yield record

    @property
    def first_seq(self) -> int:
        """Sequence number of the oldest retained record.

        When the history is empty this is the *next* sequence number, so
        the truncation check ``first_seq > seq + 1`` stays correct for
        both a fresh stream and one whose whole history was evicted.
        """
        return self._history[0].seq if self._history else self._next_seq

    def history(self) -> list[ChangeRecord]:
        return list(self._history)

    @property
    def dropped(self) -> int:
        """Records evicted from history by the retention limit."""
        return self._dropped

    def __len__(self) -> int:
        return len(self._history)
