"""Append-only segment storage for tables written in runs.

A :class:`SegmentStore` keeps a table as *runs*: each run is the list of
row tuples one commit inserted under consecutive row ids, tagged with that
commit's CSN. There is no :class:`~repro.db.storage.RowVersion`, no version
chain and no per-row map — a row is one slot of one run's list. A batch
whose ids have gaps splits into several runs, and runs are kept sorted by
their first row id, so :meth:`SegmentStore.get` is one bisect over the run
starts plus an index.

The store keeps no history. A read at CSN ``c`` sees the rows whose run
committed at or before ``c``, *with their current values*: an UPDATE or
DELETE overwrites the row's slot in place, so ``AS OF`` and a SNAPSHOT
reader see neither the old values nor a row deleted since.
:meth:`SegmentStore.moved_after` is therefore always empty and
:meth:`SegmentStore.vacuum` has nothing to remove. That is the right
trade for tables that are appended to once per batch and changed only to
erase a value: TROD's provenance tables, where a redaction must leave
no older copy of the row in the store.

Pinning follows :class:`~repro.db.storage.TableStore`'s rule. Latest-state
lists are published and never changed afterwards (a write drops them and
the next reader builds fresh ones). A snapshot scan holds the run lists it
was started over; a run whose list was handed out is copied before its
next write, so the scan keeps serving what it pinned. A run built from a
commit's ``"append"`` change takes that change's list over unshared:
nothing keeps a commit's changes once its observers have seen them, so
an erased value leaves no older copy behind in a logged change either.

The backend lives in memory only: it has no page format and no recovery.
"""

from __future__ import annotations

import bisect
import itertools
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from repro.db.schema import TableSchema
from repro.errors import DatabaseError

_ROW_ID = itemgetter(0)


class _Run:
    """Row tuples under consecutive ids from ``first``, committed at ``csn``."""

    __slots__ = ("first", "csn", "rows", "dead", "changed", "shared")

    def __init__(self, first: int, csn: int, rows: list[tuple]):
        self.first = first
        self.csn = csn
        #: One slot per row id; None once the row is deleted.
        self.rows = rows
        #: Slots that hold None.
        self.dead = 0
        #: CSN of the latest write to any row here (the insert, at first).
        self.changed = csn
        #: A snapshot scan holds ``rows``: copy it before writing to it.
        self.shared = False

    @property
    def end(self) -> int:
        return self.first + len(self.rows)


def _scan_parts(parts: list[tuple[int, Sequence]]) -> Iterator[tuple[int, tuple]]:
    for first, rows in parts:
        for row_id, values in zip(itertools.count(first), rows):
            if values is not None:
                yield row_id, values


class SegmentStore:
    """Run-organised, history-free storage for one table (see module doc).

    Offers the :class:`~repro.db.storage.TableStore` surface the engine
    calls, so SQL, indexes and transactions run over it unchanged.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        #: First row id of each run, ascending; parallel to ``_runs``.
        self._starts: list[int] = []
        self._runs: list[_Run] = []
        self._next_row_id = 1
        self._live = 0
        #: Published latest-state lists (None until a reader asks, and
        #: again after any write). Never mutated once published.
        self._scan_rows: list[tuple[int, tuple]] | None = None
        self._scan_values: list[tuple] | None = None
        self.write_epoch = 0
        self.last_write_csn = 0

    # -- write path (called by the transaction manager at commit) --------

    def reserve_row_ids(self, count: int) -> range:
        """``count`` fresh, contiguous row ids."""
        first = self._next_row_id
        self._next_row_id = first + count
        return range(first, first + count)

    def apply_append(self, first: int, rows: Sequence[tuple], csn: int) -> None:
        """Install ``rows`` under ids ``first, first + 1, ...`` as one run
        visible from ``csn``. The run takes a list ``rows`` over as its
        own: the committing transaction was its only other holder."""
        if rows:
            self._check_free(first, len(rows))
            self._install(first, rows if type(rows) is list else list(rows), csn)

    def apply_inserts(self, rows: Sequence[tuple[int, tuple]], csn: int) -> None:
        """Install ``(row_id, values)`` pairs, in any id order, as the runs
        of consecutive ids they form.

        Every id is checked before any row is installed: one that lies in
        a stored run (live or deleted — ids are never reused), or is given
        twice, raises with the store untouched.
        """
        pieces: list[tuple[int, list[tuple]]] = []
        for row_id, values in sorted(rows, key=_ROW_ID):
            if pieces and row_id < pieces[-1][0] + len(pieces[-1][1]):
                raise DatabaseError(f"{self.schema.name}: row {row_id} given twice")
            if pieces and row_id == pieces[-1][0] + len(pieces[-1][1]):
                pieces[-1][1].append(values)
            else:
                pieces.append((row_id, [values]))
        for first, values in pieces:
            self._check_free(first, len(values))
        for first, values in pieces:
            self._install(first, values, csn)

    def apply_update(self, row_id: int, values: tuple, csn: int) -> tuple:
        """Overwrite ``row_id`` in place; returns the old values."""
        run, offset = self._live_slot(row_id)
        old_values = run.rows[offset]
        self._writable(run)[offset] = values
        self._wrote(run, csn)
        return old_values

    def apply_delete(self, row_id: int, csn: int) -> tuple:
        """Empty ``row_id``'s slot; returns the deleted values."""
        run, offset = self._live_slot(row_id)
        old_values = run.rows[offset]
        self._writable(run)[offset] = None
        run.dead += 1
        self._live -= 1
        self._wrote(run, csn)
        return old_values

    def _check_free(self, first: int, count: int) -> None:
        at = bisect.bisect_right(self._starts, first)
        if (at and self._runs[at - 1].end > first) or (
            at < len(self._starts) and self._starts[at] < first + count
        ):
            raise DatabaseError(
                f"{self.schema.name}: row ids {first}..{first + count - 1} "
                "overlap stored rows"
            )

    def _install(self, first: int, rows: list[tuple], csn: int) -> None:
        """Add a checked run; one that continues the run before it in the
        same commit extends that run instead."""
        at = bisect.bisect_right(self._starts, first)
        before = self._runs[at - 1] if at else None
        if before is not None and before.csn == csn and before.end == first:
            if before.shared:
                before.rows = [*before.rows, *rows]
                before.shared = False
            else:
                before.rows.extend(rows)
        else:
            self._starts.insert(at, first)
            self._runs.insert(at, _Run(first, csn, rows))
        count = len(rows)
        self._next_row_id = max(self._next_row_id, first + count)
        self._live += count
        self._drop_scan_lists()
        self.last_write_csn = max(self.last_write_csn, csn)
        self.write_epoch += count

    def _locate(self, row_id: int) -> tuple[_Run | None, int]:
        """The run whose id span holds ``row_id`` and the row's offset."""
        at = bisect.bisect_right(self._starts, row_id) - 1
        if at >= 0:
            run = self._runs[at]
            offset = row_id - run.first
            if offset < len(run.rows):
                return run, offset
        return None, 0

    def _live_slot(self, row_id: int) -> tuple[_Run, int]:
        run, offset = self._locate(row_id)
        if run is None or run.rows[offset] is None:
            raise DatabaseError(f"{self.schema.name}: row {row_id} is not live")
        return run, offset

    @staticmethod
    def _writable(run: _Run) -> list:
        if run.shared:
            run.rows = list(run.rows)
            run.shared = False
        return run.rows

    def _wrote(self, run: _Run, csn: int) -> None:
        run.changed = csn
        self._drop_scan_lists()
        self.last_write_csn = max(self.last_write_csn, csn)
        self.write_epoch += 1

    def _drop_scan_lists(self) -> None:
        self._scan_rows = None
        self._scan_values = None

    # -- read path --------------------------------------------------------

    def get(self, row_id: int, csn: int | None = None) -> tuple | None:
        """The values of ``row_id`` if its run committed by ``csn`` (any
        run if None) and it was not deleted since: one bisect."""
        run, offset = self._locate(row_id)
        if run is None or (csn is not None and run.csn > csn):
            return None
        return run.rows[offset]

    def get_many(
        self, row_ids: Iterable[int], csn: int | None = None
    ) -> list[tuple[int, tuple]]:
        """``(row_id, values)`` of those of ``row_ids`` that :meth:`get`
        would return, in the order given: one walk that bisects the run
        starts again only when an id leaves the run the last one was in."""
        starts, runs = self._starts, self._runs
        found = []
        first = end = 0  # the id span of the current run: none yet
        rows: list = []
        for row_id in row_ids:
            if not first <= row_id < end:
                at = bisect.bisect_right(starts, row_id) - 1
                if at < 0:
                    continue
                run = runs[at]
                first, end = run.first, run.end
                # A run committed after ``csn`` serves none of its ids.
                rows = run.rows if csn is None or run.csn <= csn else []
                if row_id >= end:
                    continue
            if row_id - first < len(rows):
                values = rows[row_id - first]
                if values is not None:
                    found.append((row_id, values))
        return found

    def scan(self, csn: int | None = None) -> Iterator[tuple[int, tuple]]:
        """An iterator of ``(row_id, values)`` in row-id order over the
        runs committed by ``csn`` (every run if None), pinned now."""
        if csn is None or csn >= self.last_write_csn:
            return iter(self.latest_rows())
        parts = []
        for run in self._runs:
            if run.csn <= csn:
                run.shared = True
                parts.append((run.first, run.rows))
        return _scan_parts(parts)

    def latest_rows(self) -> list[tuple[int, tuple]]:
        """The shared latest-state ``(row_id, values)`` list (do not mutate)."""
        rows = self._scan_rows
        if rows is None:
            parts = [(run.first, run.rows) for run in self._runs]
            rows = self._scan_rows = list(_scan_parts(parts))
        return rows

    def latest_values(self) -> list[tuple]:
        """The shared latest-state values list (do not mutate)."""
        values = self._scan_values
        if values is None:
            values = self._scan_values = []
            for run in self._runs:
                if run.dead:
                    values += [row for row in run.rows if row is not None]
                else:
                    values += run.rows
        return values

    def moved_after(self, csn: int, positions: tuple[int, ...]) -> Sequence[int]:
        """Always empty: no row keeps an older key to be found under."""
        return ()

    def row_count(self, csn: int | None = None) -> int:
        if csn is None:
            return self._live
        return sum(len(run.rows) - run.dead for run in self._runs if run.csn <= csn)

    def last_change_csn(self, row_id: int) -> int | None:
        """The latest write to ``row_id``'s run (None if no run holds it).

        Conservative for SNAPSHOT's first-committer-wins check: a write to
        any row of the run after a writer's snapshot counts as a conflict.
        """
        run, _offset = self._locate(row_id)
        return None if run is None else run.changed

    def version_count(self) -> int:
        """Stored row tuples: one per live row."""
        return self._live

    def live_row_ids(self) -> list[int]:
        return [row_id for row_id, _values in self.latest_rows()]

    # -- maintenance -------------------------------------------------------

    def vacuum(self, keep_after_csn: int) -> int:
        """Nothing to remove: no old version is ever kept."""
        return 0

    def stats(self) -> dict[str, int]:
        return {
            "live_rows": self._live,
            "versions": self._live,
            "next_row_id": self._next_row_id,
            "runs": len(self._runs),
        }
