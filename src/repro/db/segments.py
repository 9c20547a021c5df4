"""Append-only, columnar segment storage for tables written in runs.

A :class:`SegmentStore` keeps a table as *runs*: each run holds the rows
one commit inserted under consecutive row ids, tagged with that commit's
CSN, as one column per schema column. There is no
:class:`~repro.db.storage.RowVersion`, no version chain, no per-row map
and no row tuple: a row is one slot of each of its run's columns. A batch
whose ids have gaps splits into several runs, and runs are kept sorted by
their first row id, so :meth:`SegmentStore.get` is one bisect over the
run starts plus one subscript per column.

A run's contents pick each column's layout; there is no setting:

* the leading columns of a batch given as *stretches* (TROD's event
  tables: ``TxnId, TxnNum, Type, Query, Csn`` are constant over each
  staged read set or run of a commit's changes) stay one tuple per
  stretch beside the stretch ends, while there are at most a quarter as
  many stretches as rows; otherwise they become ordinary columns;
* an integer column with no NULL is an ``array('q')``; a NULL or a value
  past 64 bits leaves it a list;
* any other column is a list, or the tuple the batch brought: a slot is
  a pointer to a value the trace shares with whoever made it.

Code outside this module never sees a column: :meth:`SegmentStore.get`,
:meth:`~SegmentStore.get_many`, :meth:`~SegmentStore.scan`, the published
latest-state lists and the rows of a :class:`ColumnBatch` are row tuples,
built when asked for.

The store keeps no history. A read at CSN ``c`` sees the rows whose run
committed at or before ``c``, *with their current values*: an UPDATE or
DELETE overwrites the row's slot in place, so ``AS OF`` and a SNAPSHOT
reader see neither the old values nor a row deleted since.
:meth:`SegmentStore.moved_after` is therefore always empty and
:meth:`SegmentStore.vacuum` has nothing to remove. That is the right
trade for tables that are appended to once per batch and changed only to
erase a value: TROD's provenance tables, where a redaction must leave no
older copy of the row in the store. So the first write to a run turns its
stretches into plain lists before it overwrites the slot: no stretch
keeps a value after the write that removed it.

Pinning follows :class:`~repro.db.storage.TableStore`'s rule. Latest-state
lists are published and never changed afterwards (a write drops them and
the next reader builds fresh ones). A snapshot scan holds the column
objects of the runs it was started over and decodes them as it goes; a
run whose columns were handed out is copied before its next write, so the
scan keeps serving what it pinned. A run built from a commit's
``"append"`` change takes that change's :class:`ColumnBatch` columns over
unshared: nothing keeps a commit's changes once its observers have seen
them, so an erased value leaves no older copy behind in a logged change
either.

The backend lives in memory only: it has no page format and no recovery.
"""

from __future__ import annotations

import bisect
import copy
from array import array
from itertools import accumulate, chain, compress, repeat
from operator import add, getitem, itemgetter, not_, sub
from typing import Iterable, Iterator, Sequence

from repro.db.schema import TableSchema
from repro.db.types import STORAGE_TYPES
from repro.errors import DatabaseError

_ROW_ID = itemgetter(0)


#: Rows :func:`transpose` zips at a time.
_CHUNK = 512


def transpose(rows: Sequence[tuple], width: int) -> list[tuple]:
    """``rows``, each ``width`` values long, as ``width`` column tuples.

    ``zip(*rows)`` over a whole flush holds an iterator per row at once,
    and tens of thousands of them set the cyclic collector off dozens of
    times (a full collection mid-flush costs 60 ms on a checkout heap).
    Zipped ``_CHUNK`` rows at a time they never reach its first threshold
    of 700 objects, and it is still faster than one pass per column.
    """
    columns: list[list] = [[] for _ in range(width)]
    for at in range(0, len(rows), _CHUNK):
        for column, values in zip(columns, zip(*rows[at:at + _CHUNK])):
            column += values
    return list(map(tuple, columns))


def _expand(values: Sequence, counts: Sequence[int]) -> list:
    """``values[i]`` repeated ``counts[i]`` times, in order."""
    return list(chain.from_iterable(map(repeat, values, counts)))


class ColumnBatch:
    """Rows to append, held as columns: a read-only sequence of row tuples.

    ``columns`` hold the table's last ``len(columns)`` columns, one
    sequence each. The leading ones may come as *stretches* instead:
    ``heads[i]`` is the tuple of those columns' values in the next
    ``counts[i]`` rows. Iterating a batch yields its row tuples, so a
    table on any storage takes it where it takes rows; a segment table
    takes the columns themselves (:meth:`SegmentStore.apply_append`).
    """

    __slots__ = ("columns", "heads", "counts", "_length")

    def __init__(
        self,
        columns: list[Sequence],
        heads: Sequence[tuple] = (),
        counts: Sequence[int] = (),
        length: int | None = None,
    ):
        self.columns = columns
        self.heads = heads
        self.counts = counts
        if length is None:
            length = sum(counts) if heads else len(columns[0]) if columns else 0
        self._length = length

    @classmethod
    def from_rows(cls, rows: Sequence[tuple], width: int) -> "ColumnBatch":
        """``rows``, each ``width`` values long, transposed once."""
        return cls(transpose(rows, width), length=len(rows))

    @classmethod
    def concat(cls, batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """One batch of ``batches``' rows in order (stretches expanded)."""
        if len(batches) == 1:
            return batches[0]
        width = batches[0].width
        return cls(
            [
                list(chain.from_iterable(batch.column(at) for batch in batches))
                for at in range(width)
            ],
            length=sum(map(len, batches)),
        )

    @property
    def width(self) -> int:
        return (len(self.heads[0]) if self.heads else 0) + len(self.columns)

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[tuple]:
        rows = zip(*self.columns)
        if self.heads:
            return map(add, _expand(self.heads, self.counts), rows)
        return rows

    def flatten(self) -> None:
        """Turn the stretches into ordinary columns, in place (the rows
        stay the same)."""
        if self.heads:
            heads = self.heads
            if self.counts.count(1) != len(self.counts):
                heads = _expand(heads, self.counts)
            self.columns = [*transpose(heads, len(heads[0])), *self.columns]
            self.heads = self.counts = ()

    def stretches(self, position: int) -> tuple[list, Sequence[int]] | None:
        """Column ``position`` as ``(values, counts)`` if it comes as
        stretches, else None."""
        if self.heads and position < len(self.heads[0]):
            return list(map(itemgetter(position), self.heads)), self.counts
        return None

    def column(self, position: int) -> Sequence:
        """Every row's value of column ``position``, in order."""
        stretched = self.stretches(position)
        if stretched is not None:
            return _expand(*stretched)
        return self.columns[position - (len(self.heads[0]) if self.heads else 0)]


class _Run:
    """Rows under consecutive ids from ``first``, committed at ``csn``,
    held as columns (see the module doc for their layouts)."""

    __slots__ = (
        "first", "csn", "count", "deleted", "changed", "shared", "heads", "ends",
        "columns",
    )

    def __init__(
        self, first: int, csn: int, batch: ColumnBatch, kinds: Sequence[type]
    ):
        self.first = first
        self.csn = csn
        self.count = count = len(batch)
        #: Offsets of deleted rows (their slots are cleared).
        self.deleted: set[int] = set()
        #: CSN of the latest write to any row here (the insert, at first).
        self.changed = csn
        #: A snapshot scan holds this run's columns: copy before writing.
        self.shared = False
        if len(batch.heads) * 4 > count:
            batch.flatten()  # so the indexes read the columns made here
        heads = batch.heads
        columns = list(batch.columns)
        #: One tuple of the leading columns per stretch, and each
        #: stretch's end offset; None when every column is a column.
        self.heads = list(heads) if heads else None
        self.ends = array("q", accumulate(batch.counts)) if heads else None
        kinds = kinds[len(kinds) - len(columns):]
        for at, column in enumerate(columns):
            if kinds[at] is int and type(column) is not array:
                try:
                    columns[at] = array("q", column)
                except (TypeError, OverflowError):
                    pass  # a NULL or a value past 64 bits
        #: The columns after the stretched ones, in schema order.
        self.columns = columns

    @property
    def end(self) -> int:
        return self.first + self.count

    # -- reads -------------------------------------------------------------

    def row(self, offset: int) -> tuple:
        """The values in slot ``offset``: one subscript per column."""
        values = tuple(map(getitem, self.columns, repeat(offset)))
        if self.heads is None:
            return values
        return self.heads[bisect.bisect_right(self.ends, offset)] + values

    def pairs_at(self, row_ids: list[int]) -> Iterator[tuple[int, tuple]]:
        """``(row_id, values)`` of the live rows among ``row_ids``, which
        all lie in this run's span: one C-level pass per column, a slice
        when the ids are consecutive."""
        offsets = list(map(sub, row_ids, repeat(self.first)))
        if self.deleted:
            live = list(map(not_, map(self.deleted.__contains__, offsets)))
            row_ids = list(compress(row_ids, live))
            offsets = list(compress(offsets, live))
        if len(offsets) < 2:  # an itemgetter of one item returns it bare
            return zip(row_ids, map(self.row, offsets))
        low, high = offsets[0], offsets[-1] + 1
        if high - low == len(offsets) and offsets == list(range(low, high)):
            rows = zip(*[column[low:high] for column in self.columns])
        else:
            rows = zip(*map(itemgetter(*offsets), self.columns))
        if self.heads is not None:
            stretch = map(bisect.bisect_right, repeat(self.ends), offsets)
            rows = map(add, map(self.heads.__getitem__, stretch), rows)
        return zip(row_ids, rows)

    def batch(self) -> ColumnBatch:
        """Every slot, live or not, as a batch over this run's columns."""
        if self.heads is None:
            return ColumnBatch(list(self.columns), length=self.count)
        counts = list(map(sub, self.ends, chain((0,), self.ends)))
        return ColumnBatch(list(self.columns), self.heads, counts, self.count)

    def rows(self) -> Iterator[tuple]:
        """Every slot's row, live or not, in offset order."""
        return iter(self.batch())

    def live(self) -> Iterator[bool] | None:
        """Per slot, whether it is live; None when all are."""
        if not self.deleted:
            return None
        return map(not_, map(self.deleted.__contains__, range(self.count)))

    def values(self) -> Iterator[tuple]:
        live = self.live()
        return self.rows() if live is None else compress(self.rows(), live)

    def pairs(self) -> Iterator[tuple[int, tuple]]:
        pairs = zip(range(self.first, self.end), self.rows())
        live = self.live()
        return pairs if live is None else compress(pairs, live)

    # -- writes ------------------------------------------------------------

    def make_writable(self) -> None:
        """Copy what a snapshot scan holds, and turn stretches into plain
        lists, before a slot is overwritten."""
        if self.shared:
            self.columns = [c if type(c) is tuple else c[:] for c in self.columns]
            self.deleted = set(self.deleted)
            self.shared = False
        if self.heads is not None:
            batch = self.batch()
            batch.flatten()
            self.columns = batch.columns
            self.heads = self.ends = None

    def write(self, offset: int, values: tuple) -> None:
        """Overwrite slot ``offset`` (after :meth:`make_writable`); a
        column that cannot hold a value becomes a list."""
        columns = self.columns
        for at, value in enumerate(values):
            column = columns[at]
            try:
                column[offset] = value
            except (TypeError, OverflowError):
                columns[at] = column = list(column)
                column[offset] = value


class SegmentStore:
    """Run-organised, columnar, history-free storage for one table (see
    module doc).

    Offers the :class:`~repro.db.storage.TableStore` surface the engine
    calls, so SQL, indexes and transactions run over it unchanged.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        #: Each column's storage type: what picks its layout in a run.
        self._kinds = tuple(STORAGE_TYPES[col.col_type] for col in schema.columns)
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

    def apply_append(
        self, first: int, rows: ColumnBatch | Sequence[tuple], csn: int
    ) -> None:
        """Install ``rows`` under ids ``first, first + 1, ...`` as one run
        visible from ``csn``. The run takes a :class:`ColumnBatch`'s
        columns over as its own (the committing transaction was their only
        other holder); row tuples are transposed once."""
        if rows:
            if type(rows) is not ColumnBatch:
                rows = ColumnBatch.from_rows(rows, len(self._kinds))
            self._check_free(first, len(rows))
            self._install(first, rows, csn)

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
            self._install(first, ColumnBatch.from_rows(values, len(self._kinds)), csn)

    def apply_update(self, row_id: int, values: tuple, csn: int) -> tuple:
        """Overwrite ``row_id`` in place; returns the old values."""
        run, offset = self._live_slot(row_id)
        old_values = run.row(offset)
        run.make_writable()
        run.write(offset, values)
        self._wrote(run, csn)
        return old_values

    def apply_delete(self, row_id: int, csn: int) -> tuple:
        """Empty ``row_id``'s slot; returns the deleted values."""
        run, offset = self._live_slot(row_id)
        old_values = run.row(offset)
        run.make_writable()
        run.write(offset, tuple(0 if type(c) is array else None for c in run.columns))
        run.deleted.add(offset)
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

    def _install(self, first: int, batch: ColumnBatch, csn: int) -> None:
        """Add a checked run."""
        at = bisect.bisect_right(self._starts, first)
        self._starts.insert(at, first)
        self._runs.insert(at, _Run(first, csn, batch, self._kinds))
        count = len(batch)
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
            if offset < run.count:
                return run, offset
        return None, 0

    def _live_slot(self, row_id: int) -> tuple[_Run, int]:
        run, offset = self._locate(row_id)
        if run is None or offset in run.deleted:
            raise DatabaseError(f"{self.schema.name}: row {row_id} is not live")
        return run, offset

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
        if run is None or (csn is not None and run.csn > csn) or offset in run.deleted:
            return None
        return run.row(offset)

    def get_many(
        self, row_ids: Iterable[int], csn: int | None = None
    ) -> list[tuple[int, tuple]]:
        """``(row_id, values)`` of those of ``row_ids`` that :meth:`get`
        would return, in the order given.

        One walk over the ids bisects the run starts again only when an id
        leaves the run the last one was in; each stretch of ids in one run
        is then read a column at a time (:meth:`_Run.pairs_at`)."""
        starts, runs = self._starts, self._runs
        found: list[tuple[int, tuple]] = []
        first = end = 0  # the id span of the current run: none yet
        run: _Run | None = None
        group: list[int] = []
        for row_id in row_ids:
            if not first <= row_id < end:
                if group:
                    found += run.pairs_at(group)
                    group = []
                at = bisect.bisect_right(starts, row_id) - 1
                if at < 0:
                    continue
                run = runs[at]
                first, end = run.first, run.end
                # A run committed after ``csn`` serves none of its ids.
                if csn is not None and run.csn > csn:
                    end = first
                if not first <= row_id < end:
                    continue
            group.append(row_id)
        if group:
            found += run.pairs_at(group)
        return found

    def scan(self, csn: int | None = None) -> Iterator[tuple[int, tuple]]:
        """An iterator of ``(row_id, values)`` in row-id order over the
        runs committed by ``csn`` (every run if None), pinned now."""
        if csn is None or csn >= self.last_write_csn:
            return iter(self.latest_rows())
        pinned = []
        for run in self._runs:
            if run.csn <= csn:
                run.shared = True
                pinned.append(copy.copy(run))
        return chain.from_iterable(map(_Run.pairs, pinned))

    def latest_rows(self) -> list[tuple[int, tuple]]:
        """The shared latest-state ``(row_id, values)`` list (do not mutate)."""
        rows = self._scan_rows
        if rows is None:
            rows = self._scan_rows = list(
                chain.from_iterable(map(_Run.pairs, self._runs))
            )
        return rows

    def latest_values(self) -> list[tuple]:
        """The shared latest-state values list (do not mutate)."""
        values = self._scan_values
        if values is None:
            values = self._scan_values = list(
                chain.from_iterable(map(_Run.values, self._runs))
            )
        return values

    def moved_after(
        self,
        csn: int,
        positions: tuple[int, ...],
        keys: Iterable[tuple] | None = None,
    ) -> Sequence[int]:
        """Always empty: no row keeps an older key to be found under."""
        return ()

    def row_count(self, csn: int | None = None) -> int:
        if csn is None:
            return self._live
        return sum(
            run.count - len(run.deleted) for run in self._runs if run.csn <= csn
        )

    def last_change_csn(self, row_id: int) -> int | None:
        """The latest write to ``row_id``'s run (None if no run holds it).

        Conservative for SNAPSHOT's first-committer-wins check: a write to
        any row of the run after a writer's snapshot counts as a conflict.
        """
        run, _offset = self._locate(row_id)
        return None if run is None else run.changed

    def version_count(self) -> int:
        """Stored rows: one per live row."""
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
