"""Multi-version row storage.

Every committed write creates a :class:`RowVersion` stamped with the commit
sequence number (CSN) at which it became visible (``begin``) and, once
superseded or deleted, the CSN at which it stopped being visible (``end``).
Keeping every version is what gives the engine time travel: ``SELECT ...
AS OF <csn>`` reads "the database as of CSN *c*" directly from this store.

The store itself is oblivious to transactions: the transaction manager
buffers writes privately and calls the ``apply_*`` methods only at commit,
in commit order, so versions here are always committed data.

Read-path layout: latest-state reads (``csn=None``) are served from an
incrementally maintained live-row map plus a sorted-id cache, so scans and
point reads never walk version chains; snapshot reads (``csn`` given) keep
the version-chain path but locate the candidate version by bisecting on
``begin`` CSNs, which commit order keeps ascending within each chain.

Scans are *pinned at call time*: :meth:`TableStore.scan` resolves its row
source when called and returns an iterator that keeps serving that exact
state however long the caller takes to drain it. Latest-state scans pin
the shared materialized row list, so any number of concurrent readers
iterate the same list with zero per-reader copies; the iterator's
reference keeps the snapshot alive however many writes follow. This is
what lets streamed cursors and batch-yielding cooperative scans stay
snapshot-consistent while writers commit underneath them.

The list is *patched copy-on-read*, never mutated and not rebuilt per
write: a write notes ``row_id -> values | deleted`` beside the published
list (O(1), the values are in hand, so the paged store reads no page),
and the next :meth:`TableStore.latest_rows` publishes a fresh copy with
the notes applied — a memcpy and one bisect per written row. Only when
the notes outgrow a fixed fraction of the list does the write drop list
and notes, and the next reader rebuild from the live rows; that bounds
the notes' memory and keeps bulk loads off the patch path.

Snapshot reads through an index probe need one more thing: the latest-state
index misses a row whose old version matched, so a probe at ``csn`` also
looks at :meth:`TableStore.moved_after` — the rows that left their key
over the index's columns after ``csn`` (deleted, or updated to another
key), from a :class:`MoveLog` of ``(csn, row_id)`` entries kept in commit
order, each also filed under the key the row left. A range probe takes
every entry after ``csn``; an equality probe takes only its own keys'
entries, so the rows other keys lost cost it nothing. Inserts and
updates that keep the key are not in it: the index already files those
rows where their version at ``csn`` was. A log is built from the version
chains the first time a read below the last write asks for it, and only
then kept up by the write path, so a table never read historically pays
nothing for it.

A store can also start from a *base* (:meth:`TableStore.adopt`, the
in-memory store only): a ``row_id -> values`` mapping handed over whole,
visible from CSN 0 and shared by reference. The store never writes into
it, and a base row costs no version object: it gets a version chain, its
base version first, only when it is first written. A restore loads a
kept provenance state this way, so a dev database shares that state and
copies a row only when the debugged code writes it. A kept state is a
:class:`KeptRows`, which also carries what its first adoption published,
so every later restore of it shares those lists as well.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from array import array
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

from repro.db.schema import TableSchema
from repro.errors import DatabaseError

#: CSN value meaning "still visible".
INFINITY = None

_BEGIN = attrgetter("begin")
_STAMP_AND_ID = operator.itemgetter(0, 1)

#: A published row list is dropped (and later rebuilt whole) once more
#: than one in this many of its rows have a write noted against them.
_PATCH_LIMIT_DIVISOR = 8


@dataclass(slots=True)
class RowVersion:
    """One committed version of one row."""

    row_id: int
    begin: int
    end: int | None
    values: tuple

    def visible_at(self, csn: int) -> bool:
        """Whether this version is the live one in the snapshot at ``csn``."""
        if self.begin > csn:
            return False
        return self.end is None or self.end > csn


class KeptRows(dict):
    """A ``row_id -> values`` state nothing writes once it is built.

    :meth:`TableStore.adopt` fills ``published`` at its first adoption —
    the sorted ids, the ``(row_id, values)`` list and the values alone —
    and every later adoption shares them, copying only the id lists a
    store mutates.
    """

    __slots__ = ("published",)


class MoveLog:
    """The rows that left their key over one tuple of column positions:
    the CSN and row id of every delete, and of every update that changed
    one of those columns, in commit order as two parallel arrays, each
    entry also filed under the key the row left."""

    __slots__ = ("csns", "ids", "_by_key")

    def __init__(self) -> None:
        self.csns = array("q")
        self.ids = array("q")
        #: Key left -> positions of its entries in ``csns`` / ``ids``.
        self._by_key: dict[tuple, list[int]] = {}

    def add(self, csn: int, row_id: int, key: tuple) -> None:
        """Log that ``row_id`` left ``key`` at ``csn`` (commit order)."""
        self._by_key.setdefault(key, []).append(len(self.ids))
        self.csns.append(csn)
        self.ids.append(row_id)

    def after(self, csn: int, keys: Iterable[tuple] | None = None) -> Sequence[int]:
        """Ids logged after ``csn``: all of them, or only under ``keys``."""
        csns, ids = self.csns, self.ids
        if keys is None:
            return ids[bisect.bisect_right(csns, csn):]
        moved: list[int] = []
        for key in keys:
            at = self._by_key.get(key)
            if at is not None:
                start = bisect.bisect_right(at, csn, key=csns.__getitem__)
                moved.extend([ids[i] for i in at[start:]])
        return moved


class TableStore:
    """Versioned storage for one table.

    ``row_id`` is a surrogate identity that survives updates (an UPDATE
    creates a new version of the same row_id). It is also what provenance
    events use to name rows, so replayed databases preserve row identity by
    passing explicit row ids to :meth:`apply_insert`.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._versions: dict[int, list[RowVersion]] = {}
        self._next_row_id = 1
        #: row_id -> live RowVersion (the chain tail when its end is None).
        self._live: dict[int, RowVersion] = {}
        #: Sorted live row ids; appends are O(1) for the common case of
        #: monotonically increasing engine-assigned ids.
        self._live_ids: list[int] = []
        #: Sorted ids of every row with any version (live or dead) — the
        #: snapshot-scan iteration order, cached so scans stop re-sorting.
        self._all_ids: list[int] = []
        #: Materialized ``(row_id, values)`` list for latest-state scans,
        #: as last published (None until a reader asks, and again after
        #: the notes below outgrew it). Never mutated once published.
        self._scan_rows: list[tuple[int, tuple]] | None = None
        #: Values-only projection of ``_scan_rows``, index for index, for
        #: the batch executor, which needs no row ids. Same
        #: publish-then-never-mutate discipline.
        self._scan_values: list[tuple] | None = None
        #: Writes applied since ``_scan_rows`` was published: row id ->
        #: its values now, or None once deleted. Empty while no list is
        #: published; the next ``latest_rows`` folds it into a fresh copy.
        self._scan_notes: dict[int, tuple | None] = {}
        #: Bumped by every applied write (and by vacuum); a scan pinned at
        #: epoch e keeps serving epoch-e rows even after the counter
        #: moves on — tests and diagnostics use it to prove pinning.
        self.write_epoch = 0
        #: CSN of the most recent applied write to this table. A snapshot
        #: at csn >= this sees exactly the latest state, which lets the
        #: executor's batch scans serve SNAPSHOT reads straight off the
        #: materialized live-row list. Vacuum removes only versions dead
        #: before its horizon, never changing any state at or after it,
        #: so it does not move this.
        self.last_write_csn = 0
        #: The logs behind :meth:`moved_after`, one per tuple of column
        #: positions a historical read has asked about. Dropped by vacuum.
        self._move_logs: dict[tuple[int, ...], MoveLog] = {}
        #: Adopted rows visible from CSN 0 (:meth:`adopt`), never written
        #: here. A row id is an unwritten base row (in ``_base``, not in
        #: ``_versions``) or has a chain, never both.
        self._base: dict[int, tuple] = {}
        #: How many base rows have no chain yet.
        self._base_unwritten = 0

    # -- version lifecycle (storage-backend hooks) ------------------------
    #
    # The paged backend subclasses TableStore and overrides only these
    # two: where a version's bytes live (in-memory tuple vs. slotted
    # page record) is decided here, while every apply_*/read method and
    # all cache/epoch bookkeeping stays shared.

    def _new_version(self, row_id: int, begin: int, values: tuple) -> RowVersion:
        """Materialize a new live version (``end`` = infinity)."""
        return RowVersion(row_id=row_id, begin=begin, end=None, values=values)

    def _seal_version(self, version: RowVersion, end: int) -> None:
        """Stamp the CSN at which ``version`` stopped being visible."""
        version.end = end

    # -- cache maintenance -------------------------------------------------

    def _add_sorted(self, ids: list[int], row_id: int) -> None:
        if not ids or row_id > ids[-1]:
            ids.append(row_id)
        else:
            index = bisect.bisect_left(ids, row_id)
            if index >= len(ids) or ids[index] != row_id:
                ids.insert(index, row_id)

    def _remove_sorted(self, ids: list[int], row_id: int) -> None:
        index = bisect.bisect_left(ids, row_id)
        if index < len(ids) and ids[index] == row_id:
            ids.pop(index)

    # -- write path (called by the transaction manager at commit) --------

    def reserve_row_ids(self, count: int) -> range:
        """``count`` fresh, contiguous row ids."""
        first = self._next_row_id
        self._next_row_id = first + count
        return range(first, first + count)

    def apply_insert(self, values: tuple, csn: int, row_id: int | None = None) -> int:
        """Install a new row visible from ``csn``; returns its row id."""
        if row_id is None:
            row_id = self.reserve_row_ids(1)[0]
        self.apply_inserts(((row_id, values),), csn)
        return row_id

    def apply_inserts(self, rows: Sequence[tuple[int, tuple]], csn: int) -> None:
        """Install ``(row_id, values)`` pairs as new rows visible from ``csn``.

        Every id is checked before any row is installed: one that is live
        already, or given twice, raises with the store untouched.
        """
        if not rows:
            return
        row_ids = [row_id for row_id, _values in rows]
        # Engine-assigned ids always ascend; explicit ones (restore,
        # recovery) may come in any order.
        ascending = all(map(operator.lt, row_ids, itertools.islice(row_ids, 1, None)))
        live, versions, new_version = self._live, self._versions, self._new_version
        base = self._base
        distinct = ascending or len(set(row_ids)) == len(row_ids)
        if not (
            distinct
            and live.keys().isdisjoint(row_ids)
            and (not base or base.keys().isdisjoint(row_ids))
        ):
            taken = set(live)
            taken.update(r for r in row_ids if r in base and r not in versions)
            self._refuse_repeats(row_ids, taken)
        fresh: list[int] = []  # ids with no earlier (dead) version chain
        for row_id, values in rows:
            version = new_version(row_id, csn, values)
            chain = versions.get(row_id)
            if chain is None:
                versions[row_id] = [version]
                fresh.append(row_id)
            else:
                chain.append(version)
            live[row_id] = version
        for ids, new in ((self._all_ids, fresh), (self._live_ids, row_ids)):
            if ascending and new and (not ids or new[0] > ids[-1]):
                ids.extend(new)
            else:
                for row_id in new:
                    self._add_sorted(ids, row_id)
        self._next_row_id = max(self._next_row_id, max(row_ids) + 1)
        self._note_writes(rows)
        self.last_write_csn = csn
        self.write_epoch += len(row_ids)

    def _refuse_repeats(self, row_ids: Iterable[int], taken: set[int]) -> None:
        """Raise at the first of ``row_ids`` in ``taken`` or given twice."""
        for row_id in row_ids:
            if row_id in taken:
                raise DatabaseError(
                    f"{self.schema.name}: row {row_id} already live at insert"
                )
            taken.add(row_id)

    def is_empty(self) -> bool:
        """Whether no row, live or dead, was ever installed here."""
        return not (self._versions or self._base)

    def adopt(
        self, rows: Mapping[int, tuple] | Sequence[tuple[int, tuple]]
    ) -> list[tuple[int, tuple]]:
        """Install ``rows`` on this empty store as its base, visible from
        CSN 0; returns the published ``(row_id, values)`` list.

        A dict is kept by reference and never written; pairs are made
        into one, and a repeated id raises with the store untouched. No
        version is created: a base row gets its chain on its first write.
        A :class:`KeptRows` is published once, at its first adoption.
        """
        if not self.is_empty():
            raise DatabaseError(f"{self.schema.name}: only an empty store adopts rows")
        if not isinstance(rows, dict):
            pairs, rows = rows, dict(rows)
            if len(rows) != len(pairs):
                self._refuse_repeats((row_id for row_id, _values in pairs), set())
        if not rows:
            return []
        published = getattr(rows, "published", None)
        if published is None:
            ids = sorted(rows)
            values = list(map(rows.__getitem__, ids))
            published = ids, list(zip(ids, values)), values
            if isinstance(rows, KeptRows):
                rows.published = published
        ids, pairs, values = published
        self._base = rows
        self._base_unwritten = len(ids)
        self._all_ids = ids.copy()
        self._live_ids = ids.copy()
        self._scan_rows = pairs
        self._scan_values = values
        self._next_row_id = max(self._next_row_id, ids[-1] + 1)
        self.last_write_csn = 0
        self.write_epoch += len(ids)
        return pairs

    def _materialize(self, row_id: int) -> RowVersion:
        """Give unwritten base row ``row_id`` its chain: its base version."""
        version = RowVersion(row_id, 0, None, self._base[row_id])
        self._versions[row_id] = [version]
        self._live[row_id] = version
        self._base_unwritten -= 1
        return version

    def apply_update(self, row_id: int, values: tuple, csn: int) -> tuple:
        """Supersede the live version of ``row_id``; returns the old values."""
        current = self._live_version(row_id)
        old_values = current.values
        self._seal_version(current, csn)
        version = self._new_version(row_id, csn, values)
        self._versions[row_id].append(version)
        self._live[row_id] = version
        self._note_writes(((row_id, values),))
        for positions, log in self._move_logs.items():
            if any(old_values[i] != values[i] for i in positions):
                log.add(csn, row_id, tuple(old_values[i] for i in positions))
        self.last_write_csn = csn
        self.write_epoch += 1
        return old_values

    def apply_delete(self, row_id: int, csn: int) -> tuple:
        """End the live version of ``row_id``; returns the deleted values."""
        current = self._live_version(row_id)
        old_values = current.values
        self._seal_version(current, csn)
        del self._live[row_id]
        self._remove_sorted(self._live_ids, row_id)
        self._note_writes(((row_id, None),))
        for positions, log in self._move_logs.items():
            log.add(csn, row_id, tuple(old_values[i] for i in positions))
        self.last_write_csn = csn
        self.write_epoch += 1
        return old_values

    def _note_writes(self, rows: Sequence[tuple[int, tuple | None]]) -> None:
        """Note applied writes against the published row list, if any.

        ``rows`` pairs each written row id with its values now (None: the
        row was deleted). Past the limit the list and its notes go, and
        the next reader rebuilds — so the notes never outgrow a fraction
        of the list they patch.
        """
        published = self._scan_rows
        if published is None:
            return
        notes = self._scan_notes
        if (len(notes) + len(rows)) * _PATCH_LIMIT_DIVISOR > len(published):
            self._drop_scan_lists()
        else:
            notes.update(rows)

    def _drop_scan_lists(self) -> None:
        self._scan_rows = None
        self._scan_values = None
        self._scan_notes = {}

    def _live_version(self, row_id: int) -> RowVersion:
        version = self._live.get(row_id)
        if version is None:
            if row_id not in self._base or row_id in self._versions:
                raise DatabaseError(
                    f"{self.schema.name}: row {row_id} is not live"
                )
            version = self._materialize(row_id)
        return version

    # -- read path --------------------------------------------------------

    def get(self, row_id: int, csn: int | None = None) -> tuple | None:
        """The values of ``row_id`` visible at ``csn`` (latest if None)."""
        if csn is None:
            version = self._live.get(row_id)
            if version is not None:
                return version.values
            return None if row_id in self._versions else self._base.get(row_id)
        chain = self._versions.get(row_id)
        if not chain:
            return self._base.get(row_id) if csn >= 0 else None
        # Chains are appended in commit (CSN) order, so ``begin`` values
        # ascend; the candidate is the last version with begin <= csn.
        index = bisect.bisect_right(chain, csn, key=_BEGIN)
        if index == 0:
            return None
        version = chain[index - 1]
        if version.end is None or version.end > csn:
            return version.values
        return None

    def get_many(
        self, row_ids: Iterable[int], csn: int | None = None
    ) -> list[tuple[int, tuple]]:
        """``(row_id, values)`` of those of ``row_ids`` visible at
        ``csn``, in the order given: a loop of :meth:`get`."""
        get = self.get
        found = []
        for row_id in row_ids:
            values = get(row_id, csn)
            if values is not None:
                found.append((row_id, values))
        return found

    def scan(self, csn: int | None = None) -> Iterator[tuple[int, tuple]]:
        """An iterator of ``(row_id, values)`` for rows visible at ``csn``.

        Iteration order is row-id order, which is insertion order for
        engine-assigned ids — deterministic, which the scheduler and the
        replay fidelity checks rely on.

        The row source is resolved *now*, not at first ``next()``: the
        returned iterator is pinned to this call's state and stays
        consistent however the store changes while it is drained (commits
        landing mid-iteration, the caller's transaction finishing, a
        cooperative yield handing the baton to a writer). Latest-state
        scans share the materialized row list across every concurrent
        reader — zero per-reader copies.
        """
        if csn is None:
            return iter(self.latest_rows())
        # Snapshot scan: the id list is copied now; ``get`` bisects the
        # version chains, which later commits only ever append to (and
        # whose sealed versions they never reshape below ``csn``), so
        # lazy iteration remains snapshot-consistent under writers.
        return self._scan_versions(list(self._all_ids), csn)

    def latest_rows(self) -> list[tuple[int, tuple]]:
        """The shared materialized latest-state row list (do not mutate).

        A published list is never mutated — writes since it was published
        are folded into a fresh copy here — so holding a reference pins a
        consistent snapshot for as long as needed, at zero copy cost.
        """
        rows = self._scan_rows
        if rows is None:
            live, base = self._live, self._base
            if base:
                rows = [
                    (rid, live[rid].values if rid in live else base[rid])
                    for rid in self._live_ids
                ]
            else:
                rows = [(rid, live[rid].values) for rid in self._live_ids]
            self._scan_rows = rows
        elif self._scan_notes:
            rows = self._publish_patched()
        return rows

    def latest_values(self) -> list[tuple]:
        """The shared values-only latest-state row list (do not mutate).

        Same pinning discipline as :meth:`latest_rows`; the batch
        executor scans off this list directly so hot queries pay zero
        per-execution extraction cost.
        """
        rows = self.latest_rows()  # folds any noted writes into both lists
        values = self._scan_values
        if values is None:
            values = [v for _rid, v in rows]
            self._scan_values = values
        return values

    def _publish_patched(self) -> list[tuple[int, tuple]]:
        """Publish copies of the row lists with the noted writes applied.

        One bisect per written row id; ``(row_id,)`` sorts just before
        ``(row_id, values)``, so the comparison never reaches the values.
        Each note replaces the row's old entry, if it has one, by its new
        entry, if it has one — an update, insert, delete or no-op alike.
        """
        rows = list(self._scan_rows)
        values = None if self._scan_values is None else list(self._scan_values)
        for row_id, now in self._scan_notes.items():
            at = bisect.bisect_left(rows, (row_id,))
            end = at + (at < len(rows) and rows[at][0] == row_id)
            rows[at:end] = () if now is None else ((row_id, now),)
            if values is not None:
                values[at:end] = () if now is None else (now,)
        self._scan_rows = rows
        self._scan_values = values
        self._scan_notes = {}
        return rows

    def moved_after(
        self,
        csn: int,
        positions: tuple[int, ...],
        keys: Iterable[tuple] | None = None,
    ) -> Sequence[int]:
        """Ids of the rows that left their key over ``positions`` after
        ``csn`` — deleted, or updated to new values at one of those
        column positions — in commit order; with ``keys``, only the rows
        that left one of those keys (key by key).

        A row whose version at ``csn`` has some key there, but whose
        latest version is not filed under it, is among them: that is
        what lets an index probe over the latest state answer a read at
        ``csn``. Empty, and no log built, when ``csn`` covers the
        table's last write.
        """
        if csn >= self.last_write_csn:
            return ()
        log = self._move_logs.get(positions)
        if log is None:
            log = self._move_logs[positions] = self._build_move_log(positions)
        return log.after(csn, keys)

    def _build_move_log(self, positions: tuple[int, ...]) -> MoveLog:
        """The :meth:`moved_after` log over ``positions``, from the chains.

        Only rows that changed, with more than one version or deleted,
        have their values read (a page read each on the paged tier); a
        delete is an end stamp not followed by a version beginning there.
        """
        entries = []
        for row_id, chain in self._versions.items():
            if len(chain) == 1 and chain[0].end is None:
                continue
            keys = [tuple(version.values[i] for i in positions) for version in chain]
            for at, (older, newer) in enumerate(zip(chain, chain[1:])):
                if older.end != newer.begin or keys[at] != keys[at + 1]:
                    entries.append((older.end, row_id, keys[at]))
            if chain[-1].end is not None:
                entries.append((chain[-1].end, row_id, keys[-1]))
        entries.sort(key=_STAMP_AND_ID)
        log = MoveLog()
        for stamp, row_id, key in entries:
            log.add(stamp, row_id, key)
        return log

    def _scan_versions(
        self, row_ids: list[int], csn: int
    ) -> Iterator[tuple[int, tuple]]:
        get = self.get
        for row_id in row_ids:
            values = get(row_id, csn)
            if values is not None:
                yield row_id, values

    def row_count(self, csn: int | None = None) -> int:
        if csn is None:
            return len(self._live) + self._base_unwritten
        return sum(1 for _ in self.scan(csn))

    def last_change_csn(self, row_id: int) -> int | None:
        """CSN of the most recent change to ``row_id`` (None if unknown).

        Used by snapshot isolation's first-committer-wins check: a writer
        conflicts if someone changed the row after its snapshot.
        """
        chain = self._versions.get(row_id)
        if not chain:
            return 0 if row_id in self._base else None
        last = chain[-1]
        return last.begin if last.end is None else last.end

    def version_count(self) -> int:
        """Total stored versions (used by GC tests and stats); an
        unwritten base row counts as its one version."""
        return (
            sum(len(chain) for chain in self._versions.values())
            + self._base_unwritten
        )

    def live_row_ids(self) -> list[int]:
        return list(self._live_ids)

    # -- maintenance -------------------------------------------------------

    def vacuum(self, keep_after_csn: int) -> int:
        """Drop versions not visible at or after ``keep_after_csn``.

        Returns the number of versions removed. Time travel to points
        earlier than ``keep_after_csn`` becomes impossible afterwards;
        the database tracks the resulting horizon.
        """
        # Every base row gets its chain first: one whose chain is then
        # vacuumed away must not reappear from the base.
        for row_id in self._base:
            if row_id not in self._versions:
                self._materialize(row_id)
        self._base = {}
        removed = 0
        for row_id in list(self._versions):
            chain = self._versions[row_id]
            kept = [
                v
                for v in chain
                if v.end is None or v.end > keep_after_csn
            ]
            removed += len(chain) - len(kept)
            if kept:
                self._versions[row_id] = kept
            else:
                del self._versions[row_id]
        self._rebuild_caches()
        return removed

    def _rebuild_caches(self) -> None:
        """Recompute the live/sorted caches from the version chains."""
        self._all_ids = sorted(self._versions)
        self._live = {
            row_id: chain[-1]
            for row_id, chain in self._versions.items()
            if chain[-1].end is None
        }
        self._live_ids = sorted(self._live)
        self._drop_scan_lists()
        self._move_logs = {}
        self.write_epoch += 1

    def stats(self) -> dict[str, int]:
        return {
            "live_rows": self.row_count(),
            "versions": self.version_count(),
            "next_row_id": self._next_row_id,
        }
