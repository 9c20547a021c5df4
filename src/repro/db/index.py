"""Secondary indexes over the latest committed state of a table.

Two index kinds are provided: :class:`HashIndex` for equality lookups and
:class:`SortedIndex` for range scans. Indexes track only the *live* version
of each row; historical reads (time travel) always go through the version
store. The transaction manager keeps indexes in sync by calling the
``on_*`` hooks as it applies a commit, and uses unique indexes to enforce
PRIMARY KEY / UNIQUE constraints at commit time.

A batch reaches an index as two parallel sequences, row ids and row
tuples, and its keys are built by ``itemgetter`` mapped over the rows, so
no per-row Python frame runs while a flush of many rows is indexed. A
segment table's append arrives as a
:class:`~repro.db.segments.ColumnBatch` instead, and the keys are its
columns: a one-column index's keys are the column itself, and a hash
index files each stretch of equal keys (a read set's ``TxnId``) as one id
range.
"""

from __future__ import annotations

import bisect
import itertools
import math
from operator import is_not, itemgetter
from typing import TYPE_CHECKING, Container, Iterable, Sequence

from repro.db.schema import TableSchema
from repro.db.types import SORT_CLASS, index_key
from repro.errors import IntegrityError, SchemaError

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.segments import ColumnBatch

#: Shared empty result for missing keys; frozen so a probe that holds it
#: cannot accidentally grow a phantom bucket.
_EMPTY_IDS: frozenset[int] = frozenset()

#: Largest batch a sorted index takes row by row. An insort is a binary
#: search and one memmove of half the list; extend-then-sort re-compares
#: the whole list once. Measured at 20k, 200k and 1M entries, the sort
#: wins from about 250 new rows on, whatever the index size.
_INSORT_UP_TO = 256

_ROW_ID, _VALUES = itemgetter(0), itemgetter(1)


def split_pairs(pairs: Sequence[tuple[int, tuple]]) -> tuple[list[int], list[tuple]]:
    """``(row_id, values)`` pairs as the parallel id and row lists that
    :meth:`IndexSet.on_insert_many` takes."""
    return list(map(_ROW_ID, pairs)), list(map(_VALUES, pairs))


class HashIndex:
    """Equality index from a key to the ids of the rows filed under it.

    A single-column index keys its dict on the bare column value, a wider
    one on the column tuple. A key with one row maps to the bare row id;
    its second row makes the bucket a ``set``, and a remove that leaves
    one row makes it the bare id again. Most keys hold one row (a
    provenance ``TxnId`` or ``ReqId``, a unique constraint), so they
    cost a dict entry and no object of their own. Callers see tuple keys
    only: :meth:`key_of`, :meth:`lookup` and the violation message.
    """

    def __init__(self, name: str, schema: TableSchema, columns: Iterable[str], unique: bool = False):
        self.name = name
        self.schema = schema
        self.columns = tuple(schema.column(c).name for c in columns)
        self.positions = tuple(schema.index_of(c) for c in self.columns)
        self.unique = unique
        self._single = len(self.positions) == 1
        #: A row's dict key: a tuple of its key columns, or the one value.
        self._key_columns = itemgetter(*self.positions)
        self._map: dict[object, int | set[int]] = {}

    def key_of(self, values: tuple) -> tuple:
        return tuple(values[i] for i in self.positions)

    def add(self, row_id: int, values: tuple) -> None:
        self._file_each((row_id,), (self._key_columns(values),))

    def add_many(self, row_ids: Sequence[int], rows: Sequence[tuple]) -> None:
        """Index ``rows[i]`` under ``row_ids[i]``, in order."""
        self._add_keys(row_ids, map(self._key_columns, rows))

    def add_batch(self, row_ids: Sequence[int], batch: "ColumnBatch") -> None:
        """Index the rows of ``batch`` under ``row_ids``, keys read off its
        columns: a one-column index's keys are the column itself."""
        if self._single:
            self._add_keys(row_ids, batch.column(self.positions[0]))
        else:
            self._add_keys(row_ids, zip(*map(batch.column, self.positions)))

    def _add_keys(self, row_ids: Sequence[int], keys: Iterable) -> None:
        """File ``keys[i]`` under ``row_ids[i]``, in order.

        A non-unique index files each stretch of consecutive equal keys
        at once (``groupby`` and the dict compare keys alike, so the
        buckets are the per-row loop's). A unique index goes row by row,
        so a violation names the first clashing key and leaves the rows
        before it indexed.
        """
        if self.unique:
            self._file_each(row_ids, keys)
            return
        buckets, ids = self._map, iter(row_ids)
        for key, stretch in itertools.groupby(keys):
            count = len(list(stretch))
            bucket = buckets.get(key)
            if count == 1 and bucket is None:
                buckets[key] = next(ids)
                continue
            filed = set(itertools.islice(ids, count))
            if type(bucket) is set:
                bucket.update(filed)
                continue
            if bucket is not None:
                filed.add(bucket)
            buckets[key] = filed if len(filed) > 1 else filed.pop()

    def _file_each(self, row_ids: Iterable[int], keys: Iterable) -> None:
        buckets, unique = self._map, self.unique
        for row_id, key in zip(row_ids, keys):
            bucket = buckets.setdefault(key, row_id)
            if bucket == row_id:
                continue
            if type(bucket) is not set:
                bucket = {bucket}
            elif row_id in bucket:
                continue
            if unique and None not in self._as_tuple(key):
                raise IntegrityError(
                    f"unique violation on {self.schema.name}({', '.join(self.columns)}): "
                    f"key {self._as_tuple(key)!r}"
                )
            bucket.add(row_id)
            buckets[key] = bucket

    def _as_tuple(self, key) -> tuple:
        """A dict key in the tuple form callers see."""
        return (key,) if self._single else key

    def remove(self, row_id: int, values: tuple) -> None:
        buckets, key = self._map, self._key_columns(values)
        bucket = buckets.get(key)
        if type(bucket) is set:
            bucket.discard(row_id)
            if len(bucket) == 1:
                buckets[key] = bucket.pop()
        elif bucket == row_id:
            del buckets[key]

    def lookup(self, key: tuple) -> set[int] | frozenset[int]:
        """Row ids for ``key``, a tuple of the index's column values.

        Callers must treat the result as read-only and copy before
        mutating: it is the live bucket of a key with several rows, a
        new frozenset for a key with one, or a shared frozen empty set.
        """
        bucket = self._map.get(key[0] if self._single else tuple(key))
        if bucket is None:
            return _EMPTY_IDS
        return bucket if type(bucket) is set else frozenset((bucket,))

    def lookup_many(self, keys: Iterable[tuple]) -> set[int]:
        """Row ids filed under any of ``keys`` (each as :meth:`lookup`
        takes it), as a new set the caller owns."""
        buckets, single = self._map, self._single
        hits: set[int] = set()
        for key in keys:
            bucket = buckets.get(key[0] if single else tuple(key))
            if bucket is None:
                continue
            if type(bucket) is set:
                hits.update(bucket)
            else:
                hits.add(bucket)
        return hits

    def would_violate(self, values: tuple, ignore: Container[int] = ()) -> bool:
        """Whether inserting ``values`` would break uniqueness with a row
        whose id is not in ``ignore``."""
        key = self.key_of(values)
        if not self.unique or None in key:
            return False
        return any(rid not in ignore for rid in self.lookup(key))

    def __len__(self) -> int:
        return sum(len(b) if type(b) is set else 1 for b in self._map.values())


class SortedIndex:
    """Ordered index supporting range scans over a column tuple.

    A row whose leading column is NULL is not filed: the index's one
    reader is a range probe, and no comparison with NULL is true, so such
    a row could never be a probe's answer.
    """

    def __init__(self, name: str, schema: TableSchema, columns: Iterable[str]):
        self.name = name
        self.schema = schema
        self.columns = tuple(schema.column(c).name for c in columns)
        self.positions = tuple(schema.index_of(c) for c in self.columns)
        self._getters = tuple(itemgetter(i) for i in self.positions)
        # Sorted flat tuples ``index_key(columns) + (row_id,)``: NULLs and
        # mixed types order as compare_values orders them, and every
        # comparison sort/insort/bisect makes stays in C.
        self._entries: list[tuple] = []

    def key_of(self, values: tuple) -> tuple:
        return index_key([values[i] for i in self.positions])

    def add(self, row_id: int, values: tuple) -> None:
        if values[self.positions[0]] is not None:
            bisect.insort(self._entries, self.key_of(values) + (row_id,))

    def add_many(self, row_ids: Sequence[int], rows: Sequence[tuple]) -> None:
        """Index ``rows[i]`` under ``row_ids[i]``, less those whose
        leading column is NULL."""
        self._add_columns(row_ids, [list(map(get, rows)) for get in self._getters])

    def add_batch(self, row_ids: Sequence[int], batch: "ColumnBatch") -> None:
        """Index the rows of ``batch`` under ``row_ids``, keys read off its
        columns. A stretched leading column whose stretches are all NULL
        (a flush of Read events' ``Csn``) files nothing, unexpanded."""
        stretched = batch.stretches(self.positions[0])
        if stretched is not None and stretched[0].count(None) == len(stretched[0]):
            return
        self._add_columns(row_ids, list(map(batch.column, self.positions)))

    def _add_columns(self, row_ids: Sequence[int], columns: list[Sequence]) -> None:
        """File the rows whose key columns are ``columns`` under the
        parallel ``row_ids``.

        The entries are zipped from columns, ``(class, value, ...,
        row_id)``, which is ``key_of(values) + (row_id,)`` built in C.
        """
        if None in columns[0]:
            filed = list(map(is_not, columns[0], itertools.repeat(None)))
            row_ids = list(itertools.compress(row_ids, filed))
            columns = [list(itertools.compress(c, filed)) for c in columns]
        keys: list[Iterable] = []
        for values in columns:
            keys += (map(SORT_CLASS.__getitem__, map(type, values)), values)
        new = sorted(zip(*keys, row_ids))
        entries = self._entries
        if not new:
            return
        if not entries or new[0] > entries[-1]:
            entries.extend(new)
        elif len(new) <= _INSORT_UP_TO:
            for entry in new:
                bisect.insort(entries, entry)
        else:
            # Two sorted runs: timsort merges them in one linear pass.
            entries.extend(new)
            entries.sort()

    def remove(self, row_id: int, values: tuple) -> None:
        entry = self.key_of(values) + (row_id,)
        lo = bisect.bisect_left(self._entries, entry)
        if lo < len(self._entries) and self._entries[lo] == entry:
            self._entries.pop(lo)

    def scan_between(self, low: tuple | None, high: tuple | None) -> list[int]:
        """Row ids with low <= key <= high, in key order.

        Either bound may be None (open). A bound shorter than the
        index's column tuple bounds that prefix, inclusively.
        """
        entries = self._entries
        # A key is a strict prefix of its entries, so it sorts just
        # before them; padded with +inf (row ids and classes are finite
        # numbers) it sorts just after.
        lo = 0 if low is None else bisect.bisect_left(entries, index_key(low))
        hi = (
            len(entries)
            if high is None
            else bisect.bisect_right(entries, index_key(high) + (math.inf,))
        )
        return [entry[-1] for entry in entries[lo:hi]]

    def __len__(self) -> int:
        return len(self._entries)


class IndexSet:
    """All indexes of one table, with constraint enforcement helpers."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self.indexes: dict[str, HashIndex | SortedIndex] = {}
        #: One unique hash index per declared unique constraint, in the
        #: schema's constraint order. These back enforcement and cannot
        #: be dropped.
        self.constraint_indexes: list[HashIndex] = []
        for i, constraint in enumerate(schema.unique_constraints):
            name = f"uq_{schema.name}_{i}_{'_'.join(constraint)}".lower()
            self.indexes[name] = HashIndex(name, schema, constraint, unique=True)
            self.constraint_indexes.append(self.indexes[name])

    def create_hash_index(self, name: str, columns: Iterable[str], unique: bool = False) -> HashIndex:
        if name.lower() in self.indexes:
            raise SchemaError(f"index {name!r} already exists")
        index = HashIndex(name, self.schema, columns, unique=unique)
        self.indexes[name.lower()] = index
        return index

    def create_sorted_index(self, name: str, columns: Iterable[str]) -> SortedIndex:
        if name.lower() in self.indexes:
            raise SchemaError(f"index {name!r} already exists")
        index = SortedIndex(name, self.schema, columns)
        self.indexes[name.lower()] = index
        return index

    def drop_index(self, name: str, if_exists: bool = False) -> None:
        if name.lower() not in self.indexes:
            if if_exists:
                return
            raise SchemaError(f"no index {name!r} on {self.schema.name}")
        if any(index.name == name.lower() for index in self.constraint_indexes):
            raise SchemaError(
                f"index {name!r} backs a UNIQUE constraint on "
                f"{self.schema.name} and cannot be dropped"
            )
        del self.indexes[name.lower()]

    # -- maintenance hooks (called while a commit applies) ---------------

    def on_insert(self, row_id: int, values: tuple) -> None:
        self.on_insert_many((row_id,), (values,))

    def on_insert_many(self, row_ids: Sequence[int], rows: Sequence[tuple]) -> None:
        """Index ``rows`` under the parallel ``row_ids`` (one commit's run,
        a restore, or a whole table at recovery) in every index, one index
        at a time."""
        for index in self.indexes.values():
            index.add_many(row_ids, rows)

    def on_append(self, row_ids: range, batch: "ColumnBatch") -> None:
        """Index a segment table's appended ``batch`` under ``row_ids``
        in every index, keys read off its columns."""
        for index in self.indexes.values():
            index.add_batch(row_ids, batch)

    def on_update(self, row_id: int, old_values: tuple, new_values: tuple) -> None:
        for index in self.indexes.values():
            index.remove(row_id, old_values)
            index.add(row_id, new_values)

    def on_delete(self, row_id: int, values: tuple) -> None:
        for index in self.indexes.values():
            index.remove(row_id, values)

    # -- constraint checks ------------------------------------------------

    @property
    def has_unique(self) -> bool:
        """Whether any index here can reject a row (:meth:`check_writes`)."""
        return any(
            isinstance(index, HashIndex) and index.unique
            for index in self.indexes.values()
        )

    def check_writes(self, writes: Sequence[tuple[int, tuple | None]]) -> None:
        """Raise :class:`IntegrityError` if filing ``writes`` would break a
        unique index; the indexes are left as they are.

        ``writes`` are ``(row_id, values)`` pairs, ``values`` None for a
        delete, in the order a commit files them: each takes its row's
        entry out and files the new values. So each write is checked
        against the entries of rows no earlier write touched, and against
        the keys earlier writes filed, which is exactly when the hooks
        above would raise.
        """
        for index in self.indexes.values():
            if not (isinstance(index, HashIndex) and index.unique):
                continue
            # Row id -> the key earlier writes filed it under (None: none).
            filed: dict[int, tuple | None] = {}
            holders: dict[tuple, set[int]] = {}
            for row_id, values in writes:
                held = filed.get(row_id)
                if held is not None:
                    holders[held].discard(row_id)
                key = None if values is None else index.key_of(values)
                if key is None or None in key:
                    filed[row_id] = None
                    continue
                filed[row_id] = key
                if holders.get(key) or index.would_violate(values, ignore=filed):
                    raise IntegrityError(
                        f"unique violation on {self.schema.name}"
                        f"({', '.join(index.columns)}): key {key!r}"
                    )
                holders.setdefault(key, set()).add(row_id)

    def equality_index_for(self, columns: set[str]) -> HashIndex | None:
        """A hash index whose column set is covered by ``columns``, if any."""
        lowered = {c.lower() for c in columns}
        best: HashIndex | None = None
        for index in self.indexes.values():
            if not isinstance(index, HashIndex):
                continue
            if {c.lower() for c in index.columns} <= lowered:
                if best is None or len(index.columns) > len(best.columns):
                    best = index
        return best
