"""Secondary indexes over the latest committed state of a table.

Two index kinds are provided: :class:`HashIndex` for equality lookups and
:class:`SortedIndex` for range scans. Indexes track only the *live* version
of each row; historical reads (time travel) always go through the version
store. The transaction manager keeps indexes in sync by calling the
``on_*`` hooks as it applies a commit, and uses unique indexes to enforce
PRIMARY KEY / UNIQUE constraints at commit time.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Sequence

from repro.db.schema import TableSchema
from repro.db.types import index_key
from repro.errors import IntegrityError, SchemaError

#: Shared empty result for missing keys; frozen so a probe that holds it
#: cannot accidentally grow a phantom bucket.
_EMPTY_IDS: frozenset[int] = frozenset()

#: Largest batch a sorted index takes row by row. An insort is a binary
#: search and one memmove of half the list; extend-then-sort re-compares
#: the whole list once. Measured at 20k, 200k and 1M entries, the sort
#: wins from about 250 new rows on, whatever the index size.
_INSORT_UP_TO = 256


class HashIndex:
    """Equality index mapping a column-tuple key to a set of row ids."""

    def __init__(self, name: str, schema: TableSchema, columns: Iterable[str], unique: bool = False):
        self.name = name
        self.schema = schema
        self.columns = tuple(schema.column(c).name for c in columns)
        self._positions = tuple(schema.index_of(c) for c in self.columns)
        self.unique = unique
        self._map: dict[tuple, set[int]] = {}

    def key_of(self, values: tuple) -> tuple:
        return tuple(values[i] for i in self._positions)

    def add(self, row_id: int, values: tuple) -> None:
        self.add_many(((row_id, values),))

    def add_many(self, rows: Iterable[tuple[int, tuple]]) -> None:
        """Index ``(row_id, values)`` pairs, in order."""
        key_of, buckets, unique = self.key_of, self._map, self.unique
        for row_id, values in rows:
            key = key_of(values)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = {row_id}
                continue
            if unique and bucket and row_id not in bucket and None not in key:
                raise IntegrityError(
                    f"unique violation on {self.schema.name}({', '.join(self.columns)}): "
                    f"key {key!r}"
                )
            bucket.add(row_id)

    def remove(self, row_id: int, values: tuple) -> None:
        key = self.key_of(values)
        bucket = self._map.get(key)
        if bucket:
            bucket.discard(row_id)
            if not bucket:
                del self._map[key]

    def lookup(self, key: tuple) -> set[int] | frozenset[int]:
        """Row ids for ``key``.

        Returns a *live view* of the bucket (or a shared frozen empty set)
        so the hot probe path allocates nothing; callers must treat the
        result as read-only and copy before mutating.
        """
        return self._map.get(tuple(key), _EMPTY_IDS)

    def would_violate(self, values: tuple, ignore_row_id: int | None = None) -> bool:
        """Whether inserting ``values`` would break uniqueness."""
        if not self.unique:
            return False
        key = self.key_of(values)
        if None in key:
            return False
        bucket = self._map.get(key)
        if not bucket:
            return False
        return any(rid != ignore_row_id for rid in bucket)

    def __len__(self) -> int:
        return sum(len(b) for b in self._map.values())


class SortedIndex:
    """Ordered index supporting range scans over a column tuple."""

    def __init__(self, name: str, schema: TableSchema, columns: Iterable[str]):
        self.name = name
        self.schema = schema
        self.columns = tuple(schema.column(c).name for c in columns)
        self._positions = tuple(schema.index_of(c) for c in self.columns)
        # Sorted flat tuples ``index_key(columns) + (row_id,)``: NULLs and
        # mixed types order as compare_values orders them, and every
        # comparison sort/insort/bisect makes stays in C.
        self._entries: list[tuple] = []

    def key_of(self, values: tuple) -> tuple:
        return index_key([values[i] for i in self._positions])

    def add(self, row_id: int, values: tuple) -> None:
        self.add_many(((row_id, values),))

    def add_many(self, rows: Iterable[tuple[int, tuple]]) -> None:
        """Index ``(row_id, values)`` pairs."""
        key_of = self.key_of
        new = sorted([key_of(values) + (row_id,) for row_id, values in rows])
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
        # One unique hash index per declared unique constraint. These
        # back commit-time enforcement and cannot be dropped.
        self._constraint_indexes: set[str] = set()
        for i, constraint in enumerate(schema.unique_constraints):
            name = f"uq_{schema.name}_{i}_{'_'.join(constraint)}".lower()
            self.indexes[name] = HashIndex(name, schema, constraint, unique=True)
            self._constraint_indexes.add(name)

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
        if name.lower() in self._constraint_indexes:
            raise SchemaError(
                f"index {name!r} backs a UNIQUE constraint on "
                f"{self.schema.name} and cannot be dropped"
            )
        del self.indexes[name.lower()]

    # -- maintenance hooks (called while a commit applies) ---------------

    def on_insert(self, row_id: int, values: tuple) -> None:
        self.on_insert_many(((row_id, values),))

    def on_insert_many(self, rows: Sequence[tuple[int, tuple]]) -> None:
        """Index ``(row_id, values)`` pairs (one commit's run, a restore,
        or a whole table at recovery) in every index, one index at a time."""
        for index in self.indexes.values():
            index.add_many(rows)

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
        """Whether any index here can reject a row (:meth:`check_insert`)."""
        return any(
            isinstance(index, HashIndex) and index.unique
            for index in self.indexes.values()
        )

    def check_insert(self, values: tuple, ignore_row_id: int | None = None) -> None:
        """Raise :class:`IntegrityError` if ``values`` breaks a unique index."""
        for index in self.indexes.values():
            if isinstance(index, HashIndex) and index.would_violate(values, ignore_row_id):
                raise IntegrityError(
                    f"unique violation on {self.schema.name}"
                    f"({', '.join(index.columns)}): key {index.key_of(values)!r}"
                )

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
