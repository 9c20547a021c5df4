"""Unit tests for hash and sorted indexes."""

import gc

import pytest

from repro.db.index import HashIndex, IndexSet, SortedIndex
from repro.db.schema import Column, TableSchema
from repro.db.types import ColumnType
from repro.errors import IntegrityError, SchemaError


def make_schema(unique_pair: bool = False) -> TableSchema:
    return TableSchema(
        "t",
        [
            Column("a", ColumnType.TEXT),
            Column("b", ColumnType.INTEGER),
            Column("c", ColumnType.TEXT),
        ],
        unique_constraints=[("a", "b")] if unique_pair else (),
    )


class TestHashIndex:
    def test_lookup_after_add(self):
        index = HashIndex("ix", make_schema(), ["a"])
        index.add(1, ("x", 1, "p"))
        index.add(2, ("x", 2, "q"))
        index.add(3, ("y", 3, "r"))
        assert index.lookup(("x",)) == {1, 2}
        assert index.lookup(("y",)) == {3}
        assert index.lookup(("z",)) == set()

    def test_remove(self):
        index = HashIndex("ix", make_schema(), ["a"])
        index.add(1, ("x", 1, "p"))
        index.remove(1, ("x", 1, "p"))
        assert index.lookup(("x",)) == set()

    def test_composite_key(self):
        index = HashIndex("ix", make_schema(), ["a", "b"])
        index.add(1, ("x", 1, "p"))
        assert index.lookup(("x", 1)) == {1}
        assert index.lookup(("x", 2)) == set()

    def test_unique_violation_on_add(self):
        index = HashIndex("ix", make_schema(), ["a"], unique=True)
        index.add(1, ("x", 1, "p"))
        with pytest.raises(IntegrityError):
            index.add(2, ("x", 2, "q"))

    def test_unique_allows_null_keys(self):
        index = HashIndex("ix", make_schema(), ["a"], unique=True)
        index.add(1, (None, 1, "p"))
        index.add(2, (None, 2, "q"))  # SQL semantics: NULLs never collide

    def test_would_violate_ignores_own_row(self):
        index = HashIndex("ix", make_schema(), ["a"], unique=True)
        index.add(1, ("x", 1, "p"))
        assert index.would_violate(("x", 9, "z")) is True
        assert index.would_violate(("x", 9, "z"), ignore={1}) is False

    @pytest.mark.parametrize(
        "columns, unique", [(["a"], False), (["a"], True), (["a", "b"], False)]
    )
    def test_one_row_keys_add_no_tracked_object(self, columns, unique):
        """A key holding one row files the bare row id (and a single-column
        index the bare value): 10 000 distinct keys add no set each."""
        index = HashIndex("ix", make_schema(), columns, unique=unique)
        row_ids = list(range(1, 10_001))
        rows = [(f"k{i}", i, "p") for i in row_ids]
        gc.collect()
        before = len(gc.get_objects())
        index.add_many(row_ids, rows)
        gc.collect()
        assert len(gc.get_objects()) - before < 100
        assert len(index) == 10_000
        assert index.lookup(("k7", 7)[: len(columns)]) == {7}

    @pytest.mark.parametrize("columns", [["a"], ["a", "b"]])
    def test_bucket_crosses_bare_id_and_set(self, columns):
        """Adds and removes walk a key through bare id, set, bare id, set
        and absent; ``lookup`` answers alike at each step and hands out
        nothing a caller could grow the index through."""
        index = HashIndex("ix", make_schema(), columns)
        key = ("x", 1)[: len(columns)]
        index.add(1, ("x", 1, "p"))
        assert index.lookup(key) == {1}
        assert isinstance(index.lookup(key), frozenset)
        index.add(2, ("x", 1, "q"))
        index.add(2, ("x", 1, "q"))  # filing a row twice is one entry
        assert index.lookup(key) == {1, 2}
        assert len(index) == 2
        index.remove(1, ("x", 1, "p"))
        assert index.lookup(key) == {2}
        assert isinstance(index.lookup(key), frozenset)
        index.add_many([3], [("x", 1, "r")])  # back to a set, batch path
        assert index.lookup(key) == {2, 3}
        index.remove(3, ("x", 1, "r"))
        index.remove(2, ("x", 1, "q"))
        assert index.lookup(key) == set()
        assert len(index) == 0
        index.remove(2, ("x", 1, "q"))  # an absent row: nothing to do
        assert len(index) == 0

    def test_null_key_is_filed_and_found(self):
        index = HashIndex("ix", make_schema(), ["a"], unique=True)
        index.add(1, (None, 1, "p"))
        assert index.lookup((None,)) == {1}
        index.add_many([2, 3], [(None, 2, "q"), ("x", 3, "r")])
        assert index.lookup((None,)) == {1, 2}
        assert index.would_violate((None, 9, "z")) is False
        index.remove(1, (None, 1, "p"))
        assert index.lookup((None,)) == {2}

    @pytest.mark.parametrize("batch", [False, True])
    def test_unique_clash_names_the_tuple_key(self, batch):
        index = HashIndex("ix", make_schema(), ["a"], unique=True)
        index.add(1, ("a", 1, "p"))
        with pytest.raises(IntegrityError, match=r"t\(a\): key \('a',\)$"):
            if batch:
                index.add_many([2, 3], [("b", 2, "q"), ("a", 3, "r")])
            else:
                index.add(3, ("a", 3, "r"))
        assert index.lookup(("a",)) == {1}
        assert index.lookup(("b",)) == ({2} if batch else set())
        assert index.would_violate(("a", 9, "z")) is True
        assert index.would_violate(("a", 9, "z"), ignore={1}) is False


class TestSortedIndex:
    def test_scan_between(self):
        index = SortedIndex("ix", make_schema(), ["b"])
        for rid, b in [(1, 5), (2, 1), (3, 3), (4, 9)]:
            index.add(rid, ("x", b, "p"))
        assert index.scan_between((2,), (6,)) == [3, 1]
        assert index.scan_between(None, (3,)) == [2, 3]
        assert index.scan_between((6,), None) == [4]

    def test_remove_specific_entry(self):
        index = SortedIndex("ix", make_schema(), ["b"])
        index.add(1, ("x", 5, "p"))
        index.add(2, ("x", 5, "q"))
        index.remove(1, ("x", 5, "p"))
        assert index.scan_between(None, None) == [2]

    def test_null_leading_keys_are_not_filed(self):
        # A range probe never matches NULL, so a NULL key costs no entry,
        # whether it comes one row or a batch at a time, or by an update.
        index = SortedIndex("ix", make_schema(), ["b"])
        index.add(1, ("x", None, "p"))
        index.add(2, ("x", 0, "q"))
        index.add_many([3, 4, 5], [("x", None, "r"), ("x", -1, "s"), ("x", None, "t")])
        assert index.scan_between(None, None) == [4, 2]
        assert len(index) == 2
        index.remove(1, ("x", None, "p"))  # not filed: a no-op
        index.add(1, ("x", 7, "p"))
        index.remove(2, ("x", 0, "q"))
        assert index.scan_between(None, None) == [4, 1]


class TestIndexSet:
    def test_unique_constraints_create_indexes(self):
        index_set = IndexSet(make_schema(unique_pair=True))
        assert len(index_set.indexes) == 1

    def test_check_insert_detects_violation(self):
        index_set = IndexSet(make_schema(unique_pair=True))
        index_set.on_insert(1, ("x", 1, "p"))
        with pytest.raises(IntegrityError):
            index_set.check_writes([(2, ("x", 1, "other"))])
        index_set.check_writes([(2, ("x", 2, "other"))])  # different key: fine
        index_set.check_writes([(1, ("x", 1, "other"))])  # its own entry

    def test_check_writes_follows_write_order(self):
        index_set = IndexSet(make_schema(unique_pair=True))
        index_set.on_insert_many([1, 2], [("a", 1, "p"), ("b", 1, "q")])
        # Row 1 leaves "a" before row 2 takes it, through a third key.
        index_set.check_writes(
            [(1, ("c", 1, "p")), (2, ("a", 1, "q")), (1, ("b", 1, "p"))]
        )
        # Taken while row 1 still holds it.
        with pytest.raises(IntegrityError, match=r"key \('a', 1\)"):
            index_set.check_writes([(2, ("a", 1, "q")), (1, ("c", 1, "p"))])
        # Deleted and filed again; an earlier write's key is held.
        index_set.check_writes([(1, None), (3, ("a", 1, "r"))])
        with pytest.raises(IntegrityError, match=r"key \('z', 1\)"):
            index_set.check_writes([(3, ("z", 1, "r")), (4, ("z", 1, "s"))])
        index_set.check_writes([(3, ("z", 1, "r")), (3, ("y", 1, "r")), (4, ("z", 1, "s"))])
        assert index_set.indexes["uq_t_0_a_b"].lookup(("a", 1)) == {1}

    def test_on_update_moves_entries(self):
        index_set = IndexSet(make_schema(unique_pair=True))
        index_set.on_insert(1, ("x", 1, "p"))
        index_set.on_update(1, ("x", 1, "p"), ("y", 1, "p"))
        index_set.check_writes([(2, ("x", 1, "q"))])  # old key freed
        with pytest.raises(IntegrityError):
            index_set.check_writes([(2, ("y", 1, "q"))])

    def test_on_delete_frees_key(self):
        index_set = IndexSet(make_schema(unique_pair=True))
        index_set.on_insert(1, ("x", 1, "p"))
        index_set.on_delete(1, ("x", 1, "p"))
        index_set.check_writes([(2, ("x", 1, "q"))])

    def test_equality_index_for_prefers_widest_cover(self):
        index_set = IndexSet(make_schema())
        narrow = index_set.create_hash_index("ix_a", ["a"])
        wide = index_set.create_hash_index("ix_ab", ["a", "b"])
        assert index_set.equality_index_for({"a"}) is narrow
        assert index_set.equality_index_for({"a", "b"}) is wide
        assert index_set.equality_index_for({"c"}) is None

    def test_duplicate_index_name_rejected(self):
        index_set = IndexSet(make_schema())
        index_set.create_hash_index("ix", ["a"])
        with pytest.raises(SchemaError):
            index_set.create_hash_index("IX", ["b"])

    def test_on_insert_many_existing_rows(self):
        index_set = IndexSet(make_schema())
        index = index_set.create_hash_index("ix", ["a"])
        index_set.on_insert_many([1, 2], [("x", 1, "p"), ("y", 2, "q")])
        assert index.lookup(("x",)) == {1}
