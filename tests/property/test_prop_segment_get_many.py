"""Property test: ``SegmentStore.get_many`` against a loop of ``get``.

A batch read walks the store's runs once, bisecting the run starts again
only when an id leaves the run the last id fell in. The reference asks
``get`` for each id. Stores are built from runs appended at rising CSNs,
with gaps between runs (ids reserved and never written), deleted slots
and overwritten rows; the ids asked for are ascending, unsorted, repeated,
in gaps, below the first run and past the last; and the read CSN is
every one that hides some runs, as well as None (any run).
"""

from hypothesis import example, given, settings, strategies as st

from repro.db.schema import Column, TableSchema
from repro.db.segments import SegmentStore
from repro.db.types import ColumnType

SCHEMA = TableSchema("t", [Column("v", ColumnType.INTEGER)])

#: One commit: rows appended after a gap of reserved ids, then some of
#: the store's slots deleted or overwritten (as offsets into its ids).
commits = st.tuples(
    st.integers(0, 4),  # gap before the run
    st.integers(0, 12),  # rows in the run
    st.lists(st.integers(0, 10**6), max_size=4),  # deletes
    st.lists(st.integers(0, 10**6), max_size=4),  # overwrites
)


def build(history: list[tuple]) -> tuple[SegmentStore, int]:
    """The store ``history`` leaves, and its last id plus a margin."""
    store = SegmentStore(SCHEMA)
    live: list[int] = []
    for csn, (gap, count, deletes, overwrites) in enumerate(history, start=1):
        store.reserve_row_ids(gap)
        ids = store.reserve_row_ids(count)
        store.apply_append(ids.start, [(csn * 1000 + i,) for i in range(count)], csn)
        live += ids
        for pick in overwrites:
            if live:
                store.apply_update(live[pick % len(live)], (-csn,), csn)
        for pick in deletes:
            if live:
                store.apply_delete(live.pop(pick % len(live)), csn)
    return store, store.stats()["next_row_id"] + 3


def looped(store: SegmentStore, row_ids: list[int], csn: int | None) -> list:
    return [
        (row_id, store.get(row_id, csn))
        for row_id in row_ids
        if store.get(row_id, csn) is not None
    ]


@settings(max_examples=200, deadline=None)
@given(
    history=st.lists(commits, max_size=8),
    picks=st.lists(st.integers(-2, 10**6), max_size=40),
    order=st.sampled_from(["ascending", "as drawn", "descending"]),
)
# Runs committed at 1 (ids 1-3), 2 (ids 6-8) and 3 (ids 9-10): at CSN 1 the
# walk passes into run 2, serves none of it, and must not keep serving
# run 1's rows for run 2's ids or run 2's for run 3's.
@example(
    history=[(0, 3, [], []), (2, 3, [], []), (0, 2, [], [])],
    picks=[2, 6, 7, 9, 3, 8],
    order="as drawn",
)
def test_get_many_is_a_loop_of_get(history, picks, order):
    store, top = build(history)
    row_ids = [pick % (top + 2) - 2 if pick >= 0 else pick for pick in picks]
    if order == "ascending":
        row_ids.sort()
    elif order == "descending":
        row_ids.sort(reverse=True)
    for csn in (None, 0, *range(1, len(history) + 2)):
        assert store.get_many(row_ids, csn) == looped(store, row_ids, csn), csn
