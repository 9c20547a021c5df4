"""Property test: a columnar ``SegmentStore`` against a row-list model.

A run keeps one column per schema column: an ``array('q')`` for an
INTEGER column with no NULL, leading columns given as stretches kept as
one tuple per stretch, a list otherwise. The model keeps each row's tuple
and its run's CSN. Histories append row batches and column batches (with
and without stretches, contiguous with the last append in the same commit
or after a gap), hold NULLs, ints past 64 bits, ``-0.0``, ``NaN`` and
text of low and high cardinality, and update and delete rows, some in
the commit of the append before them (which a later append of that
commit then extends) and some in runs a snapshot scan pinned before the
write. Every read is held to the model after each step: ``get``,
``get_many``, the latest and pinned scans, ``latest_values`` and
``row_count``; a pinned scan, drained at the end, still serves what it
pinned.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.db.schema import Column, TableSchema
from repro.db.segments import ColumnBatch, SegmentStore
from repro.db.types import ColumnType

SCHEMA = TableSchema(
    "t",
    [
        Column("who", ColumnType.TEXT),
        Column("grp", ColumnType.INTEGER),
        Column("n", ColumnType.INTEGER),
        Column("f", ColumnType.FLOAT),
        Column("tag", ColumnType.TEXT),
        Column("small", ColumnType.INTEGER),
    ],
)
#: How many leading columns a column batch may give as stretches.
STRETCHED = 2

texts = st.one_of(
    st.none(),
    st.sampled_from(["a", "b", "c"]),  # low cardinality
    st.text(min_size=1, max_size=6),  # high cardinality
)
ints = st.one_of(
    st.none(),
    st.integers(-(2**70), 2**70),  # past 64 bits too
    st.integers(-3, 3),
)
floats = st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1.5]),
    st.floats(allow_nan=True),
)
#: ``small`` never holds NULL or a wide int, so its column stays an array
#: until a write says otherwise.
rows = st.tuples(texts, ints, ints, floats, texts, st.integers(-50, 50))
heads = st.tuples(texts, ints)
writes = st.tuples(texts, ints, ints, floats, texts, st.one_of(st.none(), ints))

steps = st.one_of(
    st.tuples(
        st.just("rows"), st.integers(0, 3), st.booleans(), st.lists(rows, max_size=12)
    ),
    st.tuples(
        st.just("columns"),
        st.integers(0, 3),
        st.booleans(),
        st.lists(st.tuples(heads, st.integers(0, 6)), max_size=5),
        st.data(),
    ),
    st.tuples(st.just("update"), st.integers(0, 10**6), st.booleans(), writes),
    st.tuples(st.just("delete"), st.integers(0, 10**6), st.booleans()),
    st.tuples(st.just("pin"),),
)


def same(got, want) -> bool:
    """Equal, telling ``-0.0`` from ``0.0``, ``NaN`` equal to itself and
    ``1`` from ``1.0`` and ``True``."""

    def spelled(value):
        if isinstance(value, tuple):
            return tuple(map(spelled, value))
        if isinstance(value, list):
            return [spelled(v) for v in value]
        return type(value).__name__, repr(value)

    return spelled(got) == spelled(want)


class Model:
    def __init__(self):
        self.rows: dict[int, tuple[int, tuple]] = {}  # id -> (run csn, values)
        self.csn = 0

    def visible(self, csn: int | None) -> list[tuple[int, tuple]]:
        return [
            (row_id, values)
            for row_id, (run_csn, values) in sorted(self.rows.items())
            if csn is None or run_csn <= csn
        ]


def check(store: SegmentStore, model: Model, top: int) -> None:
    for csn in (None, *range(model.csn + 1)):
        want = model.visible(csn)
        assert same(list(store.scan(csn)), want), csn
        assert store.row_count(csn) == len(want)
        asked = list(range(-1, top + 2)) + list(range(top + 1, -2, -3))
        expected = [
            (row_id, model.rows[row_id][1])
            for row_id in asked
            if row_id in model.rows and (csn is None or model.rows[row_id][0] <= csn)
        ]
        assert same(store.get_many(asked, csn), expected), csn
        for row_id in range(top + 1):
            found = dict(want).get(row_id)
            assert same(store.get(row_id, csn), found), (row_id, csn)
    assert same(store.latest_values(), [values for _id, values in model.visible(None)])


@settings(max_examples=150, deadline=None)
@given(history=st.lists(steps, max_size=14))
def test_a_columnar_store_reads_like_its_row_model(history):
    store, model = SegmentStore(SCHEMA), Model()
    pinned: list[tuple[object, list]] = []  # (scan, what it pinned)
    last_end = None  # the id after the last append, when it can be extended
    for step in history:
        kind = step[0]
        if kind in ("rows", "columns"):
            gap, same_commit = step[1], step[2]
            if not (same_commit and last_end == store.stats()["next_row_id"]):
                model.csn += 1
                store.reserve_row_ids(gap)
            if kind == "rows":
                batch_rows = step[3]
                batch: ColumnBatch | list = batch_rows
            else:
                stretches, data = step[3], step[4]
                counts = [count for _head, count in stretches]
                tails = data.draw(
                    st.lists(
                        rows.map(lambda row: row[STRETCHED:]),
                        min_size=sum(counts),
                        max_size=sum(counts),
                    )
                )
                batch_rows = [
                    head + tail
                    for head, tail in zip(
                        [head for head, count in stretches for _ in range(count)], tails
                    )
                ]
                batch = ColumnBatch(
                    [list(column) for column in zip(*tails)]
                    if tails
                    else [[] for _ in range(len(SCHEMA.columns) - STRETCHED)],
                    [head for head, _count in stretches],
                    counts,
                )
                assert same(list(batch), batch_rows)
            ids = store.reserve_row_ids(len(batch_rows))
            store.apply_append(ids.start, batch, model.csn)
            for row_id, values in zip(ids, batch_rows):
                model.rows[row_id] = (model.csn, values)
            last_end = ids.stop if batch_rows else last_end
        elif kind in ("update", "delete"):
            if not model.rows:
                continue
            live = sorted(model.rows)
            row_id = live[step[1] % len(live)]
            if not step[2]:  # else in the commit of the last append
                model.csn += 1
                last_end = None
            run_csn, old = model.rows[row_id]
            if kind == "update":
                assert same(store.apply_update(row_id, step[3], model.csn), old)
                model.rows[row_id] = (run_csn, step[3])
            else:
                assert same(store.apply_delete(row_id, model.csn), old)
                del model.rows[row_id]
        else:
            # A snapshot scan below the last write: it pins the runs now.
            csn = model.csn - 1
            if csn >= 0 and store.last_write_csn > csn:
                pinned.append((store.scan(csn), model.visible(csn)))
        check(store, model, store.stats()["next_row_id"])
    for scan, want in pinned:
        assert same(list(scan), want)
