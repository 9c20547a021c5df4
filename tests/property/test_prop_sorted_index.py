"""Property test: SortedIndex against ``sorted()`` under ``compare_values``.

The index stores flat C-comparable keys and answers range scans by
bisection. The reference keeps a plain list of ``(values, row_id)`` and
re-sorts it with a comparator built from ``compare_values`` — the order
ORDER BY uses — over keys that mix NULL, booleans, ints, floats and text.
One-row adds, small and bulk batch adds (the append, insort and
extend-then-sort branches) and removes are interleaved, and every state is
probed with ``scan_between`` on both, one and no bounds. A row whose
leading value is NULL is not filed, so the reference leaves it out.
"""

import random
from functools import cmp_to_key

from hypothesis import given, settings, strategies as st

from repro.db.index import SortedIndex, split_pairs
from repro.db.schema import Column, TableSchema
from repro.db.types import ColumnType, compare_values

SCHEMA = TableSchema(
    "t",
    [
        Column("pad", ColumnType.TEXT),
        Column("a", ColumnType.INTEGER),
        Column("b", ColumnType.TEXT),
    ],
)

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(-5, 5, allow_nan=False).map(lambda f: round(f * 2) / 2),
    st.sampled_from(["", "a", "b", "ab", "B"]),
)
POOL = [None, True, False, -3, 0, 2, 2.5, -0.5, "", "a", "ab", "B"]


def bulk(seed: int) -> list[tuple]:
    """More rows than the index will insort one by one (seeded)."""
    rng = random.Random(seed)
    return [(rng.choice(POOL), rng.choice(POOL)) for _ in range(300)]


#: add one row | add a small batch | add a bulk batch | remove the i-th live row
steps = st.one_of(
    st.tuples(st.just("add"), st.lists(st.tuples(values, values), min_size=1, max_size=1)),
    st.tuples(st.just("add"), st.lists(st.tuples(values, values), max_size=30)),
    st.tuples(st.just("add"), st.integers(0, 10**6).map(bulk)),
    st.tuples(st.just("remove"), st.integers(0, 1000)),
)
programs = st.lists(steps, max_size=25)
bounds = st.one_of(st.none(), values.filter(lambda v: v is not None))


def compare_keys(x: tuple, y: tuple) -> int:
    for a, b in zip(x, y):
        order = compare_values(a, b)
        if order:
            return order
    return 0


def compare_entries(x, y) -> int:
    return compare_keys(x[0], y[0]) or (x[1] > y[1]) - (x[1] < y[1])


def run(program, columns):
    index = SortedIndex("ix", SCHEMA, columns)
    positions = [SCHEMA.index_of(c) for c in columns]
    live: dict[int, tuple] = {}
    next_id = 1
    for op, arg in program:
        if op == "add":
            rows = []
            for a, b in arg:
                rows.append((next_id, ("pad", a, b)))
                next_id += 1
            if len(rows) == 1:
                index.add(*rows[0])
            else:
                index.add_many(*split_pairs(rows))
            live.update(rows)
        elif live:
            row_id = sorted(live)[arg % len(live)]
            index.remove(row_id, live.pop(row_id))
    model = sorted(
        (
            (tuple(row[i] for i in positions), row_id)
            for row_id, row in live.items()
            if row[positions[0]] is not None
        ),
        key=cmp_to_key(compare_entries),
    )
    return index, model


@given(program=programs, low=bounds, high=bounds)
@settings(max_examples=300, deadline=None)
def test_single_column_index_matches_sorted_reference(program, low, high):
    index, model = run(program, ["a"])
    assert len(index) == len(model)
    assert index.scan_between(None, None) == [row_id for _key, row_id in model]
    expected = [
        row_id
        for key, row_id in model
        if (low is None or compare_keys(key, (low,)) >= 0)
        and (high is None or compare_keys(key, (high,)) <= 0)
    ]
    assert index.scan_between(
        None if low is None else (low,), None if high is None else (high,)
    ) == expected


@given(program=programs, low=bounds, high=bounds)
@settings(max_examples=200, deadline=None)
def test_two_column_index_matches_sorted_reference(program, low, high):
    index, model = run(program, ["a", "b"])
    assert index.scan_between(None, None) == [row_id for _key, row_id in model]
    # Full-width bounds: [(low, ""), (high, "b")].
    low_key = None if low is None else (low, "")
    high_key = None if high is None else (high, "b")
    expected = [
        row_id
        for key, row_id in model
        if (low_key is None or compare_keys(key, low_key) >= 0)
        and (high_key is None or compare_keys(key, high_key) <= 0)
    ]
    assert index.scan_between(low_key, high_key) == expected
    # A one-column bound on the two-column index bounds the prefix.
    prefix = [
        row_id
        for key, row_id in model
        if (low is None or compare_values(key[0], low) >= 0)
        and (high is None or compare_values(key[0], high) <= 0)
    ]
    assert index.scan_between(
        None if low is None else (low,), None if high is None else (high,)
    ) == prefix
