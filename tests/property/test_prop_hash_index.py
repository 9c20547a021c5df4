"""Property test: HashIndex against a dict of sets built one row at a time.

The index files a key's one row as the bare row id and a single-column
key as the bare value; the model keeps a set under a tuple for every key.
A non-unique index files a batch by stretches of equal keys; the model
adds row by row. The programs are ``test_prop_sorted_index``'s (one-row,
small and 300-row batches, removes) plus batches of at least 300 rows made
of long runs of one value, and "thin" steps: a key holding several rows
is removed down to one, the index is checked, and a row is filed under the
key again, spelled with an equal value of another type where there is one.
Every program ends with a thin step, so each crosses the set -> bare id ->
set boundary. Keys mix NULL, booleans, ints, floats and text, so ``1``,
``1.0`` and ``True`` are one key to both. After the program every key the
model holds, and every key over the value pool and ``1``/``1.0``/``True``,
is looked up in both.

A unique index files row by row; its model raises on the first row whose
key (with no NULL) another row holds, leaving the rows before it filed.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.db.index import HashIndex, split_pairs
from repro.errors import IntegrityError
from test_prop_sorted_index import POOL, SCHEMA, steps


def runs(seed: int) -> list[tuple]:
    """At least 300 ``(a, b)`` rows in runs of one value, up to 80 long."""
    rng = random.Random(seed)
    rows: list[tuple] = []
    while len(rows) < 300:
        rows += [(rng.choice(POOL), rng.choice(POOL))] * rng.randint(1, 80)
    return rows


def alias(value):
    """An equal value of another type, where there is one."""
    if type(value) is bool:
        return float(value)
    if type(value) is int:
        return bool(value) if value in (0, 1) else float(value)
    if type(value) is float and value.is_integer():
        return int(value)
    return value


#: thin the i-th key holding several rows, then file under it again
thin = st.tuples(st.just("thin"), st.integers(0, 1000))
hash_programs = st.lists(
    st.one_of(steps, thin, st.tuples(st.just("add"), st.integers(0, 10**6).map(runs))),
    max_size=25,
).map(lambda program: program + [("thin", 0)])


class Model:
    """Buckets as the per-row loop files them."""

    def __init__(self, positions: list[int], unique: bool):
        self.positions, self.unique = positions, unique
        self.buckets: dict[tuple, set[int]] = {}

    def key(self, row: tuple) -> tuple:
        return tuple(row[i] for i in self.positions)

    def add(self, row_id: int, row: tuple) -> None:
        key = self.key(row)
        bucket = self.buckets.setdefault(key, set())
        if self.unique and bucket and row_id not in bucket and None not in key:
            raise IntegrityError(f"key {key!r}")
        bucket.add(row_id)

    def remove(self, row_id: int, row: tuple) -> None:
        key = self.key(row)
        self.buckets[key].discard(row_id)
        if not self.buckets[key]:
            del self.buckets[key]


def run(program, columns: list[str], unique: bool = False):
    index = HashIndex("ix", SCHEMA, columns, unique=unique)
    model = Model([SCHEMA.index_of(c) for c in columns], unique)
    live: dict[int, tuple] = {}
    next_id = 1
    for op, arg in program:
        if op == "add":
            rows = [(next_id + i, ("pad", a, b)) for i, (a, b) in enumerate(arg)]
            next_id += len(rows)
            filed, refused = [], None
            for row_id, row in rows:
                try:
                    model.add(row_id, row)
                except IntegrityError as exc:
                    refused = exc
                    break
                filed.append((row_id, row))
            if refused is None:
                index.add_many(*split_pairs(rows))
            else:
                try:
                    index.add_many(*split_pairs(rows))
                except IntegrityError as exc:
                    assert str(exc).endswith(str(refused))
                else:
                    raise AssertionError(f"index took a duplicate: {refused}")
            live.update(filed)
        elif op == "thin":
            shared = [k for k, ids in model.buckets.items() if len(ids) > 1]
            if not shared:
                # A unique index shares only keys with a NULL in them.
                a = None if unique else POOL[arg % len(POOL)]
                rows = [(next_id, ("pad", a, "s")), (next_id + 1, ("pad", a, "s"))]
                next_id += 2
                index.add_many(*split_pairs(rows))
                for row_id, row in rows:
                    model.add(row_id, row)
                live.update(rows)
                shared = [model.key(rows[0][1])]
            key = shared[arg % len(shared)]
            kept, *others = sorted(model.buckets[key])
            for row_id in others:
                row = live.pop(row_id)
                index.remove(row_id, row)
                model.remove(row_id, row)
            assert index.lookup(key) == {kept}
            row = tuple(map(alias, live[kept]))
            index.add_many([next_id], [row])
            model.add(next_id, row)
            live[next_id] = row
            next_id += 1
        elif live:
            row_id = sorted(live)[arg % len(live)]
            row = live.pop(row_id)
            index.remove(row_id, row)
            model.remove(row_id, row)
    return index, model


def assert_same(index: HashIndex, model: Model) -> None:
    # A list: a set would fold the equal probes (1,), (1.0,) and (True,).
    pool = POOL + [1, 1.0]
    probes = list(model.buckets)
    probes += [(a,) for a in pool]
    if len(model.positions) == 2:
        probes += [(a, b) for a in pool for b in pool]
    for key in probes:
        assert index.lookup(key) == model.buckets.get(key, set()), key
    assert len(index) == sum(map(len, model.buckets.values()))


@given(program=hash_programs)
@settings(max_examples=300, deadline=None)
def test_single_column_index_matches_row_by_row_model(program):
    assert_same(*run(program, ["a"]))


@given(program=hash_programs)
@settings(max_examples=200, deadline=None)
def test_two_column_index_matches_row_by_row_model(program):
    assert_same(*run(program, ["a", "b"]))


@given(program=hash_programs)
@settings(max_examples=200, deadline=None)
def test_unique_index_refuses_the_first_clash_and_keeps_the_rows_before(program):
    assert_same(*run(program, ["a", "b"], unique=True))
