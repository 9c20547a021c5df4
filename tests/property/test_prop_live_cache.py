"""Property tests: the live-row caches against the version-walk path.

``scan(None)`` / ``get(row_id, None)`` / ``row_count(None)`` are served
from incrementally maintained caches; ``scan(csn)`` walks version chains.
At the latest CSN the two paths must agree after any sequence of inserts,
updates, deletes, and vacuums — the invariant the read-path overhaul
rests on.

The second half holds the materialized row lists to the same oracle
while they are *maintained*: a write notes itself beside the published
list and the next reader gets a fresh patched copy, so a program that
interleaves readers with writers checks every list it was handed, when
handed and again at the end, on the in-memory and the paged store.

The last part starts the same programs from a base the store adopts
(``TableStore.adopt``: no version per row until a row is written) and
holds it, after every step, to a twin that loaded the base row by row.
"""

import shutil
import tempfile
from contextlib import contextmanager

import pytest

from hypothesis import example, given, settings, strategies as st

from repro.db.pages import BufferPool, PageFileManager, PagedTableStore
from repro.db.pages.file_manager import PageFile
from repro.db.schema import Column, TableSchema
from repro.db.storage import _PATCH_LIMIT_DIVISOR, TableStore
from repro.db.types import ColumnType
from repro.errors import DatabaseError


def make_store() -> TableStore:
    return TableStore(
        TableSchema("t", [Column("v", ColumnType.INTEGER)])
    )


#: An operation program: each entry is ('insert', value) |
#: ('update', target_index, value) | ('delete', target_index) |
#: ('vacuum', horizon_fraction).
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 100)),
        st.tuples(st.just("update"), st.integers(0, 30), st.integers(0, 100)),
        st.tuples(st.just("delete"), st.integers(0, 30)),
        st.tuples(st.just("vacuum"), st.integers(0, 100)),
    ),
    max_size=60,
)


def run_program(store: TableStore, ops) -> int:
    """Apply a program, one CSN per op; returns the last CSN used."""
    csn = 0
    for op in ops:
        csn += 1
        if op[0] == "insert":
            store.apply_insert((op[1],), csn)
        elif op[0] == "vacuum":
            store.vacuum(csn * op[1] // 100)
        else:
            live = store.live_row_ids()
            if not live:
                continue
            target = live[op[1] % len(live)]
            if op[0] == "update":
                store.apply_update(target, (op[2],), csn)
            else:
                store.apply_delete(target, csn)
    return csn


@settings(max_examples=200, deadline=None)
@given(ops=ops_strategy)
def test_latest_scan_matches_version_walk(ops):
    store = make_store()
    last_csn = run_program(store, ops)
    via_cache = list(store.scan(None))
    via_chains = list(store.scan(last_csn))
    assert via_cache == via_chains


@settings(max_examples=200, deadline=None)
@given(ops=ops_strategy)
def test_live_caches_agree_with_chain_reads(ops):
    store = make_store()
    last_csn = run_program(store, ops)
    chain_rows = dict(store.scan(last_csn))
    assert store.row_count(None) == len(chain_rows)
    assert store.live_row_ids() == sorted(chain_rows)
    assert store.stats()["live_rows"] == len(chain_rows)
    for row_id in list(chain_rows) + [10**6]:
        assert store.get(row_id, None) == store.get(row_id, last_csn)


@settings(max_examples=100, deadline=None)
@given(ops=ops_strategy, probe=st.integers(0, 100))
def test_snapshot_bisect_matches_linear_walk(ops, probe):
    """The bisect-located version equals a linear reverse visibility walk."""
    store = make_store()
    last_csn = run_program(store, ops)
    csn = min(probe, last_csn)
    for row_id, chain in store._versions.items():
        expected = None
        for version in reversed(chain):
            if version.visible_at(csn):
                expected = version.values
                break
        assert store.get(row_id, csn) == expected


# ---------------------------------------------------------------------------
# Row-list maintenance: published lists under interleaved readers and writers
# ---------------------------------------------------------------------------

#: Explicit row ids are drawn from here, so they collide with engine-
#: assigned ones: out-of-order inserts, and re-inserts of deleted ids.
_ID_SPACE = 60

#: A reader/writer program. Writers: ('insert', v) | ('insert_many', [v]) |
#: ('insert_at', id, v) | ('reinsert', v) | ('update', i, v) | ('delete', i)
#: | ('vacuum', pct). Readers: ('rows',) | ('values',) | ('pin',).
maintenance_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 100)),
        st.tuples(
            st.just("insert_many"),
            st.lists(st.integers(0, 100), min_size=1, max_size=12),
        ),
        st.tuples(
            st.just("insert_at"), st.integers(1, _ID_SPACE), st.integers(0, 100)
        ),
        st.tuples(st.just("reinsert"), st.integers(0, 100)),
        st.tuples(st.just("update"), st.integers(0, 60), st.integers(0, 100)),
        st.tuples(st.just("delete"), st.integers(0, 60)),
        st.tuples(st.just("vacuum"), st.integers(0, 100)),
        st.tuples(st.just("rows")),
        st.tuples(st.just("values")),
        st.tuples(st.just("pin")),
    ),
    max_size=80,
)

#: Rows loaded before the program runs: 0 and 8 keep the list so short
#: that almost any write crosses the rebuild threshold, 64 leaves room
#: for several noted writes between two readers.
preloads = st.sampled_from([0, 8, 64])


@contextmanager
def paged_store(pool_pages: int = 2):
    """A :class:`PagedTableStore` on a two-page pool in a scratch directory."""
    data_dir = tempfile.mkdtemp(prefix="prop-live-cache-")
    manager = PageFileManager(data_dir, 512)
    try:
        schema = TableSchema("t", [Column("v", ColumnType.INTEGER)])
        yield PagedTableStore(
            schema, manager, BufferPool(pool_pages), "t", manager.create("t")
        )
    finally:
        manager.close_all()
        shutil.rmtree(data_dir, ignore_errors=True)


@contextmanager
def counted_page_reads():
    """Counts ``PageFile.read_page`` calls (``count[0]``) while active."""
    count = [0]
    original = PageFile.read_page

    def read_page(self, page_id):
        count[0] += 1
        return original(self, page_id)

    PageFile.read_page = read_page
    try:
        yield count
    finally:
        PageFile.read_page = original


class Maintenance:
    """Runs a reader/writer program and checks every list it is handed.

    The oracle is the version walk, ``scan(csn)`` at the CSN of the last
    write: it never touches the materialized lists.
    """

    def __init__(self, store: TableStore, page_reads: list[int] | None = None):
        self.store = store
        self.page_reads = page_reads
        self.csn = 0
        self.deleted: list[int] = []
        #: (the list handed out, a copy taken then, the oracle's answer then)
        self.handed: list[tuple[list, list, list]] = []
        #: (pinned scan iterator, the oracle's answer when it was pinned)
        self.pinned: list[tuple] = []
        self.branches: set[str] = set()
        self.fingerprint: list = []

    def oracle(self) -> list[tuple[int, tuple]]:
        return list(self.store.scan(self.csn))

    def run(self, preload: int, ops) -> None:
        store = self.store
        if preload:
            self.csn += 1
            store.apply_inserts(
                [(rid, (rid,)) for rid in store.reserve_row_ids(preload)], self.csn
            )
        for op in ops:
            self.step(op)
        self.finish()

    def step(self, op) -> None:
        if len(op) == 1:
            self.read(op[0])
        else:
            self.write(op)

    def finish(self) -> None:
        self.read("rows")
        self.read("values")
        for handed, copy, expected in self.handed:
            assert handed == copy == expected  # never mutated after hand-out
        for iterator, expected in self.pinned:
            assert list(iterator) == expected

    def write(self, op) -> None:
        store = self.store
        kind = op[0]
        live = store.live_row_ids()
        had_list = store._scan_rows is not None
        self.csn += 1
        if kind == "insert":
            store.apply_insert((op[1],), self.csn)
        elif kind == "insert_many":
            ids = store.reserve_row_ids(len(op[1]))
            store.apply_inserts([(i, (v,)) for i, v in zip(ids, op[1])], self.csn)
        elif kind == "insert_at":
            if op[1] in live:
                return
            store.apply_insert((op[2],), self.csn, row_id=op[1])
        elif kind == "reinsert":
            gone = [rid for rid in self.deleted if rid not in live]
            if not gone:
                return
            store.apply_insert((op[1],), self.csn, row_id=gone[-1])
        elif kind == "vacuum":
            store.vacuum(self.csn * op[1] // 100)
        elif not live:
            return
        elif kind == "update":
            store.apply_update(live[op[1] % len(live)], (op[2],), self.csn)
        else:
            target = live[op[1] % len(live)]
            store.apply_delete(target, self.csn)
            self.deleted.append(target)
        if had_list and kind != "vacuum":
            self.branches.add("noted" if store._scan_rows is not None else "dropped")
        if store._scan_rows is None:
            assert not store._scan_notes  # the notes go with the list

    def read(self, kind: str) -> None:
        store = self.store
        expected = self.oracle()
        patching = store._scan_rows is not None and bool(store._scan_notes)
        before = self.page_reads[0] if self.page_reads is not None else 0
        epoch = store.write_epoch
        if kind == "pin":
            self.pinned.append((store.scan(), expected))
            return
        if kind == "rows":
            handed = store.latest_rows()
        else:
            handed = store.latest_values()
            expected = [values for _rid, values in expected]
        if patching:
            self.branches.add("patched")
            if self.page_reads is not None:
                # Every noted write carried its values: no page is read.
                assert self.page_reads[0] == before
        assert store.write_epoch == epoch  # publishing is not a write
        assert handed == expected
        assert not store._scan_notes
        # Asking again without a write in between hands out the same list.
        again = store.latest_rows() if kind == "rows" else store.latest_values()
        assert again is handed
        self.handed.append((handed, list(handed), expected))
        self.fingerprint.append((kind, list(handed)))


@settings(max_examples=200, deadline=None)
@given(preload=preloads, ops=maintenance_ops)
def test_published_lists_match_version_walk_and_are_never_mutated(preload, ops):
    Maintenance(make_store()).run(preload, ops)


@settings(max_examples=60, deadline=None)
@given(preload=preloads, ops=maintenance_ops)
def test_paged_store_patches_without_reading_pages(preload, ops):
    """Same program, paged: same lists, and the patch path reads no page."""
    memory = Maintenance(make_store())
    memory.run(preload, ops)
    with paged_store() as store, counted_page_reads() as page_reads:
        paged = Maintenance(store, page_reads)
        paged.run(preload, ops)
    assert paged.fingerprint == memory.fingerprint
    assert paged.branches == memory.branches


def _branches_of(preload: int, ops) -> set[str]:
    run = Maintenance(make_store())
    run.run(preload, ops)
    return run.branches


def test_patch_and_rebuild_branches_are_both_reachable():
    """The program strategy can reach every maintenance branch."""
    few = [("rows",), ("update", 3, 7), ("delete", 5), ("insert", 1), ("values",)]
    assert _branches_of(64, few) == {"noted", "patched"}
    many = [("rows",)] + [("update", i, i) for i in range(64 // _PATCH_LIMIT_DIVISOR + 1)]
    assert _branches_of(64, many) == {"noted", "dropped"}


def test_paged_patch_reads_no_page_where_a_rebuild_reads_many():
    with paged_store() as store, counted_page_reads() as page_reads:
        store.apply_inserts(
            [(rid, (rid,)) for rid in store.reserve_row_ids(400)], 1
        )
        start = page_reads[0]
        first = store.latest_rows()
        rebuild_reads = page_reads[0] - start
        assert rebuild_reads > 2  # the table is several times the pool
        store.apply_update(200, (-1,), 2)
        store.apply_delete(7, 3)
        store.apply_insert((9,), 4)
        # The writes themselves touched pages (sealing a version reads
        # its page); publishing the patched list must not.
        start = page_reads[0]
        second = store.latest_rows()
        values = store.latest_values()
        assert page_reads[0] == start
        assert second is not first and len(first) == 400
        assert second == list(store.scan(4))
        assert values == [v for _rid, v in second]


def test_rebuild_threshold_drops_list_and_notes_at_the_write():
    store = make_store()
    store.apply_inserts([(rid, (rid,)) for rid in store.reserve_row_ids(80)], 1)
    pinned = store.latest_rows()
    store.latest_values()
    limit = 80 // _PATCH_LIMIT_DIVISOR
    for n in range(limit):
        store.apply_update(n + 1, (-n,), 2 + n)
    assert store._scan_rows is pinned and len(store._scan_notes) == limit
    store.apply_update(limit + 1, (0,), 2 + limit)
    assert store._scan_rows is None and store._scan_values is None
    assert not store._scan_notes
    assert pinned == [(rid, (rid,)) for rid in range(1, 81)]  # untouched
    assert store.latest_rows() == list(store.scan(2 + limit))
    # A bulk insert larger than the allowance never lands in the notes.
    store.apply_inserts([(rid, (0,)) for rid in store.reserve_row_ids(40)], 99)
    assert store._scan_rows is None and not store._scan_notes


# ---------------------------------------------------------------------------
# Adoption: a base adopted by reference behaves as rows loaded at CSN 0
# ---------------------------------------------------------------------------

#: A base to adopt: distinct ids from the explicit-id space, so programs
#: delete, re-insert and collide with base rows.
bases = st.dictionaries(
    st.integers(1, _ID_SPACE), st.tuples(st.integers(0, 100)), max_size=16
)


def assert_twins_agree(adopted: TableStore, loaded: TableStore, csn: int) -> None:
    """Every read the two stores answer, at every CSN up to ``csn``."""
    for at in range(csn + 1):
        assert list(adopted.scan(at)) == list(loaded.scan(at))
        assert list(adopted.moved_after(at, (0,))) == list(loaded.moved_after(at, (0,)))
    assert adopted.stats() == loaded.stats()  # live rows, versions, next id
    for row_id in range(adopted.stats()["next_row_id"] + 1):
        assert adopted.get(row_id) == loaded.get(row_id)
        assert adopted.last_change_csn(row_id) == loaded.last_change_csn(row_id)
    assert adopted.row_count() == loaded.row_count()
    assert adopted.version_count() == loaded.version_count()
    assert adopted.live_row_ids() == loaded.live_row_ids()
    assert adopted.latest_rows() == loaded.latest_rows()
    assert adopted.latest_values() == loaded.latest_values()
    assert adopted.write_epoch == loaded.write_epoch


@settings(max_examples=100, deadline=None)
@given(base=bases, ops=maintenance_ops)
@example(  # delete a base row, bring it back, update another, vacuum all
    base={9: (9,), 2: (2,), 5: (5,)},
    ops=[("delete", 0), ("reinsert", 4), ("update", 1, 8), ("rows",), ("vacuum", 100)],
)
def test_an_adopted_base_behaves_as_rows_loaded_at_csn_0(base, ops):
    kept = dict(base)
    adopted, loaded = make_store(), make_store()
    assert adopted.adopt(base) == sorted(kept.items())
    loaded.apply_inserts(list(kept.items()), 0)
    twins = Maintenance(adopted), Maintenance(loaded)
    assert_twins_agree(adopted, loaded, 0)
    for op in ops:
        for twin in twins:
            twin.step(op)
        assert_twins_agree(adopted, loaded, twins[0].csn)
    for twin in twins:
        twin.finish()
    assert twins[0].fingerprint == twins[1].fingerprint
    assert base == kept  # the store never wrote into what it adopted


def test_adopting_refuses_a_repeated_id_and_a_store_with_rows():
    store = make_store()
    with pytest.raises(DatabaseError, match="row 4 already live"):
        store.adopt([(4, (1,)), (2, (2,)), (4, (3,))])
    assert store.is_empty() and store.adopt([]) == []
    base = {3: (3,), 1: (1,)}
    store.adopt(base)
    assert store._base is base and store.version_count() == 2
    with pytest.raises(DatabaseError, match="only an empty store"):
        store.adopt({8: (8,)})
    with pytest.raises(DatabaseError, match="row 3 already live"):
        store.apply_inserts([(9, (9,)), (3, (0,))], 1)
    assert store.live_row_ids() == [1, 3] and store.get(9) is None
