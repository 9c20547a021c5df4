"""``IN``-list index probes against the unindexed twin.

``col IN (item, ...)`` on a single-column hash index plans as a probe:
one bucket lookup per non-NULL item, unioned, with the pushed filter
re-checking every row the buckets hold. Whatever the plan, a statement
must do exactly what it does on a twin database that has no index and
scans. The twin's answer is the oracle here, for:

    items        literals | parameters, NULL items, duplicates, int/float
                 mixes, booleans and text against numbers, no match
    statement    SELECT | the match phase of UPDATE and DELETE
    transaction  autocommit | its own uncommitted writes | a SNAPSHOT
                 reader after a writer re-keyed a row | ``AS OF``
    engine       in-memory | paged storage | a sharded engine

``NOT IN``, an ``IN`` over a column with no single-column hash index and
an ``IN`` whose items read a column stay filtered scans.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import Database, IsolationLevel, ShardedDatabase
from repro.errors import SerializationError

DDL = "CREATE TABLE t (id INTEGER, k INTEGER, f FLOAT, v TEXT)"
INDEXES = ("CREATE INDEX ix_k ON t (k)", "CREATE INDEX ix_f ON t (f)")


def initial_rows(n: int = 24) -> list[tuple]:
    """``k`` repeats and is NULL every seventh row; ``f`` holds halves."""
    return [
        (i, None if i % 7 == 6 else i % 5, (i % 4) * 0.5, f"v{i}") for i in range(n)
    ]


def sql_literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


def in_list(column: str, items: list, as_params: bool) -> tuple[str, tuple]:
    """``column IN (...)`` over ``items``, and the parameters it takes."""
    if as_params:
        return f"{column} IN ({', '.join('?' * len(items))})", tuple(items)
    return f"{column} IN ({', '.join(map(sql_literal, items))})", ()


def open_db(storage: str, tmp_path, indexed: bool) -> Database:
    if storage == "paged":
        db = Database(
            storage="paged",
            data_dir=str(tmp_path / f"data-{indexed}"),
            buffer_pool_pages=4,
            page_size=512,
        )
    else:
        db = Database()
    db.execute(DDL)
    if indexed:
        for ddl in INDEXES:
            db.execute(ddl)
    db.insert_rows("t", initial_rows())
    return db


def everything(engine, txn=None) -> list[tuple]:
    return sorted(engine.execute("SELECT id, k, f, v FROM t", txn=txn).rows, key=repr)


def run(engine, statement: str, where: str, params: tuple, txn=None):
    """One statement: a SELECT's rows, or a write's count and the table."""
    if statement == "select":
        return engine.execute(
            f"SELECT id, k, v FROM t WHERE {where}", params, txn=txn
        ).rows
    sql = (
        f"UPDATE t SET v = 'hit' WHERE {where}"
        if statement == "update"
        else f"DELETE FROM t WHERE {where}"
    )
    return engine.execute(sql, params, txn=txn).rowcount, everything(engine, txn)


#: (column, items): every case runs with the items as literals and as
#: parameters.
CASES = {
    "ints": ("k", [1, 3]),
    "one item": ("k", [2]),
    "null items": ("k", [None, 4, None]),
    "only null": ("k", [None]),
    "duplicates": ("k", [3, 3, 1, 3]),
    "int/float mix": ("k", [1.0, 2, 3.5]),
    "floats on ints": ("f", [1, 0.5]),
    "booleans and text": ("k", [True, "1", 0]),
    "no match": ("k", [99, -1]),
}


#: What ``explain`` is asked about for each statement kind.
EXPLAINED = {
    "select": "SELECT id FROM t WHERE {}",
    "update": "UPDATE t SET v = 'x' WHERE {}",
    "delete": "DELETE FROM t WHERE {}",
}


@pytest.mark.parametrize("storage", ["memory", "paged"])
@pytest.mark.parametrize("statement", ["select", "update", "delete"])
@pytest.mark.parametrize("as_params", [False, True])
@pytest.mark.parametrize("case", sorted(CASES))
def test_in_list_matches_the_unindexed_twin(storage, statement, as_params, case, tmp_path):
    column, items = CASES[case]
    where, params = in_list(column, items, as_params)
    probed, twin = (open_db(storage, tmp_path, indexed) for indexed in (True, False))
    explained = EXPLAINED[statement].format(where)
    plan = probed.explain(explained)[-1]
    assert f"probe=ix_{column}[{column}] in({len(items)})" in plan
    assert "probe=" not in twin.explain(explained)[-1]
    answer = run(probed, statement, where, params)
    assert answer == run(twin, statement, where, params)
    if case not in ("no match", "only null"):
        assert answer and (statement == "select" or answer[0])
    probed.close()
    twin.close()


class TestInsideATransaction:
    WHERE = "k IN (?, ?, 2, 4)"
    PARAMS = (1, 3)

    @pytest.mark.parametrize("statement", ["select", "update", "delete"])
    def test_own_uncommitted_writes(self, statement):
        """The shared index holds none of these writes: a row inserted at a
        listed key, one moved into the list, one moved out of it and one
        deleted."""
        answers = []
        for indexed in (True, False):
            db = open_db("memory", None, indexed)
            txn = db.begin()
            db.execute("INSERT INTO t VALUES (100, 3, 0.0, 'new')", txn=txn)
            db.execute("UPDATE t SET k = 4 WHERE id = 0", txn=txn)  # 0 -> 4
            db.execute("UPDATE t SET k = 9 WHERE id = 1", txn=txn)  # 1 -> 9
            db.execute("DELETE FROM t WHERE id = 2", txn=txn)
            got = run(db, statement, self.WHERE, self.PARAMS, txn)
            txn.commit()
            answers.append((got, everything(db)))
        assert answers[0] == answers[1]
        ids = {row[0] for row in answers[0][1]}
        assert 100 in ids or statement == "delete"

    @pytest.mark.parametrize("statement", ["select", "update", "delete"])
    def test_snapshot_reader_after_a_rekey(self, statement):
        """Row 1 leaves k = 1 and row 2 joins it after the reader's
        snapshot: the reader still matches row 1 and not row 2. A SNAPSHOT
        write that matched a re-keyed row conflicts on both databases."""
        answers = []
        for indexed in (True, False):
            db = open_db("memory", None, indexed)
            txn = db.begin(IsolationLevel.SNAPSHOT)
            db.execute("SELECT id FROM t WHERE k IN (1)", txn=txn)  # pins it
            before = db.last_csn
            db.execute("UPDATE t SET k = 9 WHERE id = 1")
            db.execute("UPDATE t SET k = 1 WHERE id = 2")
            assert db.store("t").moved_after(before, (1,))  # below the reader
            got = run(db, statement, "k IN (1, 9)", (), txn)
            if statement == "select":
                assert got == [(1, 1, "v1"), (11, 1, "v11"), (16, 1, "v16"), (21, 1, "v21")]
            try:
                txn.commit()
                committed = True
            except SerializationError:
                committed = False
            as_of = db.execute("SELECT id FROM t WHERE k IN (1) AS OF ?", (before,))
            answers.append((got, committed, as_of.rows, everything(db)))
        assert answers[0] == answers[1]
        assert answers[0][1] is (statement == "select")


@pytest.mark.parametrize("statement", ["select", "update", "delete"])
def test_a_sharded_engine_matches_its_unindexed_twin(statement):
    answers = []
    for indexed in (True, False):
        sharded = ShardedDatabase(2, shard_keys={"t": "id"}, name=f"in{indexed}")
        sharded.execute(DDL)
        if indexed:
            sharded.execute(INDEXES[0])
        for row in initial_rows():
            sharded.execute("INSERT INTO t VALUES (?, ?, ?, ?)", row)
        where = "k IN (?, NULL, 3, 3.0)"
        plan = sharded.explain(f"SELECT id FROM t WHERE {where}")[-1]
        assert ("probe=ix_k[k] in(4)" in plan) is indexed
        got = run(sharded, statement, where, (1,))
        answers.append(sorted(got, key=repr) if statement == "select" else got)
    assert answers[0] == answers[1] and answers[0]


class TestExplain:
    @pytest.fixture
    def db(self):
        db = Database()
        db.execute(DDL)
        db.execute("CREATE INDEX ix_k ON t (k)")
        db.execute("CREATE INDEX ix_fv ON t (f, v)")
        db.execute("CREATE SORTED INDEX ix_id ON t (id)")
        return db

    def test_in_on_a_single_column_hash_index_is_a_probe(self, db):
        assert db.explain("SELECT id FROM t WHERE k IN (1, ?, NULL)")[-1].strip() == (
            "Scan(t) probe=ix_k[k] in(3) filter[(k IN (1, ?, NULL))]"
        )
        assert db.explain("DELETE FROM t WHERE k IN (?, ?)") == [
            "Delete(t)",
            "  Scan(t) probe=ix_k[k] in(2) filter[(k IN (?, ?))]",
        ]

    @pytest.mark.parametrize(
        "where",
        [
            "k NOT IN (1, 2)",  # a complement: no bucket lists it
            "v IN ('v1', 'v2')",  # no index
            "f IN (0.5, 1.0)",  # only a multi-column index
            "id IN (1, 2)",  # only a sorted index
            "k IN (id, 2)",  # an item reads a column
        ],
    )
    def test_what_stays_a_filtered_scan(self, db, where):
        plan = db.explain(f"SELECT id FROM t WHERE {where}")[-1].strip()
        assert plan.startswith("Scan(t) filter[") and "probe=" not in plan

    def test_an_equality_probe_wins_over_an_in_probe(self, db):
        db.execute("CREATE INDEX ix_v ON t (v)")
        plan = db.explain("SELECT id FROM t WHERE k IN (1, 2) AND v = ?")[-1]
        assert "probe=ix_v[v]" in plan and " in(" not in plan


#: Item values: NULL, ints, floats equal and unequal to ints, a boolean and
#: text, which SQL equality keeps apart from the numbers a hash bucket
#: shares with them.
ITEMS = st.one_of(
    st.none(),
    st.integers(-1, 5),
    st.sampled_from([0.0, 1.0, 2.5, 0.5, True, "2"]),
)


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.one_of(st.none(), st.integers(0, 4)), min_size=0, max_size=30),
    items=st.lists(ITEMS, min_size=1, max_size=6),
    as_params=st.booleans(),
    column=st.sampled_from(["k", "f"]),
    statement=st.sampled_from(["select", "update", "delete"]),
)
def test_prop_in_probe_matches_the_unindexed_twin(keys, items, as_params, column, statement):
    """Any table, any list: the probed statement does what the scan does."""
    rows = [
        (i, key, None if key is None else key / 2, f"v{i}")
        for i, key in enumerate(keys)
    ]
    where, params = in_list(column, items, as_params)
    answers = []
    for indexed in (True, False):
        db = Database()
        db.execute(DDL)
        if indexed:
            for ddl in INDEXES:
                db.execute(ddl)
        if rows:
            db.insert_rows("t", rows)
        answers.append(run(db, statement, where, params))
        assert ("probe=" in db.explain(f"SELECT id FROM t WHERE {where}")[-1]) is indexed
    assert answers[0] == answers[1]
