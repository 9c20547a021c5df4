"""Read provenance against a plain-Python model — not a second executor.

With a ``statement_executed`` subscriber a statement's read rows (its :class:`ReadSet` list,
flattened through ``ReadSet.rows()``) are fully determined by the
tables' rows in scan order: per scan (a join's build side before its
probe side) the rows passing the conjuncts pushed into
that scan; under a ``LIMIT`` only the prefix pulled before the last
wanted output row; and, after the real reads, one null read per table
that was consulted but matched nothing. This module writes that down as
list comprehensions over ``snapshot_rows`` and holds ``Database`` and
every shard of a ``ShardedDatabase`` to it, for every query shape of
``test_compiled_execution.QUERIES`` plus the early-stop shapes.
"""

import pytest

from repro.core import Trod
from repro.db import Database, ShardedDatabase
from repro.runtime.scheduler import CooperativeScheduler

from eager_reads import ReadLog, read_rows
from test_compiled_execution import MIXED_KEY, QUERIES, _populate

# items(id, grp, val) / grps(grp, label) predicates in SQL's three-valued
# logic: a comparison against NULL is never TRUE.
def ANY(values):
    return True


def val_gt(x):
    return lambda v: v[2] is not None and v[2] > x


def grp_is(*names):
    return lambda v: v[1] in names


#: sql -> scans in read-recording order, each ``(table, pushed predicate)``.
SCANS = {
    "SELECT * FROM items": [("items", ANY)],
    "SELECT id, val FROM items WHERE val > 6.0": [("items", val_gt(6.0))],
    "SELECT id FROM items WHERE val > 100.0": [("items", val_gt(100.0))],
    "SELECT id + 1, val * 2.0 FROM items WHERE id < 20": [
        ("items", lambda v: v[0] < 20)
    ],
    "SELECT id FROM items WHERE grp = 'g3' AND val >= 5.0": [
        ("items", lambda v: v[1] == "g3" and v[2] is not None and v[2] >= 5.0)
    ],
    "SELECT id FROM items WHERE grp = 'g1' OR val < 2.0": [
        ("items", lambda v: v[1] == "g1" or (v[2] is not None and v[2] < 2.0))
    ],
    "SELECT COUNT(*) FROM items": [("items", ANY)],
    "SELECT COUNT(*), COUNT(*) FROM items": [("items", ANY)],
    "SELECT COUNT(val), SUM(val), AVG(val), MIN(val), MAX(id) FROM items": [
        ("items", ANY)
    ],
    "SELECT grp, COUNT(*) FROM items GROUP BY grp": [("items", ANY)],
    "SELECT grp, SUM(val) FROM items GROUP BY grp HAVING SUM(val) > 200": [
        ("items", ANY)
    ],
    "SELECT COUNT(DISTINCT grp) FROM items": [("items", ANY)],
    "SELECT DISTINCT grp FROM items": [("items", ANY)],
    # Joins build on the right-hand table, so its reads come first. ON
    # conjuncts stay in the join; only WHERE conjuncts reach a scan.
    "SELECT i.id, g.label FROM items i JOIN grps g ON i.grp = g.grp": [
        ("grps", ANY),
        ("items", ANY),
    ],
    "SELECT COUNT(*) FROM items i JOIN grps g ON i.grp = g.grp": [
        ("grps", ANY),
        ("items", ANY),
    ],
    (
        "SELECT COUNT(*) FROM items i JOIN grps g "
        "ON i.grp = g.grp AND i.val > 4.0"
    ): [("grps", ANY), ("items", ANY)],
    (
        "SELECT i.id, g.label FROM items i "
        "LEFT JOIN grps g ON i.grp = g.grp WHERE i.id < 15"
    ): [("grps", ANY), ("items", lambda v: v[0] < 15)],
    (
        "SELECT g.label, COUNT(*) FROM items i "
        "JOIN grps g ON i.grp = g.grp WHERE i.val > 3.0 GROUP BY g.label"
    ): [("grps", ANY), ("items", val_gt(3.0))],
    # ORDER BY drains its input whatever the LIMIT above it.
    "SELECT id FROM items ORDER BY val, id LIMIT 7": [("items", ANY)],
    "SELECT id FROM items ORDER BY id LIMIT 5 OFFSET 3": [("items", ANY)],
    "SELECT val FROM items WHERE id BETWEEN 10 AND 30 ORDER BY id": [
        ("items", lambda v: 10 <= v[0] <= 30)
    ],
    "SELECT id FROM items WHERE grp LIKE 'g_'": [
        ("items", lambda v: v[1] is not None and len(v[1]) == 2)
    ],
    "SELECT id FROM items WHERE grp IN ('g1', 'g2') ORDER BY id": [
        ("items", grp_is("g1", "g2"))
    ],
    "SELECT CASE WHEN val > 6 THEN 'hi' ELSE 'lo' END FROM items": [
        ("items", ANY)
    ],
    "SELECT id FROM items WHERE grp IS NULL": [
        ("items", lambda v: v[1] is None)
    ],
    **{
        sql: [("items", lambda v: v[0] < 25)]
        for sql in QUERIES
        if MIXED_KEY in sql
    },
    **{
        sql: [("items", lambda v: v[0] < 4 or v[0] == 9000)]
        for sql in QUERIES
        if "NOT IN" in sql
    },
    "SELECT * FROM nothing": [("nothing", ANY)],
    "SELECT i.id FROM items i JOIN nothing n ON i.id = n.id": [
        ("nothing", ANY),
        ("items", ANY),
    ],
}


def label_of(grp):
    """grps.label joined to an items.grp value (None: no partner)."""
    return None if grp is None else "label" + grp[1:]


#: sql -> ``(build scans, probe table, pushed predicate, fan-out, need)``:
#: the probe-side scan stops once ``need`` (= limit + offset) output rows
#: exist, ``fan-out(values)`` being the output rows one probe row makes.
EARLY_STOPS = {
    "SELECT id FROM items LIMIT 5": ([], "items", ANY, lambda v: 1, 5),
    "SELECT id FROM items WHERE val > 6.0 LIMIT 4 OFFSET 2": (
        [],
        "items",
        val_gt(6.0),
        lambda v: 1,
        6,
    ),
    "SELECT id FROM items WHERE val > 100.0 LIMIT 3": (
        [],
        "items",
        val_gt(100.0),
        lambda v: 1,
        3,
    ),
    "SELECT DISTINCT grp FROM items LIMIT 7": (
        [],
        "items",
        ANY,
        # ids run 0.. in scan order and grp is g(id % 7): the first seven
        # rows carry the seven distinct groups.
        lambda v: 1 if v[0] < 7 else 0,
        7,
    ),
    # A WHERE on a LEFT join's null-extended side cannot be pushed: it
    # filters above the join, and rows that fail it were still read.
    (
        "SELECT i.id FROM items i LEFT JOIN grps g ON i.grp = g.grp "
        "WHERE g.label = 'label3' LIMIT 2"
    ): (
        [("grps", ANY)],
        "items",
        ANY,
        lambda v: 1 if label_of(v[1]) == "label3" else 0,
        2,
    ),
    "SELECT i.id, g.label FROM items i JOIN grps g ON i.grp = g.grp LIMIT 5": (
        [("grps", ANY)],
        "items",
        ANY,
        lambda v: 0 if v[1] is None else 1,
        5,
    ),
    # One probe row fans out into every item of its group: the first
    # grps row alone over-fills the limit.
    "SELECT g.label, i.id FROM grps g JOIN items i ON g.grp = i.grp LIMIT 5": (
        [("items", ANY)],
        "grps",
        ANY,
        lambda v: 0 if v[0] is None else len(range(int(v[0][1:]), 300, 7)),
        5,
    ),
    (
        "SELECT i.id, g.label FROM items i LEFT JOIN grps g "
        "ON i.grp = g.grp LIMIT 3 OFFSET 1"
    ): ([("grps", ANY)], "items", ANY, lambda v: 1, 4),
    "SELECT * FROM nothing LIMIT 3": ([], "nothing", ANY, lambda v: 1, 3),
    # need == 0: the statement ends before its scan is even opened.
    "SELECT id FROM items LIMIT 0": ([], "items", ANY, lambda v: 1, 0),
}

ALL_SHAPES = list(SCANS) + list(EARLY_STOPS)


def populate(db) -> None:
    _populate(db)
    db.execute("CREATE TABLE nothing (id INTEGER, note TEXT)")


def passing(rows, predicate):
    return [(rid, values) for rid, values in rows if predicate(values)]


def pulled_until(rows, predicate, fanout, need):
    """The ``(row_id, values)`` a scan records before output row ``need``."""
    read, produced = [], 0
    for rid, values in rows:
        if produced >= need:
            break
        if predicate(values):
            read.append((rid, values))
            produced += fanout(values)
    return read


def records(sql, scans):
    """``scans``: ``(table, [(row_id, values)...])`` in recording order."""
    real = [
        (table, rid, values, sql) for table, pairs in scans for rid, values in pairs
    ]
    empty = sorted({table for table, pairs in scans if not pairs})
    return real + [(table, None, None, sql) for table in empty]


def expected_single(sql, rows_of):
    if sql in SCANS:
        return records(
            sql, [(t, passing(rows_of(t), pred)) for t, pred in SCANS[sql]]
        )
    build, probe, pred, fanout, need = EARLY_STOPS[sql]
    if need == 0:
        return []
    scans = [(t, passing(rows_of(t), p)) for t, p in build]
    scans.append((probe, pulled_until(rows_of(probe), pred, fanout, need)))
    return records(sql, scans)


def shard_visit_cap(sql):
    """Rows after which the coordinator stops visiting further shards
    (plain single-table LIMIT: see ``_limit_pushdown_cap``), or None."""
    if sql in SCANS or "DISTINCT" in sql or EARLY_STOPS[sql][0]:
        return None
    return EARLY_STOPS[sql][4]


def expected_on_shard(sql, rows_of):
    """What one visited shard of a traced cluster reads: the whole local
    partition (a TROD-observed gather drains fully; LIMIT applies at the
    coordinator), the broadcast join side — gathered unfiltered, before
    the partitioned scan — first."""
    if sql in SCANS:
        scans = SCANS[sql]
    else:
        build, probe, pred, _fanout, _need = EARLY_STOPS[sql]
        scans = build + [(probe, pred)]
    partitioned = "items" if any(t == "items" for t, _p in scans) else scans[0][0]
    out = []
    for table, _pred in scans:
        if table != partitioned:
            pairs = rows_of(table)
            out += records(sql, [(table, pairs)])
    pred = next(p for t, p in scans if t == partitioned)
    return out + records(sql, [(partitioned, passing(rows_of(partitioned), pred))])


def as_tuples(read_sets, db):
    return read_rows(read_sets, db)


def test_the_model_covers_every_compiled_execution_shape():
    assert set(QUERIES) <= set(SCANS)


@pytest.fixture(scope="module")
def traced_db():
    db = Database()
    populate(db)
    return db, ReadLog.on(db)


@pytest.fixture(scope="module")
def traced_cluster():
    sdb = ShardedDatabase(3, shard_keys={"items": "id", "nothing": "id"})
    populate(sdb)
    return sdb, ReadLog.on(sdb)


@pytest.mark.parametrize("sql", ALL_SHAPES)
def test_database_reads_match_the_model(traced_db, sql):
    traced_db, log = traced_db
    txn = traced_db.begin()
    try:
        traced_db.execute(sql, txn=txn)
        assert as_tuples(log[txn], traced_db) == expected_single(
            sql, traced_db.snapshot_rows
        )
    finally:
        txn.abort()


@pytest.mark.parametrize("sql", ALL_SHAPES)
def test_every_shard_reads_match_the_model(traced_cluster, sql):
    traced_cluster, log = traced_cluster
    gtxn = traced_cluster.begin()
    try:
        traced_cluster.execute(sql, txn=gtxn)
        joined = gtxn.stores_joined()
        cap, gathered = shard_visit_cap(sql), 0
        for store, shard in traced_cluster.named_shards():
            got = (
                as_tuples(log[gtxn.on(store)], shard) if store in joined else []
            )
            if cap is not None and gathered >= cap:
                assert got == [], store  # coordinator satisfied: never visited
                continue
            want = expected_on_shard(sql, shard.snapshot_rows)
            assert got == want, store
            gathered += sum(1 for _t, rid, _v, _q in want if rid is not None)
    finally:
        gtxn.abort()


def test_cache_hits_record_the_same_reads():
    """A plan's later executions carry provenance exactly like its first."""
    db = Database()
    populate(db)
    log = ReadLog.on(db)
    for sql in ALL_SHAPES:
        want = expected_single(sql, db.snapshot_rows)
        hits = db.plan_cache_stats["hits"]
        for _run in ("first execution", "cache hit"):
            txn = db.begin()
            db.execute(sql, txn=txn)
            assert as_tuples(log[txn], db) == want, (sql, _run)
            txn.abort()
        assert db.plan_cache_stats["hits"] == hits + 1, sql


class TestInsertSelectProvenance:
    """INSERT ... SELECT reads like the SELECT it embeds."""

    def make(self) -> Database:
        db = Database()
        db.execute("CREATE TABLE src (id INTEGER, v TEXT)")
        db.execute("CREATE TABLE dst (id INTEGER, v TEXT)")
        self.log = ReadLog.on(db)
        return db

    def test_reads_carry_the_statement_text(self):
        db = self.make()
        db.execute("INSERT INTO src VALUES (1, 'a'), (2, 'b')")
        sql = "INSERT INTO dst SELECT id, v FROM src WHERE id > 1"
        txn = db.begin()
        db.execute(sql, txn=txn)
        assert as_tuples(self.log[txn], db) == [
            ("src", rid, values, sql)
            for rid, values in db.snapshot_rows("src")
            if values[0] > 1
        ]
        txn.abort()

    def test_empty_source_table_still_records_a_null_read(self):
        db = self.make()
        sql = "INSERT INTO dst SELECT id, v FROM src"
        txn = db.begin()
        db.execute(sql, txn=txn)
        assert as_tuples(self.log[txn], db) == [("src", None, None, sql)]
        assert self.log.tables(txn) == {"src"}
        txn.abort()


class TestChunkingInvariance:
    """Chunk boundaries carry no meaning: any ``scan_batch_size``,
    scheduled at batch granularity or not, returns the same rows and
    records the same reads — and, through ``Trod``, lands the same
    ``<Table>Events`` rows with the same ``Seq``."""

    @staticmethod
    def run_all(batch_size: int, scheduled: bool):
        db = Database()
        populate(db)
        trod = Trod(db).attach()
        log = ReadLog.on(db)
        db.scan_batch_size = batch_size
        seen = {}

        def thunk():
            for sql in ALL_SHAPES:
                txn = db.begin()
                rows = db.execute(sql, txn=txn).rows
                seen[sql] = (rows, as_tuples(log[txn], db))
                txn.abort()

        if scheduled:
            outcomes = CooperativeScheduler(granularity="batch").run([thunk])
            assert all(o.ok for o in outcomes)
        else:
            thunk()
        prov = trod.provenance
        for table in prov.traced_tables():
            seen[table] = trod.query(
                f"SELECT * FROM {prov.event_table_of(table)} ORDER BY Seq"
            ).rows
        return seen

    @pytest.mark.parametrize("scheduled", [False, True])
    @pytest.mark.parametrize("batch_size", [0, 1, 3])
    def test_rows_and_reads_do_not_depend_on_chunking(self, batch_size, scheduled):
        reference = self.run_all(256, scheduled=False)
        got = self.run_all(batch_size, scheduled)
        assert sum(row[2] == "Read" for row in reference["items"]) > 1000
        for key in reference:  # every query shape, then every event table
            assert got[key] == reference[key], key

    def test_default_batch_size_scheduled(self):
        assert self.run_all(256, scheduled=True) == self.run_all(256, False)
