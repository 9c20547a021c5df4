"""Index probes below the latest state.

Shared indexes hold the latest committed state. A read at an older CSN
(``AS OF``, or a SNAPSHOT / READ COMMITTED transaction that others have
committed past) probes them anyway and adds the rows that left their
key since: a row whose old version matches either still has that key,
so the index files it there, or was deleted or re-keyed since, so
:meth:`TableStore.moved_after` has it. These tests hold every such read to the answer of a full versioned
scan (``TableStore.scan(c)`` filtered in Python) on both storage tiers,
through paged reopen and crash recovery, vacuum, sharding and replicas.
"""

from __future__ import annotations

import shutil

import pytest

from repro.apps import build_ecommerce_app
from repro.core import Trod
from repro.db import Database, ReplicaSet, ShardedDatabase, connect
from repro.db.txn.manager import IsolationLevel
from repro.errors import SerializationError
from repro.runtime import Runtime
from repro.workload.generators import CheckoutWorkload

STORAGES = ("memory", "paged")
#: Position of ``k``, the indexed column, in ``t (id, k, v)``.
K = (1,)
INDEX_KINDS = ("hash", "sorted")

#: (sql, params, Python twin of the WHERE clause over (id, k, v)).
QUERIES = [
    ("SELECT id, k, v FROM t WHERE k = ?", (key,), lambda row, p: row[1] == p[0])
    for key in (0, 1, 2, 9)
] + [
    (
        "SELECT id, k, v FROM t WHERE k >= ? AND k < ?",
        bounds,
        lambda row, p: p[0] <= row[1] < p[1],
    )
    for bounds in ((1, 3), (0, 10))
]

#: The query shape each index kind serves, and how ``explain`` shows it.
ACCESS = {
    "hash": ("SELECT id, k, v FROM t WHERE k = ?", "probe=ix_k[k]"),
    "sorted": ("SELECT id, k, v FROM t WHERE k >= ? AND k < ?", "range=ix_k[k]"),
}


def open_db(storage: str, tmp_path, name: str = "data") -> Database:
    if storage == "paged":
        # A pool far smaller than the table: history reads go to pages.
        return Database(
            storage="paged",
            data_dir=str(tmp_path / name),
            buffer_pool_pages=4,
            page_size=512,
        )
    return Database(storage="memory")


def create_table(db: Database, kind: str) -> None:
    db.execute("CREATE TABLE t (id INTEGER, k INTEGER, v TEXT)")
    db.create_index("ix_k", "t", ["k"], sorted_index=kind == "sorted")


def row_id_of(db: Database, ident: int) -> int:
    (row_id,) = [rid for rid, row in db.store("t").scan(None) if row[0] == ident]
    return row_id


def write_history(db: Database) -> int:
    """Commit a seeded history; return the CSN before its late writes.

    Rows 0..11 start at ``k = id % 4``. Later, row 1 moves *out of*
    k = 1, row 2 moves *into* it, row 5 is deleted and re-inserted under
    its old row id, and writes continue after a vacuum.
    """
    for ident in range(12):
        db.execute("INSERT INTO t VALUES (?, ?, ?)", (ident, ident % 4, f"v{ident}"))
    db.execute("UPDATE t SET v = 'early' WHERE k = 3")
    horizon = db.last_csn
    db.execute("UPDATE t SET k = 9 WHERE id = 1")  # out of k = 1
    db.execute("UPDATE t SET k = 1 WHERE id = 2")  # into k = 1
    row5 = row_id_of(db, 5)
    db.execute("DELETE FROM t WHERE id = 5")
    txn = db.begin()
    txn.insert_with_id("t", (5, 2, "back"), row5)
    txn.commit()
    db.vacuum(keep_after_csn=horizon)
    db.execute("UPDATE t SET k = 0 WHERE id = 9")  # out of k = 1, after vacuum
    db.execute("INSERT INTO t VALUES (12, 1, 'late')")
    return horizon


def versioned(db: Database, csn: int, pred, params) -> list[tuple]:
    return sorted(row for _rid, row in db.store("t").scan(csn) if pred(row, params))


def check_all_csns(db: Database, kind: str) -> int:
    """Every query at every readable CSN matches the versioned scan.

    Returns how many compared CSNs widened the probe (``moved_after``
    non-empty), for the caller's non-vacuity check.
    """
    store = db.store("t")
    widened = 0
    last = db.last_csn  # SELECTs below consume CSNs; fix the range first
    for csn in range(db.history_horizon, last + 1):
        widened += bool(store.moved_after(csn, K))
        for sql, params, pred in QUERIES:
            got = db.execute(sql + " AS OF ?", (*params, csn)).rows
            assert sorted(got) == versioned(db, csn, pred, params), (sql, params, csn)
    sql, access = ACCESS[kind]
    assert access in db.explain(sql + " AS OF 1")[1]
    return widened


def probed(engine, kind: str, csn: int) -> list[tuple]:
    """Run ``kind``'s probing query for k = 1 at ``csn``."""
    sql, _access = ACCESS[kind]
    params = (1,) if kind == "hash" else (1, 2)
    return engine.execute(sql + " AS OF ?", (*params, csn)).rows


def count_gets(store) -> list[int]:
    """Count the store's row fetches from here on (one-element list)."""
    calls = [0]
    get = store.get

    def counting(row_id, csn=None):
        calls[0] += 1
        return get(row_id, csn)

    store.get = counting
    return calls


@pytest.mark.parametrize("kind", INDEX_KINDS)
@pytest.mark.parametrize("storage", STORAGES)
class TestAsOfDifferential:
    def test_every_csn_matches_the_versioned_scan(self, storage, kind, tmp_path):
        db = open_db(storage, tmp_path)
        create_table(db, kind)
        write_history(db)
        assert check_all_csns(db, kind) > 0
        db.close()

    def test_probe_reads_far_fewer_rows_than_the_table(self, storage, kind, tmp_path):
        db = open_db(storage, tmp_path)
        create_table(db, kind)
        write_history(db)
        store = db.store("t")
        sql, params = (
            ("SELECT id FROM t WHERE k = ?", (3,))
            if kind == "hash"
            else ("SELECT id FROM t WHERE k >= ? AND k < ?", (3, 4))
        )
        csn = db.last_csn - 3
        assert store.moved_after(csn, K)
        calls = count_gets(store)
        rows = db.execute(sql + " AS OF ?", (*params, csn)).rows
        assert sorted(rows) == [(3,), (7,), (11,)]
        assert 0 < calls[0] < len(list(store.scan(csn)))
        db.close()

    def test_log_is_lazy_and_extends_one_entry_per_moved_row(
        self, storage, kind, tmp_path
    ):
        db = open_db(storage, tmp_path)
        create_table(db, kind)
        write_history(db)
        store = db.store("t")
        assert not store._move_logs  # no historical read yet
        probed(db, kind, db.last_csn - 1)
        ids = store._move_logs[K].ids
        before = len(ids)
        # Inserts and updates that keep the key add nothing ...
        assert db.execute("UPDATE t SET v = 'x' WHERE k = 1").rowcount == 2
        db.execute("INSERT INTO t VALUES (13, 3, 'n'), (14, 3, 'n')")
        assert len(ids) == before
        # ... a re-key or a delete adds one entry per row.
        moved = db.execute("UPDATE t SET k = 7 WHERE k = 3").rowcount
        moved += db.execute("DELETE FROM t WHERE id = 0").rowcount
        assert moved == 5 + 1
        assert len(ids) == before + moved
        assert check_all_csns(db, kind) > 0
        db.close()


@pytest.mark.parametrize("storage", STORAGES)
def test_an_old_probe_fetches_only_rows_that_held_its_key(storage, tmp_path):
    """Deletes and re-keys of other keys do not widen an equality probe:
    one for k = 3 at an old CSN fetches the rows filed under 3 now and
    the rows that left 3 since (one of them re-keyed 3 -> 50 -> 3), and
    no row that never held 3."""
    db = open_db(storage, tmp_path)
    create_table(db, "hash")
    for ident in range(40):
        db.execute("INSERT INTO t VALUES (?, ?, ?)", (ident, ident % 8, f"v{ident}"))
    old = db.last_csn
    for ident in range(40):
        if ident % 8 == 3:
            continue
        if ident % 2:
            db.execute("DELETE FROM t WHERE id = ?", (ident,))
        else:
            db.execute("UPDATE t SET k = ? WHERE id = ?", (100 + ident, ident))
    db.execute("UPDATE t SET k = 50 WHERE id = 3")
    db.execute("UPDATE t SET k = 3 WHERE id = 3")
    db.execute("UPDATE t SET k = 51 WHERE id = 11")
    store = db.store("t")
    held = {rid for rid, row in store.scan(old) if row[1] == 3}
    assert len(held) == 5 and len(store.moved_after(old, K)) > 30
    fetched: list[int] = []
    get = store.get

    def recording(row_id, csn=None):
        fetched.append(row_id)
        return get(row_id, csn)

    store.get = recording
    rows = db.execute("SELECT id, k, v FROM t WHERE k = ? AS OF ?", (3, old)).rows
    store.get = get
    assert sorted(fetched) == sorted(held)
    assert sorted(rows) == versioned(db, old, lambda row, p: row[1] == 3, ())
    db.close()


@pytest.mark.parametrize("kind", INDEX_KINDS)
class TestPagedRebuild:
    """A reopened or crash-recovered store rebuilds the log from chains."""

    def test_reopen(self, kind, tmp_path):
        db = open_db("paged", tmp_path)
        create_table(db, kind)
        write_history(db)
        probed(db, kind, db.last_csn - 1)
        last = db.last_csn
        logged = {c: sorted(db.store("t").moved_after(c, K)) for c in range(last + 1)}
        db.close()

        reopened = open_db("paged", tmp_path)
        store = reopened.store("t")
        assert not store._move_logs
        assert check_all_csns(reopened, kind) > 0
        for csn in range(reopened.history_horizon, last + 1):
            assert sorted(store.moved_after(csn, K)) == logged[csn]
        reopened.close()

    def test_crash_copy(self, kind, tmp_path):
        db = open_db("paged", tmp_path)
        create_table(db, kind)
        write_history(db)
        written = db.last_csn
        # Kill-style image: the WAL is durable, dirty pool frames are not.
        db.wal._file.flush()
        shutil.copytree(tmp_path / "data", tmp_path / "crash")
        recovered = open_db("paged", tmp_path, name="crash")
        assert recovered.last_csn == written
        assert check_all_csns(recovered, kind) > 0
        for csn in range(recovered.history_horizon, written + 1):
            for sql, params, _pred in QUERIES:
                read = sql + " AS OF ?"
                assert sorted(recovered.execute(read, (*params, csn)).rows) == sorted(
                    db.execute(read, (*params, csn)).rows
                )
        recovered.close()
        db.close()


def seeded(storage: str, tmp_path, kind: str = "hash") -> Database:
    db = open_db(storage, tmp_path)
    create_table(db, kind)
    for ident in range(12):
        db.execute("INSERT INTO t VALUES (?, ?, ?)", (ident, ident % 4, f"v{ident}"))
    return db


def concurrent_writes(db: Database) -> None:
    """Commit past an open reader: row 1 leaves k = 1, row 2 joins it,
    row 13 is new at k = 1."""
    db.execute("UPDATE t SET k = 9 WHERE id = 1")
    db.execute("UPDATE t SET k = 1 WHERE id = 2")
    db.execute("INSERT INTO t VALUES (13, 1, 'new')")


@pytest.mark.parametrize("storage", STORAGES)
class TestConcurrentReaders:
    SQL = "SELECT id FROM t WHERE k = ? ORDER BY id"

    def test_snapshot_select_reads_its_snapshot(self, storage, tmp_path):
        db = seeded(storage, tmp_path)
        txn = db.begin(IsolationLevel.SNAPSHOT)
        assert db.execute(self.SQL, (1,), txn=txn).rows == [(1,), (5,), (9,)]
        concurrent_writes(db)
        assert db.store("t").moved_after(txn.snapshot_csn, K)
        assert db.execute(self.SQL, (1,), txn=txn).rows == [(1,), (5,), (9,)]
        assert db.execute(self.SQL, (2,), txn=txn).rows == [(2,), (6,), (10,)]
        txn.commit()
        assert db.execute(self.SQL, (1,)).rows == [(2,), (5,), (9,), (13,)]
        db.close()

    def test_read_committed_sees_each_statements_latest(self, storage, tmp_path):
        db = seeded(storage, tmp_path)
        txn = db.begin(IsolationLevel.READ_COMMITTED)
        assert db.execute(self.SQL, (1,), txn=txn).rows == [(1,), (5,), (9,)]
        concurrent_writes(db)
        assert db.execute(self.SQL, (1,), txn=txn).rows == [(2,), (5,), (9,), (13,)]
        txn.commit()
        db.close()

    @pytest.mark.parametrize(
        "isolation", [IsolationLevel.SNAPSHOT, IsolationLevel.READ_COMMITTED]
    )
    @pytest.mark.parametrize(
        "statement",
        ["UPDATE t SET v = 'hit' WHERE k = ?", "DELETE FROM t WHERE k = ?"],
    )
    @pytest.mark.parametrize("key", [1, 2])
    def test_dml_matches_a_scan_twin(self, storage, tmp_path, isolation, statement, key):
        """Each key lost a row to the writer (row 1 left k = 1, row 2 left
        k = 2). A SNAPSHOT statement still matches it, only through the
        widening, and its commit conflicts; it does not match row 2 or 13,
        which joined k = 1 after its snapshot. READ COMMITTED matches the
        latest state."""
        outcomes = []
        for indexed in (True, False):
            db = seeded(storage, tmp_path / str(indexed))
            if not indexed:
                db.execute("DROP INDEX ix_k ON t")
            txn = db.begin(isolation)
            db.execute(self.SQL, (key,), txn=txn)  # pins a SNAPSHOT's view
            concurrent_writes(db)
            count = db.execute(statement, (key,), txn=txn).rowcount
            try:
                txn.commit()
                committed = True
            except SerializationError:
                committed = False
            final = sorted(db.execute("SELECT id, k, v FROM t").rows)
            plan = db.explain(statement)[1]
            assert ("probe=ix_k[k]" in plan) is indexed
            outcomes.append((count, committed, final))
            db.close()
        assert outcomes[0] == outcomes[1]
        if isolation is IsolationLevel.SNAPSHOT:
            assert outcomes[0][:2] == (3, False)


def same_statements(engines) -> None:
    for engine in engines:
        engine.execute("CREATE TABLE t (id INTEGER, k INTEGER, v TEXT)")
        engine.execute("CREATE INDEX ix_k ON t (k)")
    for ident in range(12):
        for engine in engines:
            engine.execute(
                "INSERT INTO t VALUES (?, ?, ?)", (ident, ident % 4, f"v{ident}")
            )
    for sql in (
        "UPDATE t SET k = 9 WHERE id = 1",
        "UPDATE t SET k = 1 WHERE id = 2",
        "DELETE FROM t WHERE id = 5",
        "UPDATE t SET v = 'late' WHERE k = 3",
    ):
        for engine in engines:
            engine.execute(sql)


class TestCluster:
    def test_sharded_as_of_probes_each_shard(self):
        sharded = ShardedDatabase(2, shard_keys={"t": "id"})
        single = Database()
        same_statements((sharded, single))
        last = single.last_csn
        assert sharded.last_commit_csn == last
        conn = connect(sharded)
        widened = 0
        for csn in range(1, last + 1):
            local = sharded.coordinator.local_csns_at(csn)
            widened += any(
                shard.store("t").moved_after(local[name], K)
                for name, shard in sharded.named_shards()
            )
            for sql, params, _pred in QUERIES:
                read = sql + " AS OF ?"
                assert sorted(conn.execute(read, (*params, csn)).rows) == sorted(
                    single.execute(read, (*params, csn)).rows
                ), (sql, params, csn)
        assert widened
        plans = [
            line
            for sql, params, _pred in QUERIES
            for line in sharded.explain(sql, params)
        ]
        assert any("probe=ix_k[k]" in line for line in plans)

    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_replica_as_of_matches_single_node(self, kind):
        primary, single = Database(), Database()
        primary.execute("CREATE TABLE t (id INTEGER, k INTEGER, v TEXT)")
        primary.create_index("ix_k", "t", ["k"], sorted_index=kind == "sorted")
        cluster = ReplicaSet(primary, n_replicas=1, mode="sync")
        (replica,) = cluster.replicas
        single.execute("CREATE TABLE t (id INTEGER, k INTEGER, v TEXT)")
        conn = connect(cluster)
        for ident in range(12):
            for engine in (conn, single):
                engine.execute(
                    "INSERT INTO t VALUES (?, ?, ?)", (ident, ident % 4, f"v{ident}")
                )
        # One historical read builds the replica's log; the writes after
        # it extend it through the Applier's commits.
        probed(conn, kind, 3)
        assert replica.database.store("t")._move_logs
        for sql in (
            "UPDATE t SET k = 9 WHERE id = 1",
            "UPDATE t SET k = 1 WHERE id = 2",
            "DELETE FROM t WHERE id = 5",
        ):
            conn.execute(sql)
            single.execute(sql)
        last = single.last_csn
        assert primary.last_csn == last
        served = cluster.stats["replica_reads"]
        for csn in range(1, last + 1):
            for sql, params, _pred in QUERIES:
                read = sql + " AS OF ?"
                assert sorted(conn.execute(read, (*params, csn)).rows) == sorted(
                    single.execute(read, (*params, csn)).rows
                ), (sql, params, csn)
            assert list(replica.database.store("t").moved_after(csn, K)) == list(
                primary.store("t").moved_after(csn, K)
            )
        assert cluster.stats["replica_reads"] > served
        sql, access = ACCESS[kind]
        assert access in replica.database.explain(sql)[1]


@pytest.mark.parametrize("traced", [False, True])
def test_checkout_traffic_keeps_no_write_log(traced):
    """SERIALIZABLE order traffic never reads below the latest state, so
    no store builds a log."""
    db = Database(storage="memory")
    runtime = Runtime(db)
    event_names = build_ecommerce_app(db, runtime)
    if traced:
        Trod(db, event_names=event_names).attach(runtime)
    generator = CheckoutWorkload(n_users=8, n_skus=4, seed=7)
    generator.seed_database(runtime)
    requests = generator.requests(30)
    for add in requests:
        assert runtime.execute_request(add).ok
        assert runtime.execute_request(next(requests)).ok
    assert db.last_csn > 100
    assert not any(store._move_logs for store in db._stores.values())
