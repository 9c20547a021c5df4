"""Batch insert ≡ N × single insert.

``Database.insert_rows`` / ``Transaction.insert_many`` /
``TableStore.apply_inserts`` / ``IndexSet.on_insert_many`` are the set
forms; ``insert_row`` / ``insert`` / ``apply_insert`` / ``on_insert`` are
their one-row forms. Every test drives twin databases — one through the
batch form, one through a loop of the one-row form inside one transaction
— and requires them to be indistinguishable: row ids, read-your-own-writes,
committed rows, index probes, WAL and the state recovered from the WAL.
"""

import pytest

from repro.db import Database, IsolationLevel
from repro.db.schema import Column, TableSchema
from repro.db.storage import TableStore
from repro.db.txn.wal import WriteAheadLog
from repro.db.types import ColumnType
from repro.errors import (
    DatabaseError,
    IntegrityError,
    ReadOnlyError,
    SchemaError,
    TransactionAborted,
    TypeCoercionError,
)

PLAIN = TableSchema(
    "plain",
    [
        Column("k", ColumnType.INTEGER),
        Column("v", ColumnType.TEXT),
        Column("score", ColumnType.FLOAT),
    ],
)
KEYED = TableSchema(
    "keyed",
    [
        Column("id", ColumnType.INTEGER, primary_key=True, nullable=False),
        Column("email", ColumnType.TEXT, unique=True),
        Column("name", ColumnType.TEXT, nullable=False),
    ],
)
SCHEMAS = [PLAIN, KEYED]

#: Mappings and sequences, ints where floats are stored, NULLs, a default.
PLAIN_ROWS = [
    {"k": 3, "v": "c", "score": 1},
    (1, "a", 0.5),
    [2, None, None],
    {"k": 2},
    (None, "z", 2.0),
]
KEYED_ROWS = [
    {"id": 1, "email": "a@x", "name": "ann"},
    (2, None, "bob"),
    (3, None, "cy"),
    {"id": 4, "email": "d@x", "name": "dee"},
]


def make_db(tmp_path, label: str) -> Database:
    db = Database(name=label, wal_path=str(tmp_path / f"{label}.wal.jsonl"))
    for schema in SCHEMAS:
        db.create_table(schema)
    db.create_index("ix_plain_k", "plain", ["k"])
    db.create_index("ix_plain_score", "plain", ["score"], sorted_index=True)
    return db


def loop_insert(db: Database, table: str, rows, txn) -> list[int]:
    return [db.insert_row(table, row, txn=txn) for row in rows]


def logged(db: Database) -> list[tuple]:
    """``(csn, txn_id, changes)`` of each commit in ``db``'s WAL file (a
    recovered database writes none)."""
    if db.wal.path is None:
        return []
    db.wal.flush()
    return [(c.csn, c.txn_id, c.changes) for c in WriteAheadLog.load(db.wal.path)[1]]


def observable(db: Database) -> dict:
    """Everything a client (or a recovering node) can see of ``db``."""
    plain_indexes = db.index_set("plain").indexes
    reader = db.begin()  # aborted below: looking must not consume a CSN
    sql_probe = db.execute(
        "SELECT v FROM plain WHERE k = ? ORDER BY v", (2,), txn=reader
    ).rows
    reader.abort()
    return {
        "rows": {s.name: db.snapshot_rows(s.name) for s in SCHEMAS},
        "next_ids": {s.name: db.store(s.name).stats()["next_row_id"] for s in SCHEMAS},
        "hash_probe": {
            k: sorted(plain_indexes["ix_plain_k"].lookup((k,))) for k in (1, 2, 3, None)
        },
        "range_probe": plain_indexes["ix_plain_score"].scan_between((0.5,), (1.5,)),
        "sorted_all": plain_indexes["ix_plain_score"].scan_between(None, None),
        "sql_probe": sql_probe,
        "wal": logged(db),
        "last_csn": db.last_csn,
    }


@pytest.fixture
def twins(tmp_path):
    batch, single = make_db(tmp_path, "batch"), make_db(tmp_path, "single")
    yield batch, single
    batch.close()
    single.close()


@pytest.mark.parametrize(
    "isolation", [IsolationLevel.SERIALIZABLE, IsolationLevel.SNAPSHOT]
)
class TestTwins:
    def test_same_ids_own_writes_commit_and_recovery(self, twins, isolation, tmp_path):
        batch, single = twins
        for round_no in range(2):  # the second round lands on a non-empty table
            tb, ts = batch.begin(isolation), single.begin(isolation)
            ids_b = list(batch.insert_rows("plain", PLAIN_ROWS, txn=tb))
            ids_s = loop_insert(single, "plain", PLAIN_ROWS, ts)
            keyed = [
                (row_id + 10 * round_no, email and f"{round_no}{email}", name)
                for row_id, email, name in (
                    KEYED.coerce_row(r) for r in KEYED_ROWS
                )
            ]
            ids_b += batch.insert_rows("keyed", keyed, txn=tb)
            ids_s += loop_insert(single, "keyed", keyed, ts)
            assert ids_b == ids_s
            # Read-your-own-writes, before commit: scans, point gets,
            # pending rows and SQL all see the buffered batch.
            for table in ("plain", "keyed"):
                assert list(tb.scan(table)) == list(ts.scan(table))
                assert tb.pending_rows(table) == ts.pending_rows(table)
            assert tb.get("plain", ids_b[0]) == ts.get("plain", ids_s[0]) == (3, "c", 1.0)
            sql = "SELECT k, v, score FROM plain WHERE k = 2 ORDER BY v"
            assert batch.execute(sql, txn=tb).rows == single.execute(sql, txn=ts).rows
            assert tb.write_ops == ts.write_ops
            assert tb.commit() == ts.commit()
        assert observable(batch) == observable(single)
        assert batch.table_rows("plain")[:2] == [
            {"k": 3, "v": "c", "score": 1.0},
            {"k": 1, "v": "a", "score": 0.5},
        ]
        # One WAL change per inserted row.
        per_round = len(PLAIN_ROWS) + len(KEYED_ROWS)
        assert [len(changes) for _csn, _txn, changes in logged(batch)] == [per_round] * 2
        # A WAL written by the batch path rebuilds the same database.
        batch.wal.flush()
        single.wal.flush()
        recovered = [
            Database.recover(SCHEMAS, str(tmp_path / f"{label}.wal.jsonl"))
            for label in ("batch", "single")
        ]
        for db in recovered:
            db.create_index("ix_plain_k", "plain", ["k"])
            db.create_index("ix_plain_score", "plain", ["score"], sorted_index=True)
        images = [observable(db) for db in recovered]
        live = observable(batch)
        for image in images:
            for key in ("rows", "next_ids", "hash_probe", "range_probe", "sorted_all",
                        "sql_probe"):
                assert image[key] == live[key], key
        for db in recovered:
            db.close()

    def test_unique_violation_same_row_same_error_nothing_applied(self, twins, isolation):
        batch, single = twins
        for db in twins:
            db.insert_rows("keyed", KEYED_ROWS[:2])
        clash = [(7, "g@x", "gil"), (8, "a@x", "dup of row 1"), (9, None, "never")]
        errors = []
        tb, ts = batch.begin(isolation), single.begin(isolation)
        for db, txn, insert in (
            (batch, tb, lambda: batch.insert_rows("keyed", clash, txn=tb)),
            (single, ts, lambda: loop_insert(single, "keyed", clash, ts)),
        ):
            with pytest.raises(IntegrityError) as info:
                insert()
            errors.append(str(info.value))
        assert errors[0] == errors[1] and "email" in errors[0] and "'a@x'" in errors[0]
        # The row before the clash is buffered in both, the clashing row
        # and the one after it in neither; its id was never reserved.
        assert tb.write_ops == ts.write_ops and len(tb.write_ops) == 1
        tb.abort()
        ts.abort()
        assert observable(batch) == observable(single)
        assert batch.execute("SELECT COUNT(*) FROM keyed").scalar() == 2
        # Autocommit: the failed batch aborts whole.
        with pytest.raises(IntegrityError):
            batch.insert_rows("keyed", clash)
        assert batch.execute("SELECT COUNT(*) FROM keyed").scalar() == 2
        assert batch.txn_manager.active == {}

    def test_duplicate_inside_the_batch_is_caught_by_the_local_check(self, twins, isolation):
        batch, _single = twins
        txn = batch.begin(isolation)
        with pytest.raises(IntegrityError, match="keyed"):
            batch.insert_rows("keyed", [(1, "a@x", "ann"), (1, "b@x", "again")], txn=txn)
        txn.abort()


class TestChecksKept:
    def test_autocommit_batch_is_one_transaction(self, twins):
        batch, single = twins
        ids = batch.insert_rows("plain", PLAIN_ROWS)
        assert batch.txn_manager.stats["committed"] == 1
        txn = single.begin()
        assert list(ids) == loop_insert(single, "plain", PLAIN_ROWS, txn)
        txn.commit()
        assert observable(batch) == observable(single)

    def test_not_null_and_wrong_type_name_table_and_column(self, twins):
        batch, single = twins
        bad_rows = {
            "NOT NULL violation: keyed.name": [(1, None, "ok"), (2, None, None)],
            r"keyed\.id: expected INTEGER": [(1, None, "ok"), ("two", None, "x")],
            r"plain\.score: expected FLOAT": [(1, "a", 1.0), {"k": 1, "score": "high"}],
        }
        for pattern, rows in bad_rows.items():
            table = "plain" if "plain" in pattern else "keyed"
            kind = IntegrityError if "NOT NULL" in pattern else TypeCoercionError
            for db, insert in (
                (batch, lambda: batch.insert_rows(table, rows)),
                (single, lambda: [single.insert_row(table, r) for r in rows[1:]]),
            ):
                with pytest.raises(kind, match=pattern):
                    insert()
            # All rows are coerced before any is buffered: nothing landed.
            assert batch.snapshot_rows(table) == []
            assert batch.txn_manager.stats["begun"] == 0

    def test_commit_time_unique_check_still_runs_per_row(self, twins):
        """Two SNAPSHOT writers pass their local checks; the second to
        commit is refused on the one clashing row of its batch."""
        batch, _single = twins
        first = batch.begin(IsolationLevel.SNAPSHOT)
        second = batch.begin(IsolationLevel.SNAPSHOT)
        batch.insert_rows("keyed", [(1, None, "ann"), (2, None, "bob")], txn=first)
        batch.insert_rows("keyed", [(5, None, "eve"), (2, None, "rival")], txn=second)
        first.commit()
        with pytest.raises(IntegrityError, match="keyed"):
            second.commit()
        assert [v[0] for _rid, v in batch.snapshot_rows("keyed")] == [1, 2]

    def test_arity_and_unknown_column(self, twins):
        batch, _single = twins
        with pytest.raises(SchemaError, match="expects 3 values, got 2"):
            batch.insert_rows("plain", [(1, "a", 1.0), (2, "b")])
        with pytest.raises(SchemaError, match="nope"):
            batch.insert_rows("plain", [{"k": 1, "nope": 2}])

    def test_read_only_database_refuses(self, twins):
        batch, single = twins
        for db in twins:
            db.read_only = True
            db.read_only_reason = "quorum lost"
        with pytest.raises(ReadOnlyError, match="quorum lost"):
            batch.insert_rows("plain", PLAIN_ROWS)
        with pytest.raises(ReadOnlyError, match="quorum lost"):
            single.insert_row("plain", PLAIN_ROWS[0])
        assert batch.txn_manager.stats["begun"] == 0

    def test_finished_transaction_refuses(self, twins):
        batch, _single = twins
        for finish in ("abort", "commit"):
            txn = batch.begin()
            batch.insert_rows("plain", PLAIN_ROWS[:1], txn=txn)
            getattr(txn, finish)()
            with pytest.raises(TransactionAborted):
                batch.insert_rows("plain", PLAIN_ROWS, txn=txn)
            with pytest.raises(TransactionAborted):
                txn.insert_many("plain", [(1, "a", 1.0)])
        # The aborted round left nothing; the committed one its single row.
        assert len(batch.snapshot_rows("plain")) == 1

    def test_abort_discards_the_batch_but_not_its_ids(self, twins):
        batch, single = twins
        tb, ts = batch.begin(), single.begin()
        batch.insert_rows("plain", PLAIN_ROWS, txn=tb)
        loop_insert(single, "plain", PLAIN_ROWS, ts)
        tb.abort()
        ts.abort()
        assert batch.insert_rows("plain", [(9, "n", 0.0)]) == range(6, 7)
        assert single.insert_row("plain", (9, "n", 0.0)) == 6
        assert observable(batch) == observable(single)

    def test_serializable_batch_takes_the_table_lock_once(self, twins):
        batch, single = twins
        for db, insert in (
            (batch, lambda t: batch.insert_rows("plain", PLAIN_ROWS, txn=t)),
            (single, lambda t: loop_insert(single, "plain", PLAIN_ROWS, t)),
        ):
            txn = db.begin()
            insert(txn)
            assert db.txn_manager.locks.held_by(txn.txn_id) == {"table:plain"}
            assert db.txn_manager.locks.mode_of("table:plain").value == "X"
            txn.commit()
        assert batch.txn_manager.locks.stats["acquisitions"] == 1
        assert single.txn_manager.locks.stats["acquisitions"] == len(PLAIN_ROWS)
        snapshot = batch.begin(IsolationLevel.SNAPSHOT)
        batch.insert_rows("plain", PLAIN_ROWS, txn=snapshot)
        assert batch.txn_manager.locks.held_by(snapshot.txn_id) == set()
        snapshot.commit()

    def test_observers_see_one_commit_with_every_record(self, twins):
        batch, _single = twins
        seen = []

        class Observer:
            events = ("txn_committed",)

            def txn_committed(self, txn, csn, records):
                seen.append((csn, [(r.op, r.row_id, r.values) for r in records]))

        batch.add_observer(Observer())
        ids = batch.insert_rows("plain", PLAIN_ROWS)
        assert seen == [
            (1, [("insert", rid, v) for rid, v in zip(ids, PLAIN.coerce_rows(PLAIN_ROWS))])
        ]

    def test_mixed_ops_keep_execution_order_across_runs(self, twins):
        """Inserts batch per run; an update or delete between two runs,
        or a switch of table, ends the run — the WAL keeps execution order."""
        batch, _single = twins
        txn = batch.begin()
        a, b = batch.insert_rows("plain", [(1, "a", 1.0), (2, "b", 2.0)], txn=txn)
        batch.execute("UPDATE plain SET v = 'A' WHERE k = 1", txn=txn)
        batch.insert_rows("keyed", [(1, None, "ann")], txn=txn)
        (c,) = batch.insert_rows("plain", [(3, "c", 3.0)], txn=txn)
        batch.execute("DELETE FROM plain WHERE k = 2", txn=txn)
        txn.commit()
        ((_csn, _txn, changes),) = logged(batch)
        assert [(ch.op, ch.table, ch.row_id) for ch in changes] == [
            ("insert", "plain", a), ("insert", "plain", b), ("update", "plain", a),
            ("insert", "keyed", 1), ("insert", "plain", c), ("delete", "plain", b),
        ]
        assert changes[2].old_values == (1, "a", 1.0)
        assert changes[5].old_values == (2, "b", 2.0)
        assert batch.snapshot_rows("plain") == [(a, (1, "A", 1.0)), (c, (3, "c", 3.0))]
        assert batch.index_set("plain").indexes["ix_plain_k"].lookup((2,)) == set()


class TestBulkLoad:
    ROWS = [(7, (7, "g", 7.0)), (2, (2, "b", 2.0)), (9, (9, "i", None)), (4, (4, "d", 0.5))]

    def test_non_ascending_explicit_ids_equal_one_by_one_loading(self, twins):
        batch, single = twins
        batch.bulk_load("plain", self.ROWS)
        for row in self.ROWS:
            single.bulk_load("plain", [row])
        assert observable(batch) == observable(single)
        assert batch.store("plain").live_row_ids() == [2, 4, 7, 9]
        assert batch.snapshot_rows("plain") == sorted(self.ROWS)
        # Row 9's score is NULL: a sorted index files no NULL key.
        assert batch.index_set("plain").indexes["ix_plain_score"].scan_between(
            None, None
        ) == [4, 2, 7]
        # Engine-assigned ids continue above the highest loaded one.
        assert batch.insert_rows("plain", [(1, "a", 1.0)]) == range(10, 11)
        # As-of reads see the load at CSN 0.
        assert batch.store("plain").row_count(0) == 4

    def test_live_or_repeated_id_is_refused_with_the_store_untouched(self, twins):
        batch, _single = twins
        batch.bulk_load("plain", self.ROWS)
        before = observable(batch)
        with pytest.raises(DatabaseError, match="row 2 already live"):
            batch.bulk_load("plain", [(20, (0, "x", 0.0)), (2, (0, "y", 0.0))])
        with pytest.raises(DatabaseError, match="row 30 already live"):
            batch.bulk_load("plain", [(30, (0, "x", 0.0)), (30, (0, "y", 0.0))])
        assert observable(batch) == before

    def test_reinserting_a_deleted_id_extends_its_chain(self):
        store = TableStore(PLAIN)
        store.apply_inserts([(1, (1, "a", 1.0)), (2, (2, "b", 2.0))], 1)
        store.apply_delete(1, 2)
        store.apply_inserts([(3, (3, "c", 3.0)), (1, (1, "again", 1.0))], 3)
        assert store.live_row_ids() == [1, 2, 3]
        assert store.get(1, 1) == (1, "a", 1.0)
        assert store.get(1, 2) is None
        assert store.get(1, 3) == (1, "again", 1.0)
        assert [rid for rid, _v in store.scan(2)] == [2]
        assert store.write_epoch == 5 and store.version_count() == 4

    @pytest.mark.parametrize("storage", ["memory", "paged"])
    def test_a_dict_loads_as_its_pairs(self, storage, tmp_path):
        """A ``row_id -> values`` dict (what a restore hands over) loads
        as its pairs do: adopted by an empty in-memory table, inserted
        row by row into a paged one or one that already holds rows."""
        kept = dict(self.ROWS)
        loaded = []
        for label, rows in (("pairs", self.ROWS), ("dict", kept)):
            extra = {} if storage == "memory" else {"data_dir": str(tmp_path / label)}
            db = Database(storage=storage, **extra)
            db.create_table(PLAIN)
            db.create_index("ix_plain_score", "plain", ["score"], sorted_index=True)
            db.bulk_load("plain", rows)
            db.bulk_load("plain", {12: (12, "l", 1.5)})  # onto a non-empty table
            loaded.append(
                (
                    db.snapshot_rows("plain"),
                    db.execute("SELECT k FROM plain WHERE score > 0.6 ORDER BY k").rows,
                    db.store("plain").row_count(0),
                )
            )
            db.close()
        assert loaded[0] == loaded[1]
        assert loaded[1][0] == sorted(self.ROWS) + [(12, (12, "l", 1.5))]
        assert kept == dict(self.ROWS)
