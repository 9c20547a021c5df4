"""What a long-running engine keeps per commit: nothing.

A commit's CSN is on its handle (``txn.commit_csn``) and, when traced, in
the ``Executions`` table; the 2PC decision log holds a global transaction
only while it is in flight. So a stream of commits leaves the heap where
it was, and a coordinator that committed many global transactions holds
none of them in its decision log. A reopened log still holds what
recovery reads: its file's end records.
"""

import gc
import os
import tracemalloc

from repro.db import Database
from repro.db.multistore import MultiStoreCoordinator

#: Heap growth allowed per read-only commit, in bytes: a map keyed by txn
#: id costs about 93 B per commit (its slot plus the two ints it holds).
BYTES_PER_COMMIT = 8


def read_only_commit(db: Database) -> None:
    txn = db.begin()
    db.execute("SELECT v FROM t WHERE k = ?", (1,), txn=txn)
    txn.commit()


def test_read_only_commits_leave_nothing_behind():
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER, v TEXT)")
    db.execute("INSERT INTO t VALUES (1, 'one')")
    for _ in range(200):  # warm the plan memo and the stats counters
        read_only_commit(db)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        commits = 5_000
        for _ in range(commits):
            read_only_commit(db)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert db.txn_manager.stats["committed"] == 200 + commits + 1
    assert grown < BYTES_PER_COMMIT * commits, (
        f"{grown / commits:.1f} B per read-only commit"
    )


def test_the_decision_log_forgets_ended_transactions():
    stores = {name: Database(name=name) for name in ("a", "b")}
    for database in stores.values():
        database.execute("CREATE TABLE t (k INTEGER, v TEXT)")
    coordinator = MultiStoreCoordinator(stores)
    for key in range(500):
        gtxn = coordinator.begin()
        gtxn.execute("a", "INSERT INTO t VALUES (?, 'a')", (key,))
        gtxn.execute("b", "INSERT INTO t VALUES (?, 'b')", (key,))
        gtxn.commit()
    assert coordinator.stats["decisions_logged"] == 500
    assert coordinator.stats["ends_logged"] == 500
    assert len(coordinator.aligned_log) == 500
    log = coordinator.decision_log
    assert log.decisions == {} and log.ends == {}
    assert not any(log.decided_commit(g) for g in range(1, 501))


def test_a_reopened_decision_log_still_decides_an_ended_transaction(tmp_path):
    """Group commit can lose a branch's commit record after the end record
    was logged: the reopened log must still read the transaction as
    decided, so recovery commits the branch instead of aborting it."""
    dirs = {name: os.path.join(tmp_path, name) for name in ("a", "b")}
    log_path = os.path.join(tmp_path, "decisions.jsonl")

    def open_stores():
        return {
            name: Database(name=name, storage="paged", data_dir=path, wal_group_size=8)
            for name, path in dirs.items()
        }

    stores = open_stores()
    coordinator = MultiStoreCoordinator(stores, decision_log=log_path)
    for database in stores.values():
        database.execute("CREATE TABLE t (k INTEGER, v TEXT)")
    gtxn = coordinator.begin()
    gtxn.execute("a", "INSERT INTO t VALUES (1, 'a')")
    gtxn.execute("b", "INSERT INTO t VALUES (1, 'b')")
    gtxn.commit()
    assert not coordinator.decision_log.decided_commit(gtxn.txn_id)
    for database in stores.values():  # crash: the pending group is lost
        database.wal._pending.clear()
        database.wal._file.close()
        database._page_manager.close_all()
    coordinator.decision_log.close()

    reopened = open_stores()
    assert all(len(db.in_doubt_prepares()) == 1 for db in reopened.values())
    recovered = MultiStoreCoordinator(reopened, decision_log=log_path)
    assert recovered.decision_log.decided_commit(gtxn.txn_id)
    assert recovered.recover_in_doubt() == {
        "committed": 2, "aborted": 0, "repaired_ends": 0,
    }
    assert recovered.recover_in_doubt() == {
        "committed": 0, "aborted": 0, "repaired_ends": 0,
    }
    assert [c.local_csns for c in recovered.aligned_log] == [{"a": 1, "b": 1}]
    for name, database in reopened.items():
        assert database.execute("SELECT k, v FROM t").rows == [(1, name)]
        assert database.wal.branch_csns == {}
        database.close()
    recovered.decision_log.close()
