"""Crash-consistent 2PC: the coordinator dies at every phase boundary.

The acceptance scenario for the decision-log design: a cross-store 2PC
commit over two *paged* (on-disk) stores is killed — deterministically,
via the fault injector — at each boundary of the commit sequence,
including mid-phase-2 where one branch committed and the other did not.
The cluster restarts from disk, recovery resolves every in-doubt branch
against the decision log, and the result must be byte-identical to a
crash-free twin that either ran the transaction to completion (decision
was logged -> commit is the outcome) or never ran it (no decision ->
presumed abort). No kill point may surface the global commit on one
store but not the other.
"""

import os
import shutil
import tempfile

import pytest

from repro.db import Database
from repro.db.multistore import MultiStoreCoordinator
from repro.db.sharding import ShardedDatabase
from repro.errors import CrashPoint
from repro.faults import FaultInjector

#: Every phase boundary of a two-branch 2PC commit, as (point, hit):
#: before each branch's prepare, before the decision is logged, before
#: each branch's phase-2 commit, and before the end record. ``decided``
#: says whether the decision log has the commit by then — the single
#: bit recovery consults.
KILL_POINTS = [
    ("2pc.prepare", 1, False),
    ("2pc.prepare", 2, False),
    ("2pc.decision", 1, False),
    ("2pc.branch_commit", 1, True),
    ("2pc.branch_commit", 2, True),
    ("2pc.end", 1, True),
]


def make_store(data_dir: str, name: str) -> Database:
    return Database(name=name, storage="paged", data_dir=data_dir)


def seed(coordinator: MultiStoreCoordinator) -> None:
    """Identical pre-crash history on any pair of stores: DDL plus one
    committed cross-store transaction."""
    for store_name in ("a", "b"):
        coordinator.store(store_name).execute(
            "CREATE TABLE t (k INTEGER, v TEXT)"
        )
    gtxn = coordinator.begin()
    gtxn.execute("a", "INSERT INTO t VALUES (1, 'seed-a')")
    gtxn.execute("b", "INSERT INTO t VALUES (1, 'seed-b')")
    gtxn.commit()


def run_doomed(coordinator: MultiStoreCoordinator) -> "object":
    gtxn = coordinator.begin()
    gtxn.execute("a", "INSERT INTO t VALUES (2, 'cross-a')")
    gtxn.execute("b", "INSERT INTO t VALUES (2, 'cross-b')")
    return gtxn


def hard_kill(database: Database) -> None:
    """The crash model from the paged property suite: pending WAL groups
    lost, file handles dropped, no checkpoint, no cleanup."""
    database.wal._pending.clear()
    database.wal._file.close()
    database._page_manager.close_all()


def rows(database: Database) -> list:
    return database.execute("SELECT k, v FROM t ORDER BY k, v").rows


class TestCoordinatorCrashEveryBoundary:
    @pytest.mark.parametrize(
        "point,hit,decided",
        KILL_POINTS,
        ids=[f"{p}-at{h}" for p, h, _ in KILL_POINTS],
    )
    def test_kill_restart_resolves_to_logged_decision(
        self, point, hit, decided
    ):
        base = tempfile.mkdtemp(prefix="repro-2pc-crash-")
        try:
            dirs = {n: os.path.join(base, n) for n in ("a", "b")}
            log_path = os.path.join(base, "decisions.jsonl")
            stores = {n: make_store(d, n) for n, d in dirs.items()}
            coordinator = MultiStoreCoordinator(stores, decision_log=log_path)
            seed(coordinator)

            injector = FaultInjector(seed=7)
            injector.fail(point, at=hit)  # default exc: CrashPoint
            gtxn = run_doomed(coordinator)
            with injector.installed():
                with pytest.raises(CrashPoint):
                    gtxn.commit()
            assert injector.trace == [(point, hit, injector.trace[0][2])]
            assert coordinator.decision_log.decided_commit(gtxn.txn_id) is decided
            for database in stores.values():
                hard_kill(database)
            coordinator.decision_log.close()

            # -- restart from disk ------------------------------------
            reopened = {n: make_store(d, n) for n, d in dirs.items()}
            recovered = MultiStoreCoordinator(reopened, decision_log=log_path)
            outcome = recovered.recover_in_doubt()
            assert outcome["committed"] + outcome["aborted"] >= 0
            # Idempotent: nothing is left in doubt.
            assert recovered.recover_in_doubt() == {
                "committed": 0, "aborted": 0, "repaired_ends": 0,
            }
            for database in reopened.values():
                assert database.in_doubt_prepares() == []

            # -- crash-free twin --------------------------------------
            twin_stores = {n: Database(name=n) for n in ("a", "b")}
            twin = MultiStoreCoordinator(twin_stores)
            seed(twin)
            if decided:
                run_doomed(twin).commit()

            # Byte-identical differential, per store: rows AND commit
            # position must match the twin exactly.
            for name in ("a", "b"):
                assert rows(reopened[name]) == rows(twin_stores[name]), (
                    f"store {name!r} diverged from the crash-free twin "
                    f"after kill at {point} hit {hit}"
                )
                assert reopened[name].last_csn == twin_stores[name].last_csn
            assert recovered.global_csn == twin.global_csn

            # Atomicity across every schedule: the doomed row pair is
            # visible on both stores or neither — never torn.
            visible = {
                name: reopened[name]
                .execute("SELECT COUNT(*) FROM t WHERE k = 2")
                .scalar()
                for name in ("a", "b")
            }
            assert visible["a"] == visible["b"], (
                f"torn global commit after kill at {point} hit {hit}: "
                f"{visible}"
            )

            # The cluster stays fully writable after recovery.
            follow = recovered.begin()
            follow.execute("a", "INSERT INTO t VALUES (3, 'post-a')")
            follow.execute("b", "INSERT INTO t VALUES (3, 'post-b')")
            follow.commit()
            for database in reopened.values():
                database.close()
            recovered.decision_log.close()
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def test_recovery_counts_match_the_boundary(self):
        """The recovery stats expose exactly which branches were in
        doubt: kill between the two phase-2 branch commits and exactly
        one branch needs repair."""
        base = tempfile.mkdtemp(prefix="repro-2pc-counts-")
        try:
            dirs = {n: os.path.join(base, n) for n in ("a", "b")}
            log_path = os.path.join(base, "decisions.jsonl")
            stores = {n: make_store(d, n) for n, d in dirs.items()}
            coordinator = MultiStoreCoordinator(stores, decision_log=log_path)
            seed(coordinator)
            injector = FaultInjector()
            injector.fail("2pc.branch_commit", at=2)
            gtxn = run_doomed(coordinator)
            with injector.installed():
                with pytest.raises(CrashPoint):
                    gtxn.commit()
            for database in stores.values():
                hard_kill(database)
            coordinator.decision_log.close()

            reopened = {n: make_store(d, n) for n, d in dirs.items()}
            recovered = MultiStoreCoordinator(reopened, decision_log=log_path)
            outcome = recovered.recover_in_doubt()
            # Branch 'a' committed before the crash; only 'b' was in
            # doubt, and the decided transaction gets its aligned-log
            # entry repaired (the end record was never written).
            assert outcome == {
                "committed": 1, "aborted": 0, "repaired_ends": 1,
            }
            assert recovered.stats["in_doubt_committed"] == 1
            for database in reopened.values():
                database.close()
            recovered.decision_log.close()
        finally:
            shutil.rmtree(base, ignore_errors=True)


class TestShardedRecoverySurface:
    def test_sharded_decision_log_and_recover_delegate(self):
        """ShardedDatabase wires the decision-log path through to its
        coordinator and exposes recover_in_doubt at the facade."""
        base = tempfile.mkdtemp(prefix="repro-sharded-2pc-")
        try:
            log_path = os.path.join(base, "decisions.jsonl")
            sdb = ShardedDatabase(
                2, shard_keys={"kv": "k"}, decision_log=log_path
            )
            sdb.execute("CREATE TABLE kv (k INTEGER, v TEXT)")
            assert sdb.coordinator.decision_log.path == log_path

            injector = FaultInjector()
            injector.fail("2pc.decision")
            gtxn = sdb.begin()
            for k in range(4):  # spans both shards
                sdb.execute(
                    "INSERT INTO kv VALUES (?, ?)", (k, f"v{k}"), txn=gtxn
                )
            with injector.installed():
                with pytest.raises(CrashPoint):
                    gtxn.commit()
            # No decision was logged: the facade-level recovery aborts
            # every in-doubt branch (presumed abort).
            outcome = sdb.recover_in_doubt()
            assert outcome["committed"] == 0
            assert outcome["aborted"] >= 1
            assert sdb.execute("SELECT COUNT(*) FROM kv").scalar() == 0
            sdb.coordinator.decision_log.close()
        finally:
            shutil.rmtree(base, ignore_errors=True)


class TestInProcessRecovery:
    def test_a_crash_at_the_end_record_ends_from_the_stamped_entry(self):
        """Recovery in the process that crashed at ``2pc.end`` writes the
        end record from the aligned entry the commit already stamped, and
        stamps no second one."""
        coordinator = MultiStoreCoordinator(
            {name: Database(name=name) for name in ("a", "b")}
        )
        seed(coordinator)
        gtxn = run_doomed(coordinator)
        injector = FaultInjector()
        injector.fail("2pc.end")
        with injector.installed():
            with pytest.raises(CrashPoint):
                gtxn.commit()
        global_csn = coordinator.global_csn
        assert list(coordinator.decision_log.decisions) == [gtxn.txn_id]

        outcome = coordinator.recover_in_doubt()
        assert outcome == {"committed": 0, "aborted": 0, "repaired_ends": 1}
        entries = [c for c in coordinator.aligned_log if c.txn_id == gtxn.txn_id]
        assert len(entries) == 1
        assert coordinator.decision_log.decisions == {}
        assert coordinator.global_csn == global_csn
        assert coordinator.recover_in_doubt()["repaired_ends"] == 0


class TestRecoverFromWalFile:
    def test_recover_keeps_an_in_doubt_prepare_and_its_txn_id(self, tmp_path):
        """``Database.recover`` keeps a file's undecided prepare, and no
        later transaction reuses the prepared branch's txn id."""
        path = str(tmp_path / "wal.jsonl")
        db = Database(wal_path=path)
        db.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'committed')")
        txn = db.begin()
        db.execute("INSERT INTO t VALUES (2, 'prepared')", txn=txn)
        db.txn_manager.prepare(txn, gtxn_id=7)
        db.wal.close()

        recovered = Database.recover([db.catalog.get("t")], path)
        (prepare,) = recovered.in_doubt_prepares()
        assert (prepare.gtxn_id, prepare.txn_id) == (7, txn.txn_id)
        assert recovered.begin().txn_id > txn.txn_id
        assert recovered.resolve_in_doubt(lambda _p: True) == {
            "committed": 1, "aborted": 0,
        }
        assert recovered.in_doubt_prepares() == []
        assert recovered.execute("SELECT k, v FROM t ORDER BY k").rows == [
            (1, "committed"), (2, "prepared"),
        ]
