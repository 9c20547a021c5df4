"""The 2PC decision log recovers and syncs by the WAL's rules.

A decision log file is read by the WAL's one JSON-lines reader: a torn
final line is a clean recovery point, dropped and cut from the file, and
a corrupt line followed by a good one is corruption. A decision is synced
whenever the branch WALs it lets commit sync theirs, so no power loss can
keep a branch commit and lose the decision that allowed it.
"""

import os

import pytest

from repro.db import Database
from repro.db.multistore import DecisionLog, MultiStoreCoordinator
from repro.errors import TransactionError


def write_log(path: str) -> None:
    log = DecisionLog(path)
    log.record_commit(1, {"a": 4, "b": 7})
    log.record_end(1, 1, {"a": 2, "b": 3})
    log.record_commit(2, {"a": 5})
    log.close()


class TestReadingTheFile:
    def test_a_torn_final_line_is_dropped_and_truncated(self, tmp_path):
        path = str(tmp_path / "decisions.jsonl")
        write_log(path)
        size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b'{"gtxn": 3, "bran')  # torn mid-write
        log = DecisionLog(path)
        assert log.decisions == {2: {"a": 5}}
        assert log.ends == {1: (1, {"a": 2, "b": 3})}
        assert not log.decided_commit(3)
        assert os.path.getsize(path) == size
        # Appends continue on a clean file.
        log.record_commit(3, {"b": 8})
        log.close()
        assert DecisionLog(path).decisions == {2: {"a": 5}, 3: {"b": 8}}

    def test_a_corrupt_line_followed_by_a_good_one_raises(self, tmp_path):
        path = str(tmp_path / "decisions.jsonl")
        write_log(path)
        lines = open(path, "rb").read().splitlines(keepends=True)
        lines[1] = b'{"gtxn": "x"}\n'
        with open(path, "wb") as handle:
            handle.writelines(lines)
        with pytest.raises(TransactionError, match="followed by valid records"):
            DecisionLog(path)


class TestDurability:
    def test_the_decision_is_fsynced_before_any_branch_commits(
        self, tmp_path, monkeypatch
    ):
        stores = {
            name: Database(
                name=name, wal_path=str(tmp_path / f"{name}.jsonl"), wal_fsync=True
            )
            for name in ("a", "b")
        }
        coordinator = MultiStoreCoordinator(
            stores, decision_log=str(tmp_path / "decisions.jsonl")
        )
        for database in stores.values():
            database.execute("CREATE TABLE t (k INTEGER)")
        gtxn = coordinator.begin()
        gtxn.execute("a", "INSERT INTO t VALUES (1)")
        gtxn.execute("b", "INSERT INTO t VALUES (2)")
        synced: list[int] = []
        real_fsync = os.fsync

        def recording_fsync(fd: int) -> None:
            synced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        gtxn.commit()
        wal_a, wal_b = (stores[n].wal._file.fileno() for n in ("a", "b"))
        decision = coordinator.decision_log._file.fileno()
        # Both prepares, then the decision, then both branch commits.
        assert synced == [wal_a, wal_b, decision, wal_a, wal_b]

    def test_no_sync_when_the_branch_wals_do_not_sync(self, tmp_path, monkeypatch):
        stores = {
            name: Database(name=name, wal_path=str(tmp_path / f"{name}.jsonl"))
            for name in ("a", "b")
        }
        coordinator = MultiStoreCoordinator(
            stores, decision_log=str(tmp_path / "decisions.jsonl")
        )
        for database in stores.values():
            database.execute("CREATE TABLE t (k INTEGER)")
        gtxn = coordinator.begin()
        gtxn.execute("a", "INSERT INTO t VALUES (1)")
        gtxn.execute("b", "INSERT INTO t VALUES (2)")
        synced: list[int] = []
        monkeypatch.setattr(os, "fsync", synced.append)
        gtxn.commit()
        assert synced == []
