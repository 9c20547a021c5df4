"""Unit tests for the lock manager (2PL, deadlock detection)."""

import pytest

from repro.db.txn.locks import LockManager, LockMode
from repro.errors import DeadlockError, LockTimeoutError
from repro.runtime import scheduler

S = LockMode.SHARED
X = LockMode.EXCLUSIVE


class DrivingScheduler:
    """Stands in for the scheduler driving this thread: a blocked
    acquisition parks at its ``LOCK_WAIT`` checkpoint, which runs
    ``wait`` — what the other workers do before the baton comes back."""

    def __init__(self) -> None:
        self.wait = lambda: None
        self.parked: list[str] = []

    def checkpoint(self, kind, label="") -> None:
        assert kind is scheduler.CheckpointKind.LOCK_WAIT
        self.parked.append(label)
        self.wait()


@pytest.fixture
def driven(monkeypatch) -> DrivingScheduler:
    stand_in = DrivingScheduler()
    monkeypatch.setattr(scheduler._current, "scheduler", stand_in, raising=False)
    return stand_in


class TestGrants:
    def test_exclusive_then_conflict(self):
        lm = LockManager()
        lm.acquire(1, "t", X)
        with pytest.raises(LockTimeoutError):
            lm.acquire(2, "t", X)

    def test_shared_locks_coexist(self):
        lm = LockManager()
        lm.acquire(1, "t", S)
        lm.acquire(2, "t", S)
        assert lm.holders_of("t") == {1, 2}

    def test_shared_blocks_exclusive(self):
        lm = LockManager()
        lm.acquire(1, "t", S)
        with pytest.raises(LockTimeoutError):
            lm.acquire(2, "t", X)

    def test_exclusive_blocks_shared(self):
        lm = LockManager()
        lm.acquire(1, "t", X)
        with pytest.raises(LockTimeoutError):
            lm.acquire(2, "t", S)

    def test_reentrant_acquire(self):
        lm = LockManager()
        lm.acquire(1, "t", X)
        lm.acquire(1, "t", X)
        lm.acquire(1, "t", S)  # weaker mode under X: fine

    def test_upgrade_when_sole_holder(self):
        lm = LockManager()
        lm.acquire(1, "t", S)
        lm.acquire(1, "t", X)
        assert lm.mode_of("t") is X
        assert lm.stats["upgrades"] == 1

    def test_upgrade_blocked_by_other_shared_holder(self):
        lm = LockManager()
        lm.acquire(1, "t", S)
        lm.acquire(2, "t", S)
        with pytest.raises(LockTimeoutError):
            lm.acquire(1, "t", X)

    def test_release_all_frees_resources(self):
        lm = LockManager()
        lm.acquire(1, "a", X)
        lm.acquire(1, "b", S)
        lm.release_all(1)
        assert lm.held_by(1) == set()
        lm.acquire(2, "a", X)
        lm.acquire(2, "b", X)

    def test_independent_resources_dont_conflict(self):
        lm = LockManager()
        lm.acquire(1, "a", X)
        lm.acquire(2, "b", X)


class TestWaiting:
    def test_a_blocked_acquisition_parks_until_release(self, driven):
        lm = LockManager()
        lm.acquire(1, "t", X)
        attempts = []

        def wait():
            attempts.append(1)
            if len(attempts) == 2:
                lm.release_all(1)

        driven.wait = wait
        lm.acquire(2, "t", X)
        assert lm.holders_of("t") == {2}
        assert len(attempts) == 2
        assert driven.parked == ["t", "t"]

    def test_an_uncontended_acquisition_never_parks(self, driven):
        lm = LockManager()
        lm.acquire(1, "t", S)
        lm.acquire(2, "t", S)
        lm.acquire(1, "u", X)
        assert driven.parked == []

    def test_starvation_guard(self, driven):
        lm = LockManager(max_wait_rounds=5)
        lm.acquire(1, "t", X)
        with pytest.raises(LockTimeoutError, match="starved"):
            lm.acquire(2, "t", X)
        assert len(driven.parked) == 5


class TestDeadlocks:
    def test_two_party_deadlock_detected(self, driven):
        lm = LockManager()
        lm.acquire(1, "a", X)
        lm.acquire(2, "b", X)
        # 1 waits for b (held by 2)...
        lm._waits_for[1] = {2}
        # ...and 2 tries to take a (held by 1): cycle.
        with pytest.raises(DeadlockError):
            lm.acquire(2, "a", X)
        assert lm.stats["deadlocks"] == 1

    def test_three_party_cycle_detected(self, driven):
        lm = LockManager()
        lm.acquire(1, "a", X)
        lm.acquire(2, "b", X)
        lm.acquire(3, "c", X)
        lm._waits_for[1] = {2}
        lm._waits_for[2] = {3}
        with pytest.raises(DeadlockError):
            lm.acquire(3, "a", X)

    def test_chain_without_cycle_is_not_deadlock(self, driven):
        lm = LockManager()
        lm.acquire(1, "a", X)
        lm._waits_for[3] = {2}  # unrelated edge
        calls = []

        def wait():
            calls.append(1)
            lm.release_all(1)

        driven.wait = wait
        lm.acquire(2, "a", X)
        assert calls  # waited once, no deadlock raised


class TestConflictFacts:
    """An abort names who waited, on whom, for what — as fields, with
    the message unchanged."""

    def test_deadlock_names_waiter_holders_resource_and_mode(self, driven):
        lm = LockManager()
        lm.acquire(1, "table:t", S)
        lm.acquire(2, "table:t", S)
        raised = []

        def wait():  # while 1 waits to upgrade, 2 asks to upgrade too
            with pytest.raises(DeadlockError) as deadlock:
                lm.acquire(2, "table:t", X)
            raised.append(deadlock.value)
            lm.release_all(2)

        driven.wait = wait
        lm.acquire(1, "table:t", X)
        (error,) = raised
        assert str(error) == "txn 2 deadlocked acquiring X on 'table:t' held by [1]"
        assert error.waiter == 2 and error.holders == (1,)
        assert error.resource == "table:t" and error.mode is X

    def test_no_waiter_names_waiter_holders_resource_and_mode(self):
        lm = LockManager()
        lm.acquire(1, "table:t", X)
        with pytest.raises(LockTimeoutError) as raised:
            lm.acquire(2, "table:t", S)
        error = raised.value
        assert str(error) == (
            "txn 2 blocked acquiring S on 'table:t' held by [1] with no waiter"
        )
        assert error.waiter == 2 and error.holders == (1,)
        assert error.resource == "table:t" and error.mode is S
