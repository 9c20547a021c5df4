"""Two-phase locking with deadlock detection.

The lock manager implements strict 2PL: transactions acquire shared (S) or
exclusive (X) locks as they touch resources and hold them until commit or
abort. Resources are opaque strings — the transaction manager uses table
names (``"table:forum_sub"``), which is coarse but sufficient for the
paper's workloads and keeps conflicts easy to reason about in tests.

Because the runtime's cooperative scheduler admits one worker at a time,
the manager's data structures need no internal synchronization; a blocked
acquisition instead *yields* to the scheduler driving its thread (a
``LOCK_WAIT`` checkpoint, as the reshard fence and scan batches park) so
other workers run until the lock frees up. Deadlocks are detected eagerly
on every blocked acquisition by searching the waits-for graph; the
requesting transaction is the victim, which is deterministic. Each
manager sees only its own database's locks: a cycle through two shards
closes in no one graph and ends at the starvation bound instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import DeadlockError, LockTimeoutError


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


@dataclass
class _LockState:
    """Current grant state for one resource."""

    mode: LockMode | None = None
    holders: set[int] = field(default_factory=set)

    def compatible(self, txn_id: int, mode: LockMode) -> bool:
        if not self.holders:
            return True
        if self.holders == {txn_id}:
            return True  # re-entrant or upgrade; handled by caller
        if mode is LockMode.SHARED and self.mode is LockMode.SHARED:
            return True
        return False


class LockManager:
    """Table-granularity S/X lock manager with waits-for deadlock detection."""

    def __init__(self, max_wait_rounds: int = 10_000):
        self._locks: dict[str, _LockState] = {}
        self._held: dict[int, set[str]] = {}
        self._waits_for: dict[int, set[int]] = {}
        self._max_wait_rounds = max_wait_rounds
        self.stats = {"acquisitions": 0, "waits": 0, "deadlocks": 0, "upgrades": 0}

    # -- public API -------------------------------------------------------

    def acquire(self, txn_id: int, resource: str, mode: LockMode) -> None:
        """Acquire ``resource`` in ``mode`` for ``txn_id``.

        If the lock is unavailable, the scheduler driving this thread is
        yielded to repeatedly until the lock frees. On a thread no
        scheduler drives, a blocked acquisition raises
        :class:`LockTimeoutError` immediately — in single-threaded use
        contention means a programming error, not a race. Raises
        :class:`DeadlockError` when blocking would close a cycle in the
        waits-for graph.
        """
        rounds = 0
        while True:
            state = self._locks.setdefault(resource, _LockState())
            if self._try_grant(state, txn_id, mode, resource):
                self._waits_for.pop(txn_id, None)
                self.stats["acquisitions"] += 1
                return
            blockers = {t for t in state.holders if t != txn_id}
            self._waits_for[txn_id] = blockers
            facts = dict(
                waiter=txn_id,
                holders=tuple(sorted(blockers)),
                resource=resource,
                mode=mode,
            )
            if self._closes_cycle(txn_id):
                self._waits_for.pop(txn_id, None)
                self.stats["deadlocks"] += 1
                raise DeadlockError(
                    f"txn {txn_id} deadlocked acquiring {mode.value} on "
                    f"{resource!r} held by {sorted(blockers)}",
                    **facts,
                )
            # Only a blocked acquisition looks the scheduler up (the import
            # cycles at module level: repro.runtime imports repro.db).
            from repro.runtime.scheduler import CheckpointKind, current_scheduler

            scheduler = current_scheduler()
            if scheduler is None:
                self._waits_for.pop(txn_id, None)
                raise LockTimeoutError(
                    f"txn {txn_id} blocked acquiring {mode.value} on "
                    f"{resource!r} held by {sorted(blockers)} with no waiter",
                    **facts,
                )
            self.stats["waits"] += 1
            rounds += 1
            if rounds > self._max_wait_rounds:
                self._waits_for.pop(txn_id, None)
                raise LockTimeoutError(
                    f"txn {txn_id} starved acquiring {resource!r}", **facts
                )
            scheduler.checkpoint(CheckpointKind.LOCK_WAIT, resource)

    def release_all(self, txn_id: int) -> None:
        """Release every lock held by ``txn_id`` (commit/abort time)."""
        for resource in self._held.pop(txn_id, set()):
            state = self._locks.get(resource)
            if state is None:
                continue
            state.holders.discard(txn_id)
            if not state.holders:
                del self._locks[resource]
        self._waits_for.pop(txn_id, None)

    def held_by(self, txn_id: int) -> set[str]:
        return set(self._held.get(txn_id, ()))

    def holders_of(self, resource: str) -> set[int]:
        state = self._locks.get(resource)
        return set(state.holders) if state else set()

    def mode_of(self, resource: str) -> LockMode | None:
        state = self._locks.get(resource)
        return state.mode if state and state.holders else None

    # -- internals ----------------------------------------------------------

    def _try_grant(
        self, state: _LockState, txn_id: int, mode: LockMode, resource: str
    ) -> bool:
        if not state.holders:
            state.holders = {txn_id}
            state.mode = mode
            self._held.setdefault(txn_id, set()).add(resource)
            return True
        if state.holders == {txn_id}:
            if mode is LockMode.EXCLUSIVE and state.mode is LockMode.SHARED:
                state.mode = LockMode.EXCLUSIVE
                self.stats["upgrades"] += 1
            return True
        if txn_id in state.holders:
            if mode is LockMode.SHARED or state.mode is LockMode.EXCLUSIVE:
                return True
            return False  # upgrade while others hold S: must wait
        if mode is LockMode.SHARED and state.mode is LockMode.SHARED:
            state.holders.add(txn_id)
            self._held.setdefault(txn_id, set()).add(resource)
            return True
        return False

    def _closes_cycle(self, start: int) -> bool:
        """DFS from ``start`` through waits-for edges looking for a cycle."""
        stack = list(self._waits_for.get(start, ()))
        seen: set[int] = set()
        while stack:
            txn = stack.pop()
            if txn == start:
                return True
            if txn in seen:
                continue
            seen.add(txn)
            stack.extend(self._waits_for.get(txn, ()))
        return False
