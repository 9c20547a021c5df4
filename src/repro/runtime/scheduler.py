"""Cooperative deterministic scheduler.

Concurrent requests run in real threads, but a baton protocol admits
exactly one at a time: a worker runs until it reaches a *checkpoint*
(before a transaction begins, before a statement when statement
granularity is enabled, or on a lock wait), then hands the baton back.
Which worker runs next is decided by an explicit schedule — a list of
worker indices — or by a seeded RNG. The result is fully deterministic
interleaving: with SERIALIZABLE isolation and transaction granularity,
**schedule entry k is the k-th transaction to commit**, which is exactly
the handle TROD's retroactive engine needs to enumerate orderings (§3.6).

Workers begin by auto-advancing (in index order) to their first
transaction boundary; under TROD's principles the code before the first
transaction touches no shared state, so this prelude cannot race.
"""

from __future__ import annotations

import enum
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import SchedulerError


class CheckpointKind(enum.Enum):
    START = "START"
    TXN_BEGIN = "TXN_BEGIN"
    STATEMENT = "STATEMENT"
    SCAN_BATCH = "SCAN_BATCH"
    LOCK_WAIT = "LOCK_WAIT"
    DONE = "DONE"


@dataclass
class ScheduleEntry:
    """One realized scheduling decision.

    ``kind`` is the checkpoint the worker was parked at when granted —
    i.e. what this grant *executed*: a grant at ``TXN_BEGIN`` ran that
    worker's pending transaction.
    """

    step: int
    worker: int
    kind: CheckpointKind
    label: str = ""


@dataclass
class TaskOutcome:
    """Terminal state of one scheduled task."""

    index: int
    result: Any = None
    error: BaseException | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


class _WorkerState(enum.Enum):
    NEW = "NEW"
    WAITING_TURN = "WAITING_TURN"
    RUNNING = "RUNNING"
    WAITING_LOCK = "WAITING_LOCK"
    DONE = "DONE"


class _Baton(object):
    """One-shot handoff signal, rebuilt around a pre-acquired lock.

    The baton protocol alternates strictly — every ``signal`` is consumed
    by exactly one ``wait`` before the next ``signal`` — so the general
    machinery of :class:`threading.Event` (broadcast wakeups, explicit
    ``clear``) is pure overhead. A bare lock handoff round-trips in a
    fraction of the time, which matters because batch-granularity
    scheduling pays two handoffs per scan batch.
    """

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._lock.acquire()  # created unsignalled

    def signal(self) -> None:
        try:
            self._lock.release()
        except RuntimeError:
            pass  # already signalled (abort racing a normal handoff)

    def wait(self) -> None:
        self._lock.acquire()


_current = threading.local()


def current_scheduler() -> "CooperativeScheduler | None":
    """The scheduler driving this thread, if any (set by the scheduler)."""
    return getattr(_current, "scheduler", None)


def maybe_checkpoint(kind: CheckpointKind, label: str = "") -> None:
    """Yield to the scheduler if this thread is a scheduled worker."""
    scheduler = current_scheduler()
    if scheduler is not None:
        scheduler.checkpoint(kind, label)


class _Worker:
    def __init__(self, index: int, thunk: Callable[[], Any]):
        self.index = index
        self.thunk = thunk
        self.state = _WorkerState.NEW
        self.turn = _Baton()
        self.yielded = _Baton()
        self.outcome = TaskOutcome(index=index)
        self.last_kind = CheckpointKind.START
        self.last_label = ""
        self.thread: threading.Thread | None = None


class CooperativeScheduler:
    """Runs tasks with deterministic, controllable interleaving."""

    def __init__(
        self,
        schedule: Sequence[int] | None = None,
        seed: int | None = None,
        granularity: str = "txn",
        strict: bool = False,
    ):
        """``schedule`` pins decisions; otherwise ``seed`` drives choices.

        ``granularity`` is 'txn' (yield before each transaction),
        'statement' (also yield before each statement inside one), or
        'batch' (additionally yield every scan batch — long scans then
        interleave with other workers at deterministic row-batch
        boundaries instead of running head-of-line).
        ``strict`` makes a schedule entry naming a finished/absent worker
        an error instead of a skip.
        """
        if granularity not in ("txn", "statement", "batch"):
            raise SchedulerError(f"unknown granularity {granularity!r}")
        self.schedule = list(schedule) if schedule is not None else None
        self.seed = seed
        self.granularity = granularity
        self.strict = strict
        self.record: list[ScheduleEntry] = []
        self._workers: list[_Worker] = []
        self._aborting = False
        self._step = 0

    # -- worker-side API ------------------------------------------------------

    def checkpoint(self, kind: CheckpointKind, label: str = "") -> None:
        worker: _Worker | None = getattr(_current, "worker", None)
        if worker is None:  # not a scheduled thread
            return
        if kind is CheckpointKind.STATEMENT and self.granularity == "txn":
            return
        if kind is CheckpointKind.SCAN_BATCH and self.granularity != "batch":
            return
        if self._aborting:
            raise SchedulerError("scheduler aborted")
        worker.last_kind = kind
        worker.last_label = label
        worker.state = (
            _WorkerState.WAITING_LOCK
            if kind is CheckpointKind.LOCK_WAIT
            else _WorkerState.WAITING_TURN
        )
        worker.yielded.signal()
        worker.turn.wait()
        if self._aborting:
            raise SchedulerError("scheduler aborted")
        worker.state = _WorkerState.RUNNING

    # -- scheduler-side -----------------------------------------------------------

    def run(self, thunks: Sequence[Callable[[], Any]]) -> list[TaskOutcome]:
        """Execute ``thunks`` to completion under the configured policy."""
        if not thunks:
            return []
        self._workers = [_Worker(i, thunk) for i, thunk in enumerate(thunks)]
        for worker in self._workers:
            worker.thread = threading.Thread(
                target=self._worker_main, args=(worker,), daemon=True
            )
            worker.thread.start()
        try:
            # Deterministic prelude: let each worker reach its first
            # transaction boundary (or finish) in index order.
            for worker in self._workers:
                self._grant(worker, prelude=True)
            self._drive()
        except BaseException:
            self._abort_workers()
            raise
        return [w.outcome for w in self._workers]

    def _worker_main(self, worker: _Worker) -> None:
        _current.scheduler = self
        _current.worker = worker
        worker.turn.wait()  # initial grant from the prelude
        worker.state = _WorkerState.RUNNING
        try:
            worker.outcome.result = worker.thunk()
        except BaseException as exc:  # noqa: BLE001 - reported via outcome
            worker.outcome.error = exc
        finally:
            # A thunk may close over whoever keeps this scheduler (a
            # runtime's ``last_scheduler``): dropping it once run leaves
            # no reference cycle back to that owner.
            worker.thunk = None
            worker.state = _WorkerState.DONE
            worker.last_kind = CheckpointKind.DONE
            worker.yielded.signal()

    def _grant(self, worker: _Worker, prelude: bool = False) -> None:
        """Give ``worker`` the baton and wait for it to yield or finish."""
        if worker.state is _WorkerState.DONE:
            return
        kind_before = worker.last_kind
        label_before = worker.last_label
        worker.turn.signal()
        worker.yielded.wait()
        self._step += 1
        self.record.append(
            ScheduleEntry(
                step=self._step,
                worker=worker.index,
                kind=kind_before,
                label=label_before,
            )
        )

    def _runnable(self) -> list[_Worker]:
        """Grantable workers; lock-waiters last so drains make progress."""
        ready = [w for w in self._workers if w.state is _WorkerState.WAITING_TURN]
        blocked = [w for w in self._workers if w.state is _WorkerState.WAITING_LOCK]
        return ready + blocked

    def _drive(self) -> None:
        rng = random.Random(self.seed if self.seed is not None else 0)
        explicit = list(self.schedule) if self.schedule is not None else []
        position = 0
        while True:
            runnable = self._runnable()
            if not runnable:
                if all(w.state is _WorkerState.DONE for w in self._workers):
                    return
                # Workers still starting up; give them a moment to park.
                # Poll state rather than waiting on the baton — a baton
                # signal must only ever be consumed by ``_grant``.
                deadline = time.monotonic() + 5.0
                while (
                    any(w.state is _WorkerState.NEW for w in self._workers)
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.001)
                runnable = self._runnable()
                if not runnable:
                    if all(w.state is _WorkerState.DONE for w in self._workers):
                        return
                    raise SchedulerError("no runnable workers (stuck?)")
            if position < len(explicit):
                index = explicit[position]
                position += 1
                worker = self._worker_by_index(index)
                if worker is None or worker.state is _WorkerState.DONE:
                    if self.strict:
                        raise SchedulerError(
                            f"schedule entry {position - 1} names worker "
                            f"{index}, which is finished or absent"
                        )
                    continue
            elif self.schedule is not None:
                # Explicit schedule exhausted: drain deterministically in
                # index order.
                worker = runnable[0]
            else:
                worker = rng.choice(runnable)
            self._grant(worker)

    def _worker_by_index(self, index: int) -> _Worker | None:
        if 0 <= index < len(self._workers):
            return self._workers[index]
        return None

    def _abort_workers(self) -> None:
        self._aborting = True
        for worker in self._workers:
            worker.turn.signal()
        for worker in self._workers:
            if worker.thread is not None:
                worker.thread.join(timeout=2.0)

    # -- introspection --------------------------------------------------------------

    def realized_txn_order(self) -> list[int]:
        """Worker indices in the order their transactions were granted.

        With transaction granularity, entry k of this list is the worker
        whose k-th-committed transaction ran — the canonical "ordering"
        object that retroactive programming enumerates.
        """
        return [
            entry.worker
            for entry in self.record
            if entry.kind is CheckpointKind.TXN_BEGIN
        ]
