"""Cross-store transactions with aligned commit logs (§5).

"Modern web applications and microservices may use multiple data stores
... It is challenging for these applications to use TROD because some
data stores do not support transactions, and transaction logs of
different stores are usually not aligned. However, recent work has
proposed transaction managers that support transactions across
heterogeneous data stores. Such transaction managers can also provide
aligned transaction logs."

The :class:`MultiStoreCoordinator` is such a manager for our engine: a
global transaction spans several :class:`~repro.db.database.Database`
instances, commits atomically via two-phase commit (every store's
transaction is *prepared* — fully validated — before any store applies),
and every global commit is stamped with a global CSN recorded in an
aligned log mapping it to each store's local CSN. That aligned log is
exactly what lets TROD order events across stores.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Sequence

from repro.db.database import Database
from repro.db.result import ResultSet
from repro.db.txn.manager import IsolationLevel, Transaction, TransactionStatus
from repro.db.txn.wal import read_log
from repro.errors import CrashPoint, TransactionError
from repro.faults import fault_point


@dataclass(frozen=True)
class AlignedCommit:
    """One global commit and its per-store local commit positions."""

    global_csn: int
    txn_id: int  # global transaction id
    local_csns: dict[str, int] = field(hash=False, default_factory=dict)


def _decision_from_json(data: Any) -> tuple[int, int | None, dict[str, int]]:
    """One decision-log line: (gtxn id, None, branch txn ids) for a
    decision, (gtxn id, global CSN, local CSNs) for an end record."""
    end = int(data["end"]) if "end" in data else None
    csns = data["branches" if end is None else "local_csns"]
    return int(data["gtxn"]), end, {k: int(v) for k, v in csns.items()}


class DecisionLog:
    """The coordinator's durable commit decisions (presumed abort).

    Two record kinds, both JSONL. A *decision* is written — flushed, and
    fsynced when a writing branch's WAL fsyncs its commits — after every
    writing branch is durably prepared and before any branch commits: it
    names the global transaction and each branch's local txn_id, and is
    the coordinator's point of no return. An *end* record
    is written after phase 2 completes, carrying the aligned commit
    (global CSN -> per-store local CSNs) so a reopened coordinator can
    rebuild its clock and aligned log.

    Recovery semantics are presumed abort: an in-doubt prepared branch
    found in a store's WAL commits if (and only if) its global
    transaction has a decision record here; with no decision, the crash
    happened before the point of no return and the branch aborts.

    In memory the log holds what recovery reads, no more. A running log
    keeps each decision only until its end record (the coordinator's
    aligned log holds the end). A loaded one also keeps the file's end
    records: a reopened coordinator rebuilds its aligned log from them,
    and an ended transaction still reads as decided, since a group-commit
    crash can leave its branch in doubt. ``path=None`` keeps no file —
    correct for single-process clusters that never restart, and free.
    """

    def __init__(self, path: str | None = None):
        self._path = path
        #: gtxn id -> {store name: branch txn_id} of each decided
        #: transaction with no end record yet
        self.decisions: dict[int, dict[str, int]] = {}
        #: Loaded from the file only: gtxn id -> (global_csn, {store name:
        #: local csn}) of each ended transaction
        self.ends: dict[int, tuple[int, dict[str, int]]] = {}
        self._file = None
        if path is not None:
            if os.path.exists(path):
                self._load(path)
            self._file = open(path, "a", encoding="utf-8")

    def _load(self, path: str) -> None:
        """Replay an existing log file by the WAL's rule
        (:func:`~repro.db.txn.wal.read_log`): a torn final line (crash
        during append) is dropped and physically truncated."""
        records, _torn = read_log(
            path, _decision_from_json, "decision", TransactionError, True
        )
        for gtxn_id, end, csns in records:
            if end is None:
                self.decisions[gtxn_id] = csns
            else:
                self.ends[gtxn_id] = (end, csns)
                self.decisions.pop(gtxn_id, None)

    def _write(self, record: dict[str, Any], sync: bool = False) -> None:
        if self._file is not None:
            self._file.write(json.dumps(record) + "\n")
            self._file.flush()
            if sync:
                os.fsync(self._file.fileno())

    def record_commit(
        self, gtxn_id: int, branches: dict[str, int], sync: bool = False
    ) -> None:
        """Log (durably) that ``gtxn_id`` decided to commit; ``sync``
        also fsyncs the record, as the branch WALs fsync theirs."""
        self.decisions[gtxn_id] = dict(branches)
        self._write({"gtxn": gtxn_id, "branches": dict(branches)}, sync)

    def record_end(
        self, gtxn_id: int, global_csn: int, local_csns: dict[str, int]
    ) -> None:
        """Log that phase 2 completed, with the aligned commit positions,
        and forget the decision."""
        self.decisions.pop(gtxn_id, None)
        self._write(
            {"gtxn": gtxn_id, "end": global_csn, "local_csns": dict(local_csns)}
        )

    def decided_commit(self, gtxn_id: int) -> bool:
        return gtxn_id in self.decisions or gtxn_id in self.ends

    @property
    def path(self) -> str | None:
        return self._path

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class GlobalTransaction:
    """A transaction spanning multiple stores (lazily joined)."""

    def __init__(
        self,
        coordinator: "MultiStoreCoordinator",
        txn_id: int,
        isolation: IsolationLevel,
        info: dict[str, Any] | None,
    ):
        self._coordinator = coordinator
        self.txn_id = txn_id
        self.isolation = isolation
        self.info = dict(info or {})
        self.status = TransactionStatus.ACTIVE
        self._branches: dict[str, Transaction] = {}
        #: Invoked exactly once when the transaction leaves ACTIVE
        #: (commit or abort). The sharded facade counts in-flight write
        #: transactions with it so a reshard's write fence can wait for
        #: them to drain before swapping the topology.
        self.on_finish: Callable[["GlobalTransaction"], None] | None = None

    @property
    def name(self) -> str:
        return f"GTXN{self.txn_id}"

    def on(self, store: str) -> Transaction:
        """The local transaction branch for ``store`` (begun on demand)."""
        self._check_active()
        if store not in self._branches:
            database = self._coordinator.store(store)
            self._branches[store] = database.begin(
                isolation=self.isolation,
                info={**self.info, "global_txn": self.name},
            )
        return self._branches[store]

    def execute(self, store: str, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Run a statement on one store within this global transaction."""
        database = self._coordinator.store(store)
        return database.execute(sql, params, txn=self.on(store))

    def stores_joined(self) -> list[str]:
        return sorted(self._branches)

    def commit(self) -> int:
        """Crash-consistent two-phase commit across every writing branch.

        Phase 1 *durably* prepares (validates + WAL prepare record) every
        writing branch; any failure aborts all branches — closing out
        durable prepares with WAL abort records — and re-raises, leaving
        no store changed. The coordinator then logs its commit decision
        to the :class:`DecisionLog` — the point of no return. Phase 2
        commits writers in deterministic store order and records the
        aligned commit under a new global CSN, followed by an end record.

        A crash (:class:`~repro.errors.CrashPoint`) anywhere in this
        sequence leaves in-doubt prepared branches on disk; a reopened
        coordinator's :meth:`MultiStoreCoordinator.recover_in_doubt`
        resolves each one against the decision log — commit if the
        decision was logged, abort otherwise (presumed abort) — so no
        schedule can surface a global commit on some stores but not
        others. Crash exceptions propagate without cleanup: a real crash
        runs nothing, and recovery must see exactly the state the fault
        point left behind.

        Read-only branches commit locally (observers see the outcome the
        global transaction had) but are excluded from the aligned
        record — an empty commit maps to the same cluster state as its
        predecessor, so logging it would only pollute the alignment
        history.
        """
        self._check_active()
        branches = sorted(self._branches.items())
        writers = [(store, txn) for store, txn in branches if txn.write_ops]
        if not writers:
            # Read-only: commit every branch (observers and provenance
            # must see the branch outcome the global transaction had),
            # but record no aligned entry — an empty commit maps to the
            # same cluster state as its predecessor.
            for _store, txn in branches:
                txn.commit()
            self._finish(TransactionStatus.COMMITTED)
            return self._coordinator.global_csn
        prepared: list[tuple[str, Transaction]] = []
        try:
            for store, txn in writers:
                fault_point("2pc.prepare", store=store, gtxn=self.txn_id)
                self._coordinator.store(store).txn_manager.prepare(
                    txn, gtxn_id=self.txn_id
                )
                prepared.append((store, txn))
        except CrashPoint:
            raise  # simulated process death: no cleanup runs
        except Exception:
            for _store, txn in branches:
                if txn.status in (
                    TransactionStatus.ACTIVE,
                    TransactionStatus.PREPARED,
                ):
                    txn.abort()
            self._finish(TransactionStatus.ABORTED)
            raise
        fault_point("2pc.decision", gtxn=self.txn_id)
        self._coordinator._log_decision(self, prepared)
        local_csns: dict[str, int] = {}
        for store, txn in prepared:
            fault_point("2pc.branch_commit", store=store, gtxn=self.txn_id)
            local_csns[store] = txn.commit()
        for _store, txn in branches:
            if txn.status is TransactionStatus.ACTIVE:  # read-only branch
                txn.commit()
        self._finish(TransactionStatus.COMMITTED)
        global_csn = self._coordinator._record_commit(self.txn_id, local_csns)
        fault_point("2pc.end", gtxn=self.txn_id)
        self._coordinator._log_end(self, global_csn, local_csns)
        return global_csn

    def abort(self) -> None:
        for txn in self._branches.values():
            txn.abort()
        self._finish(TransactionStatus.ABORTED)

    def _finish(self, status: TransactionStatus) -> None:
        self.status = status
        if self.on_finish is not None:
            hook, self.on_finish = self.on_finish, None
            hook(self)

    def _check_active(self) -> None:
        if self.status is not TransactionStatus.ACTIVE:
            raise TransactionError(
                f"{self.name} is {self.status.value}; no further operations"
            )


class MultiStoreCoordinator:
    """Coordinates transactions and aligned logs across named stores."""

    def __init__(
        self,
        stores: dict[str, Database],
        decision_log: "DecisionLog | str | None" = None,
    ):
        if not stores:
            raise TransactionError("coordinator needs at least one store")
        #: name -> database, in the order the stores were given (a
        #: sharded engine's shard order); the one map of its stores.
        self.stores = dict(stores)
        self._next_txn_id = 1
        self.global_csn = 0
        self.aligned_log: list[AlignedCommit] = []
        if isinstance(decision_log, str):
            decision_log = DecisionLog(decision_log)
        #: Durable commit decisions; in-memory unless a path was given.
        self.decision_log = decision_log if decision_log is not None else DecisionLog()
        self.stats = {
            "decisions_logged": 0,
            "ends_logged": 0,
            "in_doubt_committed": 0,
            "in_doubt_aborted": 0,
        }

    def store(self, name: str) -> Database:
        try:
            return self.stores[name]
        except KeyError:
            raise TransactionError(
                f"unknown store {name!r} (known: {sorted(self.stores)})"
            ) from None

    def replace_store(self, name: str, database: Database) -> None:
        """Re-point a store name at a new database (replica promotion).

        The aligned log is positional (store name -> local CSN), so it
        stays valid as long as the replacement carries the same committed
        history — which a drained, promoted replica does by construction.
        """
        if name not in self.stores:
            raise TransactionError(
                f"unknown store {name!r} (known: {sorted(self.stores)})"
            )
        self.stores[name] = database

    def reshape(self, stores: dict[str, Database]) -> int:
        """Replace the whole store map in place (online resharding).

        The global CSN clock, the global transaction counter, and the
        aligned log are all preserved: sessions bookmark global CSNs and
        AS-OF reads bisect the aligned log, so swapping in a fresh
        coordinator would rewind the clock every bookmark hangs off.
        Aligned entries for departed stores stay in the log — they answer
        ordering queries about pre-reshard history; reads that would need
        the departed stores themselves are gated by the sharded engine's
        reshard horizon.

        A synthetic aligned commit (``txn_id=0`` — real transaction ids
        start at 1) is stamped at the swap, mapping every new store to
        its current local commit position. AS-OF reads at or above the
        returned global CSN therefore translate correctly onto the new
        topology; below it they would bisect to entries naming only the
        departed stores (new stores map to local CSN 0 — empty history),
        which is why the caller gates them.
        """
        if not stores:
            raise TransactionError("coordinator needs at least one store")
        self.stores = dict(stores)
        self.global_csn += 1
        self.aligned_log.append(
            AlignedCommit(
                global_csn=self.global_csn,
                txn_id=0,
                local_csns={
                    name: database.last_commit_csn
                    for name, database in self.stores.items()
                },
            )
        )
        return self.global_csn

    def begin(
        self,
        isolation: IsolationLevel = IsolationLevel.SERIALIZABLE,
        info: dict[str, Any] | None = None,
    ) -> GlobalTransaction:
        gtxn = GlobalTransaction(self, self._next_txn_id, isolation, info)
        self._next_txn_id += 1
        return gtxn

    def _record_commit(self, gtxn_id: int, local_csns: dict[str, int]) -> int:
        self.global_csn += 1
        self.aligned_log.append(
            AlignedCommit(self.global_csn, gtxn_id, dict(local_csns))
        )
        return self.global_csn

    def _log_decision(
        self, gtxn: GlobalTransaction, prepared: list[tuple[str, Transaction]]
    ) -> None:
        # The decision lets the branches commit, so it is synced whenever
        # one of their WALs syncs its commits: a branch commit must not
        # outlive, on disk, the decision that allowed it.
        self.decision_log.record_commit(
            gtxn.txn_id,
            {store: txn.txn_id for store, txn in prepared},
            any(self.stores[store].wal.fsync for store, _txn in prepared),
        )
        self.stats["decisions_logged"] += 1

    def _log_end(
        self, gtxn: GlobalTransaction, global_csn: int, local_csns: dict[str, int]
    ) -> None:
        self.decision_log.record_end(gtxn.txn_id, global_csn, local_csns)
        self.stats["ends_logged"] += 1

    # -- crash recovery ----------------------------------------------------

    def recover_in_doubt(self) -> dict[str, int]:
        """Resolve every in-doubt prepared branch after a restart.

        Presumed abort against the decision log: an in-doubt prepare
        whose global transaction has a logged commit decision is applied
        (phase-2 repair via
        :meth:`~repro.db.txn.manager.TransactionManager.commit_recovered`);
        without a decision it is aborted. The aligned log and global CSN
        clock are rebuilt from durable end records first, and decided
        commits that crashed before their end record get a repaired
        aligned entry once every surviving branch is resolved — so AS-OF
        translation keeps working across the crash. Each branch's local
        CSN comes from its store's recovery: its commit record in the WAL
        the store loaded, or the commit recovery just made. Run in the
        process that crashed at ``2pc.end``, it writes the end record
        from the aligned entry that process already stamped.

        Returns ``{"committed": n, "aborted": n, "repaired_ends": n}``.
        Idempotent: a second call finds nothing in doubt.
        """
        log = self.decision_log
        if not self.aligned_log and log.ends:
            self.aligned_log = sorted(
                (
                    AlignedCommit(global_csn, gtxn_id, dict(local_csns))
                    for gtxn_id, (global_csn, local_csns) in log.ends.items()
                ),
                key=attrgetter("global_csn"),
            )
            self.global_csn = max(self.global_csn, self.aligned_log[-1].global_csn)
        known = set(log.decisions) | set(log.ends)
        if known:
            self._next_txn_id = max(self._next_txn_id, max(known) + 1)

        resolved = {"committed": 0, "aborted": 0, "repaired_ends": 0}
        # store -> {branch txn id: local csn}, held until this returns
        branch_csns: dict[str, dict[int, int]] = {}
        for name in sorted(self.stores):
            database = self.stores[name]
            outcome = database.resolve_in_doubt(
                lambda prep: log.decided_commit(prep.gtxn_id)
            )
            branch_csns[name], database.wal.branch_csns = database.wal.branch_csns, {}
            resolved["committed"] += outcome["committed"]
            resolved["aborted"] += outcome["aborted"]

        # Decided commits that never logged an end record: every branch
        # is now applied (pre-crash via the WAL, or just above). One this
        # process already stamped (a crash at ``2pc.end``) ends from its
        # aligned entry; any other gets the missing entry stamped now.
        # Decision-log insertion order is commit-decision order,
        # preserving the original global ordering.
        stamped = {
            commit.txn_id: commit
            for commit in self.aligned_log
            if commit.txn_id in log.decisions
        }
        for gtxn_id, branches in list(log.decisions.items()):
            commit = stamped.get(gtxn_id)
            if commit is None:
                local_csns = {
                    store: branch_csns.get(store, {}).get(branch_txn_id)
                    for store, branch_txn_id in branches.items()
                }
                if not local_csns or None in local_csns.values():
                    continue  # a store departed or a branch was lost
                self._record_commit(gtxn_id, local_csns)
                commit = self.aligned_log[-1]
            log.record_end(gtxn_id, commit.global_csn, commit.local_csns)
            resolved["repaired_ends"] += 1
        self.stats["in_doubt_committed"] += resolved["committed"]
        self.stats["in_doubt_aborted"] += resolved["aborted"]
        return resolved

    # -- cross-store ordering queries (the provenance-alignment surface) --

    def global_csn_for(self, store: str, local_csn: int) -> int | None:
        """Which global commit produced a store's local commit, if any."""
        for commit in self.aligned_log:
            if commit.local_csns.get(store) == local_csn:
                return commit.global_csn
        return None

    def commits_between(self, low: int, high: int) -> list[AlignedCommit]:
        """Aligned commits with ``low < global_csn <= high``."""
        return [
            c for c in self.aligned_log if low < c.global_csn <= high
        ]

    def local_csns_at(self, global_csn: int) -> dict[str, int]:
        """Each store's local commit position as of a global CSN.

        This is the AS-OF translation: the highest local CSN any aligned
        commit with ``global_csn' <= global_csn`` recorded per store. A
        store absent from every such commit maps to 0 (empty history at
        that point). The log is append-ordered by global CSN and a
        store's local CSNs increase along it, so a bisect plus a
        backward walk (stopping once every store has been seen) answers
        in O(log N + commits-since-each-store-last-participated) rather
        than O(N).
        """
        if global_csn < 0 or global_csn > self.global_csn:
            raise TransactionError(
                f"global csn {global_csn} outside committed range "
                f"[0, {self.global_csn}]"
            )
        out: dict[str, int] = {name: 0 for name in self.stores}
        end = bisect_right(
            self.aligned_log, global_csn, key=lambda c: c.global_csn
        )
        remaining = set(out)
        for i in range(end - 1, -1, -1):
            if not remaining:
                break
            for store, csn in self.aligned_log[i].local_csns.items():
                if store in remaining:
                    out[store] = csn
                    remaining.discard(store)
        return out
