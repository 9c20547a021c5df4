"""Write-ahead log (redo-only, plus two-phase-commit bookkeeping).

The engine buffers all writes privately until commit, so the WAL mostly
needs commit records: each :class:`WalCommit` carries the commit sequence
number and the full ordered list of row changes. Replaying commits in CSN
order reconstructs the database exactly — :func:`recover_into` does this
and is exercised by the crash-recovery tests.

Two-phase commit adds two typed records. A :class:`WalPrepare` persists a
branch's buffered changes at prepare time (flushed immediately — the
coordinator may only log its decision once every branch is durably
prepared), and a :class:`WalAbort` closes out a durably prepared branch
that was rolled back. A prepare with no matching commit or abort record
is *in doubt* (:meth:`WriteAheadLog.in_doubt`); recovery resolves it by
consulting the coordinator's decision log — commit if a decision was
logged, abort otherwise (presumed abort). Commit records keep their
original untagged JSON shape, so WAL files written before this existed
replay unchanged; the new records carry a ``"kind"`` discriminator.

The log lives in memory and can optionally mirror to a JSONL file, which is
how the durability simulation (the "Postgres-like" backend profile) models
its fsync cost.

Group commit: with ``group_size > 1`` file mirroring batches serialized
commits and drains them in a single ``write`` + ``flush`` (one
fsync-equivalent per batch) instead of one per commit. Concurrent
committers — which the cooperative scheduler lands back to back — thus
share a flush. The usual group-commit durability window applies: commits
buffered but not yet flushed are lost on a crash (:meth:`flush` narrows
the window; :meth:`close` always drains). ``fsync=True`` additionally
issues a real ``os.fsync`` per drain, which is what the write-heavy
benchmark uses to measure the amortization honestly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.errors import WalError
from repro.faults import fault_point


@dataclass(frozen=True, slots=True)
class WalChange:
    """One row change inside a commit.

    ``"append"`` is a segment table's run (:mod:`repro.db.segments`):
    ``row_id`` is its first id and ``values`` its rows. Segment tables
    live in memory only, so an append has no JSON form.
    """

    op: str  # 'insert' | 'update' | 'delete' | 'append'
    table: str
    row_id: int
    values: tuple | None  # new values (None for delete; rows for append)
    old_values: tuple | None  # previous values (None for insert)

    def to_json(self) -> dict[str, Any]:
        return {
            "op": self.op,
            "table": self.table,
            "row_id": self.row_id,
            "values": list(self.values) if self.values is not None else None,
            "old_values": list(self.old_values) if self.old_values is not None else None,
        }

    @staticmethod
    def from_json(data: dict[str, Any]) -> "WalChange":
        return WalChange(
            op=data["op"],
            table=data["table"],
            row_id=data["row_id"],
            values=tuple(data["values"]) if data["values"] is not None else None,
            old_values=(
                tuple(data["old_values"]) if data["old_values"] is not None else None
            ),
        )


@dataclass(frozen=True)
class WalCommit:
    """A committed transaction's redo record."""

    csn: int
    txn_id: int
    changes: tuple[WalChange, ...]

    def to_json(self) -> dict[str, Any]:
        return {
            "csn": self.csn,
            "txn_id": self.txn_id,
            "changes": [c.to_json() for c in self.changes],
        }

    @staticmethod
    def from_json(data: dict[str, Any]) -> "WalCommit":
        if "kind" in data:
            raise ValueError(f"not a commit record: kind={data['kind']!r}")
        return WalCommit(
            csn=data["csn"],
            txn_id=data["txn_id"],
            changes=tuple(WalChange.from_json(c) for c in data["changes"]),
        )


@dataclass(frozen=True)
class WalPrepare:
    """A 2PC branch's durably prepared (but not yet decided) changes."""

    gtxn_id: int  # the coordinator's global transaction id
    txn_id: int  # this branch's local transaction id
    changes: tuple[WalChange, ...]

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": "prepare",
            "gtxn": self.gtxn_id,
            "txn_id": self.txn_id,
            "changes": [c.to_json() for c in self.changes],
        }

    @staticmethod
    def from_json(data: dict[str, Any]) -> "WalPrepare":
        return WalPrepare(
            gtxn_id=data["gtxn"],
            txn_id=data["txn_id"],
            changes=tuple(WalChange.from_json(c) for c in data["changes"]),
        )


@dataclass(frozen=True)
class WalAbort:
    """Closes out a durably prepared branch that rolled back."""

    txn_id: int
    gtxn_id: int

    def to_json(self) -> dict[str, Any]:
        return {"kind": "abort", "txn_id": self.txn_id, "gtxn": self.gtxn_id}

    @staticmethod
    def from_json(data: dict[str, Any]) -> "WalAbort":
        return WalAbort(txn_id=data["txn_id"], gtxn_id=data["gtxn"])


def _record_from_json(data: Any) -> "WalCommit | WalPrepare | WalAbort":
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind is None:
        return WalCommit.from_json(data)
    if kind == "prepare":
        return WalPrepare.from_json(data)
    if kind == "abort":
        return WalAbort.from_json(data)
    raise ValueError(f"unknown WAL record kind {kind!r}")


class WriteAheadLog:
    """Ordered, append-only log of commits."""

    def __init__(
        self,
        path: str | None = None,
        group_size: int = 1,
        fsync: bool = False,
    ):
        if group_size < 1:
            raise WalError(f"group_size must be >= 1, got {group_size}")
        self._commits: list[WalCommit] = []
        self._path = path
        self._file = open(path, "a", encoding="utf-8") if path else None
        self._group_size = group_size
        self._fsync = fsync
        #: Serialized commits awaiting their group's flush.
        self._pending: list[str] = []
        self.flush_stats = {"appends": 0, "flushes": 0}
        #: Set by :meth:`load` when a truncated trailing record (crash
        #: mid-append) was dropped to reach a clean recovery point.
        self.torn_tail_dropped = False
        #: 2PC bookkeeping: durably prepared branches and how each was
        #: resolved. A prepare whose txn_id appears in neither set is in
        #: doubt after a crash.
        self._prepares: list[WalPrepare] = []
        self._committed_txns: set[int] = set()
        self._aborted_txns: set[int] = set()

    def append(self, commit: WalCommit) -> None:
        if self._commits and commit.csn <= self._commits[-1].csn:
            raise WalError(
                f"out-of-order commit: csn {commit.csn} after "
                f"{self._commits[-1].csn}"
            )
        self._commits.append(commit)
        self._committed_txns.add(commit.txn_id)
        if self._file is not None:
            self._pending.append(json.dumps(commit.to_json()))
            self.flush_stats["appends"] += 1
            if len(self._pending) >= self._group_size:
                self.flush()

    def append_prepare(self, prepare: WalPrepare) -> None:
        """Persist a 2PC branch's prepare record, flushed immediately:
        the coordinator must not log a commit decision until every
        branch's prepared changes are durable."""
        self._prepares.append(prepare)
        if self._file is not None:
            self._pending.append(json.dumps(prepare.to_json()))
            self.flush_stats["appends"] += 1
            self.flush()

    def append_abort(self, abort: WalAbort) -> None:
        """Close out a durably prepared branch that rolled back (group
        buffered — losing an abort record is harmless under presumed
        abort; recovery re-aborts the undecided prepare)."""
        self._aborted_txns.add(abort.txn_id)
        if self._file is not None:
            self._pending.append(json.dumps(abort.to_json()))
            self.flush_stats["appends"] += 1
            if len(self._pending) >= self._group_size:
                self.flush()

    def in_doubt(self) -> list[WalPrepare]:
        """Durably prepared branches with no commit or abort record."""
        return [
            p
            for p in self._prepares
            if p.txn_id not in self._committed_txns
            and p.txn_id not in self._aborted_txns
        ]

    def flush(self) -> None:
        """Drain buffered commits with one write + flush (the group's
        single fsync-equivalent)."""
        if self._file is None or not self._pending:
            return
        fault_point("wal.flush", path=self._path, pending=len(self._pending))
        self._file.write("\n".join(self._pending) + "\n")
        self._file.flush()
        if self._fsync:
            os.fsync(self._file.fileno())
        self._pending.clear()
        self.flush_stats["flushes"] += 1

    @property
    def pending_count(self) -> int:
        """Commits appended but not yet made durable."""
        return len(self._pending)

    def commits(self, since_csn: int = 0) -> Iterator[WalCommit]:
        """Commits with csn > ``since_csn``, in order."""
        for commit in self._commits:
            if commit.csn > since_csn:
                yield commit

    def last_csn(self) -> int:
        return self._commits[-1].csn if self._commits else 0

    def __len__(self) -> int:
        return len(self._commits)

    def close(self) -> None:
        if self._file is not None:
            self.flush()
            self._file.close()
            self._file = None

    @property
    def path(self) -> str | None:
        return self._path

    @staticmethod
    def load(
        path: str,
        *,
        attach: bool = False,
        group_size: int = 1,
        fsync: bool = False,
    ) -> "WriteAheadLog":
        """Read a JSONL WAL file back into memory.

        A crash can tear the final record (the process died mid-write),
        leaving a truncated JSON line at the tail. That is a *clean
        recovery point*, not corruption: every record before it replays
        and the partial tail is dropped (``torn_tail_dropped`` is set on
        the returned log). An unparsable record *followed by further
        valid records* is genuine corruption and still raises
        :class:`~repro.errors.WalError`.

        With ``attach=True`` the log stays bound to ``path`` for
        continued appends — the recovery path uses this so a reopened
        database keeps writing the same file. A dropped torn tail is
        physically truncated away first so the file never carries dead
        bytes forward.
        """
        wal = WriteAheadLog()
        with open(path, "rb") as handle:
            raw = handle.read()
        bad_at: int | None = None
        valid_end = 0  # byte offset just past the last valid record
        offset = 0
        for raw_line in raw.split(b"\n"):
            next_offset = offset + len(raw_line) + 1
            stripped = raw_line.strip()
            if stripped:
                try:
                    record = _record_from_json(
                        json.loads(stripped.decode("utf-8"))
                    )
                except (ValueError, KeyError, TypeError):
                    record = None
                if record is None:
                    if bad_at is None:
                        bad_at = offset
                else:
                    if bad_at is not None:
                        raise WalError(
                            f"{path}: corrupt WAL record at byte {bad_at} "
                            "is followed by valid records"
                        )
                    if isinstance(record, WalCommit):
                        wal.append(record)
                    elif isinstance(record, WalPrepare):
                        wal._prepares.append(record)
                    else:
                        wal._aborted_txns.add(record.txn_id)
                    valid_end = min(next_offset, len(raw))
            offset = next_offset
        wal.torn_tail_dropped = bad_at is not None
        if attach:
            if bad_at is not None:
                with open(path, "r+b") as handle:
                    handle.truncate(valid_end)
            wal._path = path
            wal._file = open(path, "a", encoding="utf-8")
            wal._group_size = group_size
            wal._fsync = fsync
        return wal


def recover_into(stores: dict[str, Any], commits: Iterable[WalCommit]) -> int:
    """Redo ``commits`` (in order) against empty table stores.

    ``stores`` maps canonical table name to :class:`TableStore`. Returns
    the last applied CSN. Used by crash-recovery: rebuild a database from
    its schema catalog plus the WAL.
    """
    last = 0
    for commit in commits:
        for change in commit.changes:
            store = stores.get(change.table)
            if store is None:
                raise WalError(f"WAL references unknown table {change.table!r}")
            if change.op == "insert":
                store.apply_insert(change.values, commit.csn, row_id=change.row_id)
            elif change.op == "update":
                store.apply_update(change.row_id, change.values, commit.csn)
            elif change.op == "delete":
                store.apply_delete(change.row_id, commit.csn)
            else:  # pragma: no cover - constructed only by our code
                raise WalError(f"unknown WAL op {change.op!r}")
        last = commit.csn
    return last
