"""Write-ahead log (redo-only, plus two-phase-commit bookkeeping).

The engine buffers all writes privately until commit, so the WAL mostly
needs commit records: each :class:`WalCommit` carries the commit sequence
number and the full ordered list of row changes. Replaying commits in CSN
order reconstructs the database exactly; :meth:`WriteAheadLog.load` hands
the commits of a file back to the caller (``Database.recover`` and paged
recovery redo them) and keeps none of them.

The log keeps no commit in memory. What it remembers is the last CSN it
accepted (an append must carry a higher one) and the durably prepared
2PC branches nobody has decided yet; a loaded log also holds where the
file's committed branches landed, until recovery takes them. A commit
goes to the log's file if it has one and to the database's observers
(``txn_committed``) either way; a database without a file forgets it
once they return.

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
from typing import Any, Callable, TypeVar

from repro.errors import WalError
from repro.faults import fault_point

R = TypeVar("R")


@dataclass(frozen=True, slots=True)
class WalChange:
    """One row change inside a commit.

    ``"append"`` is a segment table's run (:mod:`repro.db.segments`):
    ``row_id`` is its first id and ``values`` a
    :class:`~repro.db.segments.ColumnBatch`, the rows held as columns,
    which the run takes over at commit. Iterating it yields the row
    tuples, which is all an observer sees. Segment tables live in memory
    only, so an append has no JSON form.
    """

    op: str  # 'insert' | 'update' | 'delete' | 'append'
    table: str
    row_id: int
    values: tuple | None  # new values (None for delete; a ColumnBatch for append)
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
    """Ordered, append-only log of commits (see the module doc)."""

    def __init__(
        self,
        path: str | None = None,
        group_size: int = 1,
        fsync: bool = False,
    ):
        if group_size < 1:
            raise WalError(f"group_size must be >= 1, got {group_size}")
        self._path = path
        self._file = open(path, "a", encoding="utf-8") if path else None
        self._group_size = group_size
        #: Each flush also fsyncs; a 2PC decision log follows its stores'.
        self.fsync = fsync
        #: Serialized commits awaiting their group's flush.
        self._pending: list[str] = []
        self.flush_stats = {"appends": 0, "flushes": 0}
        #: Set by :meth:`load` when a truncated trailing record (crash
        #: mid-append) was dropped to reach a clean recovery point.
        self.torn_tail_dropped = False
        #: CSN of the last commit appended (0 before the first).
        self.last_csn = 0
        #: Durably prepared 2PC branches by txn id; a commit or abort
        #: record for the txn removes its entry.
        self._prepared: dict[int, WalPrepare] = {}
        #: txn id -> CSN of each 2PC branch recovery found committed (in
        #: the loaded file, or by ``Database.resolve_in_doubt``), until the
        #: coordinator's recovery takes them; a running log adds none.
        self.branch_csns: dict[int, int] = {}

    def append(self, commit: WalCommit) -> None:
        if commit.csn <= self.last_csn:
            raise WalError(
                f"out-of-order commit: csn {commit.csn} after {self.last_csn}"
            )
        self.last_csn = commit.csn
        self._prepared.pop(commit.txn_id, None)
        self._write(commit, self._group_size)

    def append_prepare(self, prepare: WalPrepare) -> None:
        """Persist a 2PC branch's prepare record, flushed immediately:
        the coordinator must not log a commit decision until every
        branch's prepared changes are durable."""
        self._prepared[prepare.txn_id] = prepare
        self._write(prepare, 1)

    def append_abort(self, abort: WalAbort) -> None:
        """Close out a durably prepared branch that rolled back (group
        buffered — losing an abort record is harmless under presumed
        abort; recovery re-aborts the undecided prepare)."""
        self._prepared.pop(abort.txn_id, None)
        self._write(abort, self._group_size)

    def _write(self, record: WalCommit | WalPrepare | WalAbort, group: int) -> None:
        if self._file is not None:
            self._pending.append(json.dumps(record.to_json()))
            self.flush_stats["appends"] += 1
            if len(self._pending) >= group:
                self.flush()

    def in_doubt(self) -> list[WalPrepare]:
        """Durably prepared branches with no commit or abort record."""
        return list(self._prepared.values())

    def flush(self) -> None:
        """Drain buffered commits with one write + flush (the group's
        single fsync-equivalent)."""
        if self._file is None or not self._pending:
            return
        fault_point("wal.flush", path=self._path, pending=len(self._pending))
        self._file.write("\n".join(self._pending) + "\n")
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        self._pending.clear()
        self.flush_stats["flushes"] += 1

    @property
    def pending_count(self) -> int:
        """Commits appended but not yet made durable."""
        return len(self._pending)

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
    ) -> "tuple[WriteAheadLog, list[WalCommit]]":
        """Read a JSONL WAL file: a log that knows its last CSN, its
        undecided prepares and its committed 2PC branches' CSNs
        (:attr:`branch_csns`), and the file's commits in order.

        The commits are the caller's: the returned log keeps none of them.

        The file is read by :func:`read_log`: a torn final record is
        dropped (``torn_tail_dropped`` is set on the returned log), and
        a corrupt one followed by valid records raises
        :class:`~repro.errors.WalError`.

        With ``attach=True`` the log stays bound to ``path`` for
        continued appends — the recovery path uses this so a reopened
        database keeps writing the same file, its torn tail truncated
        away first.
        """
        records, torn = read_log(path, _record_from_json, "WAL", WalError, attach)
        wal = WriteAheadLog()
        commits: list[WalCommit] = []
        for record in records:
            if isinstance(record, WalCommit):
                if record.txn_id in wal._prepared:
                    wal.branch_csns[record.txn_id] = record.csn
                wal.append(record)
                commits.append(record)
            elif isinstance(record, WalPrepare):
                wal.append_prepare(record)
            else:
                wal.append_abort(record)
        wal.torn_tail_dropped = torn
        if attach:
            wal._path = path
            wal._file = open(path, "a", encoding="utf-8")
            wal._group_size = group_size
            wal.fsync = fsync
        return wal, commits


def read_log(
    path: str,
    parse: Callable[[Any], R],
    kind: str,
    error: type[Exception],
    truncate: bool,
) -> tuple[list[R], bool]:
    """The records of a JSON-lines log file, in order, each through
    ``parse``, and whether a torn final record was dropped.

    Every log this engine keeps (a WAL, a 2PC decision log) recovers by
    this one rule. A crash can tear the final record (the process died
    mid-write), leaving a truncated line at the tail. That is a *clean
    recovery point*, not corruption: every record before it is returned
    and the tail is dropped — with ``truncate``, also cut from the file,
    so the file never carries dead bytes forward. A line ``parse``
    refuses (ValueError, KeyError or TypeError) *followed by further
    valid records* is genuine corruption and raises ``error``.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    records: list[R] = []
    bad_at: int | None = None
    valid_end = 0  # byte offset just past the last valid record
    offset = 0
    for raw_line in raw.split(b"\n"):
        next_offset = offset + len(raw_line) + 1
        stripped = raw_line.strip()
        if stripped:
            try:
                record = parse(json.loads(stripped.decode("utf-8")))
            except (ValueError, KeyError, TypeError):
                if bad_at is None:
                    bad_at = offset
            else:
                if bad_at is not None:
                    raise error(
                        f"{path}: corrupt {kind} record at byte {bad_at} "
                        "is followed by valid records"
                    )
                records.append(record)
                valid_end = min(next_offset, len(raw))
        offset = next_offset
    if truncate and bad_at is not None:
        with open(path, "r+b") as handle:
            handle.truncate(valid_end)
    return records, bad_at is not None


def redo_change(store: Any, change: WalChange, csn: int) -> bool:
    """Redo one logged change onto an in-memory table store at ``csn``
    (recovery rebuilds a database from its schema plus the WAL this way).
    Always changes the store, so always True."""
    if change.op == "insert":
        store.apply_insert(change.values, csn, row_id=change.row_id)
    elif change.op == "update":
        store.apply_update(change.row_id, change.values, csn)
    elif change.op == "delete":
        store.apply_delete(change.row_id, csn)
    else:  # pragma: no cover - constructed only by our code
        raise WalError(f"unknown WAL op {change.op!r}")
    return True
