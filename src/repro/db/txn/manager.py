"""Transaction lifecycle: isolation levels, write buffering, commit.

The design matches the paper's assumptions (§3.1): the default isolation
level is SERIALIZABLE via strict two-phase locking, and commits are stamped
with a monotonically increasing commit sequence number (CSN) so that
"transactions are serializable and serialized in commit order" — strict
serializability. SNAPSHOT and READ_COMMITTED are also implemented because
§3.1 claims TROD extends to weak isolation via reenactment; the replay
engine exercises that path using the snapshot CSN recorded here.

Writes are buffered privately inside the transaction (read-your-own-writes
is provided by overlaying the buffer on the committed view) and applied to
the version store only at commit, which makes every version in storage
committed data and keeps WAL emission trivially in commit order.
"""

from __future__ import annotations

import enum
import itertools
import weakref
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from repro.db.segments import ColumnBatch
from repro.db.txn.locks import LockManager, LockMode
from repro.db.txn.wal import WalAbort, WalChange, WalCommit, WalPrepare
from repro.errors import (
    FencedError,
    IntegrityError,
    SerializationError,
    TransactionAborted,
    TransactionError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database
    from repro.db.index import HashIndex


class IsolationLevel(enum.Enum):
    SERIALIZABLE = "SERIALIZABLE"
    SNAPSHOT = "SNAPSHOT"
    READ_COMMITTED = "READ_COMMITTED"


class TransactionStatus(enum.Enum):
    ACTIVE = "ACTIVE"
    PREPARED = "PREPARED"  # validated, awaiting a coordinator's decision
    COMMITTED = "COMMITTED"
    ABORTED = "ABORTED"


#: Sentinel marking a row deleted in a transaction's private overlay.
_DELETED = object()

#: What one batch of :meth:`TransactionManager._apply` shares.
_KIND_AND_TABLE = attrgetter("op", "table")


class ReadSet(NamedTuple):
    """Provenance of one chunk of rows a statement read from one table.

    ``pairs`` is the scan chunk's ``(row_id, values)`` list, held as the
    filter returned it and never mutated. A query that matched nothing
    is the read set ``[(None, None)]`` — the paper's Table 2 logs such
    reads with null data columns, and replay's dependency analysis still
    needs to know the table was consulted.
    """

    table: str
    query: str
    pairs: Sequence[tuple[int | None, tuple | None]]

    def rows(self) -> Iterator[tuple[str, int | None, tuple | None, str]]:
        """One ``(table, row_id, values, query)`` per row read, in order."""
        for row_id, values in self.pairs:
            yield self.table, row_id, values, self.query


class ScanRead(NamedTuple):
    """Provenance of a whole-table scan as its predicate, not its rows.

    The scan read ``table``'s committed state as of ``csn`` (the
    transaction had no write of its own on it), and ``count`` rows passed
    ``keep`` — its pushed filter over ``(row_id, values)`` pairs, None
    when it has none — with ``params``. The filter over that state, in
    row-id order, is the scan's read set again: its reenactment lists
    exactly the pairs a :class:`ReadSet` of the same scan would hold.
    """

    table: str
    query: str
    params: tuple
    csn: int
    keep: Callable[[list, Sequence[Any]], list] | None
    count: int

    def reenact(
        self, rows: list[tuple[int, tuple]]
    ) -> list[tuple[int, tuple]]:
        """The pairs of ``rows`` (the table at :attr:`csn`) the scan kept."""
        return rows if self.keep is None else self.keep(rows, self.params)


class Transaction:
    """A single transaction; created via :meth:`TransactionManager.begin`."""

    def __init__(
        self,
        manager: "TransactionManager",
        txn_id: int,
        isolation: IsolationLevel,
        snapshot_csn: int,
        info: dict[str, Any] | None = None,
    ):
        self._manager = manager
        #: The database this transaction reads and writes (its manager
        #: holds it weakly; a live transaction may hold it).
        self._database = manager.database
        self.txn_id = txn_id
        #: Display name used throughout provenance ("TXN7"): one string,
        #: however many trace records carry it.
        self.name = f"TXN{txn_id}"
        self.isolation = isolation
        self.snapshot_csn = snapshot_csn
        self.status = TransactionStatus.ACTIVE
        #: Free-form metadata attached by the runtime (req_id, handler,
        #: function label) and consumed by TROD's interposition layer.
        self.info: dict[str, Any] = dict(info or {})
        #: Buffered writes, applied at commit in execution order. They are
        #: already in their WAL form: an insert is logged as buffered, an
        #: update or delete once commit has filled in the old values.
        self.write_ops: list[WalChange] = []
        self._overlay: dict[str, dict[int, Any]] = {}  # table -> row_id -> values|_DELETED
        self._inserted: dict[str, list[int]] = {}  # table -> ordered new row ids
        #: Table -> its ``"append"`` changes not yet laid into the overlay:
        #: :meth:`_own_writes` does that when this transaction reads the table.
        self._appends: dict[str, list[WalChange]] = {}
        #: Constraint index -> key -> ids of own writes filed under it.
        self._own_keys: dict["HashIndex", dict[tuple, set[int]]] = {}
        self._statement_reads: list[ReadSet | ScanRead] = []
        self._statement_csn = snapshot_csn
        self.commit_csn: int | None = None
        #: Set when this branch was durably prepared on behalf of a
        #: global transaction; an abort must then write a WAL abort
        #: record so the prepare never reads as in-doubt after a crash.
        self.prepared_gtxn: int | None = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Transaction {self.name} {self.isolation.value} {self.status.value}>"

    # -- statement lifecycle ---------------------------------------------------

    def begin_statement(self) -> None:
        """Mark a statement boundary (refreshes READ_COMMITTED's view)."""
        self._check_active()
        self._statement_reads = []
        if self.isolation is IsolationLevel.READ_COMMITTED:
            self._statement_csn = self._manager.last_csn

    def statement_reads(self) -> list[ReadSet | ScanRead]:
        return list(self._statement_reads)

    def _read_csn(self) -> int | None:
        """The committed snapshot this transaction reads (None = latest)."""
        if self.isolation is IsolationLevel.SERIALIZABLE:
            return None  # 2PL: reading latest committed is safe
        if self.isolation is IsolationLevel.SNAPSHOT:
            return self.snapshot_csn
        return self._statement_csn

    # -- data access (called by the SQL executor) ------------------------------

    def scan(self, table: str) -> Iterator[tuple[int, tuple]]:
        """All rows visible to this transaction: committed view + own writes.

        Liveness checking, lock acquisition, and snapshot selection all
        happen *at call time*; the returned iterator is pinned to that
        state and keeps serving it even if this transaction later commits
        or aborts. Streamed cursors rely on exactly this: the ephemeral
        read transaction is finished as soon as the pipeline is primed,
        and the stream stays consistent with its snapshot regardless.
        With no write of its own on ``table`` it gets the store's source
        itself, latest-state when its snapshot covers the last write.
        """
        canonical = self.read_lock(table)
        store = self._database.store(canonical)
        csn = self._read_csn()
        if csn is not None and csn >= store.last_write_csn:
            csn = None
        committed = store.scan(csn)
        overlay = self._own_writes(canonical)
        if not overlay:
            return committed
        return self._scan_pinned(
            committed, overlay, self._inserted.get(canonical, ())
        )

    def read_lock(self, table: str) -> str:
        """What every read of ``table`` does first; returns its canonical name.

        The liveness check and, under SERIALIZABLE, the shared table lock
        (strict 2PL: held to commit). :meth:`scan` comes through here
        (:meth:`scan_materialized` does the same after its overlay test),
        and so do the executor's index probes — a probe that skipped the
        lock would let a concurrent writer commit between two reads of
        one transaction.
        """
        self._check_active()
        canonical = self._database.catalog.resolve(table)
        if self.isolation is IsolationLevel.SERIALIZABLE:
            self._lock(canonical, LockMode.SHARED)
        return canonical

    def scan_materialized(self, table: str) -> "list[tuple] | None":
        """The shared materialized values list when it matches this txn's view.

        Returns the store's values-only live-row list (callers must not
        mutate it)
        when this transaction has no private writes on ``table`` and its
        read snapshot covers the table's last committed write — i.e. the
        latest state *is* the snapshot state. Otherwise returns None and
        the caller falls back to :meth:`scan`. Side effects (liveness
        check, SERIALIZABLE shared lock) are identical to ``scan``, so a
        statement schedules and conflicts the same way whichever of the
        two serves it.
        """
        self._check_active()
        canonical = self._database.catalog.resolve(table)
        if self._own_writes(canonical) or self._inserted.get(canonical):
            return None
        if self.isolation is IsolationLevel.SERIALIZABLE:
            self._lock(canonical, LockMode.SHARED)
        store = self._database.store(canonical)
        csn = self._read_csn()
        if csn is not None and csn < store.last_write_csn:
            return None
        return store.latest_values()

    def moved_since_snapshot(
        self,
        table: str,
        positions: tuple[int, ...],
        keys: Iterable[tuple] | None = None,
    ) -> Sequence[int]:
        """Ids of ``table``'s rows that left their key over ``positions``
        in commits after this transaction's snapshot (with ``keys``, only
        those that left one of these keys).

        Shared indexes hold the latest committed state; a row whose
        version in this snapshot matches an index probe over those
        columns, but whose latest one does not, is among these. Empty
        when the snapshot covers the table's last write — the check
        :meth:`scan_materialized` makes.
        """
        csn = self._read_csn()
        if csn is None:
            return ()
        canonical = self._database.catalog.resolve(table)
        return self._database.store(canonical).moved_after(csn, positions, keys)

    @staticmethod
    def _scan_pinned(
        committed: Iterator[tuple[int, tuple]],
        overlay: dict[int, Any],
        inserted: Sequence[int],
    ) -> Iterator[tuple[int, tuple]]:
        """Overlay this transaction's writes on a pinned committed scan."""
        for row_id, values in committed:
            if row_id in overlay:
                patched = overlay[row_id]
                if patched is not _DELETED:
                    yield row_id, patched
            else:
                yield row_id, values
        for row_id in inserted:
            patched = overlay.get(row_id)
            if patched is not None and patched is not _DELETED:
                yield row_id, patched

    def get(self, table: str, row_id: int) -> tuple | None:
        """One row by id under this transaction's visibility rules."""
        self._check_active()
        canonical = self._database.catalog.resolve(table)
        overlay = self._own_writes(canonical) or {}
        if row_id in overlay:
            patched = overlay[row_id]
            return None if patched is _DELETED else patched
        store = self._database.store(canonical)
        return store.get(row_id, self._read_csn())

    def get_many(
        self, table: str, row_ids: Iterable[int]
    ) -> list[tuple[int, tuple]]:
        """``(row_id, values)`` of those of ``row_ids`` that are visible,
        in the order given: one liveness check, one catalog resolve and
        one batch read of the store, this transaction's own writes laid
        over it."""
        self._check_active()
        canonical = self._database.catalog.resolve(table)
        store = self._database.store(canonical)
        overlay = self._own_writes(canonical)
        if not overlay:
            return store.get_many(row_ids, self._read_csn())
        row_ids = list(row_ids)
        seen = dict(
            store.get_many([r for r in row_ids if r not in overlay], self._read_csn())
        )
        seen.update((r, overlay[r]) for r in row_ids if r in overlay)
        return [(r, seen[r]) for r in row_ids if seen.get(r, _DELETED) is not _DELETED]

    def insert(self, table: str, values: tuple) -> int:
        """Buffer an insert; returns the new row id (visible to self)."""
        return self.insert_many(table, (values,))[0]

    def insert_many(
        self, table: str, rows: Sequence[tuple] | ColumnBatch
    ) -> Sequence[int]:
        """Buffer inserts of coerced rows; returns their new row ids.

        One liveness check, catalog resolve and table lock for the whole
        batch. Without unique constraints nothing a row does can fail,
        and the ids are one contiguous reservation — on a segment table
        logged as one ``"append"`` change holding the rows as a
        :class:`~repro.db.segments.ColumnBatch` (``rows`` itself when it
        is one, which the caller must not alter afterwards), and laid
        into this transaction's own view only if it reads the table;
        with them, each row is checked against the rows buffered before
        it, exactly as a loop of single inserts would (a violation leaves
        those buffered and this row's id unreserved).
        """
        self._check_active()
        database = self._database
        canonical = database.catalog.resolve(table)
        if self.isolation is IsolationLevel.SERIALIZABLE:
            self._lock(canonical, LockMode.EXCLUSIVE)
        store = database.store(canonical)
        schema = database.catalog.get(canonical)
        if not schema.unique_constraints:
            row_ids = store.reserve_row_ids(len(rows))
            if database.storage != "segment":
                return self._buffer_inserts(canonical, row_ids, rows)
            if rows:
                if type(rows) is not ColumnBatch:
                    rows = ColumnBatch.from_rows(rows, len(schema.columns))
                change = WalChange("append", canonical, row_ids.start, rows, None)
                self.write_ops.append(change)
                self._appends.setdefault(canonical, []).append(change)
            return row_ids
        row_ids = []
        for values in rows:
            self._check_unique_locally(canonical, values, ignore_row_id=None)
            row_ids += self._buffer_inserts(
                canonical, store.reserve_row_ids(1), (values,)
            )
            self._file_own_keys(canonical, row_ids[-1], values)
        return row_ids

    def _buffer_inserts(
        self, canonical: str, row_ids: Sequence[int], rows: Sequence[tuple]
    ) -> Sequence[int]:
        self._own_writes(canonical)  # earlier appends keep their place
        self._overlay.setdefault(canonical, {}).update(zip(row_ids, rows))
        self._inserted.setdefault(canonical, []).extend(row_ids)
        self.write_ops.extend(
            [
                WalChange("insert", canonical, row_id, values, None)
                for row_id, values in zip(row_ids, rows)
            ]
        )
        return row_ids

    def _own_writes(self, canonical: str) -> dict[int, Any] | None:
        """This transaction's writes on ``canonical`` (row id -> values
        or ``_DELETED``), None when it has none: the appends it logged on
        the table are laid into the overlay here, at its first read."""
        appends = self._appends.pop(canonical, None)
        if appends:
            overlay = self._overlay.setdefault(canonical, {})
            inserted = self._inserted.setdefault(canonical, [])
            for change in appends:
                row_ids = range(change.row_id, change.row_id + len(change.values))
                overlay.update(zip(row_ids, change.values))
                inserted += row_ids
        return self._overlay.get(canonical)

    def insert_with_id(self, table: str, values: tuple, row_id: int) -> int:
        """Insert preserving an explicit row id.

        Used by TROD's replay injector so that rows restored into a dev
        database keep their provenance row identity. The id must not be
        live in this transaction's view.
        """
        self._check_active()
        canonical = self._database.catalog.resolve(table)
        if self.isolation is IsolationLevel.SERIALIZABLE:
            self._lock(canonical, LockMode.EXCLUSIVE)
        if self.get(canonical, row_id) is not None:
            raise TransactionError(
                f"{self.name}: row {row_id} already live in {canonical}"
            )
        self._check_unique_locally(canonical, values, ignore_row_id=None)
        store = self._database.store(canonical)
        if row_id >= store._next_row_id:
            store._next_row_id = row_id + 1
        self._buffer_inserts(canonical, (row_id,), (values,))
        self._file_own_keys(canonical, row_id, values)
        return row_id

    def update(self, table: str, row_id: int, values: tuple) -> None:
        self._check_active()
        canonical = self._database.catalog.resolve(table)
        if self.isolation is IsolationLevel.SERIALIZABLE:
            self._lock(canonical, LockMode.EXCLUSIVE)
        if self.get(canonical, row_id) is None:
            raise TransactionError(
                f"{self.name}: cannot update missing row {row_id} in {canonical}"
            )
        self._check_unique_locally(canonical, values, ignore_row_id=row_id)
        self._overlay.setdefault(canonical, {})[row_id] = values
        self._file_own_keys(canonical, row_id, values)
        self.write_ops.append(WalChange("update", canonical, row_id, values, None))

    def delete(self, table: str, row_id: int) -> None:
        self._check_active()
        canonical = self._database.catalog.resolve(table)
        if self.isolation is IsolationLevel.SERIALIZABLE:
            self._lock(canonical, LockMode.EXCLUSIVE)
        if self.get(canonical, row_id) is None:
            raise TransactionError(
                f"{self.name}: cannot delete missing row {row_id} in {canonical}"
            )
        self._overlay.setdefault(canonical, {})[row_id] = _DELETED
        self.write_ops.append(WalChange("delete", canonical, row_id, None, None))

    def pending_rows(self, table: str) -> list[tuple[int, tuple]]:
        """Rows this transaction has written (and not deleted), by row id.

        Index probes merge these with committed index hits, because
        uncommitted writes are never reflected in shared indexes.
        """
        canonical = self._database.catalog.resolve(table)
        overlay = self._own_writes(canonical) or {}
        return [
            (row_id, values)
            for row_id, values in sorted(overlay.items())
            if values is not _DELETED
        ]

    def record_read(
        self, table: str, row_id: int | None, values: tuple | None, query: str
    ) -> None:
        self.record_reads(table, [(row_id, values)], query)

    def record_reads(
        self, table: str, pairs: Sequence[tuple[int | None, tuple | None]], query: str
    ) -> None:
        """One :class:`ReadSet` for the ``(row_id, values)`` pairs, as given.

        The executor's scans call this once per chunk of rows that
        survived the pushed-down filter; the caller must not mutate
        ``pairs`` afterwards. An empty chunk records nothing.
        """
        if not pairs:
            return
        canonical = self._database.catalog.resolve(table)
        self._statement_reads.append(ReadSet(canonical, query, pairs))

    def record_scan(
        self,
        table: str,
        query: str,
        params: Sequence[Any],
        keep: Callable[[list, Sequence[Any]], list] | None,
        count: int,
    ) -> None:
        """One :class:`ScanRead` for a whole-table scan served by
        :meth:`scan_materialized` that kept ``count`` rows; nothing when
        it kept none. Its CSN is the commit the state it read stands at:
        this transaction's snapshot, or under SERIALIZABLE (which reads
        the latest state, its table lock held) the last commit now."""
        if not count:
            return
        csn = self._read_csn()
        if csn is None:
            csn = self._manager.last_csn
        canonical = self._database.catalog.resolve(table)
        self._statement_reads.append(
            ScanRead(canonical, query, tuple(params), csn, keep, count)
        )

    # -- lifecycle ------------------------------------------------------------

    def commit(self) -> int:
        return self._manager.commit(self)

    def abort(self) -> None:
        self._manager.abort(self)

    @property
    def tables_written(self) -> set[str]:
        return {op.table for op in self.write_ops}

    # -- internals --------------------------------------------------------------

    def _check_active(self) -> None:
        if self.status is not TransactionStatus.ACTIVE:
            raise TransactionAborted(
                f"{self.name} is {self.status.value}; no further operations allowed"
            )

    def _lock(self, canonical: str, mode: LockMode) -> None:
        self._manager.locks.acquire(self.txn_id, f"table:{canonical}", mode)

    def _check_unique_locally(
        self, canonical: str, values: tuple, ignore_row_id: int | None
    ) -> None:
        """Enforce unique constraints against this transaction's own view.

        Each constraint's unique index names the committed rows holding
        the key now; the rows that left a key since this transaction's
        snapshot and the transaction's own writes filed under the key
        (:meth:`_file_own_keys`) are added, and every candidate is re-read
        through this transaction's view — the probe an index-served SELECT
        makes. Under 2PL the table X lock makes this authoritative; under
        SNAPSHOT isolation a cross-transaction re-check happens again at
        commit.
        """
        for index in self._database.index_set(canonical).constraint_indexes:
            key = index.key_of(values)
            if None in key:
                continue
            candidates = set(index.lookup(key))
            candidates.update(
                self.moved_since_snapshot(canonical, index.positions, (key,))
            )
            candidates.update(self._own_keys.get(index, {}).get(key, ()))
            candidates.discard(ignore_row_id)
            for _row_id, existing in self.get_many(canonical, candidates):
                if index.key_of(existing) == key:
                    raise IntegrityError(
                        f"unique violation on {canonical}({', '.join(index.columns)}): "
                        f"key {key!r}"
                    )

    def _file_own_keys(self, canonical: str, row_id: int, values: tuple) -> None:
        """File an accepted own write under its key in each constraint.

        An entry outlives a later update or delete of the row; the re-read
        in :meth:`_check_unique_locally` drops such a stale candidate.
        """
        for index in self._database.index_set(canonical).constraint_indexes:
            filed = self._own_keys.setdefault(index, {})
            filed.setdefault(index.key_of(values), set()).add(row_id)


class TransactionManager:
    """Begins, commits, and aborts transactions for one database."""

    def __init__(self, database: "Database"):
        #: Held weakly: the database owns its manager, and a cycle would
        #: keep a dropped database (a replay's dev database) alive until a
        #: full collection.
        self._database = weakref.ref(database)
        self.locks = LockManager()
        self._next_txn_id = 1
        self.last_csn = 0
        self.active: dict[int, Transaction] = {}
        self.stats = {"begun": 0, "committed": 0, "aborted": 0}

    @property
    def database(self) -> "Database":
        return self._database()

    # -- lifecycle -------------------------------------------------------------

    def begin(
        self,
        isolation: IsolationLevel = IsolationLevel.SERIALIZABLE,
        info: dict[str, Any] | None = None,
    ) -> Transaction:
        txn = Transaction(
            manager=self,
            txn_id=self._next_txn_id,
            isolation=isolation,
            snapshot_csn=self.last_csn,
            info=info,
        )
        self._next_txn_id += 1
        self.active[txn.txn_id] = txn
        self.stats["begun"] += 1
        txn._database.observers.notify("txn_began", txn)
        return txn

    def prepare(self, txn: Transaction, *, gtxn_id: int | None = None) -> None:
        """First phase of two-phase commit: validate without applying.

        A PREPARED transaction is guaranteed to commit successfully (its
        conflicts and constraints were checked); the cross-store
        coordinator uses this to make multi-database commits atomic.
        Validation failure aborts the transaction.

        With ``gtxn_id`` the prepare is also made *durable*: the branch's
        buffered changes land in the WAL as a flushed prepare record, so
        a crash between prepare and the coordinator's phase-2 leaves an
        in-doubt record that recovery resolves against the coordinator's
        decision log instead of silently losing the branch.
        """
        if txn.status is not TransactionStatus.ACTIVE:
            raise TransactionError(
                f"{txn.name} cannot prepare from {txn.status.value}"
            )
        try:
            self._validate_commit(txn)
        except Exception:
            self.abort(txn)
            raise
        txn.status = TransactionStatus.PREPARED
        if gtxn_id is not None and txn.write_ops:
            txn._database.wal.append_prepare(
                WalPrepare(
                    gtxn_id=gtxn_id,
                    txn_id=txn.txn_id,
                    changes=tuple(txn.write_ops),
                )
            )
            txn.prepared_gtxn = gtxn_id

    def commit(self, txn: Transaction) -> int:
        if txn.status is TransactionStatus.COMMITTED:
            raise TransactionError(f"{txn.name} already committed")
        if txn.status is TransactionStatus.ABORTED:
            raise TransactionAborted(f"{txn.name} already aborted")
        database = txn._database
        if database.fenced:
            # A transaction begun before the fence must not slip a commit
            # past it: the promoted replica would never see the write.
            self.abort(txn)
            raise FencedError(
                f"database {database.name!r} is fenced; "
                f"{txn.name} aborted"
            )
        if txn.status is TransactionStatus.PREPARED:
            txn.status = TransactionStatus.ACTIVE  # validated; fall through
        else:
            try:
                self._validate_commit(txn)
            except Exception:
                self.abort(txn)
                raise
        csn = self.last_csn + 1
        changes = tuple(self._apply(txn.write_ops, csn))
        self.last_csn = csn
        txn.status = TransactionStatus.COMMITTED
        txn.commit_csn = csn
        self.active.pop(txn.txn_id, None)
        # The WAL record is the commit's one record: observers receive
        # its ``changes`` tuple itself.
        if changes:
            database.wal.append(WalCommit(csn, txn.txn_id, changes))
        self.locks.release_all(txn.txn_id)
        self.stats["committed"] += 1
        database.observers.notify("txn_committed", txn, csn, changes)
        return csn

    def abort(self, txn: Transaction) -> None:
        if txn.status not in (TransactionStatus.ACTIVE, TransactionStatus.PREPARED):
            return
        txn.status = TransactionStatus.ABORTED
        self.active.pop(txn.txn_id, None)
        self.locks.release_all(txn.txn_id)
        if txn.prepared_gtxn is not None:
            txn._database.wal.append_abort(
                WalAbort(txn_id=txn.txn_id, gtxn_id=txn.prepared_gtxn)
            )
        self.stats["aborted"] += 1
        txn._database.observers.notify("txn_aborted", txn)

    def commit_recovered(self, prepare: WalPrepare) -> int:
        """Apply an in-doubt prepared branch whose coordinator logged a
        commit decision before the crash (recovery-only phase-2 repair).

        The prepare record carries the branch's full change list; it is
        applied at the next CSN and re-logged as a normal WAL commit record
        under its original txn_id, so the prepare stops reading as
        in-doubt on later opens. Returns that CSN.
        """
        csn = self.last_csn + 1
        self._apply(prepare.changes, csn)
        self.last_csn = csn
        self._next_txn_id = max(self._next_txn_id, prepare.txn_id + 1)
        self.database.wal.append(
            WalCommit(csn=csn, txn_id=prepare.txn_id, changes=prepare.changes)
        )
        self.database.wal.flush()
        self.stats["committed"] += 1
        return csn

    # -- commit internals ---------------------------------------------------------

    def _validate_commit(self, txn: Transaction) -> None:
        if txn.isolation is IsolationLevel.SNAPSHOT:
            self._first_committer_check(txn)
        self._unique_check_vs_committed(txn)

    def _first_committer_check(self, txn: Transaction) -> None:
        """SI write-write conflict detection (first committer wins)."""
        own_inserts = {
            (op.table, op.row_id) for op in txn.write_ops if op.op == "insert"
        }
        for op in txn.write_ops:
            if op.op in ("insert", "append") or (op.table, op.row_id) in own_inserts:
                continue
            store = txn._database.store(op.table)
            changed = store.last_change_csn(op.row_id)
            if changed is not None and changed > txn.snapshot_csn:
                raise SerializationError(
                    f"{txn.name}: write-write conflict on "
                    f"{op.table} row {op.row_id} (changed at csn {changed}, "
                    f"snapshot was {txn.snapshot_csn})",
                    table=op.table,
                    row_id=op.row_id,
                    changed_csn=changed,
                    snapshot_csn=txn.snapshot_csn,
                )

    def _unique_check_vs_committed(self, txn: Transaction) -> None:
        """Re-check unique constraints against the latest committed state.

        Needed for SNAPSHOT/READ_COMMITTED where a concurrent committer may
        have inserted a conflicting key after this transaction's local
        check, and the only check a ``CREATE UNIQUE INDEX`` index gets.
        Every buffered write is checked, in the order :meth:`_apply` files
        it, against the committed index entries (see
        :meth:`IndexSet.check_writes`). So a commit refused here has
        applied nothing, and one that passes files every key cleanly:
        deleting a key and inserting it again, or swapping keys through a
        third value, commits unless another commit holds a key on the way.
        """
        checked = {
            table
            for table in txn.tables_written
            if txn._database.index_set(table).has_unique
        }
        if not checked:
            return
        writes: dict[str, list[tuple[int, tuple | None]]] = {t: [] for t in checked}
        for op in txn.write_ops:
            if op.table not in checked:
                continue
            if op.op == "append":
                writes[op.table] += enumerate(op.values, op.row_id)
            else:
                writes[op.table].append((op.row_id, op.values))
        for table, table_writes in writes.items():
            txn._database.index_set(table).check_writes(table_writes)

    def _apply(self, ops: Iterable[WalChange], csn: int) -> list[WalChange]:
        """Install buffered writes at ``csn``; returns the applied changes,
        in op order.

        Each run of consecutive same-table inserts goes to the store and
        its indexes as one batch (a one-row run is the degenerate case),
        and its buffered ops are its applied changes as they stand. A
        table's ``"append"`` changes wait (in ``appends``) until another
        kind of write to that table, or the end of the commit: however
        they interleave with other tables' writes, they install together.
        """
        applied: list[WalChange] = []
        database = self.database
        appends: dict[str, list[WalChange]] = {}
        for (kind, table), run in itertools.groupby(ops, _KIND_AND_TABLE):
            if kind == "append":
                run = list(run)
                appends.setdefault(table, []).extend(run)
                applied += run
                continue
            if table in appends:
                self._install_appends(table, appends.pop(table), csn)
            store = database.store(table)
            indexes = database.index_set(table)
            if kind == "insert":
                inserts = list(run)
                rows = [(op.row_id, op.values) for op in inserts]
                store.apply_inserts(rows, csn)
                indexes.on_insert_many(*zip(*rows))
                applied += inserts
            elif kind == "update":
                for op in run:
                    old = store.apply_update(op.row_id, op.values, csn)
                    indexes.on_update(op.row_id, old, op.values)
                    applied.append(
                        WalChange("update", table, op.row_id, op.values, old)
                    )
            else:
                for op in run:
                    old = store.apply_delete(op.row_id, csn)
                    indexes.on_delete(op.row_id, old)
                    applied.append(WalChange("delete", table, op.row_id, None, old))
        for table, pending in appends.items():
            self._install_appends(table, pending, csn)
        return applied

    def _install_appends(
        self, table: str, appends: list[WalChange], csn: int
    ) -> None:
        """Install one table's ``"append"`` changes, each stretch of ids
        that continue each other as one :class:`~repro.db.segments.
        ColumnBatch`, whose columns the store keeps and the indexes file
        their keys from."""
        # [first id, row count, batches] of each contiguous stretch.
        pieces: list[list] = []
        for op in appends:
            if pieces and pieces[-1][0] + pieces[-1][1] == op.row_id:
                pieces[-1][1] += len(op.values)
                pieces[-1][2].append(op.values)
            else:
                pieces.append([op.row_id, len(op.values), [op.values]])
        store = self.database.store(table)
        indexes = self.database.index_set(table)
        for first, count, batches in pieces:
            batch = ColumnBatch.concat(batches)
            store.apply_append(first, batch, csn)
            indexes.on_append(range(first, first + count), batch)
