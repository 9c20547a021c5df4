"""The top-level Database object tying the substrate together.

A :class:`Database` owns the catalog, the versioned table stores and their
indexes, the transaction manager, and the WAL. SQL comes in
through :meth:`execute`; TROD's interposition layer observes transaction
and statement events through the observer interface, which is the paper's
"interposes on every handler and database query" hook (§3.1), database side.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.db.index import IndexSet, split_pairs
from repro.db.pages import BufferPool, PageFileManager, PagedTableStore
from repro.db.pages.buffer import DEFAULT_POOL_PAGES
from repro.db.pages.page import DEFAULT_PAGE_SIZE
from repro.db.result import ResultSet
from repro.db.schema import Catalog, Column, TableSchema
from repro.db.segments import SegmentStore
from repro.db.types import ColumnType
from repro.db.sql.executor import (
    DmlNode,
    PlanNode,
    build_dml_plan,
    build_select_plan,
    catalog_shape_id,
    evaluate_as_of,
    execute_statement,
    memo_plan,
)
from repro.db.sql.nodes import (
    CreateIndexStmt,
    CreateTableStmt,
    DeleteStmt,
    DropIndexStmt,
    DropTableStmt,
    InsertStmt,
    SelectStmt,
    Statement,
    UpdateStmt,
)
from repro.db.sql.parser import parse_cached
from repro.db.storage import TableStore
from repro.db.txn.manager import (
    IsolationLevel,
    ReadSet,
    ScanRead,
    Transaction,
    TransactionManager,
    TransactionStatus,
)
from repro.db.txn.wal import WalAbort, WalChange, WalCommit, WriteAheadLog, redo_change
from repro.events import Observers
from repro.errors import (
    ExecutionError,
    FencedError,
    InterfaceError,
    ReadOnlyError,
    StorageError,
    TimeTravelError,
    UnavailableError,
    WalError,
)

#: Append-only, history-free tables (:mod:`repro.db.segments`), asked for
#: only by the provenance database.
_SEGMENT = "segment"
_STORAGE_BACKENDS = ("memory", "paged", _SEGMENT)

#: Read routing choices, taken by every engine's ``execute_read``.
#: ``replica`` serves SELECTs from replicas that satisfy the session's
#: causal floor, falling back to the primary; ``wait`` forces a catch-up
#: instead of falling back; ``primary`` pins every read to the primaries.
#: Engines without replicas read identically under all three.
READ_PREFERENCES = ("primary", "replica", "wait")

#: File inside a paged data directory holding schemas, aliases, secondary
#: index definitions, and the vacuum horizon — everything recovery needs
#: that is not in the WAL.
CATALOG_FILE = "catalog.json"


def check_read_preference(preference: str) -> None:
    """Refuse a read preference outside :data:`READ_PREFERENCES`."""
    if preference not in READ_PREFERENCES:
        raise InterfaceError(
            f"unknown read_preference {preference!r} "
            f"(choose from {', '.join(READ_PREFERENCES)})"
        )


def _schema_to_meta(schema: TableSchema) -> dict[str, Any]:
    # Serialize only the *explicit* unique constraints: TableSchema
    # re-derives the primary-key and single-UNIQUE-column entries in its
    # constructor (same filter ``ddl()`` applies when rendering DDL).
    explicit = [
        list(constraint)
        for constraint in schema.unique_constraints
        if constraint != schema.primary_key
        and not (len(constraint) == 1 and schema.column(constraint[0]).unique)
    ]
    return {
        "name": schema.name,
        "columns": [
            {
                "name": c.name,
                "type": c.col_type.value,
                "nullable": c.nullable,
                "primary_key": c.primary_key,
                "unique": c.unique,
                "default": c.default,
            }
            for c in schema.columns
        ],
        "unique_constraints": explicit,
    }


def _schema_from_meta(meta: dict[str, Any]) -> TableSchema:
    columns = [
        Column(
            name=c["name"],
            col_type=ColumnType(c["type"]),
            nullable=c["nullable"],
            primary_key=c["primary_key"],
            unique=c["unique"],
            default=c["default"],
        )
        for c in meta["columns"]
    ]
    return TableSchema(
        meta["name"],
        columns,
        unique_constraints=[tuple(uc) for uc in meta["unique_constraints"]],
    )


@dataclass
class StatementTrace:
    """What one executed statement did; handed to observers.

    Reads are a whole-table scan's :class:`ScanRead` predicate or a
    :class:`ReadSet` per scan chunk of any other read (flatten with
    ``ReadSet.rows()``); writes are ``(op, table, row_id)`` triples so
    TROD can later attach the query text to the ``WalChange`` records
    the commit will log.
    """

    sql: str
    kind: str  # 'select' | 'insert' | 'update' | 'delete' | 'ddl'
    reads: list[ReadSet | ScanRead] = field(default_factory=list)
    writes: list[tuple[str, str, int]] = field(default_factory=list)
    rowcount: int = 0


class Database:
    """An embedded, transactional, multi-version SQL database."""

    def __init__(
        self,
        name: str = "db",
        wal_path: str | None = None,
        wal_group_size: int = 1,
        wal_fsync: bool = False,
        storage: str = "memory",
        data_dir: str | None = None,
        buffer_pool_pages: int = DEFAULT_POOL_PAGES,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        self.name = name
        self.catalog = Catalog()
        if storage not in _STORAGE_BACKENDS:
            raise StorageError(
                f"unknown storage backend {storage!r} "
                f"(expected one of {_STORAGE_BACKENDS})"
            )
        if storage == _SEGMENT and (data_dir is not None or wal_path is not None):
            raise StorageError(
                "segment storage lives in memory only: no data_dir or wal_path"
            )
        #: Which storage backend rows live in: "memory" keeps versions in
        #: Python tuples, "paged" in slotted page files under ``data_dir``
        #: behind an LRU buffer pool, and "segment" keeps no versions at
        #: all, only runs of row tuples (the provenance database's tables).
        self.storage = storage
        self.data_dir: str | None = None
        self._page_manager: PageFileManager | None = None
        self._buffer_pool: BufferPool | None = None
        self._meta_path: str | None = None
        self._ephemeral_dir_cleanup = None
        self._recovering = False
        self._closed = False
        #: Secondary (non-constraint) index definitions, persisted to the
        #: catalog file so recovery can rebuild them.
        self._index_meta: list[dict[str, Any]] = []
        #: How the last open went: a reopened paged database replays only
        #: the WAL tail, and these counters prove it (tests assert
        #: ``changes_reconciled == 0`` after a clean checkpointed close).
        self.recovery_stats: dict[str, Any] = {
            "mode": "fresh",
            "wal_commits": 0,
            "tail_commits": 0,
            "changes_reconciled": 0,
            "changes_skipped": 0,
        }
        if storage == "paged":
            if data_dir is None:
                # Ephemeral database: pages live in a temp directory that
                # is removed at close (or GC). Pass data_dir to persist.
                data_dir = tempfile.mkdtemp(prefix=f"repro-{name}-")
                self._ephemeral_dir_cleanup = weakref.finalize(
                    self, shutil.rmtree, data_dir, ignore_errors=True
                )
            self.data_dir = data_dir
            self._page_manager = PageFileManager(data_dir, page_size)
            self._buffer_pool = BufferPool(buffer_pool_pages)
            self._meta_path = os.path.join(data_dir, CATALOG_FILE)
            if wal_path is None:
                wal_path = os.path.join(data_dir, "wal.jsonl")
        recover_paged = self._meta_path is not None and os.path.exists(
            self._meta_path
        )
        logged: list[WalCommit] = []
        if recover_paged and wal_path is not None and os.path.exists(wal_path):
            self.wal, logged = WriteAheadLog.load(
                wal_path, attach=True, group_size=wal_group_size, fsync=wal_fsync
            )
        else:
            self.wal = WriteAheadLog(
                wal_path, group_size=wal_group_size, fsync=wal_fsync
            )
        if self._buffer_pool is not None:
            # The WAL rule: a commit's log record must be durable before
            # any page reflecting it is written back (otherwise a group-
            # commit crash could leave a partial commit on disk that tail
            # replay cannot fill in).
            self._buffer_pool.before_write = self.wal.flush
        self.txn_manager = TransactionManager(self)
        self.observers = Observers()
        #: Set by replication failover: a fenced (demoted) primary accepts
        #: no new transactions and no further commits, so a split brain
        #: cannot acknowledge writes the promoted replica never sees.
        self.fenced = False
        #: Simulated node failure: a crashed database answers nothing —
        #: not even reads — until revived. The cluster heartbeat detector
        #: probes this via :meth:`ping` and drives failover from it.
        self.crashed = False
        #: Set on replica databases. Writes and DDL through the SQL
        #: surface are rejected (changes arrive only via the shipped
        #: stream), and autocommitted SELECTs abort their transaction
        #: instead of committing it — a commit would consume a CSN and
        #: desynchronize the replica's clock from the primary's.
        self.read_only = False
        #: Why the database is read-only, when the default "is a replica"
        #: explanation is wrong — e.g. a quorum-degraded primary sets
        #: this so rejected writers learn the quorum is lost (and that
        #: the condition is temporary), not that they hit a replica.
        self.read_only_reason: str | None = None
        #: Rows a scan pulls between cooperative-scheduler yield points,
        #: and the most a streamed cursor's scan reads ahead in one
        #: chunk. 0 disables the yield points entirely (and leaves the
        #: cursor's read-ahead bounded only by what it already fetched).
        self.scan_batch_size = 256
        #: Batch-executor counters (mirrors ``plan_cache_stats``):
        #: batches processed (the match phase of an UPDATE or DELETE is
        #: one), and rows removed by scan-level vs post-join filters.
        self.executor_stats = {
            "batches_processed": 0,
            "rows_filtered_at_scan": 0,
            "rows_filtered_post_join": 0,
        }
        self.history_horizon = 0
        self._stores: dict[str, TableStore | SegmentStore] = {}
        self._indexes: dict[str, IndexSet] = {}
        #: Bumped by every DDL / catalog change.
        self.catalog_epoch = 0
        #: :attr:`catalog_shape`, until the next DDL drops it.
        self._catalog_shape: int | None = None
        #: Plan-memo lookups keyed by this catalog
        #: (:func:`~repro.db.sql.executor.memo_plan`).
        self.plan_cache_stats = {
            "hits": 0,
            "misses": 0,
            "dml_hits": 0,
            "dml_misses": 0,
        }
        if recover_paged:
            self._recover_paged(logged)

    # -- schema management ---------------------------------------------------

    def bump_catalog_epoch(self) -> None:
        """Note a catalog or index change: plans are keyed anew."""
        self.catalog_epoch += 1
        self._catalog_shape = None

    @property
    def catalog_shape(self) -> int:
        """All a plan over this catalog depends on, as a small int: equal
        for databases whose tables (columns, unique constraints, indexes in
        order) and aliases are equal, which therefore share every plan."""
        if self._catalog_shape is None:
            tables = sorted(
                (key, ixs.schema.name, ixs.schema.columns, ixs.schema.unique_constraints,
                 tuple((type(ix), ix.name, ix.columns, getattr(ix, "unique", False))
                       for ix in ixs.indexes.values()))
                for key, ixs in self._indexes.items()
            )
            aliases = sorted(self.catalog.aliases().items())
            self._catalog_shape = catalog_shape_id((tuple(tables), tuple(aliases)))
        return self._catalog_shape

    def create_table(self, schema: TableSchema) -> None:
        self.catalog.create_table(schema)
        key = self.catalog.resolve(schema.name)
        if self.storage == "paged":
            file = self._page_manager.create(key)
            self._stores[key] = PagedTableStore(
                schema, self._page_manager, self._buffer_pool, key, file
            )
        elif self.storage == _SEGMENT:
            self._stores[key] = SegmentStore(schema)
        else:
            self._stores[key] = TableStore(schema)
        self._indexes[key] = IndexSet(schema)
        self.bump_catalog_epoch()
        self._save_catalog_meta()
        self.observers.notify("table_created", schema)

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        if if_exists and not self.catalog.has_table(name):
            return
        key = self.catalog.resolve(name)
        self.catalog.drop_table(name)
        del self._stores[key]
        del self._indexes[key]
        if self.storage == "paged":
            self._buffer_pool.drop_file(self._page_manager.get(key))
            self._page_manager.drop(key)
        self._index_meta = [m for m in self._index_meta if m["table"] != key]
        self.bump_catalog_epoch()
        self._save_catalog_meta()
        self.observers.notify("table_dropped", key)

    def add_table_alias(self, alias: str, table: str) -> None:
        self.catalog.add_alias(alias, table)
        self.bump_catalog_epoch()
        self._save_catalog_meta()
        self.observers.notify("alias_added", alias, table)

    def create_index(
        self,
        name: str,
        table: str,
        columns: Sequence[str],
        unique: bool = False,
        sorted_index: bool = False,
    ) -> None:
        key = self.catalog.resolve(table)
        index_set = self._indexes[key]
        if sorted_index:
            index = index_set.create_sorted_index(name, columns)
        else:
            index = index_set.create_hash_index(name, columns, unique=unique)
        index.add_many(*split_pairs(self._stores[key].latest_rows()))
        self._index_meta.append(
            {
                "name": name,
                "table": key,
                "columns": list(columns),
                "unique": bool(unique),
                "sorted": bool(sorted_index),
            }
        )
        self.bump_catalog_epoch()
        self._save_catalog_meta()
        self.observers.notify(
            "index_created", name, key, tuple(columns), unique, sorted_index
        )

    def drop_index(self, name: str, table: str, if_exists: bool = False) -> None:
        if if_exists and not self.catalog.has_table(table):
            # DROP TABLE removes its indexes implicitly; an idempotent
            # cleanup running afterwards must stay a no-op.
            return
        key = self.catalog.resolve(table)
        self._indexes[key].drop_index(name, if_exists=if_exists)
        self._index_meta = [
            m
            for m in self._index_meta
            if not (m["table"] == key and m["name"].lower() == name.lower())
        ]
        self.bump_catalog_epoch()
        self._save_catalog_meta()
        self.observers.notify("index_dropped", name, key)

    def empty_like(self, name: str) -> "Database":
        """A fresh, empty database with this one's tables, secondary
        indexes, aliases and storage: what a cluster provisions a new node
        (a replica, a reshard target) from. A paged copy keeps the page
        geometry and lives in its own ephemeral ``data_dir``."""
        if self.storage == "paged":
            database = Database(
                name=name,
                storage="paged",
                buffer_pool_pages=self._buffer_pool.capacity,
                page_size=self._page_manager.page_size,
            )
        else:
            database = Database(name=name, storage=self.storage)
        for table in self.catalog.table_names():
            database.create_table(self.catalog.get(table))
        for meta in self._index_meta:
            database.create_index(
                meta["name"],
                meta["table"],
                meta["columns"],
                unique=meta["unique"],
                sorted_index=meta["sorted"],
            )
        for alias, target in self.catalog.aliases().items():
            database.add_table_alias(alias, target)
        return database

    def store(self, table: str) -> TableStore | SegmentStore:
        # A canonical name (what plans and the commit path hold) needs no
        # resolving; an alias or another spelling does.
        store = self._stores.get(table)
        if store is None:
            store = self._stores[self.catalog.resolve(table)]
        return store

    def index_set(self, table: str) -> IndexSet:
        indexes = self._indexes.get(table)
        if indexes is None:
            indexes = self._indexes[self.catalog.resolve(table)]
        return indexes

    # -- paged storage: persistence, recovery, checkpoint ---------------------

    def _save_catalog_meta(self) -> None:
        """Atomically persist schemas/aliases/indexes for paged recovery.

        Written on every DDL change (not just at checkpoint) so the
        catalog file always exists from the first CREATE TABLE on — a
        crash between DDL and the first checkpoint must still recover.
        """
        if self._meta_path is None or self._recovering:
            return
        meta = {
            "tables": [
                _schema_to_meta(self.catalog.get(name))
                for name in self.catalog.table_names()
            ],
            "aliases": self.catalog.aliases(),
            "indexes": self._index_meta,
            "history_horizon": self.history_horizon,
        }
        tmp_path = self._meta_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
        os.replace(tmp_path, self._meta_path)

    def _recover_paged(self, commits: list[WalCommit]) -> None:
        """Open the page files and replay only the WAL tail.

        Each table's file header records ``flushed_csn`` — the newest
        commit its pages are guaranteed to contain. Commits at or below
        it are skipped outright; the tail above it replays through
        :meth:`PagedTableStore.reconcile`, which is idempotent because
        buffer-pool evictions may have pushed pages *newer* than the
        header to disk before the crash.
        """
        with open(self._meta_path, encoding="utf-8") as handle:
            meta = json.load(handle)
        stats = self.recovery_stats
        stats["mode"] = "paged"
        self._recovering = True
        try:
            for table_meta in meta["tables"]:
                schema = _schema_from_meta(table_meta)
                self.catalog.create_table(schema)
                key = self.catalog.resolve(schema.name)
                self._stores[key] = PagedTableStore.load(
                    schema, self._page_manager, self._buffer_pool, key
                )
                self._indexes[key] = IndexSet(schema)
            for alias, target in meta.get("aliases", {}).items():
                self.catalog.add_alias(alias, target)
            self.history_horizon = meta.get("history_horizon", 0)

            def reconcile(store: Any, change: WalChange, csn: int) -> bool:
                if csn <= store.flushed_csn:
                    return False
                if store.reconcile(change, csn):
                    stats["changes_reconciled"] += 1
                else:
                    stats["changes_skipped"] += 1
                return True

            self._redo(commits, reconcile)
            for key, store in self._stores.items():
                store.finish_recovery()
                self._indexes[key].on_insert_many(*split_pairs(store.latest_rows()))
            for index_meta in meta.get("indexes", []):
                self.create_index(
                    index_meta["name"],
                    index_meta["table"],
                    index_meta["columns"],
                    unique=index_meta["unique"],
                    sorted_index=index_meta["sorted"],
                )
        finally:
            self._recovering = False

    def _redo(
        self,
        commits: list[WalCommit],
        redo: Callable[[Any, WalChange, int], bool],
    ) -> None:
        """Redo recovered ``commits`` and move the commit clocks past them.

        ``redo(store, change, csn)`` applies one change and says whether
        the commit counts as replayed (``recovery_stats["tail_commits"]``).
        The txn counter moves past every commit's txn id and past the
        in-doubt prepares: an undecided branch keeps its identity until it
        is resolved. Nothing keeps ``commits``.
        """
        stats = self.recovery_stats
        manager = self.txn_manager
        for commit in commits:
            replayed = False
            for change in commit.changes:
                store = self._stores.get(change.table)
                if store is None:
                    raise WalError(f"WAL references unknown table {change.table!r}")
                replayed |= redo(store, change, commit.csn)
            stats["tail_commits"] += replayed
        stats["wal_commits"] = len(commits)
        manager._next_txn_id = max(
            [manager._next_txn_id]
            + [commit.txn_id + 1 for commit in commits]
            + [prepare.txn_id + 1 for prepare in self.wal.in_doubt()]
        )
        manager.last_csn = max(
            [self.wal.last_csn]
            + [store.last_write_csn for store in self._stores.values()]
        )

    def in_doubt_prepares(self) -> list[Any]:
        """Durably prepared 2PC branches with no commit/abort record.

        Non-empty only after reopening a database that crashed between a
        coordinator's prepare and phase-2; the coordinator's
        :meth:`~repro.db.multistore.MultiStoreCoordinator.recover_in_doubt`
        resolves them against its decision log.
        """
        return self.wal.in_doubt()

    def resolve_in_doubt(self, decide: Callable[[Any], bool]) -> dict[str, int]:
        """Resolve every in-doubt prepared branch (presumed abort).

        ``decide`` is called with each in-doubt
        :class:`~repro.db.txn.wal.WalPrepare` (in WAL order) and returns
        True to commit — the branch's prepared changes are applied at the
        next CSN and re-logged as a normal commit — or False to abort,
        which appends a WAL abort record so the prepare never reads as
        in-doubt again. A committed branch's CSN joins the loaded WAL's
        (:attr:`WriteAheadLog.branch_csns
        <repro.db.txn.wal.WriteAheadLog.branch_csns>`) for the coordinator
        to take. Returns ``{"committed": n, "aborted": n}``.
        """
        resolved = {"committed": 0, "aborted": 0}
        for prepare in self.in_doubt_prepares():
            # Same-process recovery (the simulated crash never actually
            # killed this interpreter): the prepared branch may still
            # sit in the active table holding its locks. Release the
            # zombie first — after a real restart this finds nothing.
            zombie = self.txn_manager.active.pop(prepare.txn_id, None)
            if zombie is not None:
                self.txn_manager.locks.release_all(prepare.txn_id)
                zombie.status = TransactionStatus.ABORTED
            if decide(prepare):
                self.wal.branch_csns[prepare.txn_id] = (
                    self.txn_manager.commit_recovered(prepare)
                )
                resolved["committed"] += 1
            else:
                self.wal.append_abort(
                    WalAbort(txn_id=prepare.txn_id, gtxn_id=prepare.gtxn_id)
                )
                resolved["aborted"] += 1
        self.wal.flush()
        return resolved

    def checkpoint(self) -> int:
        """Flush the WAL and (paged) every dirty page, then advance each
        table's durable ``flushed_csn`` to the current commit position.

        After a checkpoint, reopening the database replays nothing: the
        page files alone carry the full state. Returns the CSN the
        checkpoint covers.
        """
        self.wal.flush()
        csn = self.last_csn
        if self.storage == "paged":
            for store in self._stores.values():
                store.flush(csn)
            self._save_catalog_meta()
        return csn

    def close(self) -> None:
        """Checkpoint (paged), then release every file handle.

        An ephemeral paged database (no explicit ``data_dir``) deletes
        its temp directory here; a persistent one can be reopened with
        ``Database(storage="paged", data_dir=...)``.
        """
        if self._closed:
            return
        self._closed = True
        if self.storage == "paged" and self._page_manager is not None:
            try:
                self.checkpoint()
            finally:
                self._page_manager.close_all()
        self.wal.close()
        if self._ephemeral_dir_cleanup is not None:
            self._ephemeral_dir_cleanup()

    @property
    def storage_stats(self) -> dict[str, Any]:
        """Storage-tier counters (mirrors the ``executor_stats`` pattern;
        :class:`~repro.db.sharding.ShardedDatabase` sums the numeric
        values across shards)."""
        stats: dict[str, Any] = {
            "storage": self.storage,
            "tables": len(self._stores),
            "live_rows": sum(
                store.row_count() for store in self._stores.values()
            ),
            "versions": sum(
                store.version_count() for store in self._stores.values()
            ),
        }
        if self.storage == "paged":
            for key, value in self._buffer_pool.snapshot_stats().items():
                stats[f"pool_{key}"] = value
            for key, value in self._page_manager.stats().items():
                stats[f"file_{key}"] = value
            stats["orphan_pages_reclaimed"] = sum(
                getattr(store, "orphan_pages_reclaimed", 0)
                for store in self._stores.values()
            )
        return stats

    # -- availability ----------------------------------------------------------

    def ping(self) -> bool:
        """Liveness probe for the cluster heartbeat detector.

        Raises :class:`UnavailableError` when the node is crashed; a
        fenced or read-only database still answers (it is alive, just
        demoted), so the detector can tell "dead" from "demoted".
        """
        self._check_available()
        return True

    def _check_available(self) -> None:
        if self.crashed:
            raise UnavailableError(
                f"database {self.name!r} is down (simulated crash); "
                "revive it or fail over"
            )

    # -- transactions -----------------------------------------------------------

    def begin(
        self,
        isolation: IsolationLevel = IsolationLevel.SERIALIZABLE,
        info: dict[str, Any] | None = None,
    ) -> Transaction:
        self._check_available()
        if self.fenced:
            raise FencedError(
                f"database {self.name!r} is fenced (demoted primary); "
                "route traffic to the promoted replica"
            )
        return self.txn_manager.begin(isolation=isolation, info=info)

    # -- SQL --------------------------------------------------------------------

    def select_plan(self, stmt: SelectStmt) -> tuple[PlanNode, list[str]]:
        """Plan a SELECT over this catalog (what the plan memo runs on a
        miss). No isolation level enters it: a snapshot read widens an
        index probe at run time by the rows moved off their key since."""
        return build_select_plan(stmt, self)

    def dml_plan(self, stmt: UpdateStmt | DeleteStmt) -> DmlNode:
        """Plan an UPDATE or DELETE over this catalog (on a memo miss): the
        match-phase scan a SELECT with the same WHERE gets, plus the SET
        list (:class:`~repro.db.sql.executor.DmlNode`)."""
        return build_dml_plan(stmt, self)

    def execute(
        self,
        sql: str,
        params: Sequence[Any] = (),
        txn: Transaction | None = None,
        stream: bool = False,
    ) -> ResultSet:
        """Execute one statement, autocommitting when no txn is passed.

        ``stream=True`` asks for a *streamed* SELECT result: rows flow
        lazily from the executor's batch pipeline, in chunks no larger
        than the consumer has already fetched, instead of being
        materialized, and the result is pinned to the statement's
        snapshot before this method returns — it keeps serving that
        snapshot even though the backing (ephemeral or autocommitted)
        transaction finishes immediately. Streaming silently degrades to
        materialization while an observer takes ``statement_executed``
        (a statement trace carries every read and the rowcount, so it
        needs the full drain), and for non-SELECT statements.
        """
        stmt = parse_cached(sql)
        self._check_available()
        if self.read_only and not isinstance(stmt, SelectStmt):
            raise ReadOnlyError(
                f"database {self.name!r} is read-only: "
                + (
                    self.read_only_reason
                    or "writes and DDL arrive only through the replication "
                    "stream (this is a read-only replica)"
                )
            )
        if isinstance(stmt, SelectStmt) and stmt.as_of is not None:
            # ``SELECT ... AS OF <csn>``: a historical read, independent
            # of any enclosing transaction's snapshot.
            return self._execute_select_as_of(stmt, params, sql)
        if isinstance(
            stmt, (CreateTableStmt, DropTableStmt, CreateIndexStmt, DropIndexStmt)
        ):
            # DDL is non-transactional, as in most engines.
            return execute_statement(self, None, stmt, params, sql)  # type: ignore[arg-type]
        autocommit = txn is None
        active = txn if txn is not None else self.begin()
        try:
            active.begin_statement()
            observed = self.observers.wants("statement_executed")
            streaming = stream and not observed and isinstance(stmt, SelectStmt)
            result = execute_statement(
                self, active, stmt, params, sql, stream=streaming
            )
            if streaming and result.streaming:
                # Pin the pipeline to the live transaction before the
                # autocommit below finishes it; every scan resolves its
                # snapshot here, so the stream survives the commit/abort.
                result.prime()
            elif observed:
                self.report_statement(
                    active, sql, result.kind, result.rowcount,
                    self._writes_of(stmt, result),
                )
            if autocommit:
                if self.read_only or isinstance(stmt, SelectStmt):
                    # A read commits nothing: committing would consume a
                    # CSN (and ship a commit to every replica, or on a
                    # replica desynchronize the shipped stream); aborting
                    # returns the same rows and burns nothing.
                    self.txn_manager.abort(active)
                else:
                    active.commit()
            return result
        except Exception:
            if autocommit:
                self.txn_manager.abort(active)
            raise

    def _execute_select_as_of(
        self, stmt: SelectStmt, params: Sequence[Any], sql: str
    ) -> ResultSet:
        """Run a ``SELECT ... AS OF <csn>`` against the version store.

        The read executes under an ephemeral SNAPSHOT transaction whose
        snapshot is rewound to ``csn`` and which is aborted afterwards —
        historical reads must not consume CSNs (on a replica that would
        desynchronize the shipped stream, and nowhere do they represent a
        new commit). Observers still see the statement trace, so TROD's
        read provenance covers time-travel reads too.
        """
        csn = evaluate_as_of(stmt, params)
        if csn < self.history_horizon:
            raise TimeTravelError(
                f"csn {csn} predates the vacuum horizon "
                f"({self.history_horizon})"
            )
        if csn > self.txn_manager.last_csn:
            raise TimeTravelError(
                f"csn {csn} is in the future (last committed is "
                f"{self.txn_manager.last_csn})"
            )
        active = self.begin(IsolationLevel.SNAPSHOT)
        active.snapshot_csn = csn
        try:
            active.begin_statement()
            result = execute_statement(self, active, stmt, params, sql)
            if self.observers.wants("statement_executed"):
                self.report_statement(active, sql, result.kind, result.rowcount)
            return result
        finally:
            self.txn_manager.abort(active)

    def report_statement(
        self, txn: Transaction, sql: str, kind: str, rowcount: int,
        writes: list[tuple[str, str, int]] | None = None,
    ) -> None:
        """Hand ``statement_executed`` subscribers (callers ask first) a trace."""
        trace = StatementTrace(sql, kind, txn.statement_reads(), writes or [], rowcount)
        self.observers.notify("statement_executed", txn, trace)

    def _writes_of(
        self, stmt: Statement, result: ResultSet
    ) -> list[tuple[str, str, int]]:
        if isinstance(stmt, InsertStmt):
            table = stmt.table
        elif isinstance(stmt, (UpdateStmt, DeleteStmt)):
            table = stmt.table.table
        else:
            return []
        table = self.catalog.resolve(table)
        return [(result.kind, table, rid) for rid in result.row_ids]

    def query(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Read-only convenience wrapper around :meth:`execute`."""
        return self.execute(sql, params)

    def execute_read(
        self,
        sql: str,
        params: Sequence[Any] = (),
        floor: int = 0,
        preference: str = "replica",
    ) -> ResultSet:
        """A streamed SELECT that consumes no CSN (``floor`` and
        ``preference`` route reads only on the cluster engines, but an
        unknown preference is refused here too): it runs under a
        transaction aborted once ``execute`` has pinned the stream to its
        snapshot, so the commit clock moves alike on every engine and a
        replica's stays in step with its shipped stream. ``AS OF`` reads
        pin their own."""
        check_read_preference(preference)
        stmt = parse_cached(sql)
        if not isinstance(stmt, SelectStmt):
            raise ExecutionError("execute_read supports SELECT statements only")
        if stmt.as_of is not None:
            return self.execute(sql, params)
        txn = self.begin()
        try:
            return self.execute(sql, params, txn=txn, stream=True)
        finally:
            txn.abort()

    def explain(self, sql: str, params: Sequence[Any] = ()) -> list[str]:
        """The plan tree a statement would execute (root first, indented).

        Useful for verifying pushdown, join algorithm, and index-probe
        decisions. SELECT, UPDATE and DELETE have plans; the latter two
        print as ``Update(table)`` / ``Delete(table)`` over the scan that
        finds their rows. A single node's plan ignores ``params``.
        """
        stmt = parse_cached(sql)
        if not isinstance(stmt, (SelectStmt, UpdateStmt, DeleteStmt)):
            raise ExecutionError(
                "EXPLAIN supports SELECT, UPDATE and DELETE statements only"
            )
        if isinstance(stmt, SelectStmt):
            plan, _names = memo_plan("select", sql, self, self.select_plan, stmt)
        else:
            plan = memo_plan("dml", sql, self, self.dml_plan, stmt)
        return plan.explain()

    # -- direct (non-SQL) access -----------------------------------------------

    def insert_row(
        self,
        table: str,
        values: dict[str, Any],
        txn: Transaction | None = None,
    ) -> int:
        """Programmatic INSERT of one row (the one-row :meth:`insert_rows`)."""
        return self.insert_rows(table, (values,), txn=txn)[0]

    def insert_rows(
        self,
        table: str,
        rows: Sequence[dict[str, Any] | Sequence[Any]],
        txn: Transaction | None = None,
    ) -> Sequence[int]:
        """Programmatic multi-row INSERT used by tooling (bypasses SQL parsing).

        Each row is a column -> value mapping or a sequence in schema
        order. All rows are coerced before any is buffered, the batch
        takes the table lock once, and without ``txn`` it commits as one
        transaction. Returns the new row ids, in row order.
        """
        if self.read_only:
            raise ReadOnlyError(
                f"database {self.name!r} is read-only: "
                + (self.read_only_reason or "this is a read-only replica")
            )
        coerced = self.catalog.get(table).coerce_rows(rows)
        autocommit = txn is None
        active = txn if txn is not None else self.begin()
        try:
            row_ids = active.insert_many(table, coerced)
            if autocommit:
                active.commit()
            return row_ids
        except Exception:
            if autocommit:
                self.txn_manager.abort(active)
            raise

    def table_rows(self, table: str) -> list[dict[str, Any]]:
        """Latest committed rows of a table as dicts (the past: ``AS OF``)."""
        schema = self.catalog.get(table)
        return [
            schema.row_dict(values) for _row_id, values in self.store(table).scan(None)
        ]

    def snapshot_rows(self, table: str) -> list[tuple[int, tuple]]:
        """Latest committed ``(row_id, values)`` pairs of one table.

        Part of the :class:`~repro.db.connection.Engine` surface: TROD's
        attach-time snapshot capture uses it so the same code path works
        on single-node and sharded engines.
        """
        return list(self.store(table).scan(None))

    def bulk_load(
        self, table: str, rows: Mapping[int, tuple] | Sequence[tuple[int, tuple]]
    ) -> None:
        """Load pre-validated rows directly at CSN 0 (restore path).

        ``rows`` is a ``row_id -> values`` dict or ``(row_id, values)``
        pairs. Row ids are preserved; indexes are maintained. An empty
        in-memory table adopts the rows (:meth:`TableStore.adopt`): a
        dict becomes its base by reference, never copied nor written,
        and a row gets a version only when first written. Any other
        table inserts them row by row. Only meaningful on a table with
        no committed history of its own.
        """
        store = self.store(table)
        if type(store) is TableStore and store.is_empty():
            rows = store.adopt(rows)
        else:
            if isinstance(rows, Mapping):
                rows = sorted(rows.items())
            store.apply_inserts(rows, 0)
        index_set = self.index_set(table)
        if index_set.indexes:
            index_set.on_insert_many(*split_pairs(rows))

    # -- maintenance ----------------------------------------------------------

    def vacuum(self, keep_after_csn: int) -> int:
        """Garbage-collect row versions older than ``keep_after_csn``."""
        removed = 0
        for store in self._stores.values():
            removed += store.vacuum(keep_after_csn)
        self.history_horizon = max(self.history_horizon, keep_after_csn)
        self._save_catalog_meta()
        return removed

    @property
    def last_csn(self) -> int:
        return self.txn_manager.last_csn

    @property
    def last_commit_csn(self) -> int:
        """The engine-neutral commit position (local CSN here).

        Every :class:`~repro.db.connection.Engine` exposes this so
        sessions and ``AS OF`` bookmarks are taken the same way whether
        the engine counts local CSNs (single node, replicated) or global
        CSNs (sharded).
        """
        return self.txn_manager.last_csn

    # -- observers ---------------------------------------------------------------

    @property
    def track_reads(self) -> bool:
        """Whether SELECTs record read provenance: exactly while an observer
        takes ``statement_executed``, whose :attr:`StatementTrace.reads` are
        the read sets' one consumer. Each scan then hands the
        ``(row_id, values)`` pairs that survive its filter to
        ``Transaction.record_reads``, a batch at a time."""
        return self.observers.wants("statement_executed")

    def add_observer(self, observer: Any) -> None:
        self.observers.add(observer)

    def remove_observer(self, observer: Any) -> None:
        self.observers.remove(observer)

    # -- recovery ------------------------------------------------------------------

    @staticmethod
    def recover(schemas: Sequence[TableSchema], wal_path: str) -> "Database":
        """Rebuild a database from its schema definitions plus a WAL file.

        The database keeps the file's undecided prepares
        (:meth:`in_doubt_prepares`) and does not write to the file."""
        db = Database(name="recovered")
        for schema in schemas:
            db.create_table(schema)
        db.wal, commits = WriteAheadLog.load(wal_path)
        db._redo(commits, redo_change)
        for key, store in db._stores.items():
            db._indexes[key].on_insert_many(*split_pairs(store.latest_rows()))
        return db

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Database {self.name!r} tables={len(self._stores)} "
            f"csn={self.txn_manager.last_csn}>"
        )
