"""Log-shipping read replicas with session guarantees and failover.

The paper's premise — all application state flows through transactional
stores, so the commit-ordered change stream is a complete account of what
happened (§3.4 leans on database CDC for exactly this) — also dictates how
this engine scales reads: replicas are built by *shipping the committed
change stream*, never by copying loose state. The pieces:

* :class:`ReplicationLog` — a tap on a primary :class:`~repro.db.database.
  Database`: every commit (including empty ones, which still consume CSNs)
  and every DDL statement is appended as a :class:`ShipRecord`, in commit
  order. The log is the unit of acknowledgement: a commit present here is
  durable for failover purposes, whatever the replicas have applied.
* :class:`Applier` — replays ship records onto one replica database
  *transactionally*, preserving CSNs and row ids exactly. A caught-up
  replica is therefore bit-identical to the primary — including its
  row version history from the bootstrap point on, so time-travel / AS-OF
  reads work on replicas, and including its own WAL, so a replica can be
  tapped by provenance just like a primary.
* :class:`ReplicaSet` — N replicas behind one primary with sync/async ship
  modes, per-replica lag tracking, catch-up, and promotion: fence the old
  primary, drain every acknowledged record, promote the most-caught-up
  replica, re-point the log. The set releases every record all of its
  replicas have applied, crashed ones included, so the log holds exactly
  the backlog of its slowest replica. It is also the replicated engine:
  :func:`repro.connect` takes it as it is, writes, DDL and transactions
  run on the primary, and SELECTs are routed.
* :class:`Session` — session guarantees as routing: a session carries
  the CSN of its last write, and :meth:`ReplicaSet.target` — the one
  place that chooses between a replica and the primary — serves its
  reads from replicas at/after it (read-your-writes), falling back to
  the primary or forcing a catch-up when every replica is stale. Every
  engine reaches it through ``execute_read`` (:class:`ReplicaSet` here,
  :class:`~repro.db.sharding.ShardedDatabase` per shard), which is what
  :func:`repro.connect` calls; "which node answered, and why" is counted
  once, in :attr:`ReplicaSet.stats`.

Replicas are read-only by convention, and reads against them must not
consume CSNs (that would desynchronize the shipped stream), so the
serving database's own :meth:`~repro.db.database.Database.execute_read`
runs each SELECT under a transaction it *aborts* — the same trick the
sharded facade uses for scatter reads.

TROD observes primaries only, so a replica set whose primary has a
``statement_executed`` subscriber serves every read from that primary:
the events a SELECT produces must not depend on the read preference.
That is the cost of tracing a replicated deployment — replicas stop
offloading reads while a debugger is attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.db.database import Database, check_read_preference
from repro.db.result import ResultSet
from repro.db.schema import TableSchema
from repro.db.sql.executor import evaluate_as_of
from repro.db.sql.nodes import SelectStmt
from repro.db.sql.parser import parse_cached
from repro.db.txn.manager import IsolationLevel, Transaction
from repro.db.txn.wal import WalChange
from repro.errors import ReplicationError, UnavailableError
from repro.faults import fault_point


@dataclass(frozen=True)
class ShipRecord:
    """One replicated event: a commit's change set, or one DDL statement."""

    seq: int  # position in the replication log (contiguous)
    kind: str  # 'commit' | 'ddl'
    csn: int  # primary CSN after this record
    txn_id: int  # primary transaction id (0 for DDL)
    changes: tuple[WalChange, ...] = ()  # the primary WAL record's own tuple
    ddl: tuple | None = None  # ('create_table', schema) | ('drop_table', name) | ...


class ReplicationLog:
    """Commit-ordered ship stream tapped from a primary database.

    Attaches as an observer: ``txn_committed`` yields commit records
    (empty commits included — they consume CSNs, and replicas must track
    the primary's CSN clock exactly), and the DDL hooks yield schema
    records so replicas follow catalog changes in stream order. It takes
    no ``statement_executed``, so its primary still streams reads. Records
    stay until :meth:`release` lets them go.
    """

    events = (
        "txn_committed", "table_created", "table_dropped",
        "index_created", "index_dropped", "alias_added",
    )

    def __init__(self, primary: Database):
        self.primary = primary
        self._records: list[ShipRecord] = []
        self._next_seq = 1
        self._subscribers: list[Callable[[ShipRecord], None]] = []
        #: Primary CSN when the tap attached; records describe only
        #: history after this point (bootstrap snapshots cover the rest).
        self.base_csn = primary.last_csn
        primary.add_observer(self)

    def detach(self) -> None:
        self.primary.remove_observer(self)

    def subscribe(self, callback: Callable[[ShipRecord], None]) -> Callable[[], None]:
        """Register ``callback`` for new records; returns an unsubscribe."""
        self._subscribers.append(callback)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass

        return unsubscribe

    # -- observer hooks (called by the primary) ---------------------------

    def txn_committed(
        self, txn: Any, csn: int, changes: tuple[WalChange, ...]
    ) -> None:
        self._append("commit", csn, txn.txn_id, changes=changes)

    def table_created(self, schema: TableSchema) -> None:
        self._ddl("create_table", schema)

    def table_dropped(self, name: str) -> None:
        self._ddl("drop_table", name)

    def index_created(
        self, name: str, table: str, columns: tuple, unique: bool, sorted_index: bool
    ) -> None:
        self._ddl("create_index", name, table, columns, unique, sorted_index)

    def index_dropped(self, name: str, table: str) -> None:
        self._ddl("drop_index", name, table)

    def alias_added(self, alias: str, table: str) -> None:
        self._ddl("alias", alias, table)

    def _ddl(self, *ddl: Any) -> None:
        self._append("ddl", self.primary.last_csn, 0, ddl=ddl)

    # -- record plumbing --------------------------------------------------

    def _append(
        self,
        kind: str,
        csn: int,
        txn_id: int,
        changes: tuple[WalChange, ...] = (),
        ddl: tuple | None = None,
    ) -> None:
        fault_point(
            "repl.ship", primary=self.primary.name, seq=self._next_seq, kind=kind
        )
        record = ShipRecord(
            seq=self._next_seq,
            kind=kind,
            csn=csn,
            txn_id=txn_id,
            changes=changes,
            ddl=ddl,
        )
        self._next_seq += 1
        self._records.append(record)
        for subscriber in list(self._subscribers):
            subscriber(record)

    def since(self, seq: int) -> list[ShipRecord]:
        """Held records with sequence number > ``seq``, in order."""
        if not self._records:
            return []
        start = max(0, seq + 1 - self._records[0].seq)
        return self._records[start:]

    def release(self, seq: int) -> None:
        """Let go of the records with sequence number <= ``seq``."""
        if self._records and self._records[0].seq <= seq:
            del self._records[: seq + 1 - self._records[0].seq]

    @property
    def last_seq(self) -> int:
        return self._next_seq - 1

    def __len__(self) -> int:
        return len(self._records)


class Applier:
    """Replays ship records onto one replica database, transactionally.

    Commit records replay through a real transaction (so the replica's
    WAL, indexes, and observers all behave exactly as on the
    primary) and must land on the very next CSN — the replica's commit
    counter then assigns ``record.csn`` by construction, and the
    transaction takes the *primary's* transaction id so provenance
    lookups agree across the fleet. Any CSN mismatch means the
    stream has a gap (or the replica was written to directly) and raises
    :class:`ReplicationError` rather than applying a torn history.
    """

    def __init__(self, replica: Database):
        self.replica = replica
        self.applied_seq = 0

    def apply(self, record: ShipRecord) -> None:
        fault_point("repl.apply", replica=self.replica.name, seq=record.seq)
        if record.kind == "commit":
            self._apply_commit(record)
        elif record.kind == "ddl":
            self._apply_ddl(record)
        else:  # pragma: no cover - constructed only by ReplicationLog
            raise ReplicationError(f"unknown ship record kind {record.kind!r}")
        self.applied_seq = record.seq

    def _apply_commit(self, record: ShipRecord) -> None:
        expected = self.replica.last_csn + 1
        if record.csn != expected:
            direction = "behind" if record.csn > expected else "ahead of"
            raise ReplicationError(
                f"replica {self.replica.name!r} at csn {self.replica.last_csn} "
                f"is {direction} commit record csn {record.csn}; the stream "
                "has a gap (resync required)"
            )
        manager = self.replica.txn_manager
        # Pin the transaction counter to the PRIMARY's txn id: a promoted
        # replica's txn ids then continue the primary's instead of reusing
        # ids its history already holds.
        manager._next_txn_id = record.txn_id
        if not record.changes:
            # Empty commit (a read-only transaction on the primary): it
            # only advances the clocks, with no transaction spun up —
            # catch-up over a read-mostly stream stays O(1) per record.
            manager.last_csn = record.csn
            manager._next_txn_id += 1
            return
        txn = self.replica.begin(info={"replication_apply": True})
        assert txn.txn_id == record.txn_id
        try:
            for change in record.changes:
                if change.op == "insert":
                    txn.insert_with_id(change.table, change.values, change.row_id)
                elif change.op == "update":
                    txn.update(change.table, change.row_id, change.values)
                elif change.op == "delete":
                    txn.delete(change.table, change.row_id)
                else:  # pragma: no cover - the WAL logs only these three
                    raise ReplicationError(f"unknown change op {change.op!r}")
            txn.commit()
        except Exception:
            if txn.commit_csn is None:
                txn.abort()
            raise

    def _apply_ddl(self, record: ShipRecord) -> None:
        assert record.ddl is not None
        op, *args = record.ddl
        db = self.replica
        if op == "create_table":
            (schema,) = args
            db.create_table(schema)
        elif op == "drop_table":
            (name,) = args
            db.drop_table(name, if_exists=True)
        elif op == "create_index":
            name, table, columns, unique, sorted_index = args
            db.create_index(
                name, table, list(columns), unique=unique, sorted_index=sorted_index
            )
        elif op == "drop_index":
            name, table = args
            db.drop_index(name, table, if_exists=True)
        elif op == "alias":
            alias, table = args
            db.add_table_alias(alias, table)
        else:  # pragma: no cover - constructed only by ReplicationLog
            raise ReplicationError(f"unknown ddl op {op!r}")


class Replica:
    """One replica database and its apply position."""

    __slots__ = ("name", "database", "applier")

    def __init__(self, name: str, database: Database, applier: Applier):
        self.name = name
        self.database = database
        self.applier = applier

    @property
    def csn(self) -> int:
        return self.database.last_csn

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Replica {self.name!r} csn={self.csn}>"


class ReplicaSet:
    """N log-shipping replicas behind one primary.

    ``mode='sync'`` applies every record to every replica inside the
    primary's commit (zero lag, commit pays the apply cost); ``'async'``
    accumulates records in the :class:`ReplicationLog` and applies them on
    :meth:`catch_up` (bounded staleness, cheap commits). Replicas
    bootstrapped mid-stream start from a snapshot of the primary's latest
    state, so their time-travel horizon is the bootstrap CSN.

    ``ack_quorum=N`` (async mode) is the middle ground: every commit is
    applied synchronously to the first N healthy replicas before the
    primary's ``execute``/``commit`` returns, and the rest catch up in the
    background — durability (quorum size) and read fan-out (replica
    count) scale independently. A commit that cannot reach N replicas
    raises :class:`ReplicationError` *after* the primary applied it: the
    write is durable locally and in the ship log, but the caller learns
    the quorum was not met.

    Crashed replicas (``database.crashed``, the cluster failure model)
    are skipped by shipping, routing, and quorum counting; once revived
    they drain their backlog on the next :meth:`catch_up` or shipped
    commit. The log releases a record once every replica has applied it,
    so a crashed replica pins the log from its position on until it
    revives and catches up, or a promotion re-provisions it.

    The set is an :class:`~repro.db.connection.Engine`: ``execute``,
    ``begin``, ``explain`` and observers act on the current primary, and
    :meth:`execute_read` serves each SELECT from the database
    :meth:`target` names.
    """

    def __init__(
        self,
        primary: Database,
        n_replicas: int = 0,
        mode: str = "async",
        ack_quorum: int = 0,
    ):
        if mode not in ("sync", "async"):
            raise ReplicationError(f"unknown ship mode {mode!r}")
        if ack_quorum < 0:
            raise ReplicationError(f"ack_quorum must be >= 0, got {ack_quorum}")
        if ack_quorum and mode == "sync":
            raise ReplicationError(
                "ack_quorum is redundant with mode='sync' (every replica "
                "already applies inside the commit); use mode='async'"
            )
        self.primary = primary
        self.mode = mode
        self.ack_quorum = ack_quorum
        self.log = ReplicationLog(primary)
        self.replicas: list[Replica] = []
        self._rr = 0  # round-robin cursor
        self._made = 0  # names stay unique across promote/resync
        self._promoting = False
        #: Databases removed from active duty (the demoted primary after a
        #: failover). :meth:`reprovision` rejoins them as fresh replicas.
        self.retired: list[Database] = []
        #: True while the primary has fewer than ``ack_quorum`` healthy
        #: replicas and has been degraded to read-only.
        self.degraded = False
        self.stats = {
            "shipped_records": 0,
            "resyncs": 0,
            "promotions": 0,
            "quorum_commits": 0,
            "quorum_misses": 0,
            "degradations": 0,
            "restorations": 0,
            "reprovisions": 0,
            # Which node answered each read, and why (:meth:`target` is
            # the only writer).
            "replica_reads": 0,
            "primary_reads": 0,
            "stale_fallbacks": 0,
            "catch_up_waits": 0,
        }
        for _ in range(n_replicas):
            self.add_replica()
        self._unsub = self.log.subscribe(self._on_record)

    def _release(self) -> None:
        """Release the records every replica has applied (all of them
        when there is no replica: a new one starts from a snapshot)."""
        self.log.release(
            min(
                (r.applier.applied_seq for r in self.replicas),
                default=self.log.last_seq,
            )
        )

    # -- membership -------------------------------------------------------

    def add_replica(self, name: str | None = None) -> Replica:
        """Bootstrap a new replica from the primary's latest snapshot."""
        self._made += 1
        name = name or f"{self.primary.name}-r{self._made}"
        database = self._bootstrap(name)
        replica = Replica(name, database, Applier(database))
        # The snapshot already reflects everything the log has recorded.
        replica.applier.applied_seq = self.log.last_seq
        self.replicas.append(replica)
        return replica

    def replica(self, name: str) -> Replica:
        for replica in self.replicas:
            if replica.name == name:
                return replica
        raise ReplicationError(
            f"no replica {name!r} (have {[r.name for r in self.replicas]})"
        )

    def _bootstrap(self, name: str) -> Database:
        """A fresh database like the primary (storage, schema, indexes)
        holding its latest rows.

        Row ids are preserved (provenance and shipped updates address rows
        by id); the snapshot loads at CSN 0 and the CSN clock is advanced
        to the primary's, so every *later* commit lands on its exact CSN.
        History before the bootstrap point is not on the replica — the
        time-travel horizon records that, like a base backup.
        """
        primary = self.primary
        base_csn = primary.last_csn
        database = primary.empty_like(name)
        for table in primary.catalog.table_names():
            database.bulk_load(table, list(primary.store(table).scan(None)))
        manager = database.txn_manager
        manager.last_csn = base_csn
        # The replica's txn counter continues from the primary's, so a
        # promoted replica never reuses a txn id the history holds.
        manager._next_txn_id = primary.txn_manager._next_txn_id
        if base_csn:
            database.history_horizon = base_csn
        # Replicas only change through the shipped stream; SQL-surface
        # writes are rejected and autocommitted reads abort (a committed
        # read would consume a CSN and desynchronize the clock).
        database.read_only = True
        return database

    # -- lag and routing --------------------------------------------------

    def lag(self, replica: Replica | str) -> int:
        """How many CSNs ``replica`` trails the primary by."""
        if isinstance(replica, str):
            replica = self.replica(replica)
        return self.primary.last_csn - replica.csn

    def max_lag(self) -> int:
        return max((self.lag(r) for r in self.replicas), default=0)

    def healthy_replicas(self) -> list[Replica]:
        """Replicas whose database answers (not crashed)."""
        return [r for r in self.replicas if not r.database.crashed]

    def least_lagged(self) -> Replica:
        healthy = self.healthy_replicas()
        if not healthy:
            raise ReplicationError(
                "replica set is empty"
                if not self.replicas
                else "every replica is down"
            )
        return max(healthy, key=lambda r: r.csn)

    def covering_replica(self, csn: int) -> Replica | None:
        """A replica whose shipped history covers commit ``csn``, or None.

        Coverage means the replica has applied the commit (its CSN is
        at/after ``csn``) *and* its bootstrap horizon predates it — the
        qualification :meth:`target` applies to an ``AS OF`` read.
        """
        for replica in self.healthy_replicas():
            if (
                replica.csn >= csn
                and replica.database.history_horizon <= csn
            ):
                return replica
        return None

    def pick(self, min_csn: int = 0) -> Replica | None:
        """A healthy replica whose CSN is at/after ``min_csn``, round robin,
        or None.

        ``min_csn`` is the session-guarantee floor: a session that wrote
        at CSN *c* may only read from replicas that have applied *c*.
        """
        eligible = [r for r in self.healthy_replicas() if r.csn >= min_csn]
        if not eligible:
            return None
        self._rr += 1
        return eligible[self._rr % len(eligible)]

    def target(
        self, floor: int = 0, as_of: int | None = None, preference: str = "replica"
    ) -> Database:
        """The database that serves one read; counts the decision.

        A live read (``as_of`` None) goes to a replica at/after ``floor``
        (the session-guarantee minimum: the CSN of the caller's last
        acknowledged write), round robin; when every replica is stale,
        ``preference='wait'`` forces a catch-up and picks again,
        ``'replica'`` falls back to the primary. An ``AS OF`` read goes to
        any replica whose shipped history covers ``as_of`` — it answers
        identically to the primary, so floors do not apply and nothing is
        waited for — else to the primary. ``preference='primary'`` pins
        the read to the primary, as does a primary that tracks reads (one
        with a ``statement_executed`` subscriber): TROD observes primaries
        only, and the events a read emits must not depend on who was asked
        to serve it (see the module docstring).
        """
        check_read_preference(preference)
        if preference == "primary" or not self.replicas or self.primary.track_reads:
            self.stats["primary_reads"] += 1
            return self.primary
        if as_of is not None:
            replica = self.covering_replica(as_of)
            if replica is None:
                self.stats["primary_reads"] += 1
                return self.primary
        else:
            replica = self.pick(min_csn=floor)
            if replica is None and preference == "wait":
                self.catch_up()
                self.stats["catch_up_waits"] += 1
                replica = self.pick(min_csn=floor)
            if replica is None:
                self.stats["stale_fallbacks"] += 1
                return self.primary
        self.stats["replica_reads"] += 1
        return replica.database

    # -- the Engine surface: statements run on the primary ------------------

    @property
    def name(self) -> str:
        return self.primary.name

    @property
    def catalog(self):
        return self.primary.catalog

    @property
    def last_commit_csn(self) -> int:
        """The engine-neutral commit position (the primary's local CSN)."""
        return self.primary.last_csn

    def execute(
        self,
        sql: str,
        params: Sequence[Any] = (),
        txn: Transaction | None = None,
    ) -> ResultSet:
        """Authoritative execution on the primary.

        DDL is immediately shipped to the replicas: schema records consume
        no CSN, so no session floor could otherwise gate their visibility.
        Use :meth:`execute_read` for replica-served SELECTs.
        """
        result = self.primary.execute(sql, params, txn=txn)
        if result.kind == "ddl":
            self.catch_up()
        return result

    def execute_read(
        self,
        sql: str,
        params: Sequence[Any] = (),
        floor: int = 0,
        preference: str = "replica",
    ) -> ResultSet:
        """A SELECT served by the database :meth:`target` names, CSN-free:
        that database's own ``execute_read`` runs it, so it streams."""
        stmt = parse_cached(sql)
        if not isinstance(stmt, SelectStmt):
            raise ReplicationError("execute_read supports SELECT statements only")
        as_of = None if stmt.as_of is None else evaluate_as_of(stmt, params)
        return self.target(floor, as_of, preference).execute_read(sql, params)

    def begin(
        self,
        isolation: IsolationLevel = IsolationLevel.SERIALIZABLE,
        info: dict[str, Any] | None = None,
    ) -> Transaction:
        return self.primary.begin(isolation=isolation, info=info)

    def explain(self, sql: str, params: Sequence[Any] = ()) -> list[str]:
        return self.primary.explain(sql, params)

    def table_rows(self, table: str) -> list[dict[str, Any]]:
        return self.primary.table_rows(table)

    def snapshot_rows(self, table: str) -> list[tuple[int, tuple]]:
        return self.primary.snapshot_rows(table)

    # TROD attaches to the primary; a promotion hands its observers to the
    # promoted database.

    def add_observer(self, observer: Any) -> None:
        self.primary.add_observer(observer)

    def remove_observer(self, observer: Any) -> None:
        self.primary.remove_observer(observer)

    @property
    def cluster_stats(self) -> dict[str, int]:
        """The set's counters (a sharded engine sums its sets')."""
        return self.stats

    # -- shipping ---------------------------------------------------------

    def _on_record(self, record: ShipRecord) -> None:
        """Ship ``record`` as the mode says, then release what every
        replica has applied.

        Sync mode applies it inside the primary's commit, on every
        replica; a replica revived since its crash first drains the
        backlog the log held for it, so the stream it applies stays
        gap-free. Crashed replicas are skipped — a dead node must not
        brick the primary's commits; it drains once it answers again.
        """
        try:
            if self.mode == "sync":
                for replica in self.replicas:
                    if not replica.database.crashed:
                        self._ship(replica, upto=record.seq)
            elif self.ack_quorum > 0:
                self._ship_quorum(record)
        finally:
            self._release()

    def _ship(
        self, replica: Replica, upto: int | None = None, limit: int | None = None
    ) -> int:
        """Apply ``replica``'s held records from its applied position on,
        through sequence number ``upto`` (the log's end when None) and at
        most ``limit`` of them; returns how many it applied.

        The one place a shipped record reaches a replica: sync and quorum
        shipping, :meth:`catch_up` and promotion all call it, and differ
        only in which replicas they pass and which errors they swallow.
        """
        applied = 0
        for record in self.log.since(replica.applier.applied_seq):
            if applied == limit or (upto is not None and record.seq > upto):
                break
            replica.applier.apply(record)
            applied += 1
            self.stats["shipped_records"] += 1
        return applied

    def _ship_quorum(self, record: ShipRecord) -> None:
        """Quorum mode: apply inside the commit until N replicas acked.

        Replicas outside the quorum stay async. A replica that lagged out
        of the quorum earlier (it was crashed or another replica was
        ahead of it in the list) first drains its backlog so every apply
        stays gap-free. Raises when fewer than ``ack_quorum`` replicas
        could acknowledge — the commit is durable on the primary and in
        the ship log, but the caller learns durability fell short.

        Empty commits (read-only transactions, no-op DML) carry no data,
        so they never block on the quorum: a primary that lost its
        quorum must stay readable. Replicas pick the clock tick up from
        the log with the next real commit or ``catch_up``.
        """
        if record.kind == "commit" and not record.changes:
            return
        acked = 0
        for replica in self.replicas:
            if acked >= self.ack_quorum:
                break
            if replica.database.crashed:
                continue
            try:
                self._ship(replica, upto=record.seq)
            except (ReplicationError, UnavailableError):
                continue  # cannot ack (gap or died mid-apply); try the next
            acked += 1
        if acked < self.ack_quorum:
            self.stats["quorum_misses"] += 1
            self._degrade(acked)
            raise ReplicationError(
                f"write quorum not met: {acked} of {self.ack_quorum} required "
                f"replicas acknowledged csn {record.csn} (primary applied it; "
                "retry once replicas recover, or fail over)"
            )
        self.stats["quorum_commits"] += 1

    def _degrade(self, acked: int) -> None:
        """Quorum lost: degrade the primary to read-only.

        The commit that detected the miss is already durable locally and
        in the ship log (its ReplicationError says so); what degradation
        prevents is *piling up* further writes that no quorum has seen.
        Reads keep flowing — a quorum-less primary must stay readable.
        :meth:`_maybe_restore` lifts the fence once enough replicas are
        healthy and caught up again.
        """
        if self.degraded:
            return
        self.degraded = True
        self.primary.read_only = True
        self.primary.read_only_reason = (
            f"write quorum lost ({acked} of {self.ack_quorum} replicas "
            "acknowledging); writes resume when the quorum is restored"
        )
        self.stats["degradations"] += 1

    def _maybe_restore(self) -> None:
        """Lift a quorum degradation once enough replicas are healthy."""
        if not self.degraded:
            return
        if len(self.healthy_replicas()) < self.ack_quorum:
            return
        self.degraded = False
        self.primary.read_only = False
        self.primary.read_only_reason = None
        self.stats["restorations"] += 1

    def catch_up(
        self, replica: Replica | str | None = None, limit: int | None = None
    ) -> int:
        """Apply pending log records; returns the number applied.

        ``limit`` bounds records applied *per replica* (lag simulation and
        incremental catch-up both use it).
        """
        if isinstance(replica, str):
            replica = self.replica(replica)
        targets = [replica] if replica is not None else list(self.replicas)
        applied = 0
        for target in targets:
            if not target.database.crashed:  # a dead node drains after revival
                applied += self._ship(target, limit=limit)
        self._release()
        self._maybe_restore()
        return applied

    def resync(self, replica: Replica | str) -> None:
        """Rebuild a replica from a fresh primary snapshot (in place).

        The :class:`Replica` wrapper keeps its identity so callers holding
        references keep working; only the database underneath is new. The
        replica now stands at the log's end, so the records it had not
        applied are released unless another replica still needs them.
        """
        if isinstance(replica, str):
            replica = self.replica(replica)
        replica.database = self._bootstrap(replica.name)
        replica.applier = Applier(replica.database)
        replica.applier.applied_seq = self.log.last_seq
        self.stats["resyncs"] += 1
        self._release()

    # -- failover ---------------------------------------------------------

    def promote(self, target: Replica | str | None = None) -> Database:
        """Fail over: fence the primary, promote a replica, re-point.

        Every record in the :class:`ReplicationLog` is *acknowledged* — it
        survives the primary — so promotion first drains the log into the
        replicas, then promotes ``target`` (default: the most caught-up
        one) and re-points the remaining replicas at a fresh log on the
        new primary. All drained replicas sit at the same CSN at that
        moment, so the fresh log needs no history. A replica that cannot
        drain (an apply fails) — or is itself crashed — is resynced
        (re-provisioned) from the *new* primary. The old primary stays
        fenced: it accepts no further transactions or commits. Its
        observers (other than the ship log, which is re-created) move to
        the promoted database, so an attached TROD keeps tracing across
        the failover;
        the drain above ran before the hand-over, so no acknowledged
        commit is reported to them twice.

        Only one promotion may run at a time: a second call while one is
        in flight (a heartbeat detector firing during a manual failover,
        say) raises :class:`ReplicationError` immediately and leaves the
        in-flight promotion untouched — no torn topology.
        """
        if self._promoting:
            raise ReplicationError(
                "promotion already in progress on this replica set; "
                "the topology will settle when it finishes"
            )
        if not self.replicas:
            raise ReplicationError("cannot promote: replica set is empty")
        self._promoting = True
        try:
            return self._promote_locked(target)
        finally:
            self._promoting = False

    def _promote_locked(self, target: Replica | str | None) -> Database:
        # Resolve and sanity-check the target BEFORE fencing: a failed
        # promotion must not leave the cluster with a fenced primary and
        # no replacement.
        if isinstance(target, str):
            target = self.replica(target)
        if target is None:
            target = self.least_lagged()
        if target.database.crashed:
            raise ReplicationError(
                f"replica {target.name!r} is down; promote a healthy replica"
            )
        self.primary.fenced = True
        self._unsub()
        try:
            self._ship(target)
        except Exception:
            # Unexpected apply failure: roll the fence back so the old
            # primary keeps serving rather than bricking the cluster.
            self.primary.fenced = False
            self._unsub = self.log.subscribe(self._on_record)
            raise
        laggards: list[Replica] = []
        for replica in self.replicas:
            if replica is target:
                continue
            if replica.database.crashed:
                laggards.append(replica)  # re-provision from the new primary
                continue
            try:
                self._ship(replica)
            except (ReplicationError, UnavailableError):
                laggards.append(replica)
        self.log.detach()
        old_primary = self.primary
        self.primary = target.database
        self.primary.read_only = False  # promoted: it now takes writes
        self.primary.read_only_reason = None
        for observer in old_primary.observers:
            old_primary.remove_observer(observer)
            self.primary.add_observer(observer)
        # The new primary starts with a full healthy replica set view; any
        # quorum degradation belonged to the old topology.
        self.degraded = False
        #: The demoted primary is retired, not forgotten — once revived it
        #: rejoins as a fresh replica via :meth:`reprovision`.
        self.retired.append(old_primary)
        self.replicas = [r for r in self.replicas if r is not target]
        self.log = ReplicationLog(self.primary)
        for replica in self.replicas:
            if replica not in laggards:
                replica.applier.applied_seq = 0  # fresh log, drained position
        for replica in laggards:
            self.resync(replica)
        self._unsub = self.log.subscribe(self._on_record)
        self.stats["promotions"] += 1
        return self.primary

    def reprovision(self) -> int:
        """Rejoin retired nodes (demoted primaries) as fresh replicas.

        A retired database that is no longer crashed is replaced by a
        brand-new replica bootstrapped from the current primary — its old
        state may have diverged (writes the failover never shipped), so
        rejoining is always a fresh snapshot, never a rewind. Crashed
        nodes stay retired until revived. Returns the number of nodes
        re-provisioned; restores a quorum degradation if the rejoins
        completed it.
        """
        rejoined = 0
        still_retired: list[Database] = []
        for node in self.retired:
            if node.crashed:
                still_retired.append(node)
                continue
            self.add_replica(name=f"{node.name}-rejoin{self._made + 1}")
            self.stats["reprovisions"] += 1
            rejoined += 1
        self.retired = still_retired
        if rejoined:
            self._maybe_restore()
        return rejoined

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ReplicaSet primary={self.primary.name!r} mode={self.mode} "
            f"replicas={[r.name for r in self.replicas]} "
            f"max_lag={self.max_lag()}>"
        )


class Session:
    """Causal token for session guarantees (read-your-writes).

    Carries the engine's ``last_commit_csn`` after the session's last
    acknowledged write — a local CSN against a single primary, a global
    CSN against a sharded cluster — and the read targets only serve its
    reads from replicas at/after that point.
    """

    def __init__(self, name: str = "session"):
        self.name = name
        self.last_write_csn = 0

    def note_write(self, csn: int) -> None:
        self.last_write_csn = max(self.last_write_csn, csn)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Session {self.name!r} csn={self.last_write_csn}>"
