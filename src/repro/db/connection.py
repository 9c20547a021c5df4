"""One engine, one API: ``repro.connect()`` over every deployment shape.

The substrate grew divergent entry points — ``Database.execute``, the
``ShardedDatabase`` facade, per-topology read routers, and side-channels
for reading the past. This module is the single DB-API-flavored surface
that replaced them (``SELECT ... AS OF <csn>`` is the one reader of
history), the way the paper's debugger argument demands: apps, workloads,
and TROD are written once and run unchanged over a single node, a
hash-sharded cluster, or a replica-routed deployment.

* :class:`Engine` — the protocol every deployment shape implements
  (:class:`~repro.db.database.Database`,
  :class:`~repro.db.sharding.ShardedDatabase`,
  :class:`~repro.db.replication.ReplicaSet`).
* :func:`connect` — ``repro.connect(engine, *, session=..., trod=...,
  read_preference=...)`` returning a :class:`Connection`.
* :class:`Connection` — ``execute`` / ``cursor()`` / context-managed
  ``transaction()``; session guarantees (read-your-writes routing) are
  baked into the read path rather than bolted on; ``SELECT ... AS OF
  <csn>`` executes natively on every engine.
* :class:`Cursor` — DB-API ergonomics (``fetchone`` / ``fetchall`` /
  ``description`` / ``lastrowid``) over :class:`~repro.db.result.Row`
  objects with attribute-style column access.

A connection makes each call once, whatever engine it holds: every
engine answers ``execute_read(sql, params, floor=, preference=)``,
``execute``, ``begin`` and ``explain``, and owns its DDL's replica
catch-up. Reads never consume CSNs, on any engine: SELECTs run under
transactions that are aborted afterwards, so the commit clock advances
identically whether a workload runs on one node or twelve. On
the cluster engines the choice between a replica and the primary is made
only by :meth:`ReplicaSet.target <repro.db.replication.ReplicaSet.target>`,
which also counts it (``ReplicaSet.stats``). A :class:`Session` holds one CSN:
the engine's ``last_commit_csn`` after the session's last write.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import islice
from typing import Any, Iterator, Protocol, Sequence, runtime_checkable

from repro.db.database import READ_PREFERENCES, Database, check_read_preference
from repro.db.replication import Session
from repro.db.result import ResultSet, Row, _name_slots
from repro.db.sql.nodes import (
    CreateIndexStmt,
    CreateTableStmt,
    DropIndexStmt,
    DropTableStmt,
    SelectStmt,
)
from repro.db.sql.parser import parse_cached
from repro.db.txn.manager import IsolationLevel, TransactionStatus
from repro.errors import FencedError, InterfaceError, UnavailableError
from repro.faults import BackoffPolicy
from repro.runtime.scheduler import CheckpointKind, maybe_checkpoint

@runtime_checkable
class Engine(Protocol):
    """What a deployment shape must speak to sit behind a Connection.

    ``Database``, ``ShardedDatabase``, and ``ReplicaSet`` all
    implement this structurally; the protocol exists so new topologies
    (and tests) know the exact contract:

    * ``execute(sql, params=(), txn=None)`` — run one statement,
      autocommitting without ``txn``; ``SELECT ... AS OF <csn>`` must
      execute natively, and DDL returns only once any replicas have it.
    * ``execute_read(sql, params=(), floor=0, preference="replica")`` —
      a SELECT that consumes no CSN; ``floor`` is the session's last
      ``last_commit_csn``, and ``preference`` (one of
      :data:`READ_PREFERENCES`, anything else refused) routes reads only
      where replicas exist.
    * ``explain(sql, params=())`` — the plan lines for a SELECT, UPDATE
      or DELETE.
    * ``begin(isolation=..., info=None)`` — a transaction object with
      ``commit() -> csn``, ``abort()``, and ``status``.
    * ``last_commit_csn`` — the engine-neutral commit position (local CSN
      on single-node/replicated engines, global CSN on sharded ones);
      session tokens and ``AS OF`` bookmarks are taken from it.
    * ``add_observer`` / ``remove_observer`` — the TROD interposition
      surface; sharded facades fan these out so the whole cluster emits
      one debugger-visible event stream. A ``statement_executed``
      subscriber is what turns read tracking on.
    * ``snapshot_rows(table)`` / ``table_rows(table)`` / ``catalog`` —
      attach-time snapshot capture and schema introspection.
    """

    name: str

    def execute(
        self, sql: str, params: Sequence[Any] = (), txn: Any = None
    ) -> ResultSet: ...

    def execute_read(
        self,
        sql: str,
        params: Sequence[Any] = (),
        floor: int = 0,
        preference: str = "replica",
    ) -> ResultSet: ...

    def begin(self, isolation: Any = ..., info: Any = None) -> Any: ...

    def explain(self, sql: str, params: Sequence[Any] = ()) -> list[str]: ...

    def add_observer(self, observer: Any) -> None: ...

    def remove_observer(self, observer: Any) -> None: ...

    def snapshot_rows(self, table: str) -> list[tuple[int, tuple]]: ...

    def table_rows(self, table: str) -> list[dict[str, Any]]: ...


_ENGINE_SURFACE = (
    "execute",
    "execute_read",
    "begin",
    "explain",
    "catalog",
    "last_commit_csn",
    "add_observer",
    "remove_observer",
    "snapshot_rows",
)


#: Default bound on transparent statement retries after a node is fenced
#: or crashes mid-statement (see :meth:`Connection._retry_routed`).
_MAX_FAILOVER_RETRIES = 64


def connect(
    engine: Any,
    *,
    session: Session | None = None,
    trod: Any = None,
    read_preference: str = "replica",
    max_failover_retries: int = _MAX_FAILOVER_RETRIES,
    retry_backoff: "BackoffPolicy | None" = None,
) -> "Connection":
    """Open a :class:`Connection` over any :class:`Engine`.

    ``engine`` is a :class:`~repro.db.database.Database`,
    :class:`~repro.db.sharding.ShardedDatabase` or
    :class:`~repro.db.replication.ReplicaSet`, and the connection holds it
    as it is.
    ``session`` carries read-your-writes guarantees across connections;
    one is created per connection by default. ``trod`` attaches a
    :class:`~repro.core.tracer.Trod` debugger to the engine (any engine —
    the sharded facade emits the same event stream shape as a single
    node). ``read_preference`` is one of ``primary`` / ``replica`` /
    ``wait``.
    """
    missing = [attr for attr in _ENGINE_SURFACE if not hasattr(engine, attr)]
    if missing:
        raise InterfaceError(
            f"{type(engine).__name__} does not implement the Engine "
            f"protocol (missing: {', '.join(missing)})"
        )
    if trod is not None:
        if trod.database is not engine:
            raise InterfaceError(
                "trod is bound to a different database than this engine"
            )
        if not trod.attached:
            trod.attach()
    return Connection(
        engine,
        session=session,
        trod=trod,
        read_preference=read_preference,
        max_failover_retries=max_failover_retries,
        retry_backoff=retry_backoff,
    )


class Connection:
    """A DB-API-flavored handle over one :class:`Engine`.

    Statements route by kind: SELECTs take the engine's read path
    (replica-aware where replicas exist, never consuming CSNs); DML and
    DDL autocommit on the authoritative path, DML advancing the session
    token. Explicit transactions come from :meth:`transaction`.
    """

    def __init__(
        self,
        engine: Any,
        session: Session | None = None,
        trod: Any = None,
        read_preference: str = "replica",
        max_failover_retries: int = _MAX_FAILOVER_RETRIES,
        retry_backoff: "BackoffPolicy | None" = None,
    ):
        check_read_preference(read_preference)
        self.engine = engine
        self.session = session if session is not None else Session()
        self.trod = trod
        self.read_preference = read_preference
        self._closed = False
        self.max_failover_retries = max_failover_retries
        #: Cooperative-scheduler backoff between failover retries: retry
        #: N waits ``ticks(N-1)`` checkpoints before re-resolving the
        #: topology, so a long outage is not hammered at full cadence.
        #: The default grows 1 -> 2 -> 4 and caps at 4 ticks.
        self.retry_backoff = (
            retry_backoff
            if retry_backoff is not None
            else BackoffPolicy(base=1, factor=2, cap=4, jitter=0.0)
        )
        self.stats = {
            "reads": 0,
            "writes": 0,
            "ddl": 0,
            "transactions": 0,
            "failover_retries": 0,
        }

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    # -- statement execution ----------------------------------------------

    def execute(
        self,
        sql: str,
        params: Sequence[Any] = (),
        read_preference: str | None = None,
    ) -> ResultSet:
        """Run one statement, routed by kind (see class docstring).

        ``read_preference`` overrides the connection's routing for this
        one statement (SELECTs only — writes and DDL always take the
        authoritative path). SELECT results stream where the engine
        supports it: rows flow lazily through the returned
        :class:`~repro.db.result.ResultSet`, pinned to the statement's
        snapshot (see docs/api.md, "Streaming & concurrency").
        """
        self._check_open()
        pref = self.read_preference if read_preference is None else read_preference
        # Validated for every statement kind: a typo set on a write must
        # not wait for the first SELECT to surface.
        check_read_preference(pref)
        stmt = parse_cached(sql)
        if isinstance(stmt, SelectStmt):
            self.stats["reads"] += 1
            return self._retry_routed(lambda: self._execute_read(sql, params, pref))
        if isinstance(
            stmt, (CreateTableStmt, DropTableStmt, CreateIndexStmt, DropIndexStmt)
        ):
            self.stats["ddl"] += 1
            return self._retry_routed(lambda: self.engine.execute(sql, params))
        self.stats["writes"] += 1
        return self._retry_routed(lambda: self._execute_write(sql, params))

    def _retry_routed(self, thunk: Any) -> ResultSet:
        """Run one autocommit statement, retrying across failovers.

        A statement that lands on a fenced (demoted) or crashed node
        raises :class:`~repro.errors.FencedError` /
        :class:`~repro.errors.UnavailableError` without having committed
        anything, so it is safe to re-route: the retry re-resolves the
        topology — the promoted primary, the post-failover shard map —
        and yields the baton between attempts so the controller's
        detection loop gets its turn to actually promote. Bounded by
        ``max_failover_retries``: a cluster with nothing left to promote
        re-raises rather than spinning. Explicit transactions
        (:meth:`transaction`) are NOT retried — a multi-statement
        transaction cannot be replayed transparently.
        """
        attempts = 0
        while True:
            try:
                return thunk()
            except (FencedError, UnavailableError):
                attempts += 1
                if attempts > self.max_failover_retries:
                    raise
                self.stats["failover_retries"] += 1
                engine_stats = getattr(self.engine, "stats", None)
                if engine_stats is not None and "failover_retries" in engine_stats:
                    # Mirror onto the engine so the cluster-wide
                    # robustness surface (cluster_stats) sees retries
                    # from every connection, not just this handle.
                    engine_stats["failover_retries"] += 1
                # Exponential backoff in scheduler ticks: each tick hands
                # the baton over so the detection loop can promote.
                for _ in range(self.retry_backoff.ticks(attempts - 1)):
                    maybe_checkpoint(CheckpointKind.LOCK_WAIT, "failover-retry")

    def query(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        return self.execute(sql, params)

    def cursor(self) -> "Cursor":
        self._check_open()
        return Cursor(self)

    def explain(self, sql: str, params: Sequence[Any] = ()) -> list[str]:
        """The engine's plan for a SELECT, UPDATE or DELETE (distributed
        strategy included)."""
        self._check_open()
        return self.engine.explain(sql, params)

    @property
    def last_commit_csn(self) -> int:
        """The engine's commit position — the natural ``AS OF`` bookmark."""
        return self.engine.last_commit_csn

    # -- read path --------------------------------------------------------

    def _execute_read(self, sql: str, params: Sequence[Any], pref: str) -> ResultSet:
        return self.engine.execute_read(
            sql, params, floor=self.session.last_write_csn, preference=pref
        )

    # -- write path -------------------------------------------------------

    def _execute_write(self, sql: str, params: Sequence[Any]) -> ResultSet:
        result = self.engine.execute(sql, params)
        self.session.note_write(self.engine.last_commit_csn)
        return result

    # -- explicit transactions --------------------------------------------

    def transaction(
        self,
        isolation: IsolationLevel = IsolationLevel.SERIALIZABLE,
        label: str | None = None,
    ) -> "ConnectionTransaction":
        """A context-managed transaction on the authoritative path.

        Commits on clean exit (noting the session token), aborts on
        exception. On a sharded engine this is a global transaction
        committing through 2PC; on a replicated engine it runs on the
        primary.
        """
        self._check_open()
        self.stats["transactions"] += 1
        return ConnectionTransaction(self, isolation, label)


class ConnectionTransaction:
    """One explicit transaction; use via ``with conn.transaction() as t``."""

    def __init__(
        self,
        conn: Connection,
        isolation: IsolationLevel,
        label: str | None,
    ):
        self._conn = conn
        info = {"label": label} if label is not None else None
        self._txn = conn.engine.begin(isolation=isolation, info=info)
        #: Set by commit: the transaction's CSN (global on sharded
        #: engines) — the bookmark to hand a later ``AS OF`` read.
        self.csn: int | None = None

    @property
    def raw(self) -> Any:
        """The underlying engine transaction (branch access, etc.)."""
        return self._txn

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        return self._conn.engine.execute(sql, params, txn=self._txn)

    def query(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        return self.execute(sql, params)

    def commit(self) -> int:
        csn = self._txn.commit()
        self.csn = csn
        self._conn.session.note_write(csn)
        return csn

    def abort(self) -> None:
        self._txn.abort()

    def __enter__(self) -> "ConnectionTransaction":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self._txn.status is not TransactionStatus.ACTIVE:
            return  # committed or aborted explicitly inside the block
        if exc_type is not None:
            self._txn.abort()
            return
        self.commit()


class Cursor:
    """DB-API-shaped statement execution over a :class:`Connection`.

    ``execute`` returns the cursor (chainable); rows come back as
    :class:`~repro.db.result.Row` objects, so ``cur.fetchone().balance``
    works. ``description`` follows the DB-API 7-tuple shape with only the
    name populated (the engine is dynamically typed).

    SELECTs *stream*: rows are pulled lazily from the engine's generator
    pipeline as ``fetchone`` / ``fetchmany`` / iteration ask for them, so
    the cursor holds O(fetch size) rows, never O(result). The stream is
    pinned to the statement's snapshot; ``rowcount`` is ``-1`` until it
    is exhausted (DB-API's "unknown"), then the total fetched. A
    materialized result is read the same way, through its iterator.
    """

    arraysize = 1

    def __init__(self, conn: Connection):
        self._conn = conn
        self._closed = False
        #: The current result's rows, pulled as fetches ask for them.
        self._source: Iterator[tuple] = iter(())
        self._names: dict[str, int] = {}
        self.description: list[tuple] | None = None
        self.rowcount = -1
        self.lastrowid: int | None = None
        self.result: ResultSet | None = None

    @property
    def connection(self) -> Connection:
        return self._conn

    def close(self) -> None:
        self._closed = True
        self._source = iter(())
        if self.result is not None:
            self.result.close()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")

    def execute(
        self,
        sql: str,
        params: Sequence[Any] = (),
        read_preference: str | None = None,
    ) -> "Cursor":
        self._check_open()
        self._load(
            self._conn.execute(sql, params, read_preference=read_preference)
        )
        return self

    def executemany(
        self, sql: str, seq_of_params: Sequence[Sequence[Any]]
    ) -> "Cursor":
        self._check_open()
        total = 0
        last: ResultSet | None = None
        for params in seq_of_params:
            last = self._conn.execute(sql, params)
            total += last.rowcount
        if last is not None:
            self._load(last)
        self.rowcount = total
        return self

    def _load(self, result: ResultSet) -> None:
        if self.result is not None:
            self.result.close()  # abandon any previous statement's tail
        self.result = result
        self._source = iter(result)
        if result.kind == "select":
            self._names = _name_slots(result.columns)
            self.description = [
                (name, None, None, None, None, None, None)
                for name in result.columns
            ]
        else:
            self.description = None
        self.rowcount = result.rowcount
        self.lastrowid = result.row_ids[-1] if result.row_ids else None

    def _fetch(self, count: int | None) -> list[Row]:
        """Up to ``count`` more rows (every one left for None)."""
        self._check_open()
        names = self._names
        rows = [Row(raw, names) for raw in islice(self._source, count)]
        if count is None or len(rows) < count:
            self._ended()
        return rows

    def _ended(self) -> None:
        """The source ran dry: a stream's row count is known now."""
        if self.rowcount == -1 and self.result is not None:
            self.rowcount = self.result.rowcount

    def fetchone(self) -> Row | None:
        self._check_open()
        raw = next(self._source, None)
        if raw is None:
            self._ended()
            return None
        return Row(raw, self._names)

    def fetchmany(self, size: int | None = None) -> list[Row]:
        """Up to ``size`` more rows (``arraysize`` for None; none for a
        negative size)."""
        return self._fetch(max(0, self.arraysize if size is None else size))

    def fetchall(self) -> list[Row]:
        return self._fetch(None)

    def __iter__(self) -> Iterator[Row]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class ConnectionPool:
    """A small checkout/checkin pool of :class:`Connection` objects.

    Workload drivers (and anything serving many short statements) should
    not construct a Connection per statement: ``checkout()`` hands out an
    idle pooled connection — creating one only when none is idle — and
    ``checkin()`` returns it for reuse. Up to ``size`` idle connections
    are retained; extras created under burst are closed at checkin.

    All pooled connections share one :class:`~repro.db.replication.
    Session` by default, so read-your-writes guarantees hold even when a
    session's next statement runs on a different pooled connection than
    the write that preceded it. Pass an explicit ``session`` to share a
    token with connections outside the pool.
    """

    def __init__(
        self,
        engine: Any,
        size: int = 4,
        session: Session | None = None,
        trod: Any = None,
        read_preference: str = "replica",
    ):
        if size < 1:
            raise InterfaceError(f"pool size must be >= 1, got {size}")
        self.engine = engine
        self.size = size
        self.session = session if session is not None else Session("pool")
        self._trod = trod
        self._read_preference = read_preference
        self._idle: list[Connection] = []
        self._in_use = 0
        self._closed = False
        self.stats = {
            "checkouts": 0,
            "creates": 0,
            "reuses": 0,
            "discarded": 0,
            "retired_dead": 0,
        }

    # -- checkout / checkin ----------------------------------------------

    def checkout(self) -> Connection:
        """An open connection over the pool's engine (create or reuse)."""
        if self._closed:
            raise InterfaceError("connection pool is closed")
        conn: Connection | None = None
        while self._idle:
            candidate = self._idle.pop()
            if candidate.closed:
                # Retired behind the pool's back; account for it the way
                # checkin does, so every retired connection is counted.
                self.stats["discarded"] += 1
                continue
            conn = candidate
            self.stats["reuses"] += 1
            break
        if conn is None:
            conn = connect(
                self.engine,
                session=self.session,
                trod=self._trod,
                read_preference=self._read_preference,
            )
            self.stats["creates"] += 1
        self._in_use += 1
        self.stats["checkouts"] += 1
        return conn

    def checkin(self, conn: Connection) -> None:
        """Return a connection for reuse (closed/overflow ones discarded).

        A connection whose engine was fenced (demoted by failover) or
        killed is retired rather than recycled: handing it to a later
        checkout would serve a statement from a node the cluster already
        voted out, and the error would surface far from its cause.
        """
        if conn in self._idle:
            # A double checkin would hand the same connection to two
            # later checkouts, silently sharing its session and cursors.
            raise InterfaceError("connection is already checked in")
        self._in_use = max(0, self._in_use - 1)
        engine = conn.engine
        engine_dead = isinstance(engine, Database) and (
            engine.fenced or engine.crashed
        )
        if engine_dead:
            if not conn.closed:
                conn.close()
            self.stats["retired_dead"] += 1
            self.stats["discarded"] += 1
            return
        if self._closed or conn.closed or len(self._idle) >= self.size:
            if not conn.closed:
                conn.close()
            self.stats["discarded"] += 1
            return
        self._idle.append(conn)

    @contextmanager
    def connection(self) -> Iterator[Connection]:
        """``with pool.connection() as conn:`` — checkout, then checkin."""
        conn = self.checkout()
        try:
            yield conn
        finally:
            self.checkin(conn)

    # -- lifecycle --------------------------------------------------------

    @property
    def idle(self) -> int:
        return len(self._idle)

    @property
    def in_use(self) -> int:
        return self._in_use

    def close(self) -> None:
        """Close every idle connection and refuse further checkouts."""
        self._closed = True
        while self._idle:
            self._idle.pop().close()

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ConnectionPool engine={getattr(self.engine, 'name', '?')!r} "
            f"idle={len(self._idle)} in_use={self._in_use} size={self.size}>"
        )
