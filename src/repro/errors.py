"""Exception hierarchy for the repro library.

Every error raised by this library derives from :class:`ReproError`, so
applications can catch one base class. Subsystem bases (``DatabaseError``,
``RuntimeError``-analogue ``AppRuntimeError``, ``TrodError``) group the
database substrate, the serverless runtime, and the TROD debugger core.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


# ---------------------------------------------------------------------------
# Database substrate (repro.db)
# ---------------------------------------------------------------------------


class DatabaseError(ReproError):
    """Base class for errors raised by the database engine."""


class SchemaError(DatabaseError):
    """Invalid schema definition or reference to an unknown table/column."""


class TypeCoercionError(DatabaseError):
    """A value could not be coerced to its column's declared type."""


class SqlError(DatabaseError):
    """Base class for SQL front-end errors."""


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class PlanningError(SqlError):
    """A parsed statement could not be turned into an executable plan."""


class ExecutionError(DatabaseError):
    """A plan failed while executing (bad function arity, type mismatch...)."""


class IntegrityError(DatabaseError):
    """A constraint (primary key, unique, not-null) was violated."""


class TransactionError(DatabaseError):
    """Base class for transaction lifecycle errors."""


class TransactionAborted(TransactionError):
    """The transaction was aborted and can no longer be used."""


class LockWaitError(TransactionAborted):
    """A lock request that ended its transaction, with its facts:
    ``waiter`` (the requesting transaction), ``holders`` (the sorted
    tuple of transactions it was blocked by), ``resource`` and ``mode``
    (what it asked for, a ``LockMode``)."""

    def __init__(
        self,
        message: str,
        waiter: int | None = None,
        holders: tuple[int, ...] = (),
        resource: str | None = None,
        mode: object = None,
    ):
        super().__init__(message)
        self.waiter = waiter
        self.holders = holders
        self.resource = resource
        self.mode = mode


class DeadlockError(LockWaitError):
    """The lock manager chose this transaction as a deadlock victim."""


class SerializationError(TransactionAborted):
    """A snapshot-isolation write-write conflict (first-committer-wins):
    ``row_id`` of ``table`` changed at ``changed_csn``, after the
    writer's ``snapshot_csn``."""

    def __init__(
        self,
        message: str,
        table: str | None = None,
        row_id: int | None = None,
        changed_csn: int | None = None,
        snapshot_csn: int | None = None,
    ):
        super().__init__(message)
        self.table = table
        self.row_id = row_id
        self.changed_csn = changed_csn
        self.snapshot_csn = snapshot_csn


class LockTimeoutError(LockWaitError):
    """A lock could not be acquired within the configured bound."""


class WalError(DatabaseError):
    """The write-ahead log is corrupt or was used incorrectly."""


class StorageError(DatabaseError):
    """Base class for errors raised by the paged storage tier."""


class PageCorruptError(StorageError):
    """A page read from disk failed its checksum or structural checks."""


class BufferPoolError(StorageError):
    """The buffer pool was driven into an invalid state (e.g. every
    frame pinned when an eviction was required)."""


class ReplicationError(DatabaseError):
    """A replica cannot (or may not) apply the shipped change stream."""


class ReadOnlyError(DatabaseError):
    """A write was attempted on a read-only (replica) database."""


class FencedError(TransactionError):
    """The database was fenced (demoted primary); it accepts no new commits."""


class UnavailableError(DatabaseError):
    """The database is crashed/unreachable (simulated node failure)."""


class ProbeTimeoutError(UnavailableError):
    """A liveness probe exceeded the detector's timeout budget."""


class FaultInjected(ReproError):
    """An error raised on purpose by the deterministic fault injector.

    Deliberately *not* a :class:`DatabaseError`: subsystem handlers that
    catch and absorb their own error types must not accidentally swallow
    an injected fault unless the schedule asked for a subsystem error
    (in which case the injector raises that subsystem type directly).
    """

    def __init__(self, point: str, hit: int, message: str | None = None):
        super().__init__(message or f"injected fault at {point!r} (hit {hit})")
        self.point = point
        self.hit = hit


class CrashPoint(FaultInjected):
    """A simulated whole-process crash at a named fault point.

    Code under test must let this propagate without running cleanup —
    a real crash runs nothing — so recovery paths are exercised from
    exactly the on-disk state the fault point left behind.
    """


class TimeTravelError(DatabaseError):
    """An ``AS OF`` read named a CSN outside the readable history."""


class InterfaceError(DatabaseError):
    """The connection API was misused (closed connection, bad engine...)."""


# ---------------------------------------------------------------------------
# Serverless runtime (repro.runtime)
# ---------------------------------------------------------------------------


class AppRuntimeError(ReproError):
    """Base class for errors raised by the application runtime."""


class UnknownHandlerError(AppRuntimeError):
    """A request or RPC referenced a handler name that is not registered."""


class HandlerError(AppRuntimeError):
    """A request handler raised; the original exception is ``__cause__``."""

    def __init__(self, handler: str, req_id: str, cause: BaseException):
        super().__init__(f"handler {handler!r} failed for request {req_id}: {cause!r}")
        self.handler = handler
        self.req_id = req_id
        self.__cause__ = cause


class SchedulerError(AppRuntimeError):
    """The cooperative scheduler was driven into an invalid state."""


class NonDeterminismError(AppRuntimeError):
    """A determinism check found two executions of one handler diverging."""


# ---------------------------------------------------------------------------
# TROD core (repro.core)
# ---------------------------------------------------------------------------


class TrodError(ReproError):
    """Base class for errors raised by the TROD debugger core."""


class ProvenanceError(TrodError):
    """The provenance database is missing data required for an operation."""


class ReplayError(TrodError):
    """Bug replay could not be performed (missing trace, bad request id)."""


class ReplayDivergenceError(ReplayError):
    """A replayed execution produced different results than the original.

    Raised only when the caller asked for strict fidelity checking;
    otherwise divergences are reported in the :class:`ReplayResult`.
    """


class RetroactiveError(TrodError):
    """Retroactive programming could not be set up or executed."""
