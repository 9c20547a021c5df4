"""Request context: the API application handlers program against.

The context enforces the paper's principles by construction:

* P1/P2 — shared state is only reachable through ``ctx.txn()``, which
  yields a transaction-scoped handle;
* P3 — randomness (``ctx.rng``) is seeded from the request id and time
  (``ctx.now()``) is the logical clock, so a handler's behaviour is a
  function of its inputs and the database state alone.

External side effects go through ``ctx.emit`` and are recorded (and
assumed idempotent, per §3.1's simplifying assumption) rather than
performed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.db.result import ResultSet
from repro.db.txn.manager import IsolationLevel, Transaction
from repro.errors import AppRuntimeError
from repro.runtime.scheduler import CheckpointKind, maybe_checkpoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.workflow import Runtime


@dataclass(frozen=True)
class SideEffect:
    """An external call a handler asked for (email, webhook, ...)."""

    req_id: str
    handler: str
    channel: str
    payload: Any
    ts: int


class TxnHandle:
    """Statement executor scoped to one open transaction."""

    def __init__(self, ctx: "RequestContext", txn: Transaction):
        self._ctx = ctx
        self.txn = txn

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        maybe_checkpoint(CheckpointKind.STATEMENT, sql[:40])
        return self._ctx.database.execute(sql, params, txn=self.txn)

    @property
    def name(self) -> str:
        return self.txn.name


class _TxnContextManager:
    def __init__(self, ctx: "RequestContext", label: str | None, isolation):
        self._ctx = ctx
        self._label = label
        self._isolation = isolation
        self._handle: TxnHandle | None = None

    def __enter__(self) -> TxnHandle:
        ctx = self._ctx
        maybe_checkpoint(CheckpointKind.TXN_BEGIN, self._label or "")
        txn = ctx.runtime.begin_transaction(ctx, self._label, self._isolation)
        self._handle = TxnHandle(ctx, txn)
        return self._handle

    def __exit__(self, exc_type, exc, tb) -> bool:
        txn = self._handle.txn
        if exc_type is None:
            txn.commit()
        else:
            txn.abort()
        return False


class RequestContext:
    """Per-request execution context handed to every handler."""

    def __init__(
        self,
        runtime: "Runtime",
        req_id: str,
        handler_name: str,
        auth_user: str | None = None,
        parent: "RequestContext | None" = None,
    ):
        self.runtime = runtime
        self.req_id = req_id
        self.handler_name = handler_name
        self.auth_user = auth_user
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        if parent is None:
            # Deterministic per-request randomness (P3): the seed is a
            # pure function of the runtime seed and the request id.
            self.rng = random.Random(f"{runtime.seed}:{req_id}")
        else:
            self.rng = parent.rng
        self.txn_names: list[str] = [] if parent is None else parent.txn_names

    # -- database access ----------------------------------------------------

    @property
    def database(self):
        return self.runtime.database

    def txn(
        self,
        label: str | None = None,
        isolation: IsolationLevel | None = None,
    ) -> _TxnContextManager:
        """Open a transaction: ``with ctx.txn(label='check') as t: ...``

        ``label`` becomes the ``func:<label>`` metadata in TROD's
        Invocations table (Table 1 of the paper).
        """
        return _TxnContextManager(self, label, isolation)

    def sql(self, statement: str, params: Sequence[Any] = (), label: str | None = None) -> ResultSet:
        """One-statement transaction (begin, execute, commit)."""
        with self.txn(label=label or statement.split(None, 1)[0].lower()) as t:
            return t.execute(statement, params)

    # -- workflow -------------------------------------------------------------

    def call(self, handler_name: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke another handler as an RPC within the same request.

        The request id propagates (§3.1: "applications propagate a unique
        ID for each request through RPCs"), and TROD records the workflow
        edge.
        """
        return self.runtime.invoke_child(self, handler_name, args, kwargs)

    # -- determinism-safe utilities ------------------------------------------

    def now(self) -> int:
        return self.runtime.clock.now()

    def emit(self, channel: str, payload: Any) -> SideEffect:
        """Record an (idempotent) external side effect."""
        effect = SideEffect(
            req_id=self.req_id,
            handler=self.handler_name,
            channel=channel,
            payload=payload,
            ts=self.runtime.clock.tick(),
        )
        self.runtime.observers.notify("side_effect", self, effect)
        return effect

    def fail(self, message: str) -> None:
        """Raise an application-level error from a handler."""
        raise AppRuntimeError(message)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RequestContext {self.req_id} {self.handler_name}>"
