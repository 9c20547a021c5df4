"""The runtime: request execution, workflows, and concurrency control.

A :class:`Runtime` binds a handler registry to a database. Requests run
either one at a time (:meth:`submit`) or as a concurrent batch under a
cooperative scheduler (:meth:`run_concurrent`) whose schedule pins the
transaction interleaving — the mechanism by which this reproduction makes
the paper's race conditions (and their retroactive re-executions)
deterministic.

TROD attaches as an observer (:mod:`repro.events`) of the runtime
(request/handler/side-effect events) and of its database (transaction and
statement events); the runtime works identically with none attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.db.database import Database
from repro.db.txn.manager import IsolationLevel, Transaction
from repro.errors import HandlerError
from repro.events import Observers
from repro.runtime.clock import LogicalClock
from repro.runtime.context import RequestContext
from repro.runtime.handlers import HandlerRegistry
from repro.runtime.scheduler import CooperativeScheduler


@dataclass
class Request:
    """A request to execute: handler name plus arguments."""

    handler: str
    args: tuple = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    req_id: str | None = None
    auth_user: str | None = None


@dataclass
class RequestResult:
    """Terminal state of one request."""

    req_id: str
    handler: str
    output: Any = None
    error: str | None = None
    exception: BaseException | None = None
    start_ts: int = 0
    end_ts: int = 0
    txn_names: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None


class Runtime:
    """Executes registered handlers against a database."""

    def __init__(
        self,
        database: Database,
        registry: HandlerRegistry | None = None,
        clock: LogicalClock | None = None,
        seed: int = 0,
        isolation: IsolationLevel = IsolationLevel.SERIALIZABLE,
    ):
        self.database = database
        self.registry = registry or HandlerRegistry()
        self.clock = clock or LogicalClock()
        self.seed = seed
        self.isolation = isolation
        #: TROD's runtime-side interposition points.
        self.observers = Observers()
        self._req_counter = 0
        #: The scheduler of the most recent run_concurrent (kept after the
        #: run so callers can inspect the realized schedule).
        self.last_scheduler: CooperativeScheduler | None = None

    # -- registration ----------------------------------------------------------

    def register(self, name: str, fn: Callable[..., Any]) -> None:
        self.registry.register(name, fn)

    def next_req_id(self) -> str:
        self._req_counter += 1
        return f"R{self._req_counter}"

    # -- observers -----------------------------------------------------------------

    def add_observer(self, observer: Any) -> None:
        self.observers.add(observer)

    def remove_observer(self, observer: Any) -> None:
        self.observers.remove(observer)

    # -- transaction plumbing (called by RequestContext) -----------------------------

    def begin_transaction(
        self,
        ctx: RequestContext,
        label: str | None,
        isolation: IsolationLevel | None,
    ) -> Transaction:
        txn = self.database.begin(
            isolation=isolation or self.isolation,
            info={
                "req_id": ctx.req_id,
                "handler": ctx.handler_name,
                "label": label or "",
                "auth_user": ctx.auth_user,
            },
        )
        ctx.txn_names.append(txn.name)
        return txn

    # -- execution ----------------------------------------------------------------------

    def submit(
        self,
        handler: str,
        *args: Any,
        req_id: str | None = None,
        auth_user: str | None = None,
        **kwargs: Any,
    ) -> RequestResult:
        """Run one request to completion (no concurrency)."""
        request = Request(
            handler=handler,
            args=args,
            kwargs=kwargs,
            req_id=req_id,
            auth_user=auth_user,
        )
        return self.execute_request(request)

    def execute_request(self, request: Request) -> RequestResult:
        req_id = request.req_id or self.next_req_id()
        ctx = RequestContext(
            runtime=self,
            req_id=req_id,
            handler_name=request.handler,
            auth_user=request.auth_user,
        )
        result = RequestResult(
            req_id=req_id, handler=request.handler, start_ts=self.clock.tick()
        )
        result.txn_names = ctx.txn_names
        self.observers.notify("request_started", ctx, request)
        try:
            fn = self.registry.get(request.handler)
            result.output = fn(ctx, *request.args, **request.kwargs)
        except Exception as exc:  # noqa: BLE001 - reported in the result
            result.error = f"{type(exc).__name__}: {exc}"
            result.exception = exc
        result.end_ts = self.clock.tick()
        self.observers.notify("request_finished", ctx, result)
        return result

    def invoke_child(
        self,
        parent: RequestContext,
        handler_name: str,
        args: tuple,
        kwargs: dict[str, Any],
    ) -> Any:
        """RPC: run ``handler_name`` inline, propagating the request id."""
        fn = self.registry.get(handler_name)
        child = RequestContext(
            runtime=self,
            req_id=parent.req_id,
            handler_name=handler_name,
            auth_user=parent.auth_user,
            parent=parent,
        )
        self.observers.notify("handler_called", parent, child)
        try:
            output = fn(child, *args, **kwargs)
        except Exception as exc:
            self.observers.notify("handler_failed", child, exc)
            raise HandlerError(handler_name, parent.req_id, exc) from exc
        self.observers.notify("handler_returned", child, output)
        return output

    def run_concurrent(
        self,
        requests: Sequence[Request],
        schedule: Sequence[int] | None = None,
        seed: int | None = None,
        granularity: str = "txn",
    ) -> list[RequestResult]:
        """Execute ``requests`` concurrently under a controlled schedule.

        ``schedule`` is a list of request indices; with the default
        transaction granularity, entry k names the request whose next
        transaction commits k-th. Omitting it interleaves pseudo-randomly
        but reproducibly from ``seed``.
        """
        # Assign request ids up front, in list order, so they are stable
        # regardless of the schedule.
        for request in requests:
            if request.req_id is None:
                request.req_id = self.next_req_id()
        scheduler = CooperativeScheduler(
            schedule=schedule, seed=seed, granularity=granularity
        )
        self.last_scheduler = scheduler
        outcomes = scheduler.run(
            [(lambda req=request: self.execute_request(req)) for request in requests]
        )
        results: list[RequestResult] = []
        for request, outcome in zip(requests, outcomes):
            if outcome.error is not None:
                # Infrastructure failure (handler errors are captured in
                # the RequestResult); surface it.
                raise outcome.error
            results.append(outcome.result)
        return results

    def realized_txn_order(self) -> list[int]:
        """Request indices in committed-transaction order (last run)."""
        if self.last_scheduler is None:
            return []
        return self.last_scheduler.realized_txn_order()
