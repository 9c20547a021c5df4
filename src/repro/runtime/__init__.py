"""DBOS-style deterministic serverless runtime (paper principle P3).

Request handlers are plain Python functions taking a
:class:`RequestContext`; the :class:`Runtime` executes them either
sequentially (:meth:`Runtime.submit`) or concurrently under a
:class:`CooperativeScheduler` whose schedule pins the transaction commit
order (:meth:`Runtime.run_concurrent`).
"""

from repro.runtime.clock import LogicalClock
from repro.runtime.context import RequestContext, SideEffect, TxnHandle
from repro.runtime.handlers import HandlerRegistry
from repro.runtime.scheduler import (
    CheckpointKind,
    CooperativeScheduler,
    ScheduleEntry,
    TaskOutcome,
)
from repro.runtime.workflow import Request, RequestResult, Runtime

__all__ = [
    "CheckpointKind",
    "CooperativeScheduler",
    "HandlerRegistry",
    "LogicalClock",
    "Request",
    "RequestContext",
    "RequestResult",
    "Runtime",
    "ScheduleEntry",
    "SideEffect",
    "TaskOutcome",
    "TxnHandle",
]
