"""Outside-in span recording: the benchmark's own instrumentation.

The benchmark wraps, from here and without touching ``src/``, the public
callables at each layer boundary. A span is (boundary, start, end, parent,
op id); spans stay in memory. A layer's *self time* is its spans' duration
minus the part covered by child spans, so the self times of all layers
plus the unwrapped remainder add up to the time the ops took.

Only boundaries called a few dozen times per op are wrapped: row-level
storage calls are not (their time stays in the caller's self time), and
the wrappers cost about a microsecond per call, which
``spans.overhead_pct`` reports. Time the calibration clock's kernel took
inside a span is taken out of it, as it is out of every timed op. This is
not TROD: end-to-end numbers
always come from runs with nothing wrapped.

Boundaries are resolved by dotted name when the recorder is installed; one
that a later commit removed is skipped with a single warning, and its
layer reports no calls.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Any, Callable

from harness import SpeedClock, warn

#: (layer, "module:attr.path"). ROADMAP deletions may remove some; see above.
BOUNDARIES: tuple[tuple[str, str], ...] = (
    ("runtime", "repro.runtime.workflow:Runtime.execute_request"),
    ("runtime", "repro.runtime.workflow:Runtime.invoke_child"),
    ("core.interposition", "repro.core.interposition:InterpositionLayer.txn_began"),
    ("core.interposition", "repro.core.interposition:InterpositionLayer.statement_executed"),
    ("core.interposition", "repro.core.interposition:InterpositionLayer.txn_committed"),
    ("core.interposition", "repro.core.interposition:InterpositionLayer.txn_aborted"),
    ("core.interposition", "repro.core.interposition:InterpositionLayer.request_started"),
    ("core.interposition", "repro.core.interposition:InterpositionLayer.request_finished"),
    ("core.interposition", "repro.core.interposition:InterpositionLayer.handler_called"),
    ("core.interposition", "repro.core.interposition:InterpositionLayer.side_effect"),
    ("core.provenance", "repro.core.tracer:Trod.flush"),
    ("core.provenance", "repro.core.provenance:ProvenanceStore.ingest"),
    ("core.provenance", "repro.core.provenance:ProvenanceStore.query"),
    ("core.provenance", "repro.core.provenance:ProvenanceStore.restore_into"),
    ("core.replay", "repro.core.replay:ReplayEngine.replay_request"),
    ("core.replay", "repro.core.replay:ReplayEngine.build_dev_db"),
    ("core.retroactive", "repro.core.retroactive:RetroactiveEngine.run"),
    ("db.connection", "repro.db.connection:Connection.execute"),
    ("db.connection", "repro.db.connection:Connection.transaction"),
    ("db.connection", "repro.db.connection:ConnectionTransaction.execute"),
    ("db.connection", "repro.db.connection:ConnectionTransaction.commit"),
    ("db.database", "repro.db.database:Database.execute"),
    ("db.database", "repro.db.database:Database.begin"),
    ("db.database", "repro.db.database:Database.checkpoint"),
    ("db.sql.parser", "repro.db.sql.parser:parse_sql"),
    ("db.sql.planner", "repro.db.database:Database.select_plan"),
    ("db.sql.planner", "repro.db.database:Database.dml_plan"),
    ("db.sql.executor", "repro.db.sql.executor:execute_statement"),
    # A streamed SELECT runs its pipeline when the rows are drained, after
    # execute() returned: executor work, kept apart so call counts stay clean.
    ("db.result", "repro.db.result:ResultSet.rows"),
    ("db.txn.manager", "repro.db.txn.manager:TransactionManager.begin"),
    ("db.txn.manager", "repro.db.txn.manager:TransactionManager.prepare"),
    ("db.txn.manager", "repro.db.txn.manager:TransactionManager.commit"),
    ("db.txn.manager", "repro.db.txn.manager:TransactionManager.abort"),
    ("db.txn.locks", "repro.db.txn.locks:LockManager.acquire"),
    ("db.txn.wal", "repro.db.txn.wal:WriteAheadLog.append"),
    ("db.txn.wal", "repro.db.txn.wal:WriteAheadLog.append_prepare"),
    ("db.txn.wal", "repro.db.txn.wal:WriteAheadLog.flush"),
    ("db.pages", "repro.db.pages.file_manager:PageFile.read_page"),
    ("db.pages", "repro.db.pages.file_manager:PageFile.write_page"),
    ("db.pages", "repro.db.pages.file_manager:PageFile.flush"),
    ("db.sharding", "repro.db.sharding:ShardedDatabase.execute"),
    ("db.sharding", "repro.db.sharding:ShardedDatabase.select_routed"),
    ("db.sharding", "repro.db.sharding:ShardedDatabase.begin"),
    ("db.multistore", "repro.db.multistore:GlobalTransaction.commit"),
    ("db.replication", "repro.db.replication:Applier.apply"),
    ("db.replication", "repro.db.replication:ReplicaSet.catch_up"),
    ("db.replication", "repro.db.replication:ReplicaSet.pick"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _ in BOUNDARIES))

#: Raw spans kept for write-out; the per-layer totals cover every span.
MAX_RAW_SPANS = 100_000


class SpanRecorder:
    """Installs the wrappers, aggregates self time, keeps raw spans."""

    def __init__(self, clock: SpeedClock) -> None:
        self.clock = clock
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.max_ns: dict[str, int] = {}  # longest single span per boundary
        self.raw: list[tuple[int, int, int, int, int]] = []
        self.names: list[str] = []
        self.op_id = -1
        self._stack: list[list[int]] = []  # [child ns, span index] per open span
        self._undo: list[Callable[[], None]] = []

    def mark(self, op_id: int) -> None:
        """Spans recorded from now on belong to op ``op_id``."""
        self.op_id = op_id

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer, target in BOUNDARIES:
            try:
                self._wrap(layer, target)
            except (ImportError, AttributeError, KeyError):
                warn(f"span boundary {target} not found; {layer} under-reports")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap(self, layer: str, target: str) -> None:
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        owner: Any = module
        for part in owners:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        index = len(self.names)
        self.names.append(target)
        if isinstance(original, property):
            wrapped: Any = property(self._wrapper(layer, index, original.fget))
        else:
            wrapped = self._wrapper(layer, index, original)
        holders = [owner]
        if not owners:
            # A module-level function: also rebind every `from x import f`.
            holders += [
                m for name, m in list(sys.modules.items())
                if name.startswith("repro.") and m is not module
                and m.__dict__.get(attr) is original
            ]
        for holder in holders:
            setattr(holder, attr, wrapped)
            self._undo.append(lambda h=holder: setattr(h, attr, original))

    def _wrapper(self, layer: str, index: int, fn: Callable) -> Callable:
        now = time.perf_counter_ns
        clock = self.clock
        stack, raw = self._stack, self.raw
        self_ns, calls, max_ns = self.self_ns, self.calls, self.max_ns
        target = self.names[index]

        def span(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1][1] if stack else -1
            frame = [0, len(raw)]
            keep = frame[1] < MAX_RAW_SPANS
            if keep:
                raw.append((index, 0, 0, parent, self.op_id))
            stack.append(frame)
            stolen = clock.stolen_ns
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                spent = end - start - (clock.stolen_ns - stolen)
                stack.pop()
                calls[layer] += 1
                self_ns[layer] += spent - frame[0]
                if spent > max_ns.get(target, 0):
                    max_ns[target] = spent
                if stack:
                    stack[-1][0] += spent
                if keep:
                    raw[frame[1]] = (index, start, end, parent, self.op_id)

        span.__wrapped__ = fn  # type: ignore[attr-defined]
        return span

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the raw spans out (JSON lines), once the run has ended."""
        with open(path, "w", encoding="utf-8") as out:
            for index, start, end, parent, op_id in self.raw:
                out.write(json.dumps({
                    "name": self.names[index], "start_ns": start, "end_ns": end,
                    "parent": parent, "op": op_id,
                }) + "\n")
