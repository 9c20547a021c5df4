"""The TROD facade: always-on tracing plus entry points to every feature.

Typical use::

    db = Database(); runtime = Runtime(db); build_app(db, runtime)
    trod = Trod(db, event_names={"forum_sub": "ForumEvents"})
    trod.attach(runtime)
    ... serve requests ...
    trod.debugger.sql("SELECT ... FROM Executions ...")
    trod.replayer.replay_request("R1")
    trod.retroactive.run(["R1", "R2"], patches={...})

Attaching adds the interposition layer as an observer of both the
database and the runtime (:mod:`repro.events`), switches on read
tracking, snapshots every application table into the provenance store (so
past states can be rebuilt from provenance alone), and records each
table's DDL.
"""

from __future__ import annotations

import time
from functools import cached_property
from typing import TYPE_CHECKING, Any

from repro.core.buffer import TraceBuffer
from repro.core.interposition import InterpositionLayer
from repro.core.provenance import ProvenanceStore
from repro.db.database import Database
from repro.db.result import ResultSet
from repro.db.schema import TableSchema
from repro.errors import TrodError
from repro.runtime.clock import LogicalClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.debugger import Debugger
    from repro.core.replay import ReplayEngine
    from repro.core.retroactive import RetroactiveEngine
    from repro.core.security import AccessControlChecker
    from repro.core.taint import ExfiltrationTracker
    from repro.runtime.workflow import Runtime


class Trod:
    """Transaction-Oriented Debugger.

    ``database`` is any :class:`~repro.db.connection.Engine` — a single
    :class:`~repro.db.database.Database`, a
    :class:`~repro.db.sharding.ShardedDatabase` facade (every shard's
    transaction/statement events flow into one provenance stream), or a
    :class:`~repro.db.replication.ReplicaSet` (the primary is observed;
    replicas replay the same commits by construction).
    """

    def __init__(
        self,
        database: "Database | Any",
        provenance: ProvenanceStore | None = None,
        buffer_capacity: int = 65536,
        event_names: dict[str, str] | None = None,
    ):
        self.database = database
        self.provenance = provenance or ProvenanceStore()
        self.buffer = TraceBuffer(capacity=buffer_capacity)
        self.interposition = InterpositionLayer(self)
        self.clock: LogicalClock = LogicalClock()
        self.runtime: "Runtime | None" = None
        self.attached = False
        self.base_csn = 0
        self.flush_ns = 0
        self.flush_ns_max = 0  # the longest single drain
        self._event_names = {k.lower(): v for k, v in (event_names or {}).items()}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def attach(self, runtime: "Runtime | None" = None) -> "Trod":
        """Start tracing: register on the engine (and runtime, if any).

        ``runtime=None`` is the database-only attachment used by
        :func:`repro.connect`: the engine's observer stream (transactions,
        statements, commits) is captured without a handler runtime — the
        mode sharded and replicated engines are debugged in.
        """
        if self.attached:
            raise TrodError("this Trod instance is already attached")
        if runtime is not None:
            if runtime.database is not self.database:
                raise TrodError("runtime and Trod must share one database")
            self.runtime = runtime
            self.clock = runtime.clock
        self.base_csn = self.database.last_commit_csn
        shards = getattr(self.database, "shards", None)
        if shards is not None and len(shards) > 1:
            # On a multi-shard engine, last_commit_csn is a *global* CSN
            # while per-shard commit events carry local CSNs; a snapshot
            # of pre-attach data stamped with the global position would
            # make later commits look older than the snapshot (and merged
            # row ids collide across shards). Attach before loading.
            populated = [
                name
                for name in self.database.catalog.table_names()
                if self.database.snapshot_rows(name)
            ]
            if populated:
                raise TrodError(
                    "attach TROD to a multi-shard engine before loading "
                    f"data: table(s) {', '.join(sorted(populated))} already "
                    "hold rows, and their snapshot would mix the global CSN "
                    "space with per-shard commit CSNs"
                )
        for name in self.database.catalog.table_names():
            schema = self.database.catalog.get(name)
            self._register_table(schema)
        self.database.add_observer(self.interposition)
        if runtime is not None:
            runtime.add_observer(self.interposition)
        self.attached = True
        return self

    def detach(self) -> None:
        if not self.attached:
            return
        self.flush()
        self.database.remove_observer(self.interposition)
        if self.runtime is not None:
            self.runtime.remove_observer(self.interposition)
        self.attached = False

    def _register_table(self, schema: TableSchema) -> None:
        event_name = self._event_names.get(schema.name.lower())
        self.provenance.register_app_table(schema, event_table=event_name)
        rows = self.database.snapshot_rows(schema.name)
        if rows:
            self.provenance.capture_snapshot(schema.name, rows, self.base_csn)

    def on_table_created(self, schema: TableSchema) -> None:
        """Called by the interposition layer for tables created after attach."""
        self.provenance.register_app_table(
            schema, event_table=self._event_names.get(schema.name.lower())
        )

    # ------------------------------------------------------------------
    # Buffer management
    # ------------------------------------------------------------------

    def request_flush(self) -> None:
        """Called when the trace buffer holds ``capacity`` trace rows.

        This is back-pressure, not the usual drain: every commit and abort
        drains the buffer once it holds a slice (``capacity //
        DRAIN_SLICES`` rows), so the buffer fills only when more than
        ``capacity`` minus a slice rows are staged between two boundaries,
        as by one statement that reads that many. It drains inline,
        inside the hook that staged the row.
        """
        self.flush()

    def flush(self) -> int:
        """Drain the staged trace records into the provenance database;
        returns the trace rows drained."""
        if not self.buffer:
            return 0
        staged = self.buffer.drain()
        start = time.perf_counter_ns()
        count = self.provenance.ingest(staged)
        elapsed = time.perf_counter_ns() - start
        self.flush_ns += elapsed
        self.flush_ns_max = max(self.flush_ns_max, elapsed)
        return count

    # ------------------------------------------------------------------
    # Feature facades
    # ------------------------------------------------------------------

    def query(self, sql: str, params: tuple = ()) -> ResultSet:
        """Declarative debugging: SQL over the provenance database."""
        self.flush()
        return self.provenance.query(sql, params)

    @cached_property
    def debugger(self) -> "Debugger":
        from repro.core.debugger import Debugger

        return Debugger(self)

    @cached_property
    def replayer(self) -> "ReplayEngine":
        from repro.core.replay import ReplayEngine

        return ReplayEngine(self)

    @cached_property
    def retroactive(self) -> "RetroactiveEngine":
        from repro.core.retroactive import RetroactiveEngine

        return RetroactiveEngine(self)

    @cached_property
    def security(self) -> "AccessControlChecker":
        from repro.core.security import AccessControlChecker

        return AccessControlChecker(self)

    @cached_property
    def taint(self) -> "ExfiltrationTracker":
        from repro.core.taint import ExfiltrationTracker

        return ExfiltrationTracker(self)

    # -- §5 extensions --------------------------------------------------------

    def enable_profiling(self):
        """Attach the §5 performance profiler; returns it."""
        return self.profiler.attach()

    @cached_property
    def profiler(self):
        from repro.core.profiling import PerformanceProfiler

        return PerformanceProfiler(self)

    @cached_property
    def quality(self):
        """The §5 data-quality monitor."""
        from repro.core.quality import DataQualityMonitor

        return DataQualityMonitor(self)

    @cached_property
    def privacy(self):
        """The §5 privacy/redaction manager."""
        from repro.core.privacy import PrivacyManager

        return PrivacyManager(self)

    # ------------------------------------------------------------------
    # Stats (benchmark E7's numbers come from here)
    # ------------------------------------------------------------------

    def overhead_stats(self) -> dict[str, Any]:
        layer = self.interposition
        return {
            "requests_traced": layer.requests_traced,
            "events_emitted": self.buffer.appended,
            "tracing_overhead_us_total": layer.overhead_ns / 1000.0,
            "tracing_overhead_us_per_request": layer.overhead_us_per_request,
            "flush_us_total": self.flush_ns / 1000.0,
            "flush_us_max": self.flush_ns_max / 1000.0,
            "buffer": self.buffer.stats(),
        }
