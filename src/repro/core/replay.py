"""Bug replay (§3.5).

Faithful replay re-executes a past request's handler code in a development
database while TROD reconstructs, at every transaction boundary, the state
the original transaction saw:

1. the development database is restored — from provenance alone — to the
   snapshot before the request's first transaction: the request's
   *footprint* (the rows its transactions read, updated or deleted) of
   each table it used, or whole tables where a footprint cannot be known
   to suffice (:meth:`ReplayEngine.replay_request`);
2. before re-executing the request's k-th transaction, the write events of
   *other* transactions that committed in between are injected, so the
   replayed transaction reads exactly what the original read;
3. a breakpoint callback fires at each boundary with the injected changes
   (this is where the paper attaches GDB; programmatically it is where a
   test inspects "the database was modified by R2 between R1's
   transactions");
4. after execution, output and per-transaction write sets are compared
   with the original trace — the fidelity check that turns Heisenbugs into
   Bohrbugs.

Because the injection bound is the *recorded snapshot CSN* of each original
transaction, the same code path also implements reenactment under snapshot
isolation (the §3.1 note; ablation A5): an SI transaction is replayed
against its recorded snapshot rather than the serial prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Collection

from repro.db.database import Database
from repro.db.txn.manager import IsolationLevel, Transaction
from repro.errors import ProvenanceError, ReplayDivergenceError, ReplayError
from repro.runtime.context import RequestContext
from repro.runtime.workflow import Request, Runtime

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tracer import Trod


@dataclass
class InjectedWrite:
    """One concurrent write applied to the dev database before a step."""

    table: str
    kind: str  # 'Insert' | 'Update' | 'Delete'
    row_id: int
    values: dict[str, Any] | None
    csn: int
    txn_id: str
    req_id: str | None


@dataclass
class BreakpointInfo:
    """Handed to the breakpoint callback before each replayed transaction."""

    step_index: int  # 0-based
    txn_name: str  # original transaction id ("TXN4")
    label: str  # original func label ("DB.insert")
    injected: list[InjectedWrite]
    dev_db: Database

    def concurrent_writers(self) -> list[str]:
        """Requests whose writes were injected before this step."""
        seen: list[str] = []
        for write in self.injected:
            if write.req_id and write.req_id not in seen:
                seen.append(write.req_id)
        return seen


@dataclass
class ReplayStep:
    index: int
    original_txn: str
    label: str
    injected: list[InjectedWrite] = field(default_factory=list)
    replayed_txn: str | None = None


@dataclass
class ReplayResult:
    """What a replay did. ``dev_db`` holds the request's footprint as of
    its first snapshot (whole tables where the replay restored them
    whole) plus every write shown to it and every write the replay made;
    each :class:`BreakpointInfo` sees that database as it stood then."""

    req_id: str
    handler: str
    output: Any
    error: str | None
    original_output: str | None
    original_error: str | None
    steps: list[ReplayStep]
    divergences: list[str]
    dev_db: Database

    @property
    def fidelity(self) -> bool:
        """True when the replay reproduced the original behaviour exactly."""
        return not self.divergences


class _ReplayRuntime(Runtime):
    """Runtime that injects dependency state before each transaction."""

    def __init__(self, engine_state: "_ReplayState", *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._state = engine_state

    def begin_transaction(
        self,
        ctx: RequestContext,
        label: str | None,
        isolation: IsolationLevel | None,
    ) -> Transaction:
        index = self._state.before_transaction(label)
        txn = super().begin_transaction(ctx, label, isolation)
        self._state.register_txn(txn, index)
        return txn


class _CommitWrites(dict):
    """``txn_id -> [(table, kind, values), ...]`` for each commit of the
    database it observes. It holds nothing of that database, so a
    dropped dev database is still freed by reference counting."""

    __slots__ = ()
    events = ("txn_committed",)

    def txn_committed(self, txn: Transaction, csn: int, changes: tuple) -> None:
        if changes:
            self[txn.txn_id] = [
                (change.table, change.op.capitalize(), change.values)
                for change in changes
            ]


class _ReplayState:
    """Per-replay bookkeeping: the injection plan and breakpoints."""

    def __init__(
        self,
        engine: "ReplayEngine",
        req_id: str,
        txns: list[dict],
        events: dict[str, dict[str, list[dict]]],
        tables: list[str] | None,
        footprint_tables: frozenset[str],
        dev_db: Database,
        breakpoint_cb: Callable[[BreakpointInfo], None] | None,
    ):
        self.engine = engine
        self.req_id = req_id
        self.txns = txns
        #: original TxnId -> its data events by table (events_of_txn).
        self.events = events
        #: Under the dependency filter, the tables the request used.
        self.tables = tables
        #: The tables restored as footprints, lower-cased.
        self.footprint_tables = footprint_tables
        self.dev_db = dev_db
        self.breakpoint_cb = breakpoint_cb
        self.steps: list[ReplayStep] = []
        self.applied_csn = txns[0]["SnapshotCsn"]
        self.step_index = 0
        #: dev-database txn_id -> replay step index (for write grouping).
        self.txn_step_map: dict[int, int] = {}
        #: Every write the request can be shown, fetched once: the window
        #: from its first snapshot to its last injection bound, in
        #: (Csn, Seq) order; each step injects its slice.
        self.window = engine.trod.provenance.writes_between(
            self.applied_csn,
            max(self._injection_bound(txn) for txn in txns),
            tables=tables,
            exclude_req=req_id,
        )

    def register_txn(self, txn: Transaction, index: int) -> None:
        self.txn_step_map[txn.txn_id] = index
        if index < len(self.steps):
            self.steps[index].replayed_txn = txn.name

    def before_transaction(self, label: str | None) -> int:
        index = self.step_index
        self.step_index += 1
        if index >= len(self.txns):
            # The replayed code executes more transactions than the
            # original — a divergence; nothing left to inject.
            step = ReplayStep(index=index, original_txn="(none)", label=label or "")
            self.steps.append(step)
            return index
        original = self.txns[index]
        bound = self._injection_bound(original)
        injected = self._inject_up_to(bound, original)
        step = ReplayStep(
            index=index,
            original_txn=original["TxnId"],
            label=(original["Metadata"] or "").removeprefix("func:"),
            injected=injected,
        )
        self.steps.append(step)
        if self.breakpoint_cb is not None:
            self.breakpoint_cb(
                BreakpointInfo(
                    step_index=index,
                    txn_name=original["TxnId"],
                    label=step.label,
                    injected=injected,
                    dev_db=self.dev_db,
                )
            )
        return index

    def _injection_bound(self, original: dict) -> int:
        """The CSN whose state the original transaction observed.

        SERIALIZABLE (2PL) transactions read the latest committed state,
        which at transaction granularity is csn - 1; SNAPSHOT transactions
        read their recorded begin snapshot — replaying against it is
        GProM-style reenactment. An aborted transaction has no commit to
        bound it: its snapshot does.
        """
        snapshot = original["Isolation"] == IsolationLevel.SNAPSHOT.value
        if snapshot or original["Csn"] is None:
            return original["SnapshotCsn"]
        return max(original["SnapshotCsn"], original["Csn"] - 1)

    def _inject_up_to(self, bound: int, original: dict) -> list[InjectedWrite]:
        if bound <= self.applied_csn:
            return []
        events = [e for e in self.window if self.applied_csn < e["Csn"] <= bound]
        if self.tables is not None:
            # Only what this step's own transaction read or wrote.
            used = self.events[original["TxnId"]]
            events = [e for e in events if e["_table"].lower() in used]
        injected = self.engine.apply_writes(
            self.dev_db, events, footprint_tables=self.footprint_tables
        )
        self.applied_csn = bound
        return injected


class ReplayEngine:
    """Replays traced requests against reconstructed past states."""

    def __init__(self, trod: "Trod"):
        self.trod = trod

    # ------------------------------------------------------------------

    def build_dev_db(
        self,
        upto_csn: int,
        tables: list[str] | None = None,
        name: str = "dev",
    ) -> Database:
        """A development database restored from provenance at ``upto_csn``."""
        dev = Database(name=name)
        self.trod.flush()
        self.trod.provenance.restore_into(dev, upto_csn, tables=tables)
        return dev

    def apply_writes(
        self,
        dev_db: Database,
        events: list[dict],
        footprint_tables: Collection[str] = (),
    ) -> list[InjectedWrite]:
        """Apply write events (from provenance) to the dev database;
        returns them as applied.

        Runs as a single transaction labeled ``_trod.injector`` so that
        injected changes are distinguishable from replayed execution. In
        ``footprint_tables`` (lower-cased names of tables restored as a
        footprint, which hold only the rows a request used) an Update of a
        row the dev database does not hold installs it, and a Delete of
        one is returned but changes nothing; elsewhere a missing row is a
        reconstruction fault and raises.
        """
        applied: list[InjectedWrite] = []
        if not events:
            return applied
        provenance = self.trod.provenance
        txn = dev_db.begin(info={"handler": "_trod.injector", "label": "inject"})
        try:
            for event in events:
                table = event["_table"]
                schema = provenance.app_schema(table)
                column_map = provenance._column_maps[table.lower()]
                kind = event["Type"]
                row_id = event["RowId"]
                values_dict = None
                if kind in ("Insert", "Update"):
                    values_dict = {
                        col: event[column_map[col]] for col in schema.column_names
                    }
                    values = schema.coerce_row(values_dict)
                if kind == "Insert":
                    txn.insert_with_id(table, values, row_id)
                elif (
                    table.lower() in footprint_tables
                    and txn.get(table, row_id) is None
                ):
                    if kind == "Update":
                        txn.insert_with_id(table, values, row_id)
                elif kind == "Update":
                    txn.update(table, row_id, values)
                elif kind == "Delete":
                    txn.delete(table, row_id)
                applied.append(
                    InjectedWrite(
                        table=table,
                        kind=kind,
                        row_id=row_id,
                        values=values_dict,
                        csn=event["Csn"],
                        txn_id=event["TxnId"],
                        req_id=event.get("ReqId"),
                    )
                )
            txn.commit()
        except Exception:
            txn.abort()
            raise
        return applied

    # ------------------------------------------------------------------

    def replay_request(
        self,
        req_id: str,
        breakpoint_cb: Callable[[BreakpointInfo], None] | None = None,
        dependency_filter: bool = True,
        strict: bool = False,
    ) -> ReplayResult:
        """Faithfully replay one traced request (§3.5): each of its
        transactions, aborted ones included, in execution order.

        The dev database starts as the request's footprint at its first
        snapshot: per table the request used, the rows its transactions
        read, updated or deleted. A table is restored whole instead when
        it has a UNIQUE or PRIMARY KEY constraint (a uniqueness check
        reads rows no Read event records); every traced table is, when
        the request has an aborted transaction (its reads are not all
        kept) or ``dependency_filter`` is False.
        """
        self.trod.flush()
        provenance = self.trod.provenance
        try:
            request_row = provenance.request_row(req_id)
        except ProvenanceError as exc:
            raise ReplayError(str(exc)) from None
        txns = provenance.txns_of_request(req_id, committed_only=False)
        if not txns:
            raise ReplayError(f"request {req_id!r} has no transactions to replay")
        base_csn = txns[0]["SnapshotCsn"]
        # One pass over each transaction's events answers which rows to
        # restore, which writes each step may be shown, and what each
        # step originally wrote.
        events = provenance.events_of_txn(txn["TxnId"] for txn in txns)
        whole = not dependency_filter or any(txn["Csn"] is None for txn in txns)
        tables = None if whole else sorted(set().union(*events.values()))
        dev_db = Database(name=f"dev-{req_id}")
        footprint_tables: frozenset[str] = frozenset()
        if tables is None:
            provenance.restore_into(dev_db, base_csn)
        else:
            footprint_tables = self._restore_footprint(dev_db, base_csn, tables, events)

        state = _ReplayState(
            engine=self,
            req_id=req_id,
            txns=txns,
            events=events,
            tables=tables,
            footprint_tables=footprint_tables,
            dev_db=dev_db,
            breakpoint_cb=breakpoint_cb,
        )
        source_runtime = self.trod.runtime
        dev_runtime = _ReplayRuntime(
            state,
            dev_db,
            registry=source_runtime.registry if source_runtime else None,
            seed=source_runtime.seed if source_runtime else 0,
        )
        handler, args, kwargs, auth_user = provenance.call_of(request_row)
        writes = _CommitWrites()
        dev_db.add_observer(writes)
        result = dev_runtime.execute_request(
            Request(
                handler=handler,
                args=args,
                kwargs=kwargs,
                req_id=req_id,
                auth_user=auth_user,
            )
        )
        dev_db.remove_observer(writes)
        divergences = self._check_fidelity(request_row, txns, result, writes, state)
        replay_result = ReplayResult(
            req_id=req_id,
            handler=handler,
            output=result.output,
            error=result.error,
            original_output=request_row["Output"],
            original_error=request_row["Error"],
            steps=state.steps,
            divergences=divergences,
            dev_db=dev_db,
        )
        if strict and divergences:
            raise ReplayDivergenceError(
                f"replay of {req_id} diverged: {divergences}"
            )
        return replay_result

    def _restore_footprint(
        self,
        dev_db: Database,
        base_csn: int,
        tables: list[str],
        events: dict[str, dict[str, list[dict]]],
    ) -> frozenset[str]:
        """Restore ``tables`` at ``base_csn``: each constrained one whole,
        each other one as the rows ``events`` read, updated or deleted;
        returns the latter."""
        provenance = self.trod.provenance
        whole = [t for t in tables if provenance.app_schema(t).unique_constraints]
        footprint: dict[str, set[int]] = {t: set() for t in tables if t not in whole}
        for by_table in events.values():
            for table, table_events in by_table.items():
                row_ids = footprint.get(table)
                if row_ids is not None:
                    row_ids.update(
                        event["RowId"]
                        for event in table_events
                        if event["Type"] != "Insert" and event["RowId"] is not None
                    )
        if whole:
            provenance.restore_into(dev_db, base_csn, tables=whole)
        provenance.restore_footprint(dev_db, base_csn, footprint)
        return frozenset(footprint)

    def verify_determinism(self, req_id: str, runs: int = 3) -> bool:
        """Check principle P3: replaying a request repeatedly must agree.

        Replays ``req_id`` several times on fresh dev databases and
        compares outputs, errors, and final table states. Raises
        :class:`NonDeterminismError` naming the divergence if any run
        disagrees; returns True otherwise. A handler using wall time,
        unseeded randomness, or out-of-band state fails this check.
        """
        from repro.errors import NonDeterminismError

        baseline: tuple | None = None
        for run in range(runs):
            result = self.replay_request(req_id)
            state = {
                table: sorted(
                    tuple(r.values()) for r in result.dev_db.table_rows(table)
                )
                for table in result.dev_db.catalog.table_names()
            }
            observed = (repr(result.output), result.error, state)
            if baseline is None:
                baseline = observed
            elif observed != baseline:
                raise NonDeterminismError(
                    f"request {req_id} diverged on replay #{run + 1}: "
                    f"{observed!r} != {baseline!r}"
                )
        return True

    def _check_fidelity(
        self,
        request_row: dict,
        txns: list[dict],
        result: Any,
        writes: _CommitWrites,
        state: _ReplayState,
    ) -> list[str]:
        divergences: list[str] = []
        original_output = request_row["Output"]
        original_error = request_row["Error"]
        if result.error is not None:
            if original_error != result.error:
                divergences.append(
                    f"error mismatch: original {original_error!r}, "
                    f"replay {result.error!r}"
                )
        elif repr(result.output) != original_output:
            divergences.append(
                f"output mismatch: original {original_output}, "
                f"replay {repr(result.output)}"
            )
        if state.step_index != len(txns):
            divergences.append(
                f"transaction count mismatch: original {len(txns)}, "
                f"replay {state.step_index}"
            )
        # Per-step write-set comparison (row ids excluded: id allocation
        # may legitimately differ in the dev database).
        replay_writes: dict[int, list[tuple]] = {}
        for txn_id, txn_writes in writes.items():
            # Injector transactions never enter ``txn_step_map`` (they
            # are created directly on the dev database, not through the
            # replay runtime), so their writes are skipped.
            step = state.txn_step_map.get(txn_id)
            if step is not None:
                replay_writes.setdefault(step, []).extend(txn_writes)
        for index, original in enumerate(txns):
            original_set = self._original_writes(state.events[original["TxnId"]])
            replayed_set = replay_writes.get(index, [])
            if sorted(original_set) != sorted(replayed_set):
                divergences.append(
                    f"write set of step {index} ({original['TxnId']}) differs: "
                    f"original {sorted(original_set)}, replay {sorted(replayed_set)}"
                )
        return divergences

    def _original_writes(self, events: dict[str, list[dict]]) -> list[tuple]:
        """``(table, kind, values)`` of a transaction's recorded writes."""
        out: list[tuple] = []
        provenance = self.trod.provenance
        for table, table_events in events.items():
            columns = provenance.app_schema(table).column_names
            column_map = provenance._column_maps[table]
            for event in table_events:
                if event["Type"] not in ("Insert", "Update", "Delete"):
                    continue
                values = (
                    tuple(event[column_map[c]] for c in columns)
                    if event["Type"] != "Delete"
                    else None
                )
                out.append((table, event["Type"], values))
        return out
