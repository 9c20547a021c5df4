"""Retroactive programming (§3.6).

Re-executes past requests using *modified* handler code over a past
database snapshot. Unlike replay, the transaction log cannot be re-applied
— the patched code's computations and effects may change — so TROD:

1. restores a development database (from provenance) to the snapshot
   before the earliest involved request;
2. runs a **pilot**: each request alone against a fresh copy of that
   snapshot with the patched code, to discover the new transaction
   boundaries and their table footprints;
3. enumerates candidate re-execution orderings of those transactions,
   pruning interleavings that only swap non-conflicting steps
   (:mod:`repro.core.orderings`);
4. executes every ordering on a fresh snapshot under the deterministic
   scheduler, recording outputs, errors, final table states, optional
   invariant violations, and (optionally) a fresh TROD trace of the
   re-execution — the bottom half of the paper's Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.orderings import (
    TxnStep,
    enumerate_interleavings,
    naive_interleaving_count,
)
from repro.db.database import Database
from repro.errors import RetroactiveError
from repro.runtime.handlers import HandlerRegistry
from repro.runtime.workflow import Request, Runtime

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tracer import Trod


@dataclass
class RetroRequestOutcome:
    """One request's result within one tested ordering."""

    req_id: str
    handler: str
    ok: bool
    output_repr: str | None
    error: str | None
    original_output: str | None
    original_error: str | None

    @property
    def changed(self) -> bool:
        """Did the patched code behave differently than the original run?"""
        if self.ok:
            return self.output_repr != self.original_output
        return self.error != self.original_error


@dataclass
class OrderingOutcome:
    """Everything observed while testing one candidate ordering."""

    index: int
    schedule: list[int]
    requests: list[RetroRequestOutcome] = field(default_factory=list)
    followups: list[RetroRequestOutcome] = field(default_factory=list)
    final_state: dict[str, list[tuple]] = field(default_factory=dict)
    invariant_violations: list[str] = field(default_factory=list)
    side_effect_count: int = 0

    #: A runtime observer of its dev run: it counts the side effects.
    events = ("side_effect",)

    def side_effect(self, ctx, effect) -> None:
        self.side_effect_count += 1

    @property
    def ok(self) -> bool:
        """No handler errors and no invariant violations anywhere."""
        all_requests = self.requests + self.followups
        return all(r.ok for r in all_requests) and not self.invariant_violations


@dataclass
class RetroactiveResult:
    """Aggregate of a retroactive programming run."""

    req_ids: list[str]
    patched: list[str]
    base_csn: int
    naive_orderings: int
    explored: int
    truncated: bool
    outcomes: list[OrderingOutcome]

    @property
    def all_ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def failing(self) -> list[OrderingOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def states_agree(self) -> bool:
        """Did every ordering converge to the same final database state?"""
        if not self.outcomes:
            return True
        first = self.outcomes[0].final_state
        return all(o.final_state == first for o in self.outcomes[1:])

    def summary(self) -> str:
        lines = [
            f"retroactive run over {self.req_ids} "
            f"(patched: {', '.join(self.patched) or 'none'})",
            f"orderings: naive={self.naive_orderings} "
            f"explored={self.explored}"
            + (" (truncated)" if self.truncated else ""),
            f"all orderings pass: {self.all_ok}; "
            f"states agree: {self.states_agree()}",
        ]
        for outcome in self.failing:
            problems = [r.error for r in outcome.requests + outcome.followups if r.error]
            problems.extend(outcome.invariant_violations)
            lines.append(f"  ordering {outcome.schedule}: {problems}")
        return "\n".join(lines)


class _Footprints(list):
    """Database observer recording each commit's ``(tables read, tables
    written)`` footprint; the tables read come from its statements' traces."""

    events = ("statement_executed", "txn_committed")

    def __init__(self) -> None:
        super().__init__()
        self._reads: dict[int, set[str]] = {}  # txn id -> tables read

    def statement_executed(self, txn, trace) -> None:
        self._reads.setdefault(txn.txn_id, set()).update(r.table for r in trace.reads)

    def txn_committed(self, txn, csn, changes) -> None:
        reads = frozenset(self._reads.pop(txn.txn_id, ()))
        self.append((reads, frozenset(c.table for c in changes)))


class RetroactiveEngine:
    """Tests modified code against past events."""

    def __init__(self, trod: "Trod"):
        self.trod = trod

    def run(
        self,
        req_ids: Sequence[str],
        patches: dict[str, Callable[..., Any]] | None = None,
        registry: HandlerRegistry | None = None,
        orderings: str | Sequence[Sequence[int]] = "pruned",
        max_orderings: int = 64,
        followups: Sequence[str] = (),
        invariant: Callable[[Database], list[str]] | None = None,
    ) -> RetroactiveResult:
        """Re-execute ``req_ids`` with patched handlers over a past snapshot.

        ``patches`` maps handler names to replacement functions (or pass a
        full ``registry``). ``orderings`` is ``'pruned'`` (conflict-based
        reduction), ``'all'`` (every interleaving), or an explicit list of
        schedules. ``followups`` are requests re-executed serially *after*
        each ordering (the paper's R3). ``invariant`` is called on the dev
        database after each ordering and returns violation strings.
        """
        self.trod.flush()
        provenance = self.trod.provenance
        if not req_ids:
            raise RetroactiveError("req_ids must be non-empty")
        if registry is None:
            source = self.trod.runtime.registry if self.trod.runtime else None
            if source is None:
                raise RetroactiveError("no handler registry available")
            registry = source.patched(**(patches or {}))
        elif patches:
            registry = registry.patched(**patches)

        # Each request's traced row, read once: what to re-execute, and
        # the original outcome every ordering is compared with.
        originals = {r: provenance.request_row(r) for r in (*req_ids, *followups)}
        requests = [self._request_of(originals[r]) for r in req_ids]
        followup_requests = [self._request_of(originals[r]) for r in followups]
        base_csn = self._base_csn(req_ids)
        # Every pilot and every ordering starts from the same past state:
        # reconstructed here once, shared by each fresh dev database.
        base_state = provenance.kept_state(base_csn)

        # Pilot: discover the patched code's transaction footprints.
        pilots: list[list[TxnStep]] = []
        for req_index, request in enumerate(requests):
            footprints = self._pilot(request, registry, base_state)
            pilots.append(
                [
                    TxnStep(
                        req_index=req_index,
                        ordinal=i,
                        reads=reads,
                        writes=writes,
                    )
                    for i, (reads, writes) in enumerate(footprints)
                ]
            )

        lengths = [len(p) for p in pilots]
        naive = naive_interleaving_count(lengths)
        if isinstance(orderings, str):
            if orderings not in ("pruned", "all"):
                raise RetroactiveError(f"unknown orderings mode {orderings!r}")
            schedules, truncated = enumerate_interleavings(
                pilots, prune=(orderings == "pruned"), cap=max_orderings
            )
        else:
            schedules = [list(s) for s in orderings]
            truncated = False

        outcomes = []
        for index, schedule in enumerate(schedules):
            outcomes.append(
                self._test_ordering(
                    index,
                    schedule,
                    requests,
                    followup_requests,
                    registry,
                    base_state,
                    invariant,
                    originals,
                )
            )
        return RetroactiveResult(
            req_ids=list(req_ids),
            patched=sorted(patches) if patches else [],
            base_csn=base_csn,
            naive_orderings=naive,
            explored=len(outcomes),
            truncated=truncated,
            outcomes=outcomes,
        )

    def hunt(
        self,
        req_ids: Sequence[str],
        invariant: Callable[[Database], list[str]] | None = None,
        max_orderings: int = 64,
    ) -> OrderingOutcome | None:
        """Find an interleaving of past requests that breaks the CURRENT code.

        Retroactive programming with no patches: re-execute the original
        handlers over the snapshot under every pruned ordering, and return
        the first outcome with a handler error or invariant violation
        (None when every ordering is clean). This turns "you have to be
        pretty fast and pretty lucky to reproduce this issue" into an
        enumeration.
        """
        result = self.run(
            req_ids, invariant=invariant, max_orderings=max_orderings
        )
        failing = result.failing
        return failing[0] if failing else None

    # ------------------------------------------------------------------

    def _request_of(self, row: dict) -> Request:
        handler, args, kwargs, auth_user = self.trod.provenance.call_of(row)
        return Request(
            handler=handler,
            args=args,
            kwargs=kwargs,
            req_id=row["ReqId"],
            auth_user=auth_user,
        )

    def _base_csn(self, req_ids: Sequence[str]) -> int:
        """Snapshot right before the earliest involved transaction."""
        bases = []
        for req_id in req_ids:
            txns = self.trod.provenance.txns_of_request(req_id)
            if txns:
                bases.append(txns[0]["SnapshotCsn"])
        return min(bases) if bases else self.trod.base_csn

    def _fresh_dev_db(self, base_state: dict[str, dict], name: str) -> Database:
        dev = Database(name=name)
        self.trod.provenance.load_state(dev, base_state)
        return dev

    def _pilot(
        self, request: Request, registry: HandlerRegistry, base_state: dict[str, dict]
    ) -> list[tuple[frozenset[str], frozenset[str]]]:
        dev = self._fresh_dev_db(base_state, name=f"pilot-{request.req_id}")
        footprints = _Footprints()
        dev.add_observer(footprints)
        runtime = Runtime(dev, registry=registry, seed=self._seed())
        runtime.execute_request(replace(request, kwargs=dict(request.kwargs)))
        return footprints

    def _seed(self) -> int:
        return self.trod.runtime.seed if self.trod.runtime else 0

    def _test_ordering(
        self,
        index: int,
        schedule: list[int],
        requests: list[Request],
        followups: list[Request],
        registry: HandlerRegistry,
        base_state: dict[str, dict],
        invariant: Callable[[Database], list[str]] | None,
        originals: dict[str, dict],
    ) -> OrderingOutcome:
        dev = self._fresh_dev_db(base_state, name=f"retro-{index}")
        runtime = Runtime(dev, registry=registry, seed=self._seed())
        outcome = OrderingOutcome(index=index, schedule=schedule)
        runtime.add_observer(outcome)  # counts the run's side effects
        fresh = [replace(r, kwargs=dict(r.kwargs)) for r in requests]
        results = runtime.run_concurrent(fresh, schedule=schedule)
        for result in results:
            outcome.requests.append(self._outcome_of(result, originals))
        for followup in followups:
            result = runtime.execute_request(
                replace(followup, kwargs=dict(followup.kwargs))
            )
            outcome.followups.append(self._outcome_of(result, originals))
        for table in self.trod.provenance.traced_tables():
            rows = [values for _rid, values in dev.store(table).scan(None)]
            outcome.final_state[table.lower()] = sorted(rows)
        if invariant is not None:
            outcome.invariant_violations = list(invariant(dev))
        return outcome

    @staticmethod
    def _outcome_of(result, originals: dict[str, dict]) -> RetroRequestOutcome:
        original = originals[result.req_id]
        return RetroRequestOutcome(
            req_id=result.req_id,
            handler=result.handler,
            ok=result.ok,
            output_repr=repr(result.output) if result.ok else None,
            error=result.error,
            original_output=original["Output"],
            original_error=original["Error"],
        )
