"""Plan construction and execution.

``execute_statement`` is the single entry point the database uses after
parsing. SELECTs are compiled into a small tree of pull-based plan nodes
(scan -> join -> filter -> aggregate -> sort -> project -> limit) that
exchange *batches* of rows (:meth:`PlanNode.batches`) — traced or not,
streamed or drained, on one database or on a shard. UPDATE and DELETE
find their rows through the same scan node a SELECT's WHERE would get
(:meth:`ScanNode.match_pairs`: index probe, pushed compiled filter), then
write through the transaction; INSERT and DDL execute directly against
the transaction / catalog.

Read provenance: a traced whole-table scan in one chunk records its
predicate — table, query, params, snapshot CSN, pushed filter and
survivor count, one :class:`ScanRead` that TROD's provenance store
reenacts into the rows when they are read. Every other scan carries row
ids with its value batches, and the rows it produces (after pushed-down
filtering) are recorded on the transaction a chunk at a time, each
chunk's pair list as one :class:`ReadSet`. When a statement scans a table
but matches nothing, a single null read is recorded — this is exactly the
shape of the paper's Table 2.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import chain, compress, count, islice
from operator import itemgetter, not_
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from repro.db.expr import (
    ColumnRef,
    Expr,
    FuncCall,
    Literal,
    conjoin,
    split_conjuncts,
)
from repro.db.result import PINNED, ResultSet
from repro.db.schema import Column, TableSchema
from repro.db.sql import compile as codegen
from repro.db.sql import planner
from repro.db.sql.nodes import (
    CreateIndexStmt,
    CreateTableStmt,
    DeleteStmt,
    DropIndexStmt,
    DropTableStmt,
    InsertStmt,
    SelectItem,
    SelectStmt,
    Statement,
    TableRef,
    UpdateStmt,
)
from repro.db.sql.planner import (
    Layout,
    check_scalar,
    checked_count,
    evaluate_rowless,
    limit_and_offset,
)
from repro.db.types import ColumnType, index_key, type_from_sql_name
from repro.errors import ExecutionError, PlanningError, SchemaError

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.database import Database
    from repro.db.sharding import ShardContext
    from repro.db.txn.manager import Transaction


@dataclass
class ExecContext:
    """Everything plan nodes need while producing rows."""

    database: "Database"
    txn: "Transaction"
    params: Sequence[Any]
    query_text: str
    track_reads: bool
    #: Rows a scan pulls between cooperative-scheduler yield points
    #: (0 disables yielding). Defaults to the database's knob.
    batch_size: int = -1
    #: table scanned this statement -> read records its scans emitted.
    read_counts: dict[str, int] = field(default_factory=dict)
    #: Most rows the next scan chunk may pull; None is unbounded. An
    #: operator that needs only so many more rows narrows it around each
    #: pull from its child (LIMIT to its remaining need, a join to one
    #: probe row), a blocking operator lifts it, and a streamed cursor
    #: starts it at one row — so no scan pulls, or records a read for, a
    #: row the consumer never asked for.
    row_budget: int | None = None
    #: Most rows the consumer takes in all, when a LIMIT bounds the pull
    #: (its ``limit + offset`` still wanted) or a streamed cursor's
    #: consumer said so (``first()``, ``one()``); 0 on a streamed
    #: cursor's priming pull, which takes no row yet; None otherwise.
    #: Unlike the row budget it is not narrowed per pull: a streamed
    #: cursor's pull asks for one row, and may go on to take every row.
    row_limit: int | None = None
    #: A sharded SELECT's execution as its exchanges see it: which
    #: database serves each shard, under which branch; None on one
    #: database.
    shards: "ShardContext | None" = None

    def __post_init__(self) -> None:
        if self.batch_size < 0:
            self.batch_size = self.database.scan_batch_size


#: Strips the row id off a scan's ``(row_id, values)`` pair.
_VALUES_OF_PAIR = itemgetter(1)


@cache
def _scheduler():
    """``repro.runtime.scheduler``, imported on first use and kept.

    A module-level import would cycle (repro.runtime's __init__ imports
    the workflow module, which imports this package back); an import
    statement per scan is 5% of a ten-microsecond index probe.
    """
    from repro.runtime import scheduler

    return scheduler


class PlanNode:
    layout: Layout
    #: The input of a single-input operator; leaves have none.
    child: "PlanNode | None" = None

    def batches(self, ctx: ExecContext) -> Iterator[list[tuple]]:
        """Batch-at-a-time row production: chunks of ``list[tuple]``.

        The only way a plan runs. An operator checks its expressions
        against its input layout when it is built
        (:func:`~repro.db.sql.planner.check_scalar`) and generates the
        program that evaluates them over a whole chunk the first time it
        runs (:mod:`repro.db.sql.compile`). Chunk boundaries carry no
        meaning — consumers must produce identical results for any
        chunking — and a chunk is never mutated by its consumer.
        """
        raise NotImplementedError

    def count_only(self, ctx: ExecContext) -> int | None:
        """Output row count without materializing rows, or None.

        A node may answer a pure ``COUNT(*)`` parent directly when it can
        prove the count without building its output tuples (eager
        aggregation). Implementations must be side-effect-identical to
        draining :meth:`batches` — same scans, locks, and scheduler
        yields — and must check every static precondition *before*
        consuming any child, so a None return leaves children untouched.
        """
        return None

    def describe(self) -> str:
        return type(self).__name__

    def children_nodes(self) -> list["PlanNode"]:
        return [] if self.child is None else [self.child]

    def explain(self, depth: int = 0, ctx: ExecContext | None = None) -> list[str]:
        """Indented plan tree, root first (the EXPLAIN output). A sharded
        plan's exchanges need ``ctx``: they name their targets from its
        parameters and shards."""
        lines = ["  " * depth + self.describe()]
        for child in self.children_nodes():
            lines.extend(child.explain(depth + 1, ctx))
        return lines


class SingleRowNode(PlanNode):
    """FROM-less SELECT: one empty row."""

    def __init__(self):
        self.layout = Layout()

    def batches(self, ctx: ExecContext) -> Iterator[list[tuple]]:
        yield [()]

    def describe(self) -> str:
        return "SingleRow"


def _bounded_chunks(
    source: Iterator, ctx: ExecContext, batch: int = 0, table: str = ""
) -> Iterator[list]:
    """Chunks no larger than the row budget, cut at the yield points.

    ``ctx.row_budget`` is read afresh for every pull: the consumer
    narrows it to what it still needs. Under a scheduler (``batch``
    non-zero) a chunk also never straddles a yield point, and a
    SCAN_BATCH checkpoint on ``table`` fires after every ``batch`` rows
    pulled — never after a short tail — so concurrent readers interleave
    at the same deterministic row boundaries whatever the chunking.
    """
    until_yield = batch
    while True:
        size = ctx.row_budget
        if batch and (size is None or size > until_yield):
            size = until_yield
        chunk = list(islice(source, size))
        if not chunk:
            return
        if batch:
            until_yield -= len(chunk)
            if not until_yield:
                api = _scheduler()
                api.maybe_checkpoint(api.CheckpointKind.SCAN_BATCH, table)
                until_yield = batch
        yield chunk


class Probe(NamedTuple):
    """An index access path, naming its index: a scan resolves the name
    in its database's index set each time it runs."""

    #: "hash": equality keys; "in": an IN list; "sorted": a range over a
    #: sorted index; "span": a two-sided range over a hash-indexed
    #: INTEGER or TIMESTAMP column, probed key by key (:data:`SPAN_ROWS_PER_KEY`).
    kind: str
    index: str
    columns: tuple[str, ...]
    #: A hash probe's key expressions, one per column; an IN probe's
    #: items, each the key of its single column.
    keys: tuple[Expr, ...] = ()
    #: A range or span probe's bounds (None: unbounded; a span has both).
    low: Expr | None = None
    high: Expr | None = None


#: A span probe looks its keys up one by one only while the table holds at
#: least this many live rows per key; a wider span scans the table, as a
#: range on an unindexed column does. Measured with ``SELECT acct, balance
#: FROM ledger WHERE acct >= ? AND acct < ? ORDER BY acct`` through
#: ``repro.connect`` on a 5 300-row ledger (``acct`` unique, under a hash
#: index; 2-vCPU VM, median of 60), probe against scan in µs. Paged, a
#: 16-page pool: 8 keys 82 / 576, 64 keys 296 / 612, 96 keys 424-701 /
#: 573-591, 128 keys 536-648 / 601-607, 192 keys 1 326 / 669; so the
#: break-even lies at 100-130 keys, 40-50 rows per key. In memory: 256
#: keys 193 / 647, 1 024 keys 1 091 / 1 405, about 5 rows per key. The
#: paged tier sets the cutoff: 48 rows per key, 110 keys on that ledger.
SPAN_ROWS_PER_KEY = 48
#: Column types a span probe serves: ``coerce`` stores only exact ints there.
_SPAN_TYPES = (ColumnType.INTEGER, ColumnType.TIMESTAMP)


def _finite_number(value: Any) -> bool:
    """Whether ``value`` is an int or a finite float (a bool is neither)."""
    kind = value.__class__
    return kind is int or (kind is float and math.isfinite(value))


class ScanNode(PlanNode):
    """Table scan (or index probe) with an optional pushed-down filter."""

    def __init__(
        self,
        table: str,
        binding: str,
        schema: TableSchema,
        conjuncts: Sequence[Expr] = (),
        probe: Probe | None = None,
    ):
        self.table = table
        self.binding = binding
        self.schema = schema
        self.probe = probe  # see _find_probe
        self.layout = Layout.for_table(binding, schema.column_names)
        #: The pushed-down filter: the conjuncts AND-ed, and their text
        #: for EXPLAIN.
        self.filter_expr = conjoin(conjuncts)
        self.filter_sql = " AND ".join(c.sql() for c in conjuncts)
        if self.filter_expr is not None:
            check_scalar(self.filter_expr, self.layout)

    @cached_property
    def _probe_positions(self) -> tuple[int, ...]:
        """The probe index's column positions in this table's rows."""
        return tuple(self.schema.index_of(c) for c in self.probe.columns)

    @cached_property
    def _keep_values(self) -> Callable | None:
        """The filter over a chunk of value tuples."""
        if self.filter_expr is None:
            return None
        return codegen.compile_predicate_batch(self.filter_expr, self.layout)

    @cached_property
    def _keep_pairs(self) -> Callable | None:
        """The filter over a chunk of ``(row_id, values)`` pairs — its own
        program, so a database that never traces or writes generates one."""
        if self.filter_expr is None:
            return None
        return codegen.compile_predicate_batch(
            self.filter_expr, self.layout, pairs=True
        )

    def describe(self) -> str:
        parts = [f"Scan({self.table}"]
        if self.binding.lower() != self.table.lower():
            parts.append(f" AS {self.binding}")
        parts.append(")")
        probe = self.probe
        if probe is not None:
            label = {"sorted": "range", "span": "span"}.get(probe.kind, "probe")
            parts.append(f" {label}={probe.index}[{', '.join(probe.columns)}]")
            if probe.kind == "in":
                parts.append(f" in({len(probe.keys)})")
        if self.filter_sql:
            parts.append(f" filter[{self.filter_sql}]")
        return "".join(parts)

    def _access(self, ctx: ExecContext) -> tuple[bool, tuple[tuple, ...] | None]:
        """How this execution reads the table: ``(probes, keys)``, whether
        it goes through the probe, and the keys it looks up there, each a
        tuple of the probe index's column values: an equality probe's one
        key, an IN list's items (NULL ones dropped: they match no row), a
        span's (:meth:`_span_keys`). A range probe has none: it reads its
        sorted index between its bounds."""
        probe = self.probe
        if probe is None:
            return False, None
        params = ctx.params
        if probe.kind == "hash":
            return True, (tuple([evaluate_rowless(expr, params) for expr in probe.keys]),)
        if probe.kind == "in":
            items = [evaluate_rowless(expr, params) for expr in probe.keys]
            return True, tuple([(item,) for item in items if item is not None])
        if probe.kind == "span":
            keys = self._span_keys(ctx)
            return keys is not None, keys
        return True, None

    def _resolve_source(
        self, ctx: ExecContext, probes: bool, keys: tuple[tuple, ...] | None
    ) -> Iterable[tuple[int, tuple]]:
        """The ``(row_id, values)`` source, pinned at call time: the probe's
        hits for ``keys`` when ``probes`` (see :meth:`_access`), else the
        whole table."""
        if not probes:
            return ctx.txn.scan(self.table)
        # A probe reads the shared index, so it takes the table lock a
        # scan would — before looking, or a writer could commit between
        # the lookup and the row fetch.
        ctx.txn.read_lock(self.table)
        index = ctx.database.index_set(self.table).indexes[self.probe.index.lower()]
        # ``candidates`` may be a live view of an index bucket; it is only
        # read (sorted() copies), never mutated.
        if keys is None:
            candidates = self._range_hits(index, ctx.params)
        elif len(keys) == 1:
            candidates = index.lookup(keys[0])
        else:
            candidates = index.lookup_many(keys)
        pending = ctx.txn.pending_rows(self.table)
        # Below the latest state the index can miss a row whose older
        # version matches; every such row has left its key since (one of
        # the probed keys, for an equality, IN or span probe).
        later = ctx.txn.moved_since_snapshot(self.table, self._probe_positions, keys)
        if pending or later:
            merged = set(candidates)
            merged.update(rid for rid, _ in pending)
            merged.update(later)
            candidates = merged
        # Resolve probe hits against the transaction now, as one set:
        # probes are bounded index lookups, and materializing them keeps a
        # streamed pipeline independent of the transaction's later
        # lifecycle (txn.get_many checks liveness, whereas txn.scan above
        # returns an iterator pinned at call time).
        return ctx.txn.get_many(self.table, sorted(candidates))

    def _reenactable(self, ctx: ExecContext, batch: int) -> bool:
        """Whether a traced run of this whole-table scan (no probe) may
        record its predicate (a :class:`~repro.db.txn.manager.ScanRead`)
        instead of its rows: in one chunk (no live scheduler's ``batch``,
        no row budget), on one database (a shard numbers its commits on
        its own). Every pushed filter qualifies: every scalar function is
        deterministic. A write of the transaction's own on the table, or a
        snapshot below the table's last write, is
        :meth:`Transaction.scan_materialized`'s to refuse."""
        return not batch and ctx.row_budget is None and ctx.shards is None

    def batches(self, ctx: ExecContext) -> Iterator[list[tuple]]:
        """Batch scan: whole chunks, filtered and recorded a chunk at a time.

        A latest-state scan with no row budget serves straight off the
        store's shared materialized row list when the transaction's
        snapshot covers the table's last write and it wrote no row of the
        table (:meth:`Transaction.scan_materialized` — same locking and
        liveness side effects as ``scan``): untracked, and under
        ``ctx.track_reads`` when the scan is :meth:`_reenactable`, which
        then records its predicate and survivor count rather than its
        rows. Every other scan pulls ``(row_id, values)`` pairs, so under
        ``ctx.track_reads`` the survivors of the pushed-down filter become
        the chunk's read records. With neither a row budget nor a live
        cooperative scheduler the whole scan is one chunk.
        """
        table = self.table
        params = ctx.params
        stats = ctx.database.executor_stats
        ctx.read_counts.setdefault(table, 0)
        track = ctx.track_reads
        batch = ctx.batch_size if _scheduler().current_scheduler() is not None else 0
        probes, keys = self._access(ctx)
        predicate = track and not probes and self._reenactable(ctx, batch)
        rows = None
        if not probes and ctx.row_budget is None and (predicate or not track):
            rows = ctx.txn.scan_materialized(table)
        if rows is None:
            predicate = False
            rows = self._resolve_source(ctx, probes, keys)
            if not track:
                rows = map(_VALUES_OF_PAIR, rows)
        elif predicate:
            track = False  # values flow; the predicate is the read record
        if batch or ctx.row_budget is not None:
            chunks = _bounded_chunks(iter(rows), ctx, batch, table)
        else:
            # A list goes out uncopied: it may be the store's shared one,
            # and consumers never mutate chunks.
            chunk = rows if type(rows) is list else list(rows)
            chunks = (chunk,) if chunk else ()
        keep = self._keep_pairs if track else self._keep_values
        for chunk in chunks:
            out = chunk
            if keep is not None:
                out = keep(chunk, params)
                stats["rows_filtered_at_scan"] += len(chunk) - len(out)
            stats["batches_processed"] += 1
            if track:
                ctx.txn.record_reads(table, out, ctx.query_text)
                ctx.read_counts[table] += len(out)
                out = list(map(_VALUES_OF_PAIR, out))
            elif predicate:
                ctx.txn.record_scan(
                    table, ctx.query_text, params, self._keep_pairs, len(out)
                )
                ctx.read_counts[table] += len(out)
            if out:
                yield out

    def match_pairs(self, ctx: ExecContext) -> list[tuple[int, tuple]]:
        """The match phase of an UPDATE or DELETE, drained whole.

        Every ``(row_id, values)`` pair of this scan's source — index
        probe or table scan, own writes included — that passes the pushed
        filter, in row-id order. One chunk whatever the scheduler or the
        row budget says, so no write lands before the last row is matched
        and a statement yields nowhere it did not before; and no read
        records: the rows a write touched are its provenance.
        """
        pairs = self._resolve_source(ctx, *self._access(ctx))
        if type(pairs) is not list:
            pairs = list(pairs)
        stats = ctx.database.executor_stats
        keep = self._keep_pairs
        if keep is not None:
            scanned = len(pairs)
            pairs = keep(pairs, ctx.params)
            stats["rows_filtered_at_scan"] += scanned - len(pairs)
        stats["batches_processed"] += 1
        return pairs

    def _span_keys(self, ctx: ExecContext) -> tuple[tuple, ...] | None:
        """A span probe's keys: every integer from its low bound to its
        high one, since the column stores only exact ints (the pushed
        filter re-checks strictness); none for a NULL bound, which no
        comparison passes. None, to scan the table as it would without
        the index, when a bound is not a finite number (TEXT, a BOOLEAN,
        an infinity) or the span has more keys than the table has live
        rows per :data:`SPAN_ROWS_PER_KEY`."""
        probe, params = self.probe, ctx.params
        low = evaluate_rowless(probe.low, params)
        high = evaluate_rowless(probe.high, params)
        if low is None or high is None:
            return ()
        if not (_finite_number(low) and _finite_number(high)):
            return None
        first, last = math.ceil(low), math.floor(high)
        live = ctx.database.store(self.table).row_count()
        if (last - first + 1) * SPAN_ROWS_PER_KEY > live:
            return None
        return tuple((key,) for key in range(first, last + 1))

    def _range_hits(self, index: Any, params: Sequence[Any]) -> list[int]:
        """A range probe's row ids: its sorted index between its bounds."""
        probe = self.probe
        low = high = None
        if probe.low is not None:
            low = (evaluate_rowless(probe.low, params),)
        if probe.high is not None:
            high = (evaluate_rowless(probe.high, params),)
        if (low is not None and low[0] is None) or (
            high is not None and high[0] is None
        ):
            return []  # NULL bound: comparison can never be TRUE
        return index.scan_between(low, high)


class FilterNode(PlanNode):
    def __init__(self, child: PlanNode, expr: Expr, sql: str = ""):
        self.child = child
        self.layout = child.layout
        self.expr = expr
        self.sql = sql
        check_scalar(expr, self.layout)

    @cached_property
    def _keep(self) -> Callable:
        return codegen.compile_predicate_batch(self.expr, self.layout)

    def describe(self) -> str:
        return f"Filter[{self.sql}]" if self.sql else "Filter"

    def batches(self, ctx: ExecContext) -> Iterator[list[tuple]]:
        keep = self._keep
        params = ctx.params
        stats = ctx.database.executor_stats
        for chunk in self.child.batches(ctx):
            out = keep(chunk, params)
            stats["rows_filtered_post_join"] += len(chunk) - len(out)
            if out:
                yield out


def _pull(
    chunks: Iterator[list[tuple]], ctx: ExecContext, budget: int | None
) -> list[tuple] | None:
    """The next chunk (None at the end), pulled under a narrower row budget.

    ``ctx.row_budget`` drops to ``budget`` for just this pull — never
    rises — so the scans that run inside it read no further than the
    caller can use.
    """
    outer = ctx.row_budget
    if budget is not None and (outer is None or budget < outer):
        ctx.row_budget = budget
    chunk = next(chunks, None)
    ctx.row_budget = outer
    return chunk


class HashJoinNode(PlanNode):
    """Equi-join; builds on the right child, probes from the left.

    With no keys every row lands in one bucket and the residual is the
    whole join condition: the nested-loop join for non-equi conditions
    and cross joins.
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_keys: Sequence[Expr],
        right_keys: Sequence[Expr],
        residual: Expr | None,
        kind: str,
    ):
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.kind = kind
        self.layout = left.layout.concat(right.layout)
        if residual is not None:
            check_scalar(residual, self.layout)
        for key in left_keys:
            check_scalar(key, left.layout)
        for key in right_keys:
            check_scalar(key, right.layout)

    @cached_property
    def _build(self) -> Callable:
        return codegen.compile_join_build(self.right_keys, self.right.layout)

    @cached_property
    def _probe(self) -> Callable:
        return codegen.compile_join_probe(
            self.left_keys,
            self.left.layout,
            self.residual,
            self.layout,
            len(self.right.layout),
            self.kind,
        )

    def describe(self) -> str:
        if not self.left_keys:
            return f"NestedLoopJoin({self.kind})"
        return f"HashJoin({self.kind}, {len(self.left_keys)} key(s))"

    def children_nodes(self) -> list["PlanNode"]:
        return [self.left, self.right]

    def batches(self, ctx: ExecContext) -> Iterator[list[tuple]]:
        build = self._build
        probe = self._probe
        params = ctx.params
        table: dict = {}
        # The build side drains whole, whatever the parent still needs.
        outer = ctx.row_budget
        ctx.row_budget = None
        for chunk in self.right.batches(ctx):
            build(chunk, params, table)
        ctx.row_budget = outer
        left = self.left.batches(ctx)
        # One probe row can fan out into any number of join rows, so
        # under a row budget only a single-row pull is certain not to
        # scan past the row that satisfies the consumer.
        while (
            chunk := _pull(left, ctx, None if ctx.row_budget is None else 1)
        ) is not None:
            out = probe(chunk, params, table)
            if out:
                yield out

    def count_only(self, ctx: ExecContext) -> int | None:
        """Inner equi-join output count without materializing join rows.

        Build side becomes a key -> multiplicity map; probe keys are
        histogrammed with :class:`collections.Counter` (a C loop) and the
        count is the dot product. Matches the probe program exactly:
        the key is one bare column (``join_key_slot``), build-side NULL
        keys were skipped at build, probe NULL/absent keys miss the map,
        and a bool probe key looks up the build side's wrapped key.
        Counting raw keys never merges ``TRUE`` with ``1``: the key is a
        stored column (FROM names only tables), whose type admits bools
        or numbers, never both. Only engages for inner joins with no
        residual, where dropping the concatenated tuples is invisible to
        a COUNT(*).
        """
        if self.kind != "inner" or self.residual is not None:
            return None
        key_slot = codegen.join_key_slot(self.left_keys, self.left.layout)
        if key_slot is None:
            return None
        from collections import Counter

        build = self._build
        table: dict = {}
        for chunk in self.right.batches(ctx):
            build(chunk, ctx.params, table)
        sizes = {key: len(matches) for key, matches in table.items()}
        get_size = sizes.get
        key_of = itemgetter(key_slot)
        bool_key = codegen.BOOL_KEY
        total = 0
        for chunk in self.left.batches(ctx):
            for key, count in Counter(map(key_of, chunk)).items():
                size = get_size((bool_key, key) if key.__class__ is bool else key)
                if size:
                    total += count * size
        return total


class AggregateNode(PlanNode):
    """GROUP BY: output rows are (group key values..., aggregate values...)."""

    def __init__(
        self,
        child: PlanNode,
        group_exprs: Sequence[Expr],
        aggregates: Sequence[FuncCall],
    ):
        self.child = child
        self.group_exprs = group_exprs
        self.aggregates = aggregates
        self.global_group = not group_exprs
        for expr in group_exprs:
            check_scalar(expr, child.layout)
        for agg in aggregates:
            if not agg.star:
                if len(agg.args) != 1:
                    raise PlanningError(f"{agg.name}() takes exactly one argument")
                check_scalar(agg.args[0], child.layout)
        self.layout = Layout()
        for i in range(len(group_exprs) + len(aggregates)):
            self.layout.add(None, f"_agg{i}")
        #: Global aggregate whose outputs are all plain COUNT(*) — the
        #: one shape a child's :meth:`PlanNode.count_only` can answer.
        self._pure_count_star = self.global_group and all(
            agg.name == "COUNT" and agg.star and not agg.distinct
            for agg in aggregates
        )

    @cached_property
    def _programs(self) -> tuple[Callable, Callable, Callable]:
        return codegen.compile_aggregate_programs(
            self.group_exprs, self.aggregates, self.child.layout
        )

    def describe(self) -> str:
        aggs = ", ".join(agg.name for agg in self.aggregates)
        return f"Aggregate(groups={len(self.group_exprs)}, aggs=[{aggs}])"

    def batches(self, ctx: ExecContext) -> Iterator[list[tuple]]:
        # Blocking: the input drains whole, whatever the parent needs.
        outer = ctx.row_budget
        ctx.row_budget = None
        out = self._groups(ctx)
        ctx.row_budget = outer
        if out:
            yield out

    def _groups(self, ctx: ExecContext) -> list[tuple]:
        if self._pure_count_star:
            # Global COUNT(*): ask the child for the bare count (eager
            # aggregation). None means unsupported — and, by the
            # count_only contract, that nothing was consumed yet.
            count = self.child.count_only(ctx)
            if count is not None:
                return [(count,) * len(self.aggregates)]
        chunk_fn, init_fn, fin_fn = self._programs
        params = ctx.params
        groups: dict = {}
        order: list = []
        for chunk in self.child.batches(ctx):
            chunk_fn(chunk, params, groups, order)
        if not order:
            return [fin_fn(init_fn())] if self.global_group else []
        return [key + fin_fn(state) for key, state in order]


class SortNode(PlanNode):
    """ORDER BY: drains its child whole, then sorts only what is pulled.

    Under a row limit of ``k`` (``ctx.row_limit``: a LIMIT's ``limit +
    offset``, or what a streamed cursor's consumer said it takes), fewer
    than the input holds, a pull gets the *head*: the rows whose leading
    key is at or before the ``k``-th best one, ties included, in ORDER BY
    order. Every head key sorts strictly before every other row's, so
    head then rest is the whole sort, and the rest is sorted only if the
    consumer pulls again. A streamed cursor's priming pull (a row limit
    of 0) gets an empty chunk: the input is drained and the keys are
    evaluated, but nothing is sorted until the next pull's limit says how
    much to. Every key that can raise (any but a bare column) is
    evaluated over every row before any of this, as the whole sort does,
    so whether a statement fails does not hang on its LIMIT.
    """

    def __init__(self, child: PlanNode, keys: Sequence[tuple[Expr, bool]]):
        self.child = child
        self.keys = keys  # (expression, ascending) in ORDER BY order
        self.layout = child.layout
        for expr, _ascending in keys:
            check_scalar(expr, self.layout)

    @cached_property
    def _key_programs(self) -> list[tuple[Callable, bool]]:
        return [
            (codegen.compile_sort_key(expr, self.layout), ascending)
            for expr, ascending in self.keys
        ]

    @cached_property
    def _fallible_keys(self) -> list[int]:
        """The positions of the keys after the first that can raise, last
        first: all but bare columns (a stored value always has a sort
        class)."""
        return [
            position
            for position in range(len(self.keys) - 1, 0, -1)
            if not isinstance(self.keys[position][0], (ColumnRef, planner.SlotRef))
        ]

    def describe(self) -> str:
        dirs = ", ".join("asc" if asc else "desc" for _expr, asc in self.keys)
        return f"Sort({dirs})"

    def batches(self, ctx: ExecContext) -> Iterator[list[tuple]]:
        rows: list[tuple] = []
        # Blocking: the input drains whole, whatever the parent needs.
        outer = ctx.row_budget
        ctx.row_budget = None
        for chunk in self.child.batches(ctx):
            rows.extend(chunk)
        ctx.row_budget = outer
        if not rows:
            return
        params = ctx.params
        limit = self._limit(ctx)
        if limit is None or limit >= len(rows):
            yield self._ordered(rows, params)
            return
        programs = self._key_programs
        # Raises here if the whole sort would.
        known = {at: programs[at][0](rows, params) for at in self._fallible_keys}
        program, ascending = programs[0]
        lead = known[0] = program(rows, params)
        if limit == 0:
            yield []  # pinned; a layer that drops it pulls on with no limit
            limit = self._limit(ctx) or None
            if limit is None or limit >= len(rows):
                yield self._ordered(rows, params, known)
                return
        best = heapq.nsmallest if ascending else heapq.nlargest
        bound = best(limit, lead)[-1]
        in_head = list(map(bound.__ge__ if ascending else bound.__le__, lead))
        head = list(compress(rows, in_head))
        yield self._ordered(head, params, {0: list(compress(lead, in_head))})
        in_rest = list(map(not_, in_head))
        rest = list(compress(rows, in_rest))
        if rest:
            yield self._ordered(rest, params, {0: list(compress(lead, in_rest))})

    @staticmethod
    def _limit(ctx: ExecContext) -> int | None:
        """The most rows this pull's consumer takes; None for a drain above
        (no row budget), which takes every row whatever LIMIT is further
        up."""
        return None if ctx.row_budget is None else ctx.row_limit

    def _ordered(
        self, rows: list[tuple], params: Sequence[Any], known: dict | None = None
    ) -> list[tuple]:
        """``rows`` in ORDER BY order, given the key lists ``known`` (key
        position -> each row's key) already evaluated over them.

        Stable multi-key sort: one pass per key, last to first, each
        ordering positions by that key's (class, value) pairs.
        """
        order: Iterable[int] = range(len(rows))
        for at in range(len(self.keys) - 1, -1, -1):
            program, ascending = self._key_programs[at]
            keys = known.get(at) if known else None
            if keys is None:
                keys = program(rows, params)
            order = sorted(order, key=keys.__getitem__, reverse=not ascending)
        return [rows[i] for i in order]


class ProjectNode(PlanNode):
    def __init__(self, child: PlanNode, exprs: Sequence[Expr], names: list[str]):
        self.child = child
        self.exprs = exprs
        self.names = names
        for expr in exprs:
            check_scalar(expr, child.layout)
        self.layout = Layout()
        for name in names:
            try:
                self.layout.add(None, name)
            except PlanningError:
                # Duplicate output names are legal in SQL; keep positional.
                self.layout.add(None, f"{name}#{len(self.layout)}")

    @cached_property
    def _project(self) -> Callable:
        return codegen.compile_projection_batch(self.exprs, self.child.layout)

    def describe(self) -> str:
        return f"Project({', '.join(self.names)})"

    def batches(self, ctx: ExecContext) -> Iterator[list[tuple]]:
        project = self._project
        params = ctx.params
        for chunk in self.child.batches(ctx):
            yield project(chunk, params)


class DistinctNode(PlanNode):
    def __init__(self, child: PlanNode):
        self.child = child
        self.layout = child.layout

    def describe(self) -> str:
        return "Distinct"

    def batches(self, ctx: ExecContext) -> Iterator[list[tuple]]:
        seen: set[tuple] = set()
        add = seen.add
        for chunk in self.child.batches(ctx):
            out = []
            for row in chunk:
                key = index_key(row)
                if key not in seen:
                    add(key)
                    out.append(row)
            if out:
                yield out


class LimitNode(PlanNode):
    def __init__(self, child: PlanNode, limit: Expr | None, offset: Expr | None):
        self.child = child
        self.limit = limit
        self.offset = offset
        self.layout = child.layout
        for expr in (limit, offset):
            if expr is not None:
                check_scalar(expr, planner.NO_COLUMNS)

    def describe(self) -> str:
        return "Limit"

    def batches(self, ctx: ExecContext) -> Iterator[list[tuple]]:
        limit, offset = limit_and_offset(self.limit, self.offset, ctx.params)
        if limit == 0:
            return
        to_skip = offset
        #: Input rows still wanted (skipped ones included); None = all.
        need = None if limit is None else limit + offset
        chunks = self.child.batches(ctx)
        # Handing the remaining need down as the row budget is what stops
        # the scans below right at the last wanted row, and as the row
        # limit what lets a sort below order only that many.
        outer = ctx.row_limit
        while need != 0:
            ctx.row_limit = need
            chunk = _pull(chunks, ctx, need)
            ctx.row_limit = outer
            if chunk is None:
                return
            if need is not None:
                if len(chunk) > need:
                    chunk = chunk[:need]
                need -= len(chunk)
            if to_skip:
                skipped = min(to_skip, len(chunk))
                to_skip -= skipped
                chunk = chunk[skipped:]
            if chunk:
                yield chunk


# ---------------------------------------------------------------------------
# The plan memo
# ---------------------------------------------------------------------------

#: Plans by ``(kind, statement text, catalog shape)``, dropped whole at the
#: limit. A plan is a function of that key alone — a scan names the index
#: it probes, and what a sharded plan gathers rides on its execution — so
#: every database of the process with the same catalog shape (a replay's
#: dev databases, shards, replicas) shares one plan per statement, as
#: :func:`~repro.db.sql.parser.parse_cached` shares parses.
_PLAN_MEMO_LIMIT = 1024
_plan_memo: dict[tuple, Any] = {}
#: Catalog descriptors -> ids (``Database.catalog_shape``); an id is never
#: reused, so dropping the table at the limit costs only misses.
_SHAPE_LIMIT = 1024
_shape_ids: dict[tuple, int] = {}
_next_shape_id = count(1)
#: The ``plan_cache_stats`` counters a lookup bumps: (hit, miss).
_COUNTERS = ("hits", "misses")
_DML_COUNTERS = ("dml_hits", "dml_misses")
_MISSING = object()


def catalog_shape_id(descriptor: tuple) -> int:
    """The id of a catalog descriptor: equal descriptors get equal ids."""
    shape = _shape_ids.get(descriptor)
    if shape is None:
        if len(_shape_ids) >= _SHAPE_LIMIT:
            _shape_ids.clear()
        shape = _shape_ids[descriptor] = next(_next_shape_id)
    return shape


def memo_plan(
    kind: str, sql: str | tuple | None, database: Any, build: Callable, *args: Any
) -> Any:
    """``build(*args)``, run once per ``(kind, sql, catalog shape)``.

    ``database`` is the one whose catalog keys the plan, and the lookup
    counts in its ``plan_cache_stats`` (``dml_*`` for kind ``"dml"``);
    None keys on the text alone and counts nowhere. ``sql`` is the
    statement text, or a tuple of it and what else the plan depends on.
    Without it — the inner SELECT of an INSERT ... SELECT has no text of
    its own — nothing is memoised.
    """
    if sql is None:
        return build(*args)
    key = (kind, sql, None if database is None else database.catalog_shape)
    plan = _plan_memo.get(key, _MISSING)
    if database is not None:
        counters = _DML_COUNTERS if kind == "dml" else _COUNTERS
        database.plan_cache_stats[counters[plan is _MISSING]] += 1
    if plan is _MISSING:
        plan = build(*args)
        if len(_plan_memo) >= _PLAN_MEMO_LIMIT:
            _plan_memo.clear()
        _plan_memo[key] = plan
    return plan


# ---------------------------------------------------------------------------
# SELECT planning
# ---------------------------------------------------------------------------


def build_select_plan(
    stmt: SelectStmt, database: "Database"
) -> tuple[PlanNode, list[str]]:
    if stmt.from_table is None:
        if stmt.joins:
            raise PlanningError("JOIN without FROM")
        return plan_projection(stmt, SingleRowNode())
    return plan_projection(stmt, build_from_where(stmt, database))


def _drain_rows(plan: PlanNode, ctx: ExecContext) -> list[tuple]:
    """Materialize a plan's full output, then close its read provenance.

    Under ``ctx.track_reads`` a table that was consulted but matched
    nothing still yields one null read record (Table 2's "Check if
    (U1, F2) exists" rows).
    """
    chunks = list(plan.batches(ctx))
    if len(chunks) == 1:
        rows = chunks[0]  # as is: a chunk may be shared, so never extended
    else:
        rows = list(chain.from_iterable(chunks))
    if ctx.track_reads:
        for table, count in sorted(ctx.read_counts.items()):
            if not count:
                ctx.txn.record_read(table, None, None, ctx.query_text)
    return rows


def _stream_rows(plan: PlanNode, ctx: ExecContext) -> Iterator[tuple]:
    """A plan's output one row at a time, for a streamed cursor.

    The row budget starts at one row and doubles per chunk up to the scan
    batch size: priming the cursor, ``first()`` or ``one()`` touch only
    the rows they hand out, while a consumer that keeps fetching soon
    gets whole batches — never buffering more than it has already taken.
    The first pull, the priming, has a row limit of 0: every scan still
    resolves its snapshot, but a sort, which drains its input to do so,
    sorts nothing yet and hands out an empty chunk, so the stream's first
    item is :data:`~repro.db.result.PINNED` instead of a row. Before its
    next pull the consumer may set the row limit to what it takes
    (``ResultSet.first``: 1, ``one``: 2), and a sort orders only those;
    otherwise a pull has none.
    """
    ctx.row_budget, ctx.row_limit = 1, 0
    for chunk in plan.batches(ctx):
        ctx.row_limit = None
        if not chunk:
            yield PINNED
        yield from chunk
        ctx.row_budget *= 2
        if ctx.batch_size and ctx.row_budget > ctx.batch_size:
            ctx.row_budget = ctx.batch_size


def build_from_where(stmt: SelectStmt, database: "Database") -> PlanNode:
    """The FROM/JOIN/WHERE portion of a SELECT plan (no projection).

    Returns a node producing fully filtered joined rows in the combined
    FROM layout.
    """
    refs = stmt.table_refs()
    bindings: list[tuple[str, str, TableSchema]] = []  # (binding, canonical, schema)
    seen_bindings: set[str] = set()
    for ref in refs:
        canonical = database.catalog.resolve(ref.table)
        schema = database.catalog.get(ref.table)
        binding = ref.binding
        if binding.lower() in seen_bindings:
            raise PlanningError(f"duplicate table binding {binding!r}")
        seen_bindings.add(binding.lower())
        bindings.append((binding, canonical, schema))

    full_layout = Layout()
    for binding, _canonical, schema in bindings:
        for column in schema.column_names:
            full_layout.add(binding, column)

    conjuncts = _where_conjuncts(stmt.where)
    consumed: set[int] = set()

    # Classify single-table conjuncts for pushdown (inner-join tables only;
    # pushing WHERE below a LEFT join's null-extended side changes results).
    left_join_bindings = {
        join.table.binding.lower() for join in stmt.joins if join.kind == "left"
    }
    pushed: dict[str, list[Expr]] = {}
    for i, conjunct in enumerate(conjuncts):
        used = planner.bindings_used(conjunct, full_layout)
        if used is not None and len(used) == 1:
            owner = next(iter(used))
            if owner not in left_join_bindings:
                pushed.setdefault(owner, []).append(conjunct)
                consumed.add(i)

    def make_scan(binding: str, canonical: str, schema: TableSchema) -> PlanNode:
        return _table_scan(
            database, binding, canonical, schema, pushed.get(binding.lower(), [])
        )

    binding0, canonical0, schema0 = bindings[0]
    plan: PlanNode = make_scan(binding0, canonical0, schema0)
    accumulated = {binding0.lower()}

    for join, (binding, canonical, schema) in zip(stmt.joins, bindings[1:]):
        right = make_scan(binding, canonical, schema)
        join_conjuncts: list[Expr] = []
        if join.on is not None:
            join_conjuncts.extend(split_conjuncts(join.on))
        if join.kind != "left":
            # WHERE conjuncts spanning exactly the joined tables can serve
            # as additional join predicates for inner joins.
            for i, conjunct in enumerate(conjuncts):
                if i in consumed:
                    continue
                used = planner.bindings_used(conjunct, full_layout)
                if (
                    used is not None
                    and binding.lower() in used
                    and used <= accumulated | {binding.lower()}
                ):
                    join_conjuncts.append(conjunct)
                    consumed.add(i)
        pairs, residual = planner.extract_equi_pairs(
            join_conjuncts, accumulated, {binding.lower()}, full_layout
        )
        # A cross join that gained equi keys from WHERE is an inner join.
        kind = "inner" if pairs and join.kind == "cross" else join.kind
        plan = HashJoinNode(
            plan,
            right,
            [l for l, _ in pairs],
            [r for _, r in pairs],
            conjoin(residual),
            kind,
        )
        accumulated.add(binding.lower())

    remaining = [c for i, c in enumerate(conjuncts) if i not in consumed]
    if remaining:
        merged = conjoin(remaining)
        plan = FilterNode(plan, merged, sql=merged.sql())

    return plan


def _where_conjuncts(where: Expr | None) -> list[Expr]:
    """A WHERE clause as constant-folded conjuncts, the TRUE ones dropped."""
    conjuncts = [planner.fold_constants(c) for c in split_conjuncts(where)]
    # A conjunct folded to TRUE filters nothing; drop it entirely.
    return [
        c
        for c in conjuncts
        if not (isinstance(c, Literal) and c.value is True)
    ]


def _table_scan(
    database: "Database",
    binding: str,
    canonical: str,
    schema: TableSchema,
    own_conjuncts: list[Expr],
) -> ScanNode:
    """The access path for one table: probe choice plus pushed-down filter.

    ``own_conjuncts`` are the WHERE conjuncts that reference this table
    alone. The one place a scan is planned — under a SELECT's joins and
    as the match phase of an UPDATE or DELETE.
    """
    probe = _find_probe(database, canonical, schema, own_conjuncts)
    return ScanNode(canonical, binding, schema, own_conjuncts, probe)


def _find_probe(
    database: "Database",
    canonical: str,
    schema: TableSchema,
    own_conjuncts: list[Expr],
) -> Probe | None:
    """Choose an index access path from the pushed-down conjuncts.

    Equality conjuncts binding a hash index's columns yield a hash probe
    (its key expressions in the index's column order); failing that,
    ``col IN (...)`` on a single-column hash index yields an IN probe,
    one bucket lookup per item; range conjuncts (<, <=, >, >=, BETWEEN)
    on a single-column sorted index yield a range probe (a missing bound
    is unbounded); failing that, a low and a high bound on an INTEGER or
    TIMESTAMP column with a single-column hash index yield a span probe,
    one bucket lookup per integer between them, which scans instead when
    its bounds are not finite numbers or span too many keys
    (:meth:`ScanNode._span_keys`). Keys, items and bounds are literals or
    parameters, evaluated per execution. The probe names its index, so
    the plan stays a function of the catalog, not of one database's
    storage.

    Probes apply at every isolation level. Shared indexes hold the
    latest committed state, which is what a 2PL reader sees. A reader
    below it (a SNAPSHOT or READ_COMMITTED transaction that others
    committed past, or ``AS OF``) adds the rows that left their key over
    the index's columns after its snapshot
    (:meth:`Transaction.moved_since_snapshot`): a row whose old version
    matches either still has that key, and the index files it there, or
    was deleted or re-keyed since, and that list has it. Every candidate
    is read at the snapshot and re-checked by the pushed-down filter.
    """
    from repro.db.expr import Between, BinaryOp, ColumnRef, InList, Literal, Param
    from repro.db.index import SortedIndex

    eq_values: dict[str, Expr] = {}
    in_items: dict[str, tuple[Expr, ...]] = {}
    bounds: dict[str, dict[str, Expr]] = {}  # col -> {"low": e, "high": e}

    def note_bound(column: str, side: str, expr: Expr) -> None:
        bounds.setdefault(column, {}).setdefault(side, expr)

    for conjunct in own_conjuncts:
        if isinstance(conjunct, Between) and isinstance(
            conjunct.operand, ColumnRef
        ) and not conjunct.negated:
            column = conjunct.operand.column.lower()
            if (
                schema.has_column(column)
                and isinstance(conjunct.low, (Literal, Param))
                and isinstance(conjunct.high, (Literal, Param))
            ):
                note_bound(column, "low", conjunct.low)
                note_bound(column, "high", conjunct.high)
            continue
        if isinstance(conjunct, InList):
            if (
                not conjunct.negated
                and isinstance(conjunct.operand, ColumnRef)
                and schema.has_column(conjunct.operand.column)
                and all(isinstance(i, (Literal, Param)) for i in conjunct.items)
            ):
                in_items.setdefault(conjunct.operand.column.lower(), conjunct.items)
            continue
        if not isinstance(conjunct, BinaryOp):
            continue
        sides = [
            (conjunct.left, conjunct.right, conjunct.op),
            (conjunct.right, conjunct.left, _flip_cmp(conjunct.op)),
        ]
        for col_side, val_side, op in sides:
            if op is None:
                continue
            if not (
                isinstance(col_side, ColumnRef)
                and isinstance(val_side, (Literal, Param))
                and schema.has_column(col_side.column)
            ):
                continue
            column = col_side.column.lower()
            if op in ("=", "=="):
                eq_values.setdefault(column, val_side)
            elif op in ("<", "<="):
                note_bound(column, "high", val_side)
            elif op in (">", ">="):
                note_bound(column, "low", val_side)
            break

    if eq_values:
        index = database.index_set(canonical).equality_index_for(set(eq_values))
        if index is not None:
            keys = tuple(eq_values[c.lower()] for c in index.columns)
            return Probe("hash", index.name, index.columns, keys=keys)

    for column, items in in_items.items():
        index = database.index_set(canonical).equality_index_for({column})
        if index is not None:
            return Probe("in", index.name, index.columns, keys=items)

    for column, sides in bounds.items():
        for index in database.index_set(canonical).indexes.values():
            if (
                isinstance(index, SortedIndex)
                and len(index.columns) == 1
                and index.columns[0].lower() == column
            ):
                return Probe(
                    "sorted", index.name, index.columns,
                    low=sides.get("low"), high=sides.get("high"),
                )

    for column, sides in bounds.items():
        if len(sides) == 2 and schema.column(column).col_type in _SPAN_TYPES:
            index = database.index_set(canonical).equality_index_for({column})
            if index is not None:
                return Probe(
                    "span", index.name, index.columns,
                    low=sides["low"], high=sides["high"],
                )
    return None


def _flip_cmp(op: str) -> str | None:
    """Mirror a comparison when the column is on the right-hand side."""
    return {
        "=": "=", "==": "==", "<": ">", "<=": ">=", ">": "<", ">=": "<=",
    }.get(op)


def plan_projection(stmt: SelectStmt, plan: PlanNode) -> tuple[PlanNode, list[str]]:
    """Projection, aggregation, ORDER/DISTINCT/LIMIT on top of a row source."""
    input_layout = plan.layout
    # Expand stars into concrete expressions.
    proj: list[tuple[Expr, str]] = []
    for item in stmt.items:
        if item.star:
            qualifiers = (
                [item.star_qualifier]
                if item.star_qualifier
                else sorted(
                    input_layout.qualifiers(),
                    key=lambda q: min(
                        slot for _c, slot in input_layout.columns_of(q)
                    ),
                )
            )
            if not qualifiers and item.star_qualifier is None:
                raise PlanningError("SELECT * requires a FROM clause")
            for qualifier in qualifiers:
                columns = input_layout.columns_of(qualifier)
                if not columns:
                    raise PlanningError(f"unknown table alias {qualifier!r}")
                for column, _slot in columns:
                    proj.append((ColumnRef(column, qualifier=qualifier), column))
        else:
            name = item.alias or _default_name(item.expr)
            proj.append((item.expr, name))

    out_names = [name for _, name in proj]
    has_aggregates = bool(stmt.group_by) or any(
        planner.find_aggregates([e]) for e, _ in proj
    ) or (stmt.having is not None)

    if has_aggregates:
        # Sorting for aggregate queries happens inside, before projection.
        plan = _plan_aggregate(stmt, plan, proj)
        if stmt.distinct:
            plan = DistinctNode(plan)
        return _plan_limit(stmt, plan), out_names

    # Non-aggregate path: sort before projection when the ORDER BY
    # references input columns; otherwise after, by output names.
    order_keys = [(item.expr, item.ascending) for item in stmt.order_by]
    sort_first = (
        bool(order_keys)
        and not stmt.distinct
        and all(planner.resolves(expr, input_layout) for expr, _ in order_keys)
    )
    if sort_first:
        plan = SortNode(plan, order_keys)
    plan = ProjectNode(plan, [e for e, _ in proj], out_names)
    if stmt.distinct:
        plan = DistinctNode(plan)
    if order_keys and not sort_first:
        plan = SortNode(plan, order_keys)
    return _plan_limit(stmt, plan), out_names


def _plan_aggregate(
    stmt: SelectStmt, plan: PlanNode, proj: list[tuple[Expr, str]]
) -> PlanNode:
    group_exprs = list(stmt.group_by)
    group_slots = {e.sql(): i for i, e in enumerate(group_exprs)}
    all_exprs: list[Expr | None] = [e for e, _ in proj]
    all_exprs.append(stmt.having)
    all_exprs.extend(item.expr for item in stmt.order_by)
    aggregates = planner.find_aggregates(all_exprs)
    agg_slots = {
        agg.sql(): len(group_exprs) + i for i, agg in enumerate(aggregates)
    }
    plan = AggregateNode(plan, group_exprs, aggregates)

    if stmt.having is not None:
        plan = FilterNode(
            plan, planner.rewrite_aggregate_expr(stmt.having, group_slots, agg_slots)
        )

    out_exprs: list[Expr] = []
    alias_rewrites: dict[str, Expr] = {}
    for expr, name in proj:
        rewritten = planner.rewrite_aggregate_expr(expr, group_slots, agg_slots)
        alias_rewrites.setdefault(name.lower(), rewritten)
        out_exprs.append(rewritten)

    # ORDER BY for aggregate queries: rewrite over the agg row, then sort
    # before projection (so it may reference non-projected aggregates).
    # A bare column name that matches an output alias sorts by that output.
    if stmt.order_by:
        keys = []
        for item in stmt.order_by:
            if (
                isinstance(item.expr, ColumnRef)
                and item.expr.qualifier is None
                and item.expr.column.lower() in alias_rewrites
            ):
                rewritten = alias_rewrites[item.expr.column.lower()]
            else:
                rewritten = planner.rewrite_aggregate_expr(
                    item.expr, group_slots, agg_slots
                )
            keys.append((rewritten, item.ascending))
        plan = SortNode(plan, keys)

    return ProjectNode(plan, out_exprs, [name for _, name in proj])


def _plan_limit(stmt: SelectStmt, plan: PlanNode) -> PlanNode:
    if stmt.limit is None and stmt.offset is None:
        return plan
    return LimitNode(plan, stmt.limit, stmt.offset)


def _default_name(expr: Expr) -> str:
    if isinstance(expr, ColumnRef):
        return expr.column
    return expr.sql()


# ---------------------------------------------------------------------------
# Statement execution
# ---------------------------------------------------------------------------


def evaluate_as_of(stmt: SelectStmt, params: Sequence[Any]) -> int:
    """The CSN an ``AS OF`` clause pins this SELECT to.

    The clause is a literal or parameter; whatever it evaluates to must be
    a non-negative integer commit sequence number (integral floats are
    accepted the way shard-key routing accepts them).
    """
    assert stmt.as_of is not None
    value = evaluate_rowless(stmt.as_of, params)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return checked_count(value, "AS OF expects a non-negative integer CSN")


def execute_statement(
    database: "Database",
    txn: "Transaction",
    stmt: Statement,
    params: Sequence[Any],
    query_text: str,
    stream: bool = False,
) -> ResultSet:
    if stmt.param_count != len(params):
        raise ExecutionError(
            f"statement expects {stmt.param_count} parameter(s), "
            f"got {len(params)}"
        )
    if isinstance(stmt, SelectStmt):
        return _execute_select(database, txn, stmt, params, query_text, stream)
    if isinstance(stmt, InsertStmt):
        return _execute_insert(database, txn, stmt, params, query_text)
    if isinstance(stmt, UpdateStmt):
        return _execute_update(database, txn, stmt, params, query_text)
    if isinstance(stmt, DeleteStmt):
        return _execute_delete(database, txn, stmt, params, query_text)
    if isinstance(stmt, CreateTableStmt):
        return _execute_create_table(database, stmt, params)
    if isinstance(stmt, DropTableStmt):
        database.drop_table(stmt.name, if_exists=stmt.if_exists)
        return ResultSet(kind="ddl")
    if isinstance(stmt, CreateIndexStmt):
        database.create_index(
            stmt.name,
            stmt.table,
            stmt.columns,
            unique=stmt.unique,
            sorted_index=stmt.sorted_index,
        )
        return ResultSet(kind="ddl")
    if isinstance(stmt, DropIndexStmt):
        database.drop_index(stmt.name, stmt.table, if_exists=stmt.if_exists)
        return ResultSet(kind="ddl")
    raise ExecutionError(f"cannot execute {type(stmt).__name__}")  # pragma: no cover


def _execute_select(
    database: "Database",
    txn: "Transaction",
    stmt: SelectStmt,
    params: Sequence[Any],
    query_text: str,
    stream: bool = False,
) -> ResultSet:
    plan, out_names = memo_plan(
        "select", query_text or None, database, database.select_plan, stmt
    )
    ctx = ExecContext(
        database=database,
        txn=txn,
        params=params,
        query_text=query_text,
        track_reads=database.track_reads,
    )
    if stream:
        # Cursor streaming: hand the generator pipeline to the ResultSet
        # instead of draining it. The caller must prime() the result
        # while the transaction is live (Database.execute does, and asks
        # for a stream only with no statement trace to fill).
        return ResultSet(
            columns=out_names,
            kind="select",
            source=_stream_rows(plan, ctx),
            limit_rows=partial(setattr, ctx, "row_limit"),
        )
    return ResultSet(
        columns=out_names, rows=_drain_rows(plan, ctx), kind="select"
    )


def _execute_insert(
    database: "Database",
    txn: "Transaction",
    stmt: InsertStmt,
    params: Sequence[Any],
    query_text: str = "",
) -> ResultSet:
    def run_select(select: SelectStmt) -> tuple[list[str], Callable[[], list[tuple]]]:
        plan, names = database.select_plan(select)
        ctx = ExecContext(database, txn, params, query_text, database.track_reads)
        return names, partial(_drain_rows, plan, ctx)

    schema = database.catalog.get(stmt.table)
    row_ids = []
    for values in insert_rows(stmt, schema, params, run_select):
        row_ids.append(txn.insert(stmt.table, values))
    return ResultSet(kind="insert", rowcount=len(row_ids), row_ids=row_ids)


def insert_rows(
    stmt: InsertStmt,
    schema: TableSchema,
    params: Sequence[Any],
    run_select: Callable[[SelectStmt], tuple[list[str], Callable[[], list[tuple]]]],
) -> list[tuple]:
    """The rows an INSERT adds to ``schema``'s table, coerced, in order.

    VALUES rows are evaluated with ``params``; an ``INSERT ... SELECT``
    asks ``run_select`` for the inner SELECT's column names and a thunk
    that runs it, so the width is checked before anything is read. The
    SELECT's rows are all read before any is inserted: it may read the
    target table, and inserting while scanning would change what it sees.
    """
    columns = stmt.columns or list(schema.column_names)
    for column in columns:
        schema.column(column)  # validates existence
    if stmt.select is not None:
        if stmt.select.as_of is not None:
            raise ExecutionError(
                "AS OF is not supported inside INSERT ... SELECT; "
                "run the historical read separately"
            )
        names, read = run_select(stmt.select)
        if len(names) != len(columns):
            raise ExecutionError(
                f"INSERT ... SELECT supplies {len(names)} column(s) "
                f"for {len(columns)}"
            )
        return [schema.coerce_row(dict(zip(columns, row))) for row in read()]
    rows = []
    for row_exprs in stmt.rows:
        if len(row_exprs) != len(columns):
            raise ExecutionError(
                f"INSERT supplies {len(row_exprs)} values for "
                f"{len(columns)} column(s)"
            )
        rows.append(
            schema.coerce_row(
                {
                    column: evaluate_rowless(expr, params)
                    for column, expr in zip(columns, row_exprs)
                }
            )
        )
    return rows


class DmlNode(PlanNode):
    """An UPDATE or DELETE: its match-phase scan, and what to assign.

    The plan :meth:`Database.dml_plan` builds. ``child`` is the
    :class:`ScanNode` a SELECT with the same WHERE would run;
    ``assignments`` holds an UPDATE's ``(column, expression)`` pairs in
    SET order (none for a DELETE).
    """

    def __init__(
        self, kind: str, scan: ScanNode, assignments: Sequence[tuple[str, Expr]] = ()
    ):
        self.kind = kind
        self.child = scan
        self.layout = scan.layout
        self.assignments = assignments
        for column, expr in assignments:
            scan.schema.column(column)
            check_scalar(expr, self.layout)

    @cached_property
    def assign(self) -> Callable:
        """``(values, params) -> values`` with the SET list applied, each
        value as its column stores it (or the column's complaint)."""
        schema = self.child.schema
        return codegen.compile_assignment(
            [
                (
                    schema.index_of(column),
                    expr,
                    partial(schema.coerce_value, schema.column(column)),
                )
                for column, expr in self.assignments
            ],
            self.layout,
        )

    def describe(self) -> str:
        return f"{self.kind.capitalize()}({self.child.table})"


def build_dml_plan(stmt: UpdateStmt | DeleteStmt, database: "Database") -> DmlNode:
    """Plan the match phase (and assignments) of an UPDATE or DELETE.

    The single table owns every WHERE conjunct, so all of them are
    pushed into its scan and any of them may pick the index probe.
    """
    ref = stmt.table
    canonical = database.catalog.resolve(ref.table)
    schema = database.catalog.get(ref.table)
    scan = _table_scan(
        database, ref.binding, canonical, schema, _where_conjuncts(stmt.where)
    )
    if isinstance(stmt, DeleteStmt):
        return DmlNode("delete", scan)
    return DmlNode("update", scan, stmt.assignments)


def _match_rows(
    database: "Database",
    txn: "Transaction",
    stmt: UpdateStmt | DeleteStmt,
    params: Sequence[Any],
    query_text: str,
) -> tuple[DmlNode, list[tuple[int, tuple]]]:
    """The plan of an UPDATE or DELETE and every row it matches. Under
    ``database.track_reads`` a statement that matched nothing records one
    null read, as a SELECT does (:func:`_drain_rows`): the rows a write
    touched are its provenance, and an empty match still consulted its
    table."""
    plan = memo_plan("dml", query_text or None, database, database.dml_plan, stmt)
    ctx = ExecContext(
        database=database,
        txn=txn,
        params=params,
        query_text=query_text,
        track_reads=False,
    )
    matches = plan.child.match_pairs(ctx)
    if not matches and database.track_reads:
        txn.record_read(stmt.table.table, None, None, query_text)
    return plan, matches


def _execute_update(
    database: "Database",
    txn: "Transaction",
    stmt: UpdateStmt,
    params: Sequence[Any],
    query_text: str = "",
) -> ResultSet:
    plan, matches = _match_rows(database, txn, stmt, params, query_text)
    assign = plan.assign
    for row_id, values in matches:
        txn.update(stmt.table.table, row_id, assign(values, params))
    return ResultSet(
        kind="update",
        rowcount=len(matches),
        row_ids=[row_id for row_id, _ in matches],
    )


def _execute_delete(
    database: "Database",
    txn: "Transaction",
    stmt: DeleteStmt,
    params: Sequence[Any],
    query_text: str = "",
) -> ResultSet:
    _plan, matches = _match_rows(database, txn, stmt, params, query_text)
    row_ids = [row_id for row_id, _ in matches]
    for row_id in row_ids:
        txn.delete(stmt.table.table, row_id)
    return ResultSet(kind="delete", rowcount=len(row_ids), row_ids=row_ids)


def _execute_create_table(
    database: "Database", stmt: CreateTableStmt, params: Sequence[Any]
) -> ResultSet:
    if stmt.if_not_exists and database.catalog.has_table(stmt.name):
        return ResultSet(kind="ddl")
    table_pk = {c.lower() for c in (stmt.primary_key or [])}
    columns = []
    for cdef in stmt.columns:
        default = None
        if cdef.default is not None:
            default = evaluate_rowless(cdef.default, params)
        is_pk = cdef.primary_key or cdef.name.lower() in table_pk
        columns.append(
            Column(
                name=cdef.name,
                col_type=type_from_sql_name(cdef.type_name),
                nullable=not (cdef.not_null or is_pk),
                primary_key=is_pk,
                unique=cdef.unique,
                default=default,
            )
        )
    known = {c.name.lower() for c in columns}
    for pk_col in table_pk:
        if pk_col not in known:
            raise SchemaError(f"PRIMARY KEY references unknown column {pk_col!r}")
    schema = TableSchema(stmt.name, columns, unique_constraints=stmt.unique_constraints)
    database.create_table(schema)
    return ResultSet(kind="ddl")
