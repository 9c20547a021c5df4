"""Hash-sharded execution across multiple database stores.

The ROADMAP's scale-out lever: a table's rows are hash-partitioned by a
key column across N :class:`~repro.db.database.Database` instances, and a
:class:`ShardedDatabase` facade speaks the same ``execute(sql)`` API as a
single database. The pieces:

* :class:`ShardRouter` — owns the partitioning function: a stable hash of
  the shard-key value picks the owning store, and WHERE conjuncts that pin
  the key (``k = ?`` / ``k IN (...)``) prune the scatter set down to the
  owning shards (scatter-gather point lookups).
* SELECT — one plan tree (:func:`plan_sharded_select`), memoised like any
  other and printed by EXPLAIN as it runs: the coordinator's projection /
  aggregation / ORDER / LIMIT over an :class:`Exchange`, which runs the
  FROM/JOIN/WHERE portion on each target shard (index probes and
  predicate pushdown all still apply per shard) and hands their rows up.
  Decomposable aggregates (COUNT/SUM/MIN/MAX/AVG without DISTINCT) run
  as partial aggregates under the exchange and combine above it; a join
  keeps its largest table partitioned and reads the others through a
  :class:`BroadcastExchange`, so the join itself executes shard-locally.
* Writes — DML routes to the owning shard by key; any statement (or
  explicit transaction) touching several shards commits through the
  existing two-phase commit in :class:`~repro.db.multistore.
  MultiStoreCoordinator`, so atomicity and the aligned commit log come
  for free. That aligned log is what keeps ``SELECT ... AS OF`` and
  provenance replay working: a global CSN translates onto per-shard local
  CSNs (:meth:`~repro.db.multistore.MultiStoreCoordinator.local_csns_at`).
"""

from __future__ import annotations

import zlib
from functools import partial
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from repro.db.database import Database, check_read_preference
from repro.db.expr import (
    BinaryOp,
    Case,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Literal,
    Param,
    split_conjuncts,
)
from repro.db.multistore import GlobalTransaction, MultiStoreCoordinator
from repro.faults import active as faults_active
from repro.db.replication import ReplicaSet
from repro.db.result import ResultSet
from repro.db.schema import TableSchema
from repro.db.sql import planner
from repro.db.sql.executor import (
    ExecContext,
    HashJoinNode,
    LimitNode,
    PlanNode,
    ScanNode,
    _drain_rows,
    build_from_where,
    build_select_plan,
    catalog_shape_id,
    evaluate_as_of,
    insert_rows,
    memo_plan,
    plan_projection,
)
from repro.db.sql.nodes import (
    CreateIndexStmt,
    CreateTableStmt,
    DeleteStmt,
    DropIndexStmt,
    DropTableStmt,
    InsertStmt,
    OrderItem,
    SelectItem,
    SelectStmt,
    Statement,
    UpdateStmt,
)
from repro.db.sql.parser import parse_cached
from repro.db.sql.planner import evaluate_rowless, limit_and_offset
from repro.db.txn.manager import IsolationLevel, Transaction
from repro.db.types import coerce
from repro.errors import (
    ExecutionError,
    ReplicationError,
    SchemaError,
    TimeTravelError,
    TransactionError,
    TypeCoercionError,
)
from repro.runtime.scheduler import CheckpointKind, maybe_checkpoint

#: Cooperative-wait bound for the reshard write fence: a parked writer
#: yields this many times before concluding the migration is stuck.
_FENCE_MAX_SPINS = 100_000

#: store-name -> branch transaction, supplied lazily so read-only
#: statements only join the shards they actually touch.
TxnGetter = Callable[[str], Transaction]

#: (store-name, shard-local AS-OF csn or None for a live read) -> the
#: database that serves that shard's part of one routed SELECT.
ReadTarget = Callable[[str, int | None], Database]


def stable_hash(value: Any) -> int:
    """Process-independent hash of a shard-key value.

    Python's builtin ``hash`` is salted per process for strings, which
    would scatter the same key to different shards across restarts (and
    break replaying a WAL into a fresh cluster). Integer-valued floats
    hash like the integer so a key routes identically whichever numeric
    type the client handed us.
    """
    if value is None:
        data = b"\x00"
    elif isinstance(value, bool):
        data = b"b1" if value else b"b0"
    elif isinstance(value, int):
        data = b"i%d" % value
    elif isinstance(value, float) and value.is_integer():
        data = b"i%d" % int(value)
    elif isinstance(value, float):
        data = b"f" + repr(value).encode()
    else:
        data = b"s" + str(value).encode("utf-8", "replace")
    return zlib.crc32(data)


class ShardRouter:
    """Maps rows to owning shards by hashing a per-table key column."""

    def __init__(self, shard_names: Sequence[str]):
        if not shard_names:
            raise SchemaError("router needs at least one shard")
        self.shard_names = list(shard_names)
        self._keys: dict[str, str] = {}  # canonical table -> key column (lower)

    def register_table(self, table: str, key_column: str) -> None:
        self._keys.setdefault(table.lower(), key_column.lower())

    def unregister_table(self, table: str) -> None:
        self._keys.pop(table.lower(), None)

    def key_column(self, table: str) -> str | None:
        return self._keys.get(table.lower())

    def shard_for_value(self, key_value: Any) -> str:
        return self.shard_names[stable_hash(key_value) % len(self.shard_names)]

    def shard_for_row(self, table: str, schema: TableSchema, row: tuple) -> str:
        key_col = self._keys[table.lower()]
        return self.shard_for_value(row[schema.index_of(key_col)])

    def routed_shards(
        self,
        table: str,
        schema: TableSchema,
        conjuncts: Sequence[Expr],
        params: Sequence[Any],
        binding: str | None = None,
        ambiguous: bool = False,
    ) -> list[str]:
        """Owning shards for a statement, pruned via key-pinning conjuncts.

        An AND-ed conjunct of the form ``key = <const>`` or ``key IN
        (<consts>)`` restricts the statement to the shards owning those
        key values; anything else fans out to every shard. Constants are
        coerced to the key column's type first so ``id = 5`` and an
        inserted ``5.0`` route identically.

        In a join, pass ``binding`` (the partitioned table's alias) and
        ``ambiguous`` (True when another joined table also has a column
        named like the key): pins then only count when they demonstrably
        reference the partitioned table.
        """
        key_col = self._keys.get(table.lower())
        if key_col is None:
            return list(self.shard_names)
        col_type = schema.column(key_col).col_type
        for conjunct in conjuncts:
            exprs = _key_pinning_exprs(conjunct, key_col, binding, ambiguous)
            if exprs is None:
                continue
            try:
                values = [
                    coerce(evaluate_rowless(e, params), col_type) for e in exprs
                ]
            except (TypeCoercionError, ExecutionError):
                # Un-coercible, or unbound (EXPLAIN takes no parameters):
                # cannot prune safely.
                continue
            # NULL never equals anything, so NULL pins contribute no
            # owners; ``IN (1, NULL)`` must still visit 1's shard.
            non_null = [v for v in values if v is not None]
            if not non_null:
                # ``key = NULL`` matches nothing; any one shard can
                # faithfully produce the empty result.
                return [self.shard_names[0]]
            owners = {self.shard_for_value(v) for v in non_null}
            return [n for n in self.shard_names if n in owners]
        return list(self.shard_names)


def _is_key_ref(
    expr: Expr, key_col: str, binding: str | None, ambiguous: bool
) -> bool:
    """Does ``expr`` reference the shard-key column of the routed table?

    With ``binding`` set (join context), a qualified reference must use
    that binding, and an unqualified one only counts when no other
    joined table shares the column name.
    """
    if not (isinstance(expr, ColumnRef) and expr.column.lower() == key_col):
        return False
    if expr.qualifier is not None:
        return binding is None or expr.qualifier.lower() == binding
    return not ambiguous


def _key_pinning_exprs(
    conjunct: Expr,
    key_col: str,
    binding: str | None = None,
    ambiguous: bool = False,
) -> list[Expr] | None:
    """The constant expressions a conjunct pins the shard key to, if any."""
    if isinstance(conjunct, BinaryOp) and conjunct.op in ("=", "=="):
        sides = [(conjunct.left, conjunct.right), (conjunct.right, conjunct.left)]
        for col_side, val_side in sides:
            if _is_key_ref(col_side, key_col, binding, ambiguous) and isinstance(
                val_side, (Literal, Param)
            ):
                return [val_side]
        return None
    if (
        isinstance(conjunct, InList)
        and not conjunct.negated
        and _is_key_ref(conjunct.operand, key_col, binding, ambiguous)
        and all(isinstance(item, (Literal, Param)) for item in conjunct.items)
    ):
        return list(conjunct.items)
    return None


class ShardContext(NamedTuple):
    """One sharded SELECT's execution, as its exchanges see it."""

    cluster: "ShardedDatabase"
    #: store -> the statement's branch on the database serving it (None
    #: for EXPLAIN, which begins none).
    txn: TxnGetter | None
    #: store -> the database serving it (asked once per shard per statement).
    database: Callable[[str], Database]
    #: table -> its rows from every shard, gathered for a broadcast join side.
    broadcast: dict[str, list[tuple]]


def _exchange_line(depth: int, targets: Sequence[str], note: str = "") -> str:
    return "  " * depth + f"Exchange({note}targets=[{', '.join(targets)}])"


class Exchange(PlanNode):
    """Where a sharded plan leaves the coordinator: the rows of ``stmt``'s
    shard side from every shard it targets, in target order.

    ``stmt`` is what a shard runs — the statement's FROM/JOIN/WHERE, or
    the whole partial aggregate of :func:`decompose_aggregate_stmt`. Each
    execution picks its targets from its parameters
    (:meth:`ShardRouter.routed_shards`) and plans a shard's side under the
    catalog of the database serving it, so a replica a DDL behind gets its
    own plan. A join keeps its largest table partitioned (a LEFT join its
    FROM table, whose rows must each appear once for null extension) and
    gathers the others whole, once per execution and before any shard
    runs, for a :class:`BroadcastExchange` to serve to every shard.

    A shard runs whole (``batch_size=0``), records its null reads and
    reports to its observers before the next one begins: it holds table
    locks, and a scheduler yield there could let a 2PC writer close a lock
    cycle across shards that no shard's deadlock detector sees. Every
    target runs before the first batch leaves, so a consumer that stops
    early leaves no traced shard unread — unless ``cap`` holds the LIMIT
    and OFFSET of a single-table statement the coordinator only projects:
    then no shard begins once ``limit + offset`` rows came back, and an
    untraced, unobserved shard stops at the rows still needed.
    """

    def __init__(
        self,
        stmt: SelectStmt,
        tables: list[tuple[str, str, TableSchema]],
        database: Database,
        partial: bool = False,
    ):
        self.stmt = stmt
        #: ``(binding, canonical name, schema)`` per FROM table, the
        #: binding lowercase.
        self.tables = tables
        self.conjuncts = split_conjuncts(stmt.where)
        self.partial = partial
        self.cap: tuple[Expr, Expr | None] | None = None
        self.layout = self._plan_shard(database, tables[0][0]).layout

    def explain(self, depth: int = 0, ctx: ExecContext | None = None) -> list[str]:
        shards = ctx.shards
        part = self._partitioned(shards.cluster)
        targets = self._targets(shards.cluster, part, ctx.params)
        plan = self._shard_plan(shards.database(targets[0]), part, ctx.query_text)
        note = "capped, " if self.cap is not None else ""
        return [_exchange_line(depth, targets, note), *plan.explain(depth + 1, ctx)]

    def batches(self, ctx: ExecContext) -> Iterator[list[tuple]]:
        shards, params = ctx.shards, ctx.params
        cluster = shards.cluster
        part = self._partitioned(cluster)
        targets = self._targets(cluster, part, params)
        cluster._note_targets(targets)
        if self.partial:
            cluster.stats["partial_agg_queries"] += 1
        if len(self.tables) > 1:
            cluster.stats["broadcast_joins"] += 1
            self._gather(shards, part, ctx.query_text)
        cap = None
        if self.cap is not None:
            limit, offset = limit_and_offset(*self.cap, params)
            if limit is not None:
                cap = limit + offset
                cluster.stats["limit_pushdown_queries"] += 1
        gathered: list[list[tuple]] = []
        produced = 0
        for position, store in enumerate(targets):
            if cap is not None and produced >= cap:
                # Satisfied: the remaining shards are never begun.
                cluster.stats["limit_shards_skipped"] += len(targets) - position
                break
            rows = self._run(ctx, store, part, None if cap is None else cap - produced)
            produced += len(rows)
            gathered.append(rows)
        for rows in gathered:
            if rows:
                yield rows

    def _run(
        self, ctx: ExecContext, store: str, part: str, cap: int | None
    ) -> list[tuple]:
        """One shard's rows; ``cap`` bounds them unless the shard takes
        ``statement_executed``, whose trace sees it all."""
        shards, sql = ctx.shards, ctx.query_text
        database, branch = shards.database(store), shards.txn(store)
        plan = self._shard_plan(database, part, sql)
        observed = database.track_reads
        if cap is not None and not observed:
            plan = LimitNode(plan, Literal(cap), None)
        rows = _drain_rows(plan, ExecContext(
            database, branch, ctx.params, sql, observed, batch_size=0, shards=shards,
        ))
        if observed:
            # TROD interposition parity: each shard's subscribers see the
            # statement trace for the work executed on that shard.
            database.report_statement(branch, sql, "select", len(rows))
        return rows

    def _shard_plan(self, database: Database, part: str, sql: str) -> PlanNode:
        """What a shard runs, memoised per catalog and partitioned binding."""
        key = (sql, part) if sql else None
        return memo_plan("shard", key, database, self._plan_shard, database, part)

    def _plan_shard(self, database: Database, part: str) -> PlanNode:
        if self.partial:
            return database.select_plan(self.stmt)[0]
        plan = build_from_where(self.stmt, database)
        return _broadcast_sides(plan, part) if len(self.tables) > 1 else plan

    def _partitioned(self, cluster: "ShardedDatabase") -> str:
        """The binding that stays partitioned; every other one broadcasts."""
        if len(self.tables) == 1 or any(j.kind == "left" for j in self.stmt.joins):
            return self.tables[0][0]

        def total_rows(table: tuple[str, str, TableSchema]) -> int:
            return sum(shard.store(table[1]).row_count(None) for shard in cluster.shards)

        return max(self.tables, key=total_rows)[0]

    def _targets(
        self, cluster: "ShardedDatabase", part: str, params: Sequence[Any]
    ) -> list[str]:
        """The shards whose partition of the partitioned table is read.

        A pin counts only when it names that table's key: qualified by its
        binding, or unqualified when no other table has a column so named.
        """
        _binding, table, schema = next(t for t in self.tables if t[0] == part)
        key = cluster.router.key_column(table)
        ambiguous = key is not None and any(
            binding != part and other.has_column(key)
            for binding, _table, other in self.tables
        )
        return cluster.router.routed_shards(
            table, schema, self.conjuncts, params, binding=part, ambiguous=ambiguous
        )

    def _gather(self, shards: ShardContext, part: str, sql: str) -> None:
        """Read each broadcast table from every shard into ``shards``.

        Under the statement's own branches, so a join sees its global
        transaction's writes. The reads are recorded here, each row once
        on its owning shard however many local joins it feeds, and an
        empty table as a null read (Table 2's consulted-but-empty rows).
        """
        for binding, table, _schema in self.tables:
            if binding == part or table in shards.broadcast:
                continue
            rows = shards.broadcast[table] = []
            for store in shards.cluster.store_names:
                branch = shards.txn(store)
                pairs = list(branch.scan(table))
                rows += [values for _row_id, values in pairs]
                if shards.database(store).track_reads:
                    branch.record_reads(table, pairs or [(None, None)], sql)


class BroadcastExchange(PlanNode):
    """A join side every shard sees whole: its table as :class:`Exchange`
    gathered it from every shard for this execution, through the filter
    pushed into ``child`` — the scan it stands in for."""

    def __init__(self, scan: ScanNode):
        scan.probe = None  # the gather reads the whole table
        self.child = scan
        self.layout = scan.layout

    def explain(self, depth: int = 0, ctx: ExecContext | None = None) -> list[str]:
        line = _exchange_line(depth, ctx.shards.cluster.store_names, "broadcast, ")
        return [line, *self.child.explain(depth + 1, ctx)]

    def batches(self, ctx: ExecContext) -> Iterator[list[tuple]]:
        rows = ctx.shards.broadcast[self.child.table]
        keep = self.child._keep_values
        if keep is not None:
            rows = keep(rows, ctx.params)
        if rows:
            yield rows


def _broadcast_sides(node: PlanNode, part: str) -> PlanNode:
    """A join plan with every scan but the partitioned binding's broadcast."""
    if isinstance(node, ScanNode):
        return node if node.binding.lower() == part else BroadcastExchange(node)
    if isinstance(node, HashJoinNode):
        node.left = _broadcast_sides(node.left, part)
        node.right = _broadcast_sides(node.right, part)
    else:
        node.child = _broadcast_sides(node.child, part)
    return node


def plan_sharded_select(
    stmt: SelectStmt, database: Database
) -> tuple[PlanNode, list[str]]:
    """A sharded SELECT's plan over ``database``'s catalog, with its column
    names: the coordinator's operators over an :class:`Exchange`.

    A decomposable aggregate combines the partial rows its shards compute;
    any other statement projects, aggregates, sorts and limits the rows
    its shards join and filter. A FROM-less SELECT reads no shard.
    """
    if stmt.from_table is None:
        return build_select_plan(stmt, database)
    tables = [
        (ref.binding.lower(), database.catalog.resolve(ref.table), database.catalog.get(ref.table))
        for ref in stmt.table_refs()
    ]
    split = decompose_aggregate_stmt(stmt)
    if split is None:
        exchange = Exchange(stmt, tables, database)
    else:
        exchange = Exchange(split[0], tables, database, partial=True)
        stmt = split[1]
    plan, names = plan_projection(stmt, exchange)
    if len(tables) == 1 and isinstance(plan, LimitNode) and plan.child.child is exchange:
        # A LIMIT over rows the coordinator only projects caps the gather.
        exchange.cap = (plan.limit, plan.offset)
    return plan, names


#: Aggregates with a partial/final decomposition (DISTINCT forms excluded).
_COMBINE_NAMES = {"COUNT": "SUM", "SUM": "SUM", "MIN": "MIN", "MAX": "MAX"}


def decompose_aggregate_stmt(stmt: SelectStmt) -> tuple[SelectStmt, SelectStmt] | None:
    """Split a single-table aggregate SELECT into partial and final stages.

    The partial statement runs on every target shard (grouping locally and
    computing per-shard partial aggregates); the final statement re-groups
    the partial rows at the coordinator using combine aggregates:
    ``COUNT -> SUM of counts``, ``SUM -> SUM``, ``MIN/MAX -> MIN/MAX``,
    ``AVG -> SUM of sums / SUM of counts``. Returns None when the query
    has no aggregation or is not decomposable (DISTINCT aggregates). The
    split is syntactic: it reads no catalog.
    """
    if stmt.joins or stmt.from_table is None:
        return None
    if any(item.star for item in stmt.items):
        return None  # star projections never aggregate
    exprs: list[Expr | None] = [item.expr for item in stmt.items]
    exprs.append(stmt.having)
    exprs.extend(item.expr for item in stmt.order_by)
    aggregates = planner.find_aggregates(exprs)
    if not aggregates and not stmt.group_by:
        return None
    if any(agg.distinct for agg in aggregates):
        return None

    group_exprs = list(stmt.group_by)
    partial_items: list[SelectItem] = []
    mapping: dict[str, Expr] = {}
    for i, group_expr in enumerate(group_exprs):
        name = f"_g{i}"
        partial_items.append(SelectItem(expr=group_expr, alias=name))
        mapping[group_expr.sql()] = ColumnRef(name)

    counter = 0

    def partial_column(expr: Expr) -> ColumnRef:
        nonlocal counter
        name = f"_p{counter}"
        counter += 1
        partial_items.append(SelectItem(expr=expr, alias=name))
        return ColumnRef(name)

    for agg in aggregates:
        key = agg.sql()
        if agg.name == "AVG":
            arg = agg.args[0]
            total = FuncCall("SUM", [partial_column(FuncCall("SUM", [arg]))])
            count = FuncCall("SUM", [partial_column(FuncCall("COUNT", [arg]))])
            # AVG over zero non-null inputs is NULL; guard the division.
            # The 1.0 factor forces float division: SQL "/" keeps exact
            # int/int results integral, but native AVG always divides to
            # a float.
            mapping[key] = Case(
                [(IsNull(total), Literal(None))],
                BinaryOp("/", BinaryOp("*", Literal(1.0), total), count),
            )
        else:
            combine = _COMBINE_NAMES[agg.name]
            mapping[key] = FuncCall(combine, [partial_column(agg)])

    partial_stmt = SelectStmt(
        items=partial_items,
        from_table=stmt.from_table,
        where=stmt.where,
        group_by=group_exprs,
        param_count=stmt.param_count,
    )
    final_stmt = SelectStmt(
        items=[
            SelectItem(
                expr=planner.substitute_by_sql(item.expr, mapping),
                alias=item.alias or _output_name(item.expr),
            )
            for item in stmt.items
        ],
        distinct=stmt.distinct,
        group_by=[ColumnRef(f"_g{i}") for i in range(len(group_exprs))],
        having=(
            planner.substitute_by_sql(stmt.having, mapping)
            if stmt.having is not None
            else None
        ),
        order_by=[
            OrderItem(planner.substitute_by_sql(item.expr, mapping), item.ascending)
            for item in stmt.order_by
        ],
        limit=stmt.limit,
        offset=stmt.offset,
        param_count=stmt.param_count,
    )
    return partial_stmt, final_stmt


def _output_name(expr: Expr) -> str:
    return expr.column if isinstance(expr, ColumnRef) else expr.sql()


def _require_shard_key(key: str, columns: Sequence[str], what: str) -> None:
    """Refuse a unique column set that leaves out the shard key.

    Uniqueness is enforced per shard by local indexes, so a UNIQUE or
    PRIMARY KEY constraint, or a unique index, holds cluster-wide only
    when the shard key is one of its columns (all candidate duplicates
    then hash to the same shard). Anything else is rejected up front
    rather than silently accepting cross-shard duplicates.
    """
    if key not in {column.lower() for column in columns}:
        raise SchemaError(
            f"{what}({', '.join(columns)}) does not include the shard key "
            f"{key!r}; per-shard indexes cannot enforce it across shards"
        )


class ShardedDatabase:
    """N hash-partitioned stores behind a single-database ``execute`` API.

    DDL applies to every shard (so schemas and indexes stay uniform); DML
    routes by shard key and commits through 2PC when it spans shards; a
    SELECT's plan reads the owning shards through its exchanges.
    """

    def __init__(
        self,
        n_shards: int = 4,
        name: str = "sharded",
        shard_keys: dict[str, str] | None = None,
        databases: Sequence[Database] | None = None,
        decision_log: "str | None" = None,
    ):
        if databases is not None:
            shards = list(databases)
        else:
            if n_shards < 1:
                raise SchemaError("a sharded database needs at least one shard")
            shards = [Database(name=f"{name}-shard{i}") for i in range(n_shards)]
        self.name = name
        #: The one shard map (``coordinator.stores``, in shard order).
        #: ``decision_log`` names a JSONL file for the coordinator's 2PC
        #: decision log — pass the same path on reopen and
        #: :meth:`recover_in_doubt` resolves crashed-mid-commit branches.
        self.coordinator = MultiStoreCoordinator(
            {f"shard{i}": shard for i, shard in enumerate(shards)},
            decision_log=decision_log,
        )
        self.router = ShardRouter(self.store_names)
        #: Explicit shard-key choices (table -> column), consulted before
        #: falling back to the primary key / first column at CREATE TABLE.
        self._shard_key_hints = {
            k.lower(): v.lower() for k, v in (shard_keys or {}).items()
        }
        #: Per-shard replica sets (``attach_replicas``); :meth:`execute_read`
        #: then serves each shard's reads from its set's read target while
        #: DML and 2PC stay on the primaries.
        self.replica_sets: dict[str, ReplicaSet] = {}
        #: What :meth:`add_observer` subscribed, for a reshard's new shards.
        self._observers: list[Any] = []
        #: Online-resharding state. While a migration's brief write fence
        #: is up, new write transactions park in a cooperative wait until
        #: the topology swap completes; ``reshard_horizon`` is the global
        #: CSN of the synthetic aligned commit stamped at the swap —
        #: AS-OF reads below it would need the departed stores.
        self._write_fence = False
        self._active_gtxns = 0
        self._resharding = False
        self.reshard_horizon = 0
        if databases is not None:
            self._adopt_existing_tables()
        #: Counters for the distributed execution paths. Global 2PC
        #: commit counts live on the coordinator (``global_csn`` /
        #: ``len(aligned_log)``), not here.
        self.stats = {
            "routed_statements": 0,  # pruned to a strict shard subset
            "fanout_statements": 0,  # hit every shard
            "partial_agg_queries": 0,
            "broadcast_joins": 0,
            # LIMIT short-circuit: queries that capped per-shard scans,
            # and shards never drained (or begun) because earlier targets
            # already satisfied the limit.
            "limit_pushdown_queries": 0,
            "limit_shards_skipped": 0,
            # Failover retries burned by connections routed through this
            # cluster (mirrored here by Connection._retry_routed so the
            # cluster-wide robustness surface sees them).
            "failover_retries": 0,
        }

    # -- plumbing -----------------------------------------------------------

    def _adopt_existing_tables(self) -> None:
        """Register tables already present on adopted databases.

        ``databases=`` hands the facade pre-built stores; their catalogs
        must agree (DDL keeps them uniform from here on) and every table
        needs a shard key before any statement can route.
        """
        db0 = self._first_shard
        for store, shard in self.named_shards():
            if shard.catalog_shape != db0.catalog_shape:
                raise SchemaError(
                    f"adopted store {store} diverges from shard0's schema "
                    "(tables, column layouts, indexes and aliases must be "
                    "uniform across shards)"
                )
        for table in sorted(map(db0.catalog.resolve, db0.catalog.table_names())):
            schema = db0.catalog.get(table)
            self._register_shard_key(schema, None)
            # Adopted unique indexes obey the DDL path's rule.
            key_col = self.router.key_column(table)
            for index_name, index in db0.index_set(table).indexes.items():
                if getattr(index, "unique", False):
                    _require_shard_key(
                        key_col,
                        index.columns,
                        f"adopted unique index {index_name} on {table}",
                    )
            # Pre-existing rows must already sit on their hash owner:
            # data loaded under a different shard count, order, or
            # placement scheme would silently dodge key-routed reads
            # and DML.
            for store, shard in self.named_shards():
                for _row_id, values in shard.store(table).scan(None):
                    owner = self.router.shard_for_row(table, schema, values)
                    if owner != store:
                        key_val = values[schema.index_of(key_col)]
                        raise SchemaError(
                            f"adopted store {store} holds {table} row with "
                            f"{key_col}={key_val!r}, which hashes to "
                            f"{owner}; re-partition the data before "
                            "adopting it"
                        )

    def _epochs(self) -> tuple[int, ...]:
        return tuple(shard.catalog_epoch for shard in self.shards)

    @property
    def shards(self) -> list[Database]:
        """The shard databases, in shard order."""
        return list(self.coordinator.stores.values())

    @property
    def _first_shard(self) -> Database:
        """The first shard's database, whose catalog every shard shares:
        read off the shard map, with no list built."""
        return next(iter(self.coordinator.stores.values()))

    @property
    def store_names(self) -> list[str]:
        """The shard names, ``shard0``, ``shard1``, ... in shard order."""
        return list(self.coordinator.stores)

    @property
    def n_shards(self) -> int:
        return len(self.coordinator.stores)

    def named_shards(self) -> list[tuple[str, Database]]:
        return list(self.coordinator.stores.items())

    def shard_named(self, name: str) -> Database:
        return self.coordinator.store(name)

    @property
    def catalog(self):
        """The logical catalog (shard 0's; DDL keeps all shards uniform)."""
        return self._first_shard.catalog

    @property
    def catalog_shape(self) -> int:
        """What a coordinator plan depends on: shard 0's catalog, marked
        so that no single database's plan of the same text is shared."""
        return catalog_shape_id(("sharded", self._first_shard.catalog_shape))

    @property
    def plan_cache_stats(self) -> dict[str, int]:
        """Shard 0's plan-memo counters: coordinator plans are built over
        its catalog, and their lookups count there."""
        return self._first_shard.plan_cache_stats

    @property
    def last_commit_csn(self) -> int:
        """The engine-neutral commit position (global CSN here).

        Sessions and ``AS OF`` bookmarks taken against a sharded engine
        are global CSNs; the aligned commit log translates them onto
        per-shard local positions.
        """
        return self.coordinator.global_csn

    # -- the Engine observer surface ------------------------------------------

    def add_observer(self, observer: Any) -> None:
        """Register a database observer on every shard.

        TROD interposition attaches here exactly as it does on a single
        database: each shard emits the events the observer declared
        (``txn_began`` / ``statement_executed`` / ``txn_committed`` ...)
        for the work it executed, so the debugger-visible stream covers
        the whole cluster; only a ``statement_executed`` subscriber lifts
        a shard's LIMIT cap. Transaction and row ids are meaningful within
        their owning shard's id space. A reshard subscribes the observer
        to every new shard.
        """
        self._observers.append(observer)
        for shard in self.shards:
            shard.add_observer(observer)

    def remove_observer(self, observer: Any) -> None:
        self._observers = [o for o in self._observers if o is not observer]
        for shard in self.shards:
            shard.remove_observer(observer)

    @property
    def executor_stats(self) -> dict[str, int]:
        """Batch-executor counters summed across all shards."""
        totals: dict[str, int] = {}
        for shard in self.shards:
            for key, value in shard.executor_stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    @property
    def storage_stats(self) -> dict[str, Any]:
        """Storage-tier counters summed across all shards.

        Numeric values add up (buffer-pool hits, page reads, live rows,
        ...); non-numeric values — the backend name — are identical on
        every shard and pass through from the first.
        """
        totals: dict[str, Any] = {}
        for shard in self.shards:
            for key, value in shard.storage_stats.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    totals.setdefault(key, value)
                else:
                    totals[key] = totals.get(key, 0) + value
        return totals

    @property
    def cluster_stats(self) -> dict[str, int]:
        """Robustness counters in one flat surface.

        Mirrors :attr:`executor_stats`/:attr:`storage_stats`: replication
        counters summed across every shard's replica set, the 2PC
        coordinator's decision-log counters, connection failover retries,
        and — when a fault injector is installed — how many faults fired.
        """
        totals: dict[str, int] = {}
        for replica_set in self.replica_sets.values():
            for key, value in replica_set.stats.items():
                totals[key] = totals.get(key, 0) + value
        for key, value in self.coordinator.stats.items():
            totals[key] = totals.get(key, 0) + value
        totals["failover_retries"] = self.stats["failover_retries"]
        injector = faults_active()
        if injector is not None:
            totals["faults_injected"] = injector.stats["fired"]
        return totals

    def recover_in_doubt(self) -> dict[str, int]:
        """Resolve 2PC branches left in doubt by a coordinator crash.

        Delegates to :meth:`MultiStoreCoordinator.recover_in_doubt`:
        every shard's durably prepared but undecided branch commits if
        the decision log recorded a commit for its global transaction
        and aborts otherwise (presumed abort), and partially-applied
        phase 2 is repaired. Call once after reopening a cluster from
        disk with the same ``decision_log`` path.
        """
        return self.coordinator.recover_in_doubt()

    def snapshot_rows(self, table: str) -> list[tuple[int, tuple]]:
        """Latest committed ``(row_id, values)`` pairs across all shards.

        Row ids are only unique within their owning shard; callers that
        key on row id (TROD's attach-time snapshot capture) should attach
        before loading data, as on a single node.
        """
        out: list[tuple[int, tuple]] = []
        for shard in self.shards:
            out.extend(shard.snapshot_rows(table))
        return out

    def begin(
        self,
        isolation: IsolationLevel = IsolationLevel.SERIALIZABLE,
        info: dict[str, Any] | None = None,
    ) -> GlobalTransaction:
        self._fence_wait()
        gtxn = self.coordinator.begin(isolation=isolation, info=info)
        self._active_gtxns += 1
        gtxn.on_finish = self._gtxn_finished
        if isolation is IsolationLevel.SNAPSHOT:
            # SNAPSHOT consistency lives in each branch's snapshot CSN.
            # Begin every branch now, at one point in the global commit
            # order; joining lazily would let a 2PC commit land between
            # two branches' snapshots and be observed half-applied (a
            # torn cross-shard read). SERIALIZABLE needs no eager join
            # (2PL blocks such interleavings) and READ_COMMITTED
            # refreshes per statement by design.
            for store in self.store_names:
                gtxn.on(store)
        return gtxn

    def _note_targets(self, targets: Sequence[str]) -> None:
        if len(targets) < self.n_shards:
            self.stats["routed_statements"] += 1
        else:
            self.stats["fanout_statements"] += 1

    # -- the Database-compatible surface -------------------------------------

    def execute(
        self,
        sql: str,
        params: Sequence[Any] = (),
        txn: GlobalTransaction | None = None,
    ) -> ResultSet:
        """Execute one statement; multi-shard writes autocommit via 2PC.

        DDL catches every replica set up before returning: schema ship
        records consume no CSN, so no session floor could otherwise gate
        their visibility (as on a :class:`~repro.db.replication.ReplicaSet`).

        DML results merge per-shard ``row_ids``; each id is meaningful
        only within its owning shard's id space (ids from different
        shards may collide), so correlate rows by shard key, not row id.
        """
        stmt = parse_cached(sql)
        if isinstance(
            stmt, (CreateTableStmt, DropTableStmt, CreateIndexStmt, DropIndexStmt)
        ):
            result = self._execute_ddl(stmt, sql, params)
            self.catch_up()
            return result
        if stmt.param_count != len(params):
            raise ExecutionError(
                f"statement expects {stmt.param_count} parameter(s), "
                f"got {len(params)}"
            )
        if isinstance(stmt, SelectStmt):
            if txn is not None and stmt.as_of is None:
                return self._execute_select(stmt, params, self._branch_getter(txn), sql)
            # Autocommit, or a historical read pinned to a global CSN —
            # independent of any enclosing global transaction's branches.
            return self._ephemeral_select(stmt, params, sql, None)
        autocommit = txn is None
        gtxn = txn if txn is not None else self.begin()
        try:
            if isinstance(stmt, InsertStmt):
                result = self._execute_insert(stmt, params, gtxn, sql)
            elif isinstance(stmt, (UpdateStmt, DeleteStmt)):
                result = self._execute_update_delete(stmt, params, gtxn, sql)
            else:  # pragma: no cover - parser produces no other kinds
                raise ExecutionError(f"cannot execute {type(stmt).__name__}")
            if autocommit:
                gtxn.commit()
            return result
        except Exception:
            if autocommit:
                gtxn.abort()
            raise

    def query(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        return self.execute(sql, params)

    def execute_read(
        self,
        sql: str,
        params: Sequence[Any] = (),
        floor: int = 0,
        preference: str = "replica",
    ) -> ResultSet:
        """A SELECT with each shard's reads served by its replica set.

        The sharded twin of :meth:`ReplicaSet.execute_read
        <repro.db.replication.ReplicaSet.execute_read>`: ``floor`` is the
        *global* CSN of the caller's last acknowledged write, translated
        through the aligned commit log into each shard's local floor; per
        shard, :meth:`ReplicaSet.target
        <repro.db.replication.ReplicaSet.target>` names the database that
        answers. A shard without a replica set is served by its primary.
        """
        check_read_preference(preference)
        floors = self.coordinator.local_csns_at(floor) if floor else {}

        def db_for(store: str, as_of: int | None) -> Database:
            replica_set = self.replica_sets.get(store)
            if replica_set is None:
                return self.coordinator.store(store)
            return replica_set.target(floors.get(store, 0), as_of, preference)

        return self.select_routed(sql, params, db_for)

    def select_routed(
        self,
        sql: str,
        params: Sequence[Any] = (),
        db_for: ReadTarget | None = None,
    ) -> ResultSet:
        """Run a SELECT with each shard's reads served by ``db_for``.

        The one scatter entry for routed reads: ``db_for(store, as_of)``
        picks the database that answers for a shard (a replica, or the
        primary; ``as_of`` is the shard-local CSN of a historical read,
        None for a live one). It is asked once per shard per statement, so
        one scatter never straddles two databases for the same shard, and
        the ephemeral read transactions are aborted afterwards — replica
        reads must not consume CSNs.
        """
        stmt = parse_cached(sql)
        if not isinstance(stmt, SelectStmt):
            raise ExecutionError("select_routed supports SELECT statements only")
        if stmt.param_count != len(params):
            raise ExecutionError(
                f"statement expects {stmt.param_count} parameter(s), "
                f"got {len(params)}"
            )
        return self._ephemeral_select(stmt, params, sql, db_for)

    def _ephemeral_select(
        self,
        stmt: SelectStmt,
        params: Sequence[Any],
        sql: str | None,
        db_for: ReadTarget | None,
    ) -> ResultSet:
        """Run a SELECT under per-shard transactions aborted afterwards.

        A live read sees each serving database's latest commit. An
        ``AS OF`` read sees the cluster state at a global CSN: the aligned
        commit log translates it onto each shard's local CSN and every
        shard answers from that local snapshot, so the merged result is
        the transactionally consistent cross-shard state the coordinator
        committed at that point (replicas preserve CSNs, so one whose
        shipped history covers the target answers identically).
        """
        global_csn = (
            evaluate_as_of(stmt, params) if stmt.as_of is not None else None
        )
        local_csns: dict[str, int] | None = None
        if global_csn is not None:
            if global_csn < self.reshard_horizon:
                raise TimeTravelError(
                    f"global csn {global_csn} predates the reshard horizon "
                    f"({self.reshard_horizon}); that history lives only on "
                    "the pre-reshard stores"
                )
            try:
                local_csns = self.coordinator.local_csns_at(global_csn)
            except TransactionError as exc:
                raise TimeTravelError(str(exc)) from None
        serving: dict[str, Database] = {}
        branches: dict[str, Transaction] = {}

        def resolve(store: str) -> Database:
            database = serving.get(store)
            if database is None:
                if db_for is None:
                    database = self.coordinator.store(store)
                else:
                    database = db_for(
                        store, None if local_csns is None else local_csns[store]
                    )
                serving[store] = database
            return database

        def get_txn(store: str) -> Transaction:
            branch = branches.get(store)
            if branch is not None:
                return branch
            shard = resolve(store)
            if local_csns is None:
                branch = shard.begin()
            else:
                if local_csns[store] < shard.history_horizon:
                    raise TimeTravelError(
                        f"global csn {global_csn} maps to {store} csn "
                        f"{local_csns[store]}, which predates the vacuum "
                        f"horizon ({shard.history_horizon})"
                    )
                branch = shard.begin(IsolationLevel.SNAPSHOT)
                # Rewind the snapshot from "latest at begin" to the
                # aligned-log position for this global CSN.
                branch.snapshot_csn = local_csns[store]
            branches[store] = branch
            return branch

        try:
            return self._execute_select(stmt, params, get_txn, sql, db_for=resolve)
        finally:
            for branch in branches.values():
                branch.abort()

    def table_rows(self, table: str) -> list[dict[str, Any]]:
        """Latest committed rows across all shards, as column dicts."""
        out: list[dict[str, Any]] = []
        for shard in self.shards:
            out.extend(shard.table_rows(table))
        return out

    def explain(self, sql: str, params: Sequence[Any] = ()) -> list[str]:
        """The plan a statement would execute, root first.

        A SELECT's is the tree that runs, each :class:`Exchange` naming
        the shards it reads for ``params`` — without them a ``key = ?``
        pin cannot be evaluated and shows full fan-out. An UPDATE or
        DELETE prints the shards it is routed to over shard 0's plan of it.
        """
        stmt = parse_cached(sql)
        if isinstance(stmt, SelectStmt):
            plan, _names = self._select_plan(stmt, sql)
            return plan.explain(
                ctx=self._context(params, sql, None, self.coordinator.store)
            )
        if not isinstance(stmt, (UpdateStmt, DeleteStmt)):
            raise ExecutionError(
                "EXPLAIN supports SELECT, UPDATE and DELETE statements only"
            )
        db0 = self._first_shard
        canonical = db0.catalog.resolve(stmt.table.table)
        targets = self.router.routed_shards(
            canonical, db0.catalog.get(canonical), split_conjuncts(stmt.where), params
        )
        lines = [f"ShardedWrite(targets=[{', '.join(targets)}])"]
        return lines + ["  " + line for line in db0.explain(sql)]

    # -- DDL -----------------------------------------------------------------

    def create_table(self, schema: TableSchema, shard_key: str | None = None) -> None:
        """Programmatic CREATE TABLE on every shard or on none (SQL DDL's
        fan-out), registering the key; replicas are caught up as after
        DDL through :meth:`execute`."""
        self._resolve_shard_key(schema, shard_key)  # validate before DDL
        self._fan_out(
            lambda shard: shard.create_table(schema), schema.name, None, shard_key
        )
        self.catch_up()

    def _resolve_shard_key(
        self, schema: TableSchema, shard_key: str | None
    ) -> str:
        """The validated shard-key column for a table's schema: every
        UNIQUE or PRIMARY KEY constraint must include it
        (:func:`_require_shard_key`)."""
        key = (
            shard_key
            or self._shard_key_hints.get(schema.name.lower())
            or (schema.primary_key[0] if schema.primary_key else None)
            or schema.column_names[0]
        ).lower()
        if not schema.has_column(key):
            raise SchemaError(
                f"shard key {key!r} is not a column of {schema.name}"
            )
        for constraint in schema.unique_constraints:
            _require_shard_key(key, constraint, f"unique constraint on {schema.name}")
        return key

    def _register_shard_key(
        self, schema: TableSchema, shard_key: str | None
    ) -> None:
        canonical = self._first_shard.catalog.resolve(schema.name)
        self.router.register_table(
            canonical, self._resolve_shard_key(schema, shard_key)
        )

    def _execute_ddl(
        self, stmt: Statement, sql: str, params: Sequence[Any]
    ) -> ResultSet:
        def run(shard: Database) -> None:
            shard.execute(sql, params)

        db0 = self._first_shard
        if isinstance(stmt, CreateTableStmt):
            self._fan_out(run, stmt.name)
        elif isinstance(stmt, CreateIndexStmt):
            if stmt.unique and db0.catalog.has_table(stmt.table):
                key_col = self.router.key_column(db0.catalog.resolve(stmt.table))
                if key_col is not None:
                    _require_shard_key(
                        key_col, stmt.columns, f"unique index {stmt.name} on {stmt.table}"
                    )
            self._fan_out(run, stmt.table, stmt.name)
        else:  # a drop validates against shard 0's uniform catalog first
            self._fence_wait()
            dropped = None
            if isinstance(stmt, DropTableStmt) and db0.catalog.has_table(stmt.name):
                dropped = db0.catalog.resolve(stmt.name)
            for shard in self.shards:
                run(shard)
            if dropped is not None:
                self.router.unregister_table(dropped)
        return ResultSet(kind="ddl")

    def _fan_out(
        self,
        run: Callable[[Database], Any],
        table: str,
        index: str | None = None,
        shard_key: str | None = None,
    ) -> None:
        """Run one CREATE (of ``table``, or of its ``index``) on every
        shard, in shard order: on all of them or on none.

        A CREATE TABLE registers its shard key once shard 0 holds the
        table, checking the key against the real schema before the other
        shards take it. Afterwards every shard's ``catalog_shape`` must be
        shard 0's (the rule :meth:`_adopt_existing_tables` applies), so an
        IF NOT EXISTS that met a different object on some shard fails. A
        CREATE that fails on any shard is dropped again everywhere, the
        shard that failed half-populated included; shards that held the
        object before (IF NOT EXISTS no-ops there) keep it.
        DDL mid-migration would change the schema under the copier's
        feet, so it parks behind the same fence as write transactions.
        """
        self._fence_wait()
        # IndexSet keys are lowercased; match them that way or a
        # duplicate CREATE differing only in case would compensate
        # away the genuinely pre-existing index.
        preexisting = {
            store
            for store, shard in self.named_shards()
            if shard.catalog.has_table(table)
            and (index is None or index.lower() in shard.index_set(table).indexes)
        }
        registered = self.router.key_column(table) is not None
        try:
            for i, shard in enumerate(self.shards):
                run(shard)
                if i == 0 and index is None:
                    self._register_shard_key(shard.catalog.get(table), shard_key)
            shape = self._first_shard.catalog_shape
            for store, shard in self.named_shards():
                if shard.catalog_shape != shape:
                    raise SchemaError(
                        f"{store} diverges from shard0's schema after creating "
                        f"{index or table} (an existing object differs)"
                    )
        except Exception:
            for store, shard in self.named_shards():
                if store in preexisting:
                    continue
                try:
                    if index is not None:
                        shard.drop_index(index, table, if_exists=True)
                    else:
                        shard.drop_table(table, if_exists=True)
                except Exception:  # pragma: no cover - keep unwinding
                    pass
            if index is None and not registered:
                self.router.unregister_table(table)
            raise

    # -- SELECT --------------------------------------------------------------

    def _branch_getter(self, gtxn: GlobalTransaction) -> TxnGetter:
        started: set[str] = set()

        def get_txn(store: str) -> Transaction:
            branch = gtxn.on(store)
            if store not in started:
                branch.begin_statement()
                started.add(store)
            return branch

        return get_txn

    def _execute_select(
        self,
        stmt: SelectStmt,
        params: Sequence[Any],
        get_txn: TxnGetter,
        sql: str | None,
        db_for: Callable[[str], Database] | None = None,
    ) -> ResultSet:
        """Run a SELECT's plan; its exchanges read the shards it targets.

        ``db_for(store)`` names the database that answers for a shard —
        the primary by default, a replica when :meth:`execute_read` chose
        one. It must agree with ``get_txn``: the branch returned for a
        store must belong to the database ``db_for`` names.
        """
        plan, names = self._select_plan(stmt, sql)
        ctx = self._context(params, sql, get_txn, db_for or self.coordinator.store)
        return ResultSet(columns=names, rows=_drain_rows(plan, ctx), kind="select")

    def _select_plan(
        self, stmt: SelectStmt, sql: str | None
    ) -> tuple[PlanNode, list[str]]:
        return memo_plan(
            "select", sql, self, plan_sharded_select, stmt, self._first_shard
        )

    def _context(
        self,
        params: Sequence[Any],
        sql: str | None,
        get_txn: TxnGetter | None,
        db_for: Callable[[str], Database],
    ) -> ExecContext:
        """The coordinator's context for one execution (or EXPLAIN)."""
        return ExecContext(
            database=self._first_shard,
            txn=None,  # type: ignore[arg-type]  # coordinator nodes never touch it
            params=params,
            query_text=sql or "",
            track_reads=False,
            shards=ShardContext(self, get_txn, db_for, {}),
        )

    # -- DML -----------------------------------------------------------------

    def _execute_insert(
        self,
        stmt: InsertStmt,
        params: Sequence[Any],
        gtxn: GlobalTransaction,
        sql: str | None,
    ) -> ResultSet:
        db0 = self._first_shard
        canonical = db0.catalog.resolve(stmt.table)
        schema = db0.catalog.get(canonical)
        get_txn = self._branch_getter(gtxn)

        def run_select(select: SelectStmt) -> tuple[list[str], Callable[[], list[tuple]]]:
            plan, names = self._select_plan(select, None)
            ctx = self._context(params, None, get_txn, self.coordinator.store)
            return names, partial(_drain_rows, plan, ctx)

        row_ids: list[int] = []
        per_store: dict[str, list[int]] = {}
        for values in insert_rows(stmt, schema, params, run_select):
            store = self.router.shard_for_row(canonical, schema, values)
            row_id = get_txn(store).insert(canonical, values)
            row_ids.append(row_id)
            per_store.setdefault(store, []).append(row_id)
        for store, store_row_ids in per_store.items():
            shard = self.coordinator.store(store)
            if shard.observers.wants("statement_executed"):
                writes = [("insert", canonical, row_id) for row_id in store_row_ids]
                shard.report_statement(
                    gtxn.on(store), sql or "", "insert", len(store_row_ids), writes
                )
        self._note_targets(sorted(per_store) if per_store else [self.store_names[0]])
        return ResultSet(kind="insert", rowcount=len(row_ids), row_ids=row_ids)

    def _execute_update_delete(
        self,
        stmt: UpdateStmt | DeleteStmt,
        params: Sequence[Any],
        gtxn: GlobalTransaction,
        sql: str | None,
    ) -> ResultSet:
        db0 = self._first_shard
        canonical = db0.catalog.resolve(stmt.table.table)
        schema = db0.catalog.get(canonical)
        key_col = self.router.key_column(canonical)
        if isinstance(stmt, UpdateStmt) and key_col is not None:
            for column, _expr in stmt.assignments:
                if column.lower() == key_col:
                    raise ExecutionError(
                        f"cannot UPDATE shard key column {canonical}.{key_col}; "
                        "DELETE and re-INSERT to move a row between shards"
                    )
        conjuncts = split_conjuncts(stmt.where)
        targets = self.router.routed_shards(canonical, schema, conjuncts, params)
        self._note_targets(targets)
        kind = "update" if isinstance(stmt, UpdateStmt) else "delete"
        rowcount = 0
        row_ids: list[int] = []
        for store in targets:
            # Route through the shard's own execute so statement
            # boundaries (READ_COMMITTED refresh) and TROD's
            # statement_executed observers behave exactly as on a
            # single database.
            result = self.coordinator.store(store).execute(
                sql, params, txn=gtxn.on(store)
            )
            rowcount += result.rowcount
            row_ids.extend(result.row_ids)
        return ResultSet(kind=kind, rowcount=rowcount, row_ids=row_ids)

    # -- online resharding ---------------------------------------------------

    def _gtxn_finished(self, _gtxn: GlobalTransaction) -> None:
        self._active_gtxns -= 1

    def _fence_wait(self) -> None:
        """Park a new write transaction while the reshard fence is up.

        The wait is cooperative: each spin yields a LOCK_WAIT checkpoint
        so the scheduler can run the migration task that will lift the
        fence. Off-scheduler the yield is a no-op, so the bound turns a
        stuck fence into a loud error instead of a hang.
        """
        spins = 0
        while self._write_fence:
            maybe_checkpoint(CheckpointKind.LOCK_WAIT, "reshard-fence")
            spins += 1
            if spins >= _FENCE_MAX_SPINS:
                raise TransactionError(
                    "reshard write fence did not lift; the migration "
                    "appears stuck"
                )

    def fence_writes(self) -> None:
        """Raise the reshard write fence: new write transactions park.

        Reads — scatter-gather SELECTs, AS-OF queries, replica-routed
        reads — continue throughout; only :meth:`begin` (and therefore
        autocommit DML) and DDL wait. Callers must pair this with
        :meth:`unfence_writes`, fence or no swap.
        """
        self._write_fence = True

    def unfence_writes(self) -> None:
        self._write_fence = False

    def drain_writers(self, max_spins: int = _FENCE_MAX_SPINS) -> None:
        """Wait (cooperatively) until no write transaction is in flight.

        Called with the fence up: transactions begun before the fence may
        still be mid-commit, and their branches point at the pre-swap
        stores — swapping under them would tear the topology.
        """
        spins = 0
        while self._active_gtxns > 0:
            maybe_checkpoint(CheckpointKind.LOCK_WAIT, "reshard-drain")
            spins += 1
            if spins >= max_spins:
                raise TransactionError(
                    f"{self._active_gtxns} write transaction(s) never "
                    "finished while the reshard fence was up"
                )

    def apply_reshard(self, new_stores: dict[str, Database]) -> int:
        """Swap in a post-reshard topology; returns the new horizon CSN.

        The caller (:mod:`repro.cluster.reshard`) guarantees the write
        fence is up, no write transaction is in flight, and
        ``new_stores`` holds every row re-hashed onto its owner under
        the new shard count. The global CSN clock and the aligned log
        survive the swap (a synthetic aligned commit maps the new stores'
        local positions); AS-OF reads below the returned horizon now
        raise :class:`~repro.errors.TimeTravelError` because that
        history lives only on the departed stores. Replica sets are
        dropped — they follow the old primaries; re-attach after.
        """
        if not self._write_fence:
            raise TransactionError(
                "apply_reshard requires the write fence "
                "(call fence_writes() and drain_writers() first)"
            )
        if self._active_gtxns > 0:
            raise TransactionError(
                f"{self._active_gtxns} write transaction(s) still in "
                "flight; drain_writers() before swapping the topology"
            )
        self.reshard_horizon = self.coordinator.reshape(new_stores)
        self.router.shard_names = self.store_names
        self.replica_sets = {}
        for shard in new_stores.values():
            for observer in self._observers:
                shard.add_observer(observer)
        return self.reshard_horizon

    # -- replication ---------------------------------------------------------

    def attach_replicas(
        self,
        n_replicas: int = 1,
        mode: str = "async",
    ) -> dict[str, ReplicaSet]:
        """Give every shard a log-shipping replica set.

        Replicas bootstrap from each shard's current snapshot and then
        follow its commit stream (see :mod:`repro.db.replication`);
        :meth:`execute_read` — what :func:`repro.connect` calls for every
        SELECT — then serves scatter-gather reads from them, shard by
        shard. DML, 2PC, and DDL continue to run on the primaries (DDL
        reaches replicas through the shipped stream, caught up before
        :meth:`execute` / :meth:`create_table` return).
        """
        for store, shard in self.named_shards():
            replica_set = self.replica_sets.get(store)
            if replica_set is None:
                replica_set = ReplicaSet(shard, mode=mode)
                self.replica_sets[store] = replica_set
            for _ in range(n_replicas):
                replica_set.add_replica()
        return self.replica_sets

    def catch_up(self, limit: int | None = None) -> int:
        """Apply pending ship records on every shard's replicas (at most
        ``limit`` per replica); returns the number applied."""
        return sum(
            replica_set.catch_up(limit=limit)
            for replica_set in self.replica_sets.values()
        )

    def failover(self, store: str) -> Database:
        """Promote a replica of ``store`` to primary and re-point the shard.

        The old primary is fenced, every acknowledged commit is drained
        into the replicas, and the most-caught-up replica takes over the
        store name — in the coordinator's shard map, and in the replica
        set (which keeps shipping to the remaining replicas).
        An attached TROD keeps tracing: the promotion hands the demoted
        primary's observers to the promoted database.
        """
        replica_set = self.replica_sets.get(store)
        if replica_set is None:
            raise ReplicationError(
                f"shard {store!r} has no replica set; call attach_replicas()"
            )
        promoted = replica_set.promote()
        self.coordinator.replace_store(store, promoted)
        return promoted

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ShardedDatabase {self.name!r} shards={len(self.shards)} "
            f"global_csn={self.coordinator.global_csn}>"
        )
