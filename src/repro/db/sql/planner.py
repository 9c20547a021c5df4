"""Row layouts, name resolution and expression rewrites.

The executor works on flat row tuples. A :class:`Layout` maps qualified and
unqualified column names to tuple slots. Every expression runs as a
generated program (:mod:`repro.db.sql.compile`): per row over its plan
node's layout, or — for what no row feeds, and for constant folding —
over :data:`NO_COLUMNS` through :func:`evaluate_rowless`, which keeps the
program on the expression. :func:`check_scalar` is the plan-time half: it
reports what no row could evaluate.

This module also hosts the aggregate rewrite: expressions over GROUP BY
results are rebuilt so aggregate calls and group keys become direct slot
references into the aggregated row.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.db.expr import (
    Between,
    BinaryOp,
    Case,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Param,
    Star,
    UnaryOp,
)
from repro.db.sql.functions import AGGREGATE_NAMES
from repro.errors import ExecutionError, PlanningError


class Layout:
    """Slot assignment for the columns flowing through a plan node."""

    def __init__(self):
        self._slots: list[tuple[str | None, str]] = []
        self._qualified: dict[tuple[str, str], int] = {}
        self._unqualified: dict[str, int | None] = {}  # None = ambiguous

    @staticmethod
    def for_table(binding: str, columns: Sequence[str]) -> "Layout":
        layout = Layout()
        for column in columns:
            layout.add(binding, column)
        return layout

    def add(self, qualifier: str | None, column: str) -> int:
        slot = len(self._slots)
        self._slots.append((qualifier, column))
        col = column.lower()
        if qualifier is not None:
            key = (qualifier.lower(), col)
            if key in self._qualified:
                raise PlanningError(f"duplicate column {qualifier}.{column}")
            self._qualified[key] = slot
        if col in self._unqualified:
            self._unqualified[col] = None  # ambiguous from now on
        else:
            self._unqualified[col] = slot
        return slot

    def concat(self, other: "Layout") -> "Layout":
        merged = Layout()
        for qualifier, column in self._slots:
            merged.add(qualifier, column)
        for qualifier, column in other._slots:
            merged.add(qualifier, column)
        return merged

    def slot(self, qualifier: str | None, column: str) -> int:
        col = column.lower()
        if qualifier is not None:
            key = (qualifier.lower(), col)
            if key in self._qualified:
                return self._qualified[key]
            raise PlanningError(f"unknown column {qualifier}.{column}")
        if col in self._unqualified:
            slot = self._unqualified[col]
            if slot is None:
                raise PlanningError(f"ambiguous column reference: {column}")
            return slot
        raise PlanningError(f"unknown column {column}")

    def has(self, qualifier: str | None, column: str) -> bool:
        try:
            self.slot(qualifier, column)
            return True
        except PlanningError:
            return False

    def qualifiers(self) -> set[str]:
        return {q.lower() for q, _ in self._slots if q is not None}

    def columns_of(self, qualifier: str) -> list[tuple[str, int]]:
        wanted = qualifier.lower()
        return [
            (column, index)
            for index, (q, column) in enumerate(self._slots)
            if q is not None and q.lower() == wanted
        ]

    def names(self) -> list[str]:
        return [column for _, column in self._slots]

    def __len__(self) -> int:
        return len(self._slots)


class SlotRef(Expr):
    """Direct slot reference produced by the aggregate rewrite."""

    __slots__ = ("index", "label")

    def __init__(self, index: int, label: str = ""):
        self.index = index
        self.label = label

    def sql(self) -> str:
        return self.label or f"$slot{self.index}"


# ---------------------------------------------------------------------------
# Name resolution and row-less evaluation
# ---------------------------------------------------------------------------


def check_scalar(expr: Expr, layout: Layout) -> None:
    """Raise the :class:`PlanningError` a per-row ``expr`` over ``layout`` earns.

    Unknown and ambiguous columns, ``*`` and aggregate calls, reported in
    evaluation order. Plan nodes call this when they are built, so these
    errors surface from planning and ``EXPLAIN``; the nodes' programs are
    only generated once they run.
    """
    if isinstance(expr, (Literal, Param)):
        return  # nothing to resolve; most of what is evaluated without a row
    for node in expr.walk():
        if isinstance(node, ColumnRef):
            layout.slot(node.qualifier, node.column)
        elif isinstance(node, Star):
            raise PlanningError("'*' is not a scalar expression")
        elif isinstance(node, FuncCall) and node.name in AGGREGATE_NAMES:
            raise PlanningError(
                f"aggregate {node.name}() is not allowed in this context"
            )


def resolves(expr: Expr, layout: Layout) -> bool:
    """Whether ``expr`` is a scalar expression over ``layout``'s columns."""
    try:
        check_scalar(expr, layout)
    except PlanningError:
        return False
    return True


#: The layout of an expression no row feeds: any column is unknown.
NO_COLUMNS = Layout()


def evaluate_rowless(expr: Expr, params: Sequence[Any]) -> Any:
    """Evaluate an expression that no row feeds.

    LIMIT, OFFSET, AS OF, INSERT VALUES, column DEFAULT, index-probe keys
    and bounds, a sharded statement's key pins: each runs once per
    statement, on the same program any row would run — generated over
    :data:`NO_COLUMNS` the first time the expression runs and kept on it
    (``Expr.rowless``), since a parsed statement serves every execution.
    """
    program = expr.rowless
    if program is None:
        from repro.db.sql.compile import compile_scalar

        check_scalar(expr, NO_COLUMNS)
        program = expr.rowless = compile_scalar(expr, NO_COLUMNS)
    return program((), params)


def checked_count(value: Any, complaint: str) -> int:
    """``value`` as a row or commit count: a non-negative int, never a bool."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ExecutionError(f"{complaint}, got {value!r}")
    return value


def limit_and_offset(
    limit: Expr | None, offset: Expr | None, params: Sequence[Any]
) -> tuple[int | None, int]:
    """A SELECT's LIMIT and OFFSET, evaluated and checked.

    No LIMIT clause, or one that evaluates to NULL, is no limit (None).
    """
    count = None if limit is None else evaluate_rowless(limit, params)
    skip = 0 if offset is None else evaluate_rowless(offset, params)
    if count is not None:
        checked_count(count, "LIMIT must be a non-negative integer")
    return count, checked_count(skip, "OFFSET must be a non-negative integer")


# ---------------------------------------------------------------------------
# Conjunct classification (predicate pushdown) helpers
# ---------------------------------------------------------------------------


def bindings_used(expr: Expr, layout: Layout) -> set[str] | None:
    """The set of table bindings an expression references.

    Unqualified columns are resolved through ``layout`` (the full FROM
    layout). Returns None when the expression references something the
    layout cannot resolve — the node that ends up owning the expression
    then reports the error (:func:`check_scalar`).
    """
    out: set[str] = set()
    for node in expr.walk():
        if isinstance(node, ColumnRef):
            if node.qualifier is not None:
                out.add(node.qualifier.lower())
                continue
            col = node.column.lower()
            owner = None
            for (q, c), _slot in layout._qualified.items():
                if c == col:
                    if owner is not None and owner != q:
                        return None  # ambiguous; let check_scalar report it
                    owner = q
            if owner is None:
                return None
            out.add(owner)
    return out


def extract_equi_pairs(
    conjuncts: list[Expr],
    left_bindings: set[str],
    right_bindings: set[str],
    layout: Layout,
) -> tuple[list[tuple[Expr, Expr]], list[Expr]]:
    """Split conjuncts into hash-join equi pairs and residual predicates.

    A conjunct ``a = b`` becomes an equi pair when one side only touches
    ``left_bindings`` and the other only ``right_bindings``.
    """
    pairs: list[tuple[Expr, Expr]] = []
    residual: list[Expr] = []
    for conjunct in conjuncts:
        if isinstance(conjunct, BinaryOp) and conjunct.op in ("=", "=="):
            lhs_bind = bindings_used(conjunct.left, layout)
            rhs_bind = bindings_used(conjunct.right, layout)
            if lhs_bind is not None and rhs_bind is not None:
                if lhs_bind <= left_bindings and rhs_bind <= right_bindings:
                    pairs.append((conjunct.left, conjunct.right))
                    continue
                if lhs_bind <= right_bindings and rhs_bind <= left_bindings:
                    pairs.append((conjunct.right, conjunct.left))
                    continue
        residual.append(conjunct)
    return pairs, residual


# ---------------------------------------------------------------------------
# Aggregate rewrite
# ---------------------------------------------------------------------------


def find_aggregates(exprs: list[Expr | None]) -> list[FuncCall]:
    """Distinct aggregate calls (by SQL text) across ``exprs``, in order."""
    seen: dict[str, FuncCall] = {}
    for expr in exprs:
        if expr is None:
            continue
        for node in expr.walk():
            if isinstance(node, FuncCall) and node.name in AGGREGATE_NAMES:
                seen.setdefault(node.sql(), node)
    return list(seen.values())


def map_children(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Rebuild one expression node with ``fn`` applied to each subtree.

    Leaves (and unknown node types) are returned as-is; recursion policy
    stays with the caller, which is what lets both aggregate rewrites
    below share this single structural walk.
    """
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, fn(expr.left), fn(expr.right))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, fn(expr.operand))
    if isinstance(expr, IsNull):
        return IsNull(fn(expr.operand), negated=expr.negated)
    if isinstance(expr, InList):
        return InList(
            fn(expr.operand), [fn(item) for item in expr.items], negated=expr.negated
        )
    if isinstance(expr, Between):
        return Between(
            fn(expr.operand), fn(expr.low), fn(expr.high), negated=expr.negated
        )
    if isinstance(expr, Like):
        return Like(fn(expr.operand), fn(expr.pattern), negated=expr.negated)
    if isinstance(expr, Case):
        return Case(
            [(fn(cond), fn(value)) for cond, value in expr.branches],
            fn(expr.default) if expr.default else None,
        )
    if isinstance(expr, FuncCall):
        return FuncCall(
            expr.name,
            [fn(a) for a in expr.args],
            distinct=expr.distinct,
            star=expr.star,
        )
    if isinstance(expr, (Literal, Param, ColumnRef, SlotRef, Star)):
        return expr
    # A new Expr node type must be taught here explicitly; passing it
    # through silently would let column references escape rewrites.
    raise PlanningError(f"cannot rewrite expression {expr!r}")


def is_const_expr(expr: Expr) -> bool:
    """Whether ``expr`` evaluates to the same value on every row.

    Function calls are excluded even when their arguments are constant:
    folding one would surface unknown-function and arity errors at plan
    time, and ``EXPLAIN`` builds plans without executing.
    """
    if isinstance(expr, (ColumnRef, SlotRef, Star, Param, FuncCall)):
        return False
    if isinstance(expr, Literal):
        return True
    return all(is_const_expr(child) for child in expr.children())


def fold_constants(expr: Expr) -> Expr:
    """Bottom-up constant folding with SQL three-valued identities.

    Constant subtrees are evaluated once at plan time and replaced by
    literals; any evaluation error leaves the subtree unfolded so the
    error still surfaces at execution, exactly where it used to. The only
    non-constant rewrites applied are the left-literal short circuits
    ``FALSE AND x -> FALSE`` and ``TRUE OR x -> TRUE``, which the
    programs perform without touching ``x`` anyway. (``TRUE AND x`` is
    *not* ``x``: AND turns a nonzero number into TRUE.)
    """
    folded = map_children(expr, fold_constants)
    if isinstance(folded, BinaryOp) and isinstance(folded.left, Literal):
        if folded.op == "AND" and folded.left.value is False:
            return Literal(False)
        if folded.op == "OR" and folded.left.value is True:
            return Literal(True)
    if isinstance(folded, Literal) or not is_const_expr(folded):
        return folded
    try:
        value = evaluate_rowless(folded, ())
    except Exception:
        return folded
    return Literal(value)


def rewrite_aggregate_expr(
    expr: Expr,
    group_slots: dict[str, int],
    agg_slots: dict[str, int],
) -> Expr:
    """Rebuild ``expr`` over the aggregated row.

    Group-by expressions and aggregate calls (matched by their SQL text)
    become :class:`SlotRef`; any other column reference is an error, per
    standard SQL grouping rules.
    """
    key = expr.sql()
    if key in group_slots:
        return SlotRef(group_slots[key], label=key)
    if isinstance(expr, FuncCall) and expr.name in AGGREGATE_NAMES:
        if key in agg_slots:
            return SlotRef(agg_slots[key], label=key)
        raise PlanningError(f"aggregate {key} not computed")  # pragma: no cover
    if isinstance(expr, ColumnRef):
        raise PlanningError(
            f"column {expr.sql()} must appear in GROUP BY or inside an aggregate"
        )
    return map_children(
        expr, lambda child: rewrite_aggregate_expr(child, group_slots, agg_slots)
    )


def substitute_by_sql(expr: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace subtrees whose SQL text appears in ``mapping``.

    The sharded aggregate pushdown uses this to rebuild final-stage
    expressions over partial-aggregate columns: group-by expressions map
    to partial group columns and aggregate calls map to combine
    expressions (e.g. ``COUNT(x)`` -> ``SUM(_p0)``). Unmapped leaves pass
    through untouched; the final aggregate rewrite validates them.
    """
    key = expr.sql()
    if key in mapping:
        return mapping[key]
    return map_children(expr, lambda child: substitute_by_sql(child, mapping))
