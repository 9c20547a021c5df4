"""Row layouts and expression compilation.

The executor works on flat row tuples. A :class:`Layout` maps qualified and
unqualified column names to tuple slots; :func:`compile_expr` translates an
expression tree into a Python closure over ``(row, params)``, which is
considerably faster than interpreting the tree per row — the declarative
debugging benchmark joins provenance tables with 10^5 rows, so per-row cost
matters.

This module also hosts the aggregate rewrite: expressions over GROUP BY
results are rebuilt so aggregate calls and group keys become direct slot
references into the aggregated row.
"""

from __future__ import annotations

import re
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
    _ARITH_OPS,
    _COMPARISONS,
)
from repro.db.sql.functions import AGGREGATE_NAMES, call_scalar
from repro.db.types import compare_values
from repro.errors import ExecutionError, PlanningError

#: A compiled expression: (row_tuple, params) -> value.
CompiledExpr = Callable[[tuple, Sequence[Any]], Any]


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

    def eval(self, scope) -> Any:  # pragma: no cover - compiled path only
        raise ExecutionError("SlotRef cannot be interpreted")

    def sql(self) -> str:
        return self.label or f"$slot{self.index}"


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def compile_expr(expr: Expr, layout: Layout) -> CompiledExpr:
    """Compile ``expr`` into a closure over ``(row, params)``."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row, params: value
    if isinstance(expr, Param):
        index = expr.index
        def eval_param(row: tuple, params: Sequence[Any]) -> Any:
            try:
                return params[index]
            except IndexError:
                raise ExecutionError(
                    f"statement uses parameter #{index + 1} but only "
                    f"{len(params)} were supplied"
                ) from None
        return eval_param
    if isinstance(expr, SlotRef):
        slot = expr.index
        return lambda row, params: row[slot]
    if isinstance(expr, ColumnRef):
        slot = layout.slot(expr.qualifier, expr.column)
        return lambda row, params: row[slot]
    if isinstance(expr, Star):
        raise PlanningError("'*' is not a scalar expression")
    if isinstance(expr, BinaryOp):
        return _compile_binary(expr, layout)
    if isinstance(expr, UnaryOp):
        operand = compile_expr(expr.operand, layout)
        if expr.op == "NOT":
            def eval_not(row: tuple, params: Sequence[Any]) -> Any:
                value = operand(row, params)
                return None if value is None else not value
            return eval_not
        if expr.op == "-":
            def eval_neg(row: tuple, params: Sequence[Any]) -> Any:
                value = operand(row, params)
                return None if value is None else -value
            return eval_neg
        return operand  # unary '+'
    if isinstance(expr, IsNull):
        operand = compile_expr(expr.operand, layout)
        if expr.negated:
            return lambda row, params: operand(row, params) is not None
        return lambda row, params: operand(row, params) is None
    if isinstance(expr, InList):
        return _compile_in_list(expr, layout)
    if isinstance(expr, Between):
        return _compile_between(expr, layout)
    if isinstance(expr, Like):
        return _compile_like(expr, layout)
    if isinstance(expr, Case):
        return _compile_case(expr, layout)
    if isinstance(expr, FuncCall):
        if expr.name in AGGREGATE_NAMES:
            raise PlanningError(
                f"aggregate {expr.name}() is not allowed in this context"
            )
        args = [compile_expr(a, layout) for a in expr.args]
        name = expr.name
        return lambda row, params: call_scalar(
            name, [a(row, params) for a in args]
        )
    raise PlanningError(f"cannot compile expression {expr!r}")  # pragma: no cover


def _compile_binary(expr: BinaryOp, layout: Layout) -> CompiledExpr:
    op = expr.op
    left = compile_expr(expr.left, layout)
    right = compile_expr(expr.right, layout)
    if op == "AND":
        def eval_and(row: tuple, params: Sequence[Any]) -> Any:
            a = left(row, params)
            if a is False:
                return False
            b = right(row, params)
            if b is False:
                return False
            if a is None or b is None:
                return None
            return True
        return eval_and
    if op == "OR":
        def eval_or(row: tuple, params: Sequence[Any]) -> Any:
            a = left(row, params)
            if a is True:
                return True
            b = right(row, params)
            if b is True:
                return True
            if a is None or b is None:
                return None
            return False
        return eval_or
    if op in _COMPARISONS:
        test = _COMPARISONS[op]
        def eval_cmp(row: tuple, params: Sequence[Any]) -> Any:
            a = left(row, params)
            b = right(row, params)
            if a is None or b is None:
                return None
            return test(compare_values(a, b))
        return eval_cmp
    if op in _ARITH_OPS:
        fn = _ARITH_OPS[op]
        def eval_arith(row: tuple, params: Sequence[Any]) -> Any:
            try:
                return fn(left(row, params), right(row, params))
            except TypeError:
                raise ExecutionError(f"invalid operands for {op}") from None
        return eval_arith
    raise PlanningError(f"unknown operator {op!r}")  # pragma: no cover


def _compile_in_list(expr: InList, layout: Layout) -> CompiledExpr:
    operand = compile_expr(expr.operand, layout)
    items = [compile_expr(item, layout) for item in expr.items]
    negated = expr.negated

    def eval_in(row: tuple, params: Sequence[Any]) -> Any:
        value = operand(row, params)
        if value is None:
            return None
        saw_null = False
        for item in items:
            candidate = item(row, params)
            if candidate is None:
                saw_null = True
            elif compare_values(value, candidate) == 0:
                return not negated
        if saw_null:
            return None
        return negated

    return eval_in


def _compile_between(expr: Between, layout: Layout) -> CompiledExpr:
    operand = compile_expr(expr.operand, layout)
    low = compile_expr(expr.low, layout)
    high = compile_expr(expr.high, layout)
    negated = expr.negated

    def eval_between(row: tuple, params: Sequence[Any]) -> Any:
        value = operand(row, params)
        lo = low(row, params)
        hi = high(row, params)
        if value is None or lo is None or hi is None:
            return None
        inside = compare_values(value, lo) >= 0 and compare_values(value, hi) <= 0
        return not inside if negated else inside

    return eval_between


def _like_regex(pattern: str) -> re.Pattern:
    out = []
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    return re.compile("".join(out), re.DOTALL)


def _compile_like(expr: Like, layout: Layout) -> CompiledExpr:
    operand = compile_expr(expr.operand, layout)
    negated = expr.negated
    if isinstance(expr.pattern, Literal) and expr.pattern.value is not None:
        regex = _like_regex(str(expr.pattern.value))

        def eval_like_const(row: tuple, params: Sequence[Any]) -> Any:
            value = operand(row, params)
            if value is None:
                return None
            matched = bool(regex.fullmatch(str(value)))
            return not matched if negated else matched

        return eval_like_const
    pattern_fn = compile_expr(expr.pattern, layout)

    def eval_like(row: tuple, params: Sequence[Any]) -> Any:
        value = operand(row, params)
        pattern = pattern_fn(row, params)
        if value is None or pattern is None:
            return None
        matched = bool(_like_regex(str(pattern)).fullmatch(str(value)))
        return not matched if negated else matched

    return eval_like


def _compile_case(expr: Case, layout: Layout) -> CompiledExpr:
    branches = [
        (compile_expr(cond, layout), compile_expr(value, layout))
        for cond, value in expr.branches
    ]
    default = compile_expr(expr.default, layout) if expr.default else None

    def eval_case(row: tuple, params: Sequence[Any]) -> Any:
        for cond, value in branches:
            if cond(row, params) is True:
                return value(row, params)
        if default is not None:
            return default(row, params)
        return None

    return eval_case


# ---------------------------------------------------------------------------
# Conjunct classification (predicate pushdown) helpers
# ---------------------------------------------------------------------------


def bindings_used(expr: Expr, layout: Layout) -> set[str] | None:
    """The set of table bindings an expression references.

    Unqualified columns are resolved through ``layout`` (the full FROM
    layout). Returns None when the expression references something the
    layout cannot resolve — the caller then reports the error by compiling.
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
                        return None  # ambiguous; let compilation report it
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
    closure evaluator performs without touching ``x`` anyway.
    (``TRUE AND x`` is *not* ``x``: AND normalizes truthy operands.)
    """
    from repro.db.expr import Scope

    folded = map_children(expr, fold_constants)
    if isinstance(folded, BinaryOp) and isinstance(folded.left, Literal):
        if folded.op == "AND" and folded.left.value is False:
            return Literal(False)
        if folded.op == "OR" and folded.left.value is True:
            return Literal(True)
    if isinstance(folded, Literal) or not is_const_expr(folded):
        return folded
    try:
        value = folded.eval(Scope())
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
