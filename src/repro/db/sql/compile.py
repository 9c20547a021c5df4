"""Expression compilation: Expr trees -> specialized batch functions.

The planner's ``compile_expr`` lowers an expression into a tree of nested
closures — correct, but every row pays one Python call per tree node. This
module lowers the same tree **once per cached plan** into straight-line
Python source (slot-indexed tuple access, short-circuit AND/OR, constant
and parameter hoisting), compiles it with ``compile()``/``exec``, and
returns functions that process a whole batch of rows per call. The
executor's batch operators (:meth:`PlanNode.batches`) drive these; a plan
built without programs (an uncached one) runs the closure tree inside
the same operators, which is also the reference the tests hold the
generated code to.

Semantics are the closure tree's, exactly: SQL three-valued logic with the
engine's truth normalization, ``compare_values`` total-order comparisons
(with a direct-operator fast path guarded against NaN, whose ordering
under ``compare_values`` differs from Python's), the planner's arithmetic
error messages, and lazy CASE/AND/OR evaluation. Any construct this
module does not specialize falls back to the planner closure for that
subtree; any failure to compile at all makes the entry points return
``None`` and the caller stays on the closure path.
"""

from __future__ import annotations

import re
import warnings
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
    UnaryOp,
    _div,
    _mod,
)
from repro.db.sql import planner
from repro.db.sql.planner import _like_regex
from repro.db.sql.functions import (
    AGGREGATE_NAMES,
    _SCALARS,
    call_scalar,
    make_accumulator,
)
from repro.db.types import SORT_CLASS, compare_values
from repro.errors import ExecutionError

__all__ = [
    "compile_scalar",
    "compile_predicate_batch",
    "compile_projection_batch",
    "compile_join_build",
    "compile_join_probe",
    "compile_aggregate_programs",
]

#: Wrapper distinguishing bool group keys from 1/1.0 in raw-keyed dicts,
#: matching the (class, value) grouping the closure aggregate uses
#: (compare_values orders bool apart from numerics, but Python's
#: ``hash(True) == hash(1)`` with ``True == 1`` would merge them).
_BOOL_KEY = ("__repro_bool_key__",)

_CMP_PY = {
    "=": "==", "==": "==", "!=": "!=", "<>": "!=",
    "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}
_CMP_ZERO = {
    "=": "== 0", "==": "== 0", "!=": "!= 0", "<>": "!= 0",
    "<": "< 0", "<=": "<= 0", ">": "> 0", ">=": ">= 0",
}


def _pget(params: Sequence[Any], index: int) -> Any:
    try:
        return params[index]
    except IndexError:
        raise ExecutionError(
            f"statement uses parameter #{index + 1} but only "
            f"{len(params)} were supplied"
        ) from None


class _Emitter:
    """Accumulates statement-level Python source for one expression tree.

    ``emit`` returns a *fragment*: the name of a local temp, a hoisted
    parameter, a bound constant, an inline literal, or a ``<row>[N]``
    indexing expression — all safe to reference more than once.
    """

    def __init__(self, layout: planner.Layout, env: dict, row: str = "r"):
        self.layout = layout
        self.env = env
        self.row = row
        self.lines: list[str] = []
        self.prologue: list[str] = []
        self.indent = 1
        self._n = 0
        self._params: dict[int, str] = {}
        self.const_args: list[str] = []

    def tmp(self) -> str:
        self._n += 1
        return f"_t{self._n}"

    def bind(self, value: Any, prefix: str = "_k") -> str:
        """Bind a Python object into the function as a fast local default."""
        self._n += 1
        name = f"{prefix}{self._n}"
        self.env[name] = value
        self.const_args.append(name)
        return name

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def localize(self, frag: str) -> str:
        """Copy a row-indexing fragment into a temp for repeated use."""
        if frag.startswith(self.row + "["):
            temp = self.tmp()
            self.line(f"{temp} = {frag}")
            return temp
        return frag

    def param(self, index: int) -> str:
        name = self._params.get(index)
        if name is None:
            name = f"_q{index}"
            self._params[index] = name
            self.prologue.append(f"    {name} = _pget(p, {index})")
            self.env.setdefault("_pget", _pget)
        return name

    # -- expression lowering ------------------------------------------------

    def emit(self, expr: Expr) -> str:
        if isinstance(expr, Literal):
            value = expr.value
            if value is None or value is True or value is False:
                return repr(value)
            if type(value) is int:
                return repr(value)
            return self.bind(value)
        if isinstance(expr, Param):
            return self.param(expr.index)
        if isinstance(expr, planner.SlotRef):
            return f"{self.row}[{expr.index}]"
        if isinstance(expr, ColumnRef):
            slot = self.layout.slot(expr.qualifier, expr.column)
            return f"{self.row}[{slot}]"
        if isinstance(expr, BinaryOp):
            return self._emit_binary(expr)
        if isinstance(expr, UnaryOp):
            return self._emit_unary(expr)
        if isinstance(expr, IsNull):
            operand = self.emit(expr.operand)
            out = self.tmp()
            test = "is not None" if expr.negated else "is None"
            self.line(f"{out} = {operand} {test}")
            return out
        if isinstance(expr, Between):
            return self._emit_between(expr)
        if isinstance(expr, InList):
            return self._emit_in(expr)
        if isinstance(expr, Like):
            return self._emit_like(expr)
        if isinstance(expr, Case):
            return self._emit_case(expr)
        if isinstance(expr, FuncCall):
            return self._emit_func(expr)
        return self._fallback(expr)

    def _fallback(self, expr: Expr) -> str:
        """Unsupported subtree: delegate to the planner closure."""
        closure = planner.compile_expr(expr, self.layout)
        name = self.bind(closure, "_c")
        out = self.tmp()
        self.line(f"{out} = {name}({self.row}, p)")
        return out

    def _emit_binary(self, expr: BinaryOp) -> str:
        op = expr.op
        if op == "AND" or op == "OR":
            a = self.emit(expr.left)
            out = self.tmp()
            stop = "False" if op == "AND" else "True"
            self.line(f"if {a} is {stop}:")
            self.line(f"    {out} = {stop}")
            self.line("else:")
            self.indent += 1
            b = self.emit(expr.right)
            self.line(f"if {b} is {stop}:")
            self.line(f"    {out} = {stop}")
            self.line(f"elif {a} is None or {b} is None:")
            self.line(f"    {out} = None")
            self.line("else:")
            self.line(f"    {out} = {'True' if op == 'AND' else 'False'}")
            self.indent -= 1
            return out
        if op in _CMP_PY:
            return self._emit_compare(expr, op)
        if op in ("+", "-", "*", "/", "%", "||"):
            return self._emit_arith(expr, op)
        return self._fallback(expr)

    def _emit_compare(self, expr: BinaryOp, op: str) -> str:
        """Comparison with a NaN-guarded direct-operator fast path.

        Same-class int/str/bool operands and NaN-free numeric pairs
        compare identically under Python's operators and under
        ``compare_values``; everything else (mixed classes, NaN — which
        ``compare_values`` orders greatest while Python orders nowhere)
        takes the total-order slow path. Literal operands specialize the
        guards at compile time so the hot ``col <op> constant`` shape
        pays one class check per row.
        """
        out = self.tmp()
        py, zero = _CMP_PY[op], _CMP_ZERO[op]
        a_lit = isinstance(expr.left, Literal)
        b_lit = isinstance(expr.right, Literal)
        if (a_lit and expr.left.value is None) or (
            b_lit and expr.right.value is None
        ):
            self.line(f"{out} = None")
            return out
        a = self.localize(self.emit(expr.left))
        b = self.localize(self.emit(expr.right))
        self.env.setdefault("_cmp", compare_values)
        none_checks = []
        if not a_lit:
            none_checks.append(f"{a} is None")
        if not b_lit:
            none_checks.append(f"{b} is None")
        if none_checks:
            self.line(f"if {' or '.join(none_checks)}:")
            self.line(f"    {out} = None")
            self.line("else:")
            self.indent += 1
        if a_lit and b_lit:
            ta, tb = type(expr.left.value), type(expr.right.value)
            va, vb = expr.left.value, expr.right.value
            if (ta is tb and ta in (int, str, bool)) or (
                ta in (int, float)
                and tb in (int, float)
                and va == va
                and vb == vb
            ):
                self.line(f"{out} = {a} {py} {b}")
            else:
                self.line(f"{out} = _cmp({a}, {b}) {zero}")
        elif a_lit or b_lit:
            lit_val = expr.left.value if a_lit else expr.right.value
            other = b if a_lit else a
            lit_cls = type(lit_val)
            if lit_cls is int or (lit_cls is float and lit_val == lit_val):
                cls = self.tmp()
                self.line(f"{cls} = ({other}).__class__")
                self.line(f"if {cls} is int:")
                self.line(f"    {out} = {a} {py} {b}")
                self.line(f"elif {cls} is float and {other} == {other}:")
                self.line(f"    {out} = {a} {py} {b}")
                self.line("else:")
                self.line(f"    {out} = _cmp({a}, {b}) {zero}")
            elif lit_cls in (str, bool):
                cls = self.tmp()
                self.line(f"{cls} = ({other}).__class__")
                self.line(f"if {cls} is {lit_cls.__name__}:")
                self.line(f"    {out} = {a} {py} {b}")
                self.line("else:")
                self.line(f"    {out} = _cmp({a}, {b}) {zero}")
            else:
                # NaN literal or exotic class: always the total order.
                self.line(f"{out} = _cmp({a}, {b}) {zero}")
        else:
            ca, cb = self.tmp(), self.tmp()
            self.line(f"{ca} = ({a}).__class__; {cb} = ({b}).__class__")
            self.line(
                f"if {ca} is {cb} and "
                f"({ca} is int or {ca} is str or {ca} is bool):"
            )
            self.line(f"    {out} = {a} {py} {b}")
            self.line(
                f"elif ({ca} is int or {ca} is float) and "
                f"({cb} is int or {cb} is float) and "
                f"{a} == {a} and {b} == {b}:"
            )
            self.line(f"    {out} = {a} {py} {b}")
            self.line("else:")
            self.line(f"    {out} = _cmp({a}, {b}) {zero}")
        if none_checks:
            self.indent -= 1
        return out

    def _emit_arith(self, expr: BinaryOp, op: str) -> str:
        out = self.tmp()
        msg = self.bind(f"invalid operands for {op}", "_m")
        self.line("try:")
        self.indent += 1
        a = self.localize(self.emit(expr.left))
        b = self.localize(self.emit(expr.right))
        self.line(f"if {a} is None or {b} is None:")
        self.line(f"    {out} = None")
        self.line("else:")
        if op in ("+", "-", "*"):
            self.line(f"    {out} = {a} {op} {b}")
        elif op == "||":
            self.line(f"    {out} = f'{{{a}}}{{{b}}}'")
        else:
            helper = self.bind(_div if op == "/" else _mod, "_h")
            self.line(f"    {out} = {helper}({a}, {b})")
        self.indent -= 1
        self.line("except TypeError:")
        self.line(f"    raise ExecutionError({msg}) from None")
        return out

    def _emit_unary(self, expr: UnaryOp) -> str:
        operand = self.localize(self.emit(expr.operand))
        if expr.op == "NOT":
            out = self.tmp()
            self.line(f"{out} = None if {operand} is None else not {operand}")
            return out
        if expr.op == "-":
            out = self.tmp()
            self.line(f"{out} = None if {operand} is None else -{operand}")
            return out
        return operand  # unary '+'

    def _emit_between(self, expr: Between) -> str:
        value = self.localize(self.emit(expr.operand))
        lo = self.localize(self.emit(expr.low))
        hi = self.localize(self.emit(expr.high))
        out = self.tmp()
        self.env.setdefault("_cmp", compare_values)
        self.line(f"if {value} is None or {lo} is None or {hi} is None:")
        self.line(f"    {out} = None")
        self.line("else:")
        inside = f"_cmp({value}, {lo}) >= 0 and _cmp({value}, {hi}) <= 0"
        if expr.negated:
            self.line(f"    {out} = not ({inside})")
        else:
            self.line(f"    {out} = {inside}")
        return out

    def _emit_in(self, expr: InList) -> str:
        """IN over an all-literal list: one membership test on the
        ``(class, value)`` keys of its non-NULL items; a miss is NULL
        when the list held a NULL literal."""
        if not all(isinstance(item, Literal) for item in expr.items):
            return self._fallback(expr)
        values = [item.value for item in expr.items]
        keys = self.bind(
            frozenset((SORT_CLASS[type(v)], v) for v in values if v is not None)
        )
        miss = None if None in values else expr.negated
        operand = self.tmp()
        self.line(f"{operand} = {self.emit(expr.operand)}")
        out = self.tmp()
        classes = self.bind(SORT_CLASS)
        self.line(
            f"{out} = None if {operand} is None else ({not expr.negated} if "
            f"({classes}[{operand}.__class__], {operand}) in {keys} else {miss})"
        )
        return out

    def _emit_like(self, expr: Like) -> str:
        if not (isinstance(expr.pattern, Literal) and expr.pattern.value is not None):
            return self._fallback(expr)
        regex = self.bind(_like_regex(str(expr.pattern.value)), "_rx")
        operand = self.localize(self.emit(expr.operand))
        out = self.tmp()
        matched = f"bool({regex}.fullmatch(str({operand})))"
        if expr.negated:
            matched = f"not {matched}"
        self.line(f"{out} = None if {operand} is None else {matched}")
        return out

    def _emit_case(self, expr: Case) -> str:
        out = self.tmp()

        def branch(index: int) -> None:
            if index >= len(expr.branches):
                if expr.default is not None:
                    value = self.emit(expr.default)
                    self.line(f"{out} = {value}")
                else:
                    self.line(f"{out} = None")
                return
            cond_expr, value_expr = expr.branches[index]
            cond = self.emit(cond_expr)
            self.line(f"if {cond} is True:")
            self.indent += 1
            value = self.emit(value_expr)
            self.line(f"{out} = {value}")
            self.indent -= 1
            self.line("else:")
            self.indent += 1
            branch(index + 1)
            self.indent -= 1

        branch(0)
        return out

    def _emit_func(self, expr: FuncCall) -> str:
        if expr.name in AGGREGATE_NAMES:
            return self._fallback(expr)  # raises PlanningError, as before
        args = [self.emit(a) for a in expr.args]
        out = self.tmp()
        spec = _SCALARS.get(expr.name.upper())
        if spec is not None:
            fn, lo, hi = spec
            if lo <= len(args) and (hi is None or len(args) <= hi):
                bound = self.bind(fn, "_f")
                self.line(f"{out} = {bound}({', '.join(args)})")
                return out
        # Unknown name or bad arity: keep the runtime error semantics.
        call = self.bind(call_scalar, "_f")
        name = self.bind(expr.name)
        self.line(f"{out} = {call}({name}, [{', '.join(args)}])")
        return out


def _assemble(
    fn_name: str, signature: str, emitter: _Emitter, env: dict
) -> Callable:
    defaults = "".join(f", {name}={name}" for name in emitter.const_args)
    body = emitter.prologue + emitter.lines
    if not body:
        body = ["    pass"]
    source = f"def {fn_name}({signature}{defaults}):\n" + "\n".join(body)
    with warnings.catch_warnings():
        # Generated identity tests like ``_t1 is True`` are deliberate
        # (SQL truth normalization); silence CPython's literal-is lint.
        warnings.simplefilter("ignore", SyntaxWarning)
        code = compile(source, "<repro-codegen>", "exec")
    exec(code, env)  # noqa: S102 - source is generated by this module
    fn = env[fn_name]
    fn._src = source
    return fn


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def compile_scalar(expr: Expr, layout: planner.Layout) -> Callable | None:
    """``(row, params) -> value``, or None if codegen fails."""
    try:
        env: dict = {"ExecutionError": ExecutionError}
        emitter = _Emitter(layout, env, row="r")
        frag = emitter.emit(expr)
        emitter.line(f"return {frag}")
        return _assemble("_scalar", "r, p", emitter, env)
    except Exception:
        return None


def compile_predicate_batch(
    expr: Expr, layout: planner.Layout, pairs: bool = False
) -> Callable | None:
    """``(rows, params) -> list[row]`` keeping rows where expr IS TRUE.

    With ``pairs`` the batch holds ``(row_id, values)`` pairs — a scan
    recording read provenance — and the predicate reads ``values``.
    """
    try:
        env: dict = {"ExecutionError": ExecutionError}
        emitter = _Emitter(layout, env, row="r")
        emitter.indent = 2
        saved = emitter.lines
        emitter.lines = []
        frag = emitter.emit(expr)
        per_row = emitter.lines
        emitter.lines = saved
        emitter.indent = 1
        emitter.line("out = []")
        emitter.line("ap = out.append")
        if pairs:
            emitter.line("for x in rows:")
            emitter.line("    r = x[1]")
        else:
            emitter.line("for r in rows:")
        emitter.lines.extend(per_row)
        emitter.line(f"    if {frag} is True:")
        emitter.line("        ap(x)" if pairs else "        ap(r)")
        emitter.line("return out")
        return _assemble("_pred", "rows, p", emitter, env)
    except Exception:
        return None


def compile_projection_batch(
    exprs: Sequence[Expr], layout: planner.Layout
) -> Callable | None:
    """``(rows, params) -> list[tuple]`` projecting each row."""
    try:
        env: dict = {"ExecutionError": ExecutionError}
        emitter = _Emitter(layout, env, row="r")
        emitter.indent = 2
        saved = emitter.lines
        emitter.lines = []
        frags = [emitter.emit(e) for e in exprs]
        per_row = emitter.lines
        emitter.lines = saved
        emitter.indent = 1
        packed = f"({', '.join(frags)},)" if frags else "()"
        if not per_row:
            # Pure fragments (slots/constants/params): one list comprehension.
            emitter.line(f"return [{packed} for r in rows]")
        else:
            emitter.line("out = []")
            emitter.line("ap = out.append")
            emitter.line("for r in rows:")
            emitter.lines.extend(per_row)
            emitter.line(f"    ap({packed})")
            emitter.line("return out")
        return _assemble("_proj", "rows, p", emitter, env)
    except Exception:
        return None


def _emit_key(emitter: _Emitter, key_exprs: Sequence[Expr]) -> tuple[list[str], str]:
    """Per-component fragments and the (scalar or tuple) dict key fragment.

    ``emit`` always returns an atom (a slot access, temp, bound constant,
    or literal), so fragments are safely repeatable without localizing —
    which keeps a bare-column key statement-free and eligible for the
    probe comprehension fast path.
    """
    frags = [emitter.emit(e) for e in key_exprs]
    if len(frags) == 1:
        return frags, frags[0]
    return frags, f"({', '.join(frags)},)"


def join_key_slot(
    key_exprs: Sequence[Expr], layout: planner.Layout
) -> int | None:
    """The tuple slot index when the join key is one bare column.

    The count-only join fast path (eager aggregation for ``COUNT(*)``
    over an equi-join) needs to extract probe keys with ``itemgetter``
    at C speed; that is only equivalent to the compiled probe when the
    key fragment is literally ``r[slot]``. Decided here, against the
    same emitter the probe uses, so the two can never disagree.
    """
    if len(key_exprs) != 1:
        return None
    try:
        emitter = _Emitter(layout, {}, row="r")
        frag = emitter.emit(key_exprs[0])
        if emitter.lines:
            return None
        match = re.fullmatch(r"r\[(\d+)\]", frag)
        return int(match.group(1)) if match else None
    except Exception:
        return None


def compile_join_build(
    key_exprs: Sequence[Expr], layout: planner.Layout
) -> Callable | None:
    """``(rows, params, table) -> None`` building the hash side in place.

    Single-column keys use the scalar value as the dict key; the matching
    probe function does the same, so bucketing is identical to the closure
    path's key tuples (tuple hashing delegates to the elements).
    """
    try:
        env: dict = {"ExecutionError": ExecutionError}
        emitter = _Emitter(layout, env, row="r")
        emitter.indent = 2
        saved = emitter.lines
        emitter.lines = []
        frags, key = _emit_key(emitter, key_exprs)
        per_row = emitter.lines
        emitter.lines = saved
        emitter.indent = 1
        emitter.line("get = table.get")
        emitter.line("for r in rows:")
        emitter.lines.extend(per_row)
        null_check = " or ".join(f"{f} is None" for f in frags)
        emitter.line(f"    if {null_check}:")
        emitter.line("        continue")
        emitter.line(f"    lst = get({key})")
        emitter.line("    if lst is None:")
        emitter.line(f"        table[{key}] = [r]")
        emitter.line("    else:")
        emitter.line("        lst.append(r)")
        return _assemble("_build", "rows, p, table", emitter, env)
    except Exception:
        return None


def compile_join_probe(
    key_exprs: Sequence[Expr],
    left_layout: planner.Layout,
    residual_expr: Expr | None,
    combined_layout: planner.Layout,
    right_width: int,
    kind: str,
) -> Callable | None:
    """``(rows, params, table) -> list[combined_row]`` probing the hash side."""
    try:
        env: dict = {"ExecutionError": ExecutionError}
        emitter = _Emitter(left_layout, env, row="r")
        left_join = kind == "left"
        simple = residual_expr is None and not left_join
        emitter.indent = 2
        saved = emitter.lines
        emitter.lines = []
        frags, key = _emit_key(emitter, key_exprs)
        per_row = emitter.lines
        emitter.lines = saved
        emitter.indent = 1
        if simple and not per_row and len(frags) == 1:
            # Pure single-column inner join: one comprehension. A NULL key
            # never appears in the table, so ``get`` misses naturally.
            emitter.env["_empty"] = ()
            emitter.line("get = table.get")
            emitter.line(
                f"return [r + rr for r in rows for rr in get({key}) or _empty]"
            )
            return _assemble("_probe", "rows, p, table", emitter, env)
        emitter.line("out = []")
        emitter.line("ap = out.append")
        emitter.line("get = table.get")
        if left_join:
            emitter.line(f"nullr = (None,) * {right_width}")
        emitter.line("for r in rows:")
        emitter.indent = 2
        emitter.lines.extend(per_row)
        null_check = " or ".join(f"{f} is None" for f in frags)
        if left_join:
            emitter.line(f"m = None if ({null_check}) else get({key})")
            emitter.line("if m is None:")
            emitter.line("    ap(r + nullr)")
            emitter.line("    continue")
            emitter.line("matched = False")
        else:
            emitter.line(f"if {null_check}:")
            emitter.line("    continue")
            emitter.line(f"m = get({key})")
            emitter.line("if m is None:")
            emitter.line("    continue")
        emitter.line("for rr in m:")
        emitter.indent = 3
        if residual_expr is not None:
            res_emitter = _Emitter(combined_layout, emitter.env, row="c")
            res_emitter.lines = emitter.lines
            res_emitter.indent = emitter.indent
            res_emitter._n = emitter._n + 1000
            res_emitter.const_args = emitter.const_args
            res_emitter.prologue = emitter.prologue
            res_emitter._params = emitter._params
            emitter.line("c = r + rr")
            frag = res_emitter.emit(residual_expr)
            emitter.indent = res_emitter.indent
            emitter.line(f"if {frag} is True:")
            if left_join:
                emitter.line("    matched = True")
                emitter.line("    ap(c)")
            else:
                emitter.line("    ap(c)")
        else:
            if left_join:
                emitter.line("matched = True")
            emitter.line("ap(r + rr)")
        emitter.indent = 2
        if left_join:
            emitter.line("if not matched:")
            emitter.line("    ap(r + nullr)")
        emitter.indent = 1
        emitter.line("return out")
        return _assemble("_probe", "rows, p, table", emitter, env)
    except Exception:
        return None


def compile_aggregate_programs(
    group_exprs: Sequence[Expr],
    agg_metas: Sequence[tuple[str, bool, bool, Expr | None]],
    layout: planner.Layout,
) -> tuple[Callable, Callable, Callable] | None:
    """Compiled grouped accumulation: ``(chunk_fn, init_fn, fin_fn)``.

    ``chunk_fn(rows, params, groups, order)`` folds one batch into the
    group states; ``init_fn()`` makes a fresh state (for the empty global
    group); ``fin_fn(state)`` finalizes one state into the aggregate value
    tuple. ``order`` accumulates ``(raw_key_tuple, state)`` in first-seen
    order, matching the closure path's output ordering.

    State layout: COUNT -> one counter slot; SUM/AVG -> (total, count)
    slots (``sum()`` over a list is the same left-to-right fold);
    MIN/MAX -> one best-so-far slot; DISTINCT variants keep real
    :class:`Accumulator` objects so set-based dedup semantics are shared.
    """
    try:
        env: dict = {"ExecutionError": ExecutionError, "_cmp": compare_values}
        emitter = _Emitter(layout, env, row="r")

        inits: list[str] = []  # python exprs building one state list
        fins: list[str] = []  # python exprs over state var "st"
        updates: list[tuple[str, ...]] = []  # lines per agg (row loop body)
        slot = 0
        pure_count_star = True
        for name, star, distinct, arg_expr in agg_metas:
            upper = name.upper()
            if distinct or upper not in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
                maker = emitter.bind(
                    (lambda n=name, s=star, d=distinct: make_accumulator(n, s, d)),
                    "_mk",
                )
                inits.append(f"{maker}()")
                fins.append(f"st[{slot}].result()")
                if star:
                    updates.append((f"st[{slot}].add(None)",))
                else:
                    updates.append(("__ARG__", f"st[{slot}].add(__V__)"))
                slot += 1
                pure_count_star = False
                continue
            if upper == "COUNT":
                inits.append("0")
                fins.append(f"st[{slot}]")
                if star:
                    updates.append((f"st[{slot}] += 1",))
                else:
                    updates.append(
                        ("__ARG__", "if __V__ is not None:", f"    st[{slot}] += 1")
                    )
                    pure_count_star = False
                slot += 1
            elif upper in ("SUM", "AVG"):
                inits.append("0")
                inits.append("0")
                if upper == "SUM":
                    fins.append(f"(st[{slot}] if st[{slot + 1}] else None)")
                else:
                    fins.append(
                        f"(st[{slot}] / st[{slot + 1}] if st[{slot + 1}] else None)"
                    )
                updates.append(
                    (
                        "__ARG__",
                        "if __V__ is not None:",
                        f"    st[{slot}] += __V__",
                        f"    st[{slot + 1}] += 1",
                    )
                )
                slot += 2
                pure_count_star = False
            else:  # MIN / MAX
                inits.append("None")
                fins.append(f"st[{slot}]")
                op = "> 0" if upper == "MAX" else "< 0"
                updates.append(
                    (
                        "__ARG__",
                        "if __V__ is not None:",
                        f"    _b = st[{slot}]",
                        "    if _b is None:",
                        f"        st[{slot}] = __V__",
                        f"    elif _cmp(__V__, _b) {op}:",
                        f"        st[{slot}] = __V__",
                    )
                )
                slot += 1
                pure_count_star = False

        env["_BOOL_KEY"] = _BOOL_KEY
        emitter.line("get = groups.get")
        grouped = bool(group_exprs)
        if grouped:
            emitter.line("oap = order.append")
            emitter.line("for r in rows:")
            emitter.indent = 2
            key_frags = [
                emitter.localize(emitter.emit(e)) for e in group_exprs
            ]
            wrapped = [
                f"({f} if {f}.__class__ is not bool else (_BOOL_KEY, {f}))"
                for f in key_frags
            ]
            if len(wrapped) == 1:
                key = wrapped[0]
            else:
                key = f"({', '.join(wrapped)},)"
            emitter.line(f"kk = {key}")
            emitter.line("st = get(kk)")
            emitter.line("if st is None:")
            emitter.line(f"    st = groups[kk] = [{', '.join(inits)}]")
            emitter.line(f"    oap((({', '.join(key_frags)},), st))")
        else:
            emitter.line("st = get(None)")
            emitter.line("if st is None:")
            emitter.line(f"    st = groups[None] = [{', '.join(inits)}]")
            emitter.line("    order.append(((), st))")
            if pure_count_star:
                # Only COUNT(*): the whole batch folds in O(1).
                for lines in updates:
                    for text in lines:
                        emitter.line(
                            text.replace("+= 1", "+= len(rows)")
                        )
                emitter.line("return None")
                emitter.indent = 1
                chunk = _assemble(
                    "_agg", "rows, p, groups, order", emitter, env
                )
                return chunk, _make_init(inits, env), _make_fin(fins, env)
            emitter.line("for r in rows:")
            emitter.indent = 2

        # Per-row aggregate updates; each __ARG__ marker evaluates that
        # aggregate's argument expression into __V__ at this point.
        for (meta, lines) in zip(agg_metas, updates):
            _name, star, _distinct, arg_expr = meta
            value_frag = None
            if not star and arg_expr is not None:
                value_frag = emitter.localize(emitter.emit(arg_expr))
            for text in lines:
                if text == "__ARG__":
                    continue
                emitter.line(text.replace("__V__", value_frag or "None"))
        emitter.indent = 1
        chunk = _assemble("_agg", "rows, p, groups, order", emitter, env)
        return chunk, _make_init(inits, env), _make_fin(fins, env)
    except Exception:
        return None


def _make_init(inits: list[str], env: dict) -> Callable:
    source = f"def _init():\n    return [{', '.join(inits)}]"
    exec(compile(source, "<repro-codegen>", "exec"), env)  # noqa: S102
    return env["_init"]


def _make_fin(fins: list[str], env: dict) -> Callable:
    source = f"def _fin(st):\n    return ({', '.join(fins)},)"
    exec(compile(source, "<repro-codegen>", "exec"), env)  # noqa: S102
    return env["_fin"]
