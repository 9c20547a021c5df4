"""Expression programs: Expr trees -> specialized batch functions.

Everything the executor evaluates per row runs here: a plan node hands
over its expressions and its input :class:`~repro.db.sql.planner.Layout`
and gets back a function that processes a whole batch of rows per call —
straight-line Python source (slot-indexed tuple access, short-circuit
AND/OR, constant and parameter hoisting) built from the tree, compiled
with ``compile()`` and bound with ``exec``. A node generates a form the
first time it runs it.

A program is a pure function of its expression and layout, and its source
text says everything about it but the constants it binds, so code objects
are kept per source text (:data:`_code_memo`): a plan that runs once — a
replay's fresh dev database, a shard, a broadcast join rebuilt per
statement — reuses what any database of the process already compiled.

These programs are the engine's one expression semantics, held to stdlib
``sqlite3`` by the tests (``tests/sql_oracle.py`` lists every declared
difference): three-valued logic with one truth rule (:func:`_truth`),
``compare_values``' total order (a direct-operator fast path guarded
against NaN, which ``compare_values`` orders greatest), lazy CASE, AND,
OR and IN. What a row could never evaluate — an unknown column, ``*``, an
aggregate call — is a :class:`PlanningError`, as it is from
:func:`~repro.db.sql.planner.check_scalar` at plan time.
"""

from __future__ import annotations

import math
import re
import warnings
from functools import lru_cache
from types import CodeType
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
)
from repro.db.sql import planner
from repro.db.sql.functions import (
    AGGREGATE_NAMES,
    _SCALARS,
    call_scalar,
    make_accumulator,
)
from repro.db.types import SORT_CLASS, compare_values
from repro.errors import ExecutionError, PlanningError

__all__ = [
    "compile_scalar",
    "compile_predicate_batch",
    "compile_projection_batch",
    "compile_sort_key",
    "compile_assignment",
    "compile_join_build",
    "compile_join_probe",
    "compile_aggregate_programs",
]

#: Code objects by generated source text, dropped whole at the limit
#: (like the plan memo, ``executor._plan_memo``).
_CODE_MEMO_LIMIT = 4096
_code_memo: dict[str, CodeType] = {}

#: Wrapper distinguishing bool group and join keys from 1/1.0 in
#: raw-keyed dicts (SQL's ``TRUE = 1`` is FALSE, but Python's
#: ``hash(True) == hash(1)`` with ``True == 1`` would merge them).
BOOL_KEY = ("__repro_bool_key__",)


def _dict_key(frags: Sequence[str]) -> str:
    """The dict key of key fragments: one is its own (scalar) key, several
    a tuple, none ``()``. A bool is wrapped so no number equals it; the
    generated function must bind ``_BOOL_KEY``."""
    wrapped = [
        f"({f} if ({f}).__class__ is not bool else (_BOOL_KEY, {f}))" for f in frags
    ]
    return wrapped[0] if len(wrapped) == 1 else f"({''.join(w + ', ' for w in wrapped)})"


_CMP_PY = {
    "=": "==", "==": "==", "!=": "!=", "<>": "!=",
    "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}
_CMP_ZERO = {
    "=": "== 0", "==": "== 0", "!=": "!= 0", "<>": "!= 0",
    "<": "< 0", "<=": "<= 0", ">": "> 0", ">=": ">= 0",
}


def _div(a: Any, b: Any) -> Any:
    if a.__class__ is str or b.__class__ is str:
        raise TypeError("arithmetic on TEXT")
    if b == 0:
        raise ExecutionError("division by zero")
    result = a / b
    if isinstance(a, int) and isinstance(b, int) and result == int(result):
        return int(result)
    return None if result != result else result  # inf / inf is NaN: NULL


def _mod(a: Any, b: Any) -> Any:
    if a.__class__ is str or b.__class__ is str:
        # ``str % x`` is printf formatting in Python, not arithmetic.
        raise TypeError("arithmetic on TEXT")
    if b == 0:
        raise ExecutionError("modulo by zero")
    if isinstance(a, float) or isinstance(b, float):
        # Truncated division's remainder, as Postgres computes it (SQLite
        # truncates float operands to integers first). An infinite
        # dividend has none: NaN, so NULL.
        try:
            return math.fmod(a, b)
        except ValueError:
            return None
    # The remainder takes the dividend's sign, as in SQLite, Postgres and
    # MySQL: -7 % 3 is -1, 7 % -3 is 1.
    remainder = abs(a) % abs(b)
    return -remainder if a < 0 else remainder


def _truth(value: Any) -> bool:
    """The truth of a value in boolean position (AND, OR, NOT, CASE WHEN,
    WHERE, HAVING, ON) that is not TRUE, FALSE or NULL: a number is TRUE
    exactly when it is nonzero, as in SQLite; TEXT is an error."""
    if value.__class__ is str:
        raise ExecutionError(f"TEXT {value!r} is not a truth value")
    return value != 0


@lru_cache(maxsize=512)
def like_regex(pattern: str) -> re.Pattern:
    """The regex a LIKE pattern means: ``%`` any run, ``_`` any one character.

    Kept per pattern text, so a pattern that arrives as a parameter or a
    column value is translated once, not once per row it is matched against.
    """
    out = []
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    return re.compile("".join(out), re.DOTALL)


def _is_predicate(expr: Expr) -> bool:
    """Whether ``expr`` can only be TRUE, FALSE or NULL."""
    if isinstance(expr, BinaryOp):
        return expr.op in _CMP_PY or expr.op == "AND" or expr.op == "OR"
    if isinstance(expr, UnaryOp):
        return expr.op == "NOT"
    if isinstance(expr, Literal):
        return expr.value is None or expr.value.__class__ is bool
    return isinstance(expr, (IsNull, InList, Between, Like))


def _pget(params: Sequence[Any], index: int) -> Any:
    """Parameter ``index`` as bound: a float NaN binds as NULL, as in
    SQLite."""
    try:
        value = params[index]
    except IndexError:
        raise ExecutionError(
            f"statement uses parameter #{index + 1} but only "
            f"{len(params)} were supplied"
        ) from None
    return None if value != value else value


def _not_nan(value: Any) -> Any:
    """``value``, or NULL for a float NaN (a SUM of both infinities)."""
    return None if value != value else value


class _Emitter:
    """Accumulates statement-level Python source for one expression tree.

    ``emit`` returns a *fragment*: the name of a local temp, a hoisted
    parameter, a bound constant, an inline literal, or a ``<row>[N]``
    indexing expression — all safe to reference more than once.
    """

    def __init__(self, layout: planner.Layout):
        self.layout = layout
        self.env: dict = {"ExecutionError": ExecutionError}
        self.row = "r"
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

    def per_row(
        self, exprs: Sequence[Expr], lower: Callable[[Expr], str] | None = None
    ) -> tuple[list[str], list[str]]:
        """Lower ``exprs`` (with ``lower``, by default :meth:`emit`) as a
        row loop's body: (fragments, body lines)."""
        outer, self.lines = self.lines, []
        self.indent = 2
        frags = [(lower or self.emit)(e) for e in exprs]
        body, self.lines = self.lines, outer
        self.indent = 1
        return frags, body

    def assemble(self, fn_name: str, signature: str) -> Callable:
        """Bind the accumulated source into a function."""
        defaults = "".join(f", {name}={name}" for name in self.const_args)
        body = self.prologue + self.lines
        source = f"def {fn_name}({signature}{defaults}):\n" + "\n".join(body)
        return _bind(source, fn_name, self.env)

    # -- expression lowering ------------------------------------------------

    def truth(self, expr: Expr) -> str:
        """``expr`` in boolean position: a fragment that is TRUE, FALSE or
        NULL. A bool or NULL stays on the ``is True`` / ``is False`` path;
        anything else goes through :func:`_truth`."""
        frag = self.emit(expr)
        if _is_predicate(expr):
            return frag
        value = self.localize(frag)
        out = self.tmp()
        self.env.setdefault("_truth", _truth)
        self.line(
            f"{out} = {value} if {value} is None or ({value}).__class__ is bool "
            f"else _truth({value})"
        )
        return out

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
        if isinstance(expr, FuncCall) and expr.name not in AGGREGATE_NAMES:
            return self._emit_func(expr)
        # ``*``, an aggregate call, a node type nobody taught this module:
        # what check_scalar reports, by name, when the plan is built.
        raise PlanningError(f"cannot compile expression {expr!r}")

    def _emit_binary(self, expr: BinaryOp) -> str:
        op = expr.op
        if op == "AND" or op == "OR":
            a = self.truth(expr.left)
            out = self.tmp()
            stop = "False" if op == "AND" else "True"
            self.line(f"if {a} is {stop}:")
            self.line(f"    {out} = {stop}")
            self.line("else:")
            self.indent += 1
            b = self.truth(expr.right)
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
        raise PlanningError(f"unknown operator {op!r}")

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
        py, zero = _CMP_PY[op], _CMP_ZERO[op]
        a_lit = isinstance(expr.left, Literal)
        b_lit = isinstance(expr.right, Literal)
        a = self.localize(self.emit(expr.left))
        b = self.localize(self.emit(expr.right))
        out = self.tmp()
        if (a_lit and expr.left.value is None) or (
            b_lit and expr.right.value is None
        ):
            # NULL whatever the other side is — which still ran, for the
            # error it may raise.
            self.line(f"{out} = None")
            return out
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
        """Arithmetic: only the operation sits in the ``try``, so a chain
        of any length stays flat (CPython nests 20 blocks at most)."""
        a = self.localize(self.emit(expr.left))
        b = self.localize(self.emit(expr.right))
        if op in ("+", "-", "*"):
            value = f"{a} {op} {b}"
        elif op == "||":
            value = f"f'{{{a}}}{{{b}}}'"
        else:
            helper = self.bind(_div if op == "/" else _mod, "_h")
            value = f"{helper}({a}, {b})"
        complaint = f"invalid operands for {op}"
        out = self._emit_guarded(f"{a} is None or {b} is None", value, complaint)
        if op == "+" or op == "*":
            # TEXT is no number, though Python makes 'a' + 'b' and 'a' * 2.
            self.line(f"if {out}.__class__ is str:")
            self.line(f"    raise ExecutionError({complaint!r})")
        if op in ("+", "-", "*"):
            # Infinities can meet in a NaN (inf - inf, inf * 0): NULL, as
            # in SQLite. ``/`` and ``%`` see to it in their helpers.
            self.line(f"if {out} != {out}:")
            self.line(f"    {out} = None")
        return out

    def _emit_guarded(self, is_null: str, value: str, complaint: str) -> str:
        """``value``, NULL under ``is_null``; a TypeError is ``complaint``."""
        out = self.tmp()
        self.line(f"if {is_null}:")
        self.line(f"    {out} = None")
        self.line("else:")
        self.line("    try:")
        self.line(f"        {out} = {value}")
        self.line("    except TypeError:")
        self.line(f"        raise ExecutionError({complaint!r}) from None")
        return out

    def _emit_unary(self, expr: UnaryOp) -> str:
        if expr.op == "NOT":
            truth = self.truth(expr.operand)
            out = self.tmp()
            self.line(f"{out} = None if {truth} is None else not {truth}")
            return out
        operand = self.localize(self.emit(expr.operand))
        if expr.op == "-":
            return self._emit_guarded(
                f"{operand} is None", f"-{operand}", "invalid operand for -"
            )
        return operand  # unary '+'

    def _emit_between(self, expr: Between) -> str:
        value = self.localize(self.emit(expr.operand))
        lo = self.localize(self.emit(expr.low))
        hi = self.localize(self.emit(expr.high))
        out = self.tmp()
        self.env.setdefault("_cmp", compare_values)
        # Three-valued ``lo <= value AND value <= hi``: either bound that
        # is not NULL and fails makes it false, whatever the other is.
        self.line(f"if {value} is None:")
        self.line(f"    {out} = None")
        self.line(f"elif ({lo} is not None and _cmp({value}, {lo}) < 0) or (")
        self.line(f"    {hi} is not None and _cmp({value}, {hi}) > 0")
        self.line("):")
        self.line(f"    {out} = {expr.negated}")
        self.line(f"elif {lo} is None or {hi} is None:")
        self.line(f"    {out} = None")
        self.line("else:")
        self.line(f"    {out} = {not expr.negated}")
        return out

    def _emit_in(self, expr: InList) -> str:
        """IN over an all-literal list: one membership test on the
        ``(class, value)`` keys of its non-NULL items; a miss is NULL
        when the list held a NULL literal."""
        if not all(isinstance(item, Literal) for item in expr.items):
            return self._emit_in_lazy(expr)
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

    def _emit_in_lazy(self, expr: InList) -> str:
        """IN with computed items, each evaluated only if none before it
        matched. The result starts as the miss and turns NULL at a NULL
        item; a one-pass ``while`` gives the match its way out without
        nesting a block per item."""
        operand = self.localize(self.emit(expr.operand))
        out = self.tmp()
        self.env.setdefault("_cmp", compare_values)
        self.line(f"{out} = None if {operand} is None else {expr.negated}")
        self.line(f"while {operand} is not None:")
        self.indent += 1
        for item in expr.items:
            candidate = self.localize(self.emit(item))
            self.line(f"if {candidate} is None:")
            self.line(f"    {out} = None")
            self.line(f"elif _cmp({operand}, {candidate}) == 0:")
            self.line(f"    {out} = {not expr.negated}")
            self.line("    break")
        self.line("break")
        self.indent -= 1
        return out

    def _emit_like(self, expr: Like) -> str:
        operand = self.localize(self.emit(expr.operand))
        if isinstance(expr.pattern, Literal) and expr.pattern.value is not None:
            regex = self.bind(like_regex(str(expr.pattern.value)), "_rx")
            is_null = f"{operand} is None"
        else:
            pattern = self.localize(self.emit(expr.pattern))
            regex = f"{self.bind(like_regex, '_rx')}(str({pattern}))"
            is_null = f"{operand} is None or {pattern} is None"
        out = self.tmp()
        matched = f"bool({regex}.fullmatch(str({operand})))"
        if expr.negated:
            matched = f"not {matched}"
        self.line(f"{out} = None if {is_null} else {matched}")
        return out

    def _emit_case(self, expr: Case) -> str:
        """CASE as a one-pass ``while`` the first TRUE branch breaks out
        of: a later branch costs no nesting level."""
        out = self.tmp()
        self.line("while True:")
        self.indent += 1
        for cond_expr, value_expr in expr.branches:
            cond = self.truth(cond_expr)
            self.line(f"if {cond} is True:")
            self.indent += 1
            self.line(f"{out} = {self.emit(value_expr)}")
            self.line("break")
            self.indent -= 1
        default = "None" if expr.default is None else self.emit(expr.default)
        self.line(f"{out} = {default}")
        self.line("break")
        self.indent -= 1
        return out

    def _emit_func(self, expr: FuncCall) -> str:
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


def _bind(source: str, fn_name: str, env: dict) -> Callable:
    """The function ``source`` defines, bound to the constants in ``env``."""
    code = _code_memo.get(source)
    if code is None:
        with warnings.catch_warnings():
            # Generated identity tests like ``_t1 is True`` are deliberate
            # (the truth rule's bool path); silence CPython's literal-is lint.
            warnings.simplefilter("ignore", SyntaxWarning)
            code = compile(source, "<repro-codegen>", "exec")
        if len(_code_memo) >= _CODE_MEMO_LIMIT:
            _code_memo.clear()
        _code_memo[source] = code
    exec(code, env)  # noqa: S102 - source is generated by this module
    return env[fn_name]


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def compile_scalar(expr: Expr, layout: planner.Layout) -> Callable:
    """``(row, params) -> value``."""
    emitter = _Emitter(layout)
    emitter.line(f"return {emitter.emit(expr)}")
    return emitter.assemble("_scalar", "r, p")


def compile_predicate_batch(
    expr: Expr, layout: planner.Layout, pairs: bool = False
) -> Callable:
    """``(rows, params) -> list[row]`` keeping rows where expr is TRUE
    under the truth rule (a nonzero number is TRUE).

    With ``pairs`` the batch holds ``(row_id, values)`` pairs — a scan
    recording read provenance, or the match phase of an UPDATE or DELETE
    — and the predicate reads ``values``.
    """
    emitter = _Emitter(layout)
    (frag,), per_row = emitter.per_row([expr], emitter.truth)
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
    return emitter.assemble("_pred", "rows, p")


def _compile_map(
    fn_name: str, exprs: Sequence[Expr], layout: planner.Layout, pack: Callable
) -> Callable:
    """``(rows, params) -> [pack(emitter, fragments) for each row]``."""
    emitter = _Emitter(layout)
    frags, per_row = emitter.per_row(exprs)
    packed = pack(emitter, frags)
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
    return emitter.assemble(fn_name, "rows, p")


def compile_projection_batch(
    exprs: Sequence[Expr], layout: planner.Layout
) -> Callable:
    """``(rows, params) -> list[tuple]`` projecting each row."""
    return _compile_map(
        "_proj",
        exprs,
        layout,
        lambda _emitter, frags: f"({', '.join(frags)},)" if frags else "()",
    )


def compile_sort_key(expr: Expr, layout: planner.Layout) -> Callable:
    """``(rows, params) -> list[(class, value)]``: each row's ORDER BY key.

    A key is its ``SORT_CLASS`` pair, which orders as ``compare_values``
    orders the value — so the sort over these compares in C.
    """
    return _compile_map(
        "_sortkey",
        [expr],
        layout,
        lambda emitter, frags: (
            f"({emitter.bind(SORT_CLASS)}[({frags[0]}).__class__], {frags[0]})"
        ),
    )


def compile_assignment(
    targets: Sequence[tuple[int, Expr, Callable[[Any], Any]]],
    layout: planner.Layout,
) -> Callable:
    """``(row, params) -> tuple``: the row an UPDATE's SET list makes of ``row``.

    ``targets`` holds ``(slot, expr, store)`` per assignment, in SET order;
    ``store(value)`` returns the value as the column stores it, or raises.
    Every expression reads the row as it was matched, and each value is
    stored before the next expression runs.
    """
    emitter = _Emitter(layout)
    emitter.line("out = list(r)")
    for slot, expr, store in targets:
        value = emitter.emit(expr)
        emitter.line(f"out[{slot}] = {emitter.bind(store, '_st')}({value})")
    emitter.line("return tuple(out)")
    return emitter.assemble("_assign", "r, p")


def _emit_key(
    emitter: _Emitter, key_exprs: Sequence[Expr]
) -> tuple[list[str], str, str]:
    """A join key as a loop body, its dict-key fragment and its NULL test.

    The dict key is ``_dict_key``'s: a cross or non-equi join's is ``()``,
    one bucket, never NULL, and a BOOLEAN key never meets a number.
    ``emit`` always returns an atom (a slot access, temp, bound constant,
    or literal), so fragments are safely repeatable without localizing —
    which keeps a bare-column key statement-free and eligible for the
    probe comprehension fast path.
    """
    frags, per_row = emitter.per_row(key_exprs)
    emitter.env["_BOOL_KEY"] = BOOL_KEY
    is_null = " or ".join(f"{f} is None" for f in frags) or "False"
    return per_row, _dict_key(frags), is_null


def join_key_slot(
    key_exprs: Sequence[Expr], layout: planner.Layout
) -> int | None:
    """The tuple slot index when the join key is one bare column, else None.

    The count-only join fast path (eager aggregation for ``COUNT(*)``
    over an equi-join) needs to extract probe keys with ``itemgetter``
    at C speed; that is only equivalent to the probe program when the
    key fragment is literally ``r[slot]``.
    """
    if len(key_exprs) == 1:
        key = key_exprs[0]
        if isinstance(key, planner.SlotRef):
            return key.index
        if isinstance(key, ColumnRef):
            return layout.slot(key.qualifier, key.column)
    return None


def compile_join_build(
    key_exprs: Sequence[Expr], layout: planner.Layout
) -> Callable:
    """``(rows, params, table) -> None`` building the hash side in place.

    Rows whose key holds a NULL are left out: NULL never equi-joins.
    """
    emitter = _Emitter(layout)
    per_row, key, is_null = _emit_key(emitter, key_exprs)
    emitter.line("get = table.get")
    emitter.line("for r in rows:")
    emitter.lines.extend(per_row)
    emitter.line(f"    if {is_null}:")
    emitter.line("        continue")
    emitter.line(f"    lst = get({key})")
    emitter.line("    if lst is None:")
    emitter.line(f"        table[{key}] = [r]")
    emitter.line("    else:")
    emitter.line("        lst.append(r)")
    return emitter.assemble("_build", "rows, p, table")


def compile_join_probe(
    key_exprs: Sequence[Expr],
    left_layout: planner.Layout,
    residual_expr: Expr | None,
    combined_layout: planner.Layout,
    right_width: int,
    kind: str,
) -> Callable:
    """``(rows, params, table) -> list[combined_row]`` probing the hash side."""
    emitter = _Emitter(left_layout)
    left_join = kind == "left"
    per_row, key, is_null = _emit_key(emitter, key_exprs)
    simple = residual_expr is None and not left_join
    if simple and not per_row and len(key_exprs) == 1:
        # Pure single-column inner join: one comprehension. A NULL key
        # never appears in the table, so ``get`` misses naturally.
        emitter.env["_empty"] = ()
        emitter.line("get = table.get")
        emitter.line(f"return [r + rr for r in rows for rr in get({key}) or _empty]")
        return emitter.assemble("_probe", "rows, p, table")
    emitter.line("out = []")
    emitter.line("ap = out.append")
    emitter.line("get = table.get")
    if left_join:
        emitter.line(f"nullr = (None,) * {right_width}")
    emitter.line("for r in rows:")
    emitter.indent = 2
    emitter.lines.extend(per_row)
    if left_join:
        emitter.line(f"m = None if ({is_null}) else get({key})")
        emitter.line("if m is None:")
        emitter.line("    ap(r + nullr)")
        emitter.line("    continue")
        emitter.line("matched = False")
    else:
        emitter.line(f"if {is_null}:")
        emitter.line("    continue")
        emitter.line(f"m = get({key})")
        emitter.line("if m is None:")
        emitter.line("    continue")
    emitter.line("for rr in m:")
    emitter.indent = 3
    if residual_expr is not None:
        # The residual reads the joined row; nothing after it reads ``r``.
        emitter.row, emitter.layout = "c", combined_layout
        emitter.line("c = r + rr")
        emitter.line(f"if {emitter.truth(residual_expr)} is True:")
        if left_join:
            emitter.line("    matched = True")
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
    return emitter.assemble("_probe", "rows, p, table")


def compile_aggregate_programs(
    group_exprs: Sequence[Expr],
    aggregates: Sequence[FuncCall],
    layout: planner.Layout,
) -> tuple[Callable, Callable, Callable]:
    """Grouped accumulation over ``aggregates``: ``(chunk_fn, init_fn, fin_fn)``.

    ``chunk_fn(rows, params, groups, order)`` folds one batch into the
    group states; ``init_fn()`` makes a fresh state (for the empty global
    group); ``fin_fn(state)`` finalizes one state into the aggregate value
    tuple. ``order`` accumulates ``(raw_key_tuple, state)`` in first-seen
    order, which is the output's.

    State layout: COUNT -> one counter slot; SUM/AVG -> (total, count)
    slots (``sum()`` over a list is the same left-to-right fold);
    MIN/MAX -> one best-so-far slot; DISTINCT variants keep real
    :class:`Accumulator` objects so set-based dedup semantics are shared.
    """
    emitter = _Emitter(layout)
    env = emitter.env
    env["_cmp"] = compare_values

    inits: list[str] = []  # python exprs building one state list
    fins: list[str] = []  # python exprs over state var "st"
    updates: list[tuple[str, ...]] = []  # lines per agg (row loop body)
    slot = 0
    pure_count_star = True
    for agg in aggregates:
        name, star, distinct = agg.name, agg.star, agg.distinct
        if distinct:
            maker = emitter.bind(
                (lambda n=name, s=star, d=distinct: make_accumulator(n, s, d)),
                "_mk",
            )
            inits.append(f"{maker}()")
            fins.append(f"st[{slot}].result()")
            updates.append((f"st[{slot}].add(__V__)",))
            slot += 1
            pure_count_star = False
        elif name == "COUNT":
            inits.append("0")
            fins.append(f"st[{slot}]")
            if star:
                updates.append((f"st[{slot}] += 1",))
            else:
                updates.append(("if __V__ is not None:", f"    st[{slot}] += 1"))
                pure_count_star = False
            slot += 1
        elif name in ("SUM", "AVG"):
            inits.append("0")
            inits.append("0")
            env["_not_nan"] = _not_nan
            if name == "SUM":
                fins.append(f"(_not_nan(st[{slot}]) if st[{slot + 1}] else None)")
            else:
                fins.append(
                    f"(_not_nan(st[{slot}] / st[{slot + 1}]) if st[{slot + 1}] else None)"
                )
            updates.append(
                (
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
            op = "> 0" if name == "MAX" else "< 0"
            updates.append(
                (
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

    init_fn = _bind(f"def _init():\n    return [{', '.join(inits)}]", "_init", env)
    packed = f"({', '.join(fins)},)" if fins else "()"  # GROUP BY alone: no aggregate
    fin_fn = _bind(f"def _fin(st):\n    return {packed}", "_fin", env)

    env["_BOOL_KEY"] = BOOL_KEY
    emitter.line("get = groups.get")
    if group_exprs:
        emitter.line("oap = order.append")
        emitter.line("for r in rows:")
        emitter.indent = 2
        key_frags = [emitter.localize(emitter.emit(e)) for e in group_exprs]
        emitter.line(f"kk = {_dict_key(key_frags)}")
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
                    emitter.line(text.replace("+= 1", "+= len(rows)"))
            return emitter.assemble("_agg", "rows, p, groups, order"), init_fn, fin_fn
        emitter.line("for r in rows:")
        emitter.indent = 2

    # Per-row aggregate updates; ``__V__`` stands for the aggregate's
    # argument, evaluated right before its update lines.
    for agg, lines in zip(aggregates, updates):
        value = "None" if agg.star else emitter.localize(emitter.emit(agg.args[0]))
        for text in lines:
            emitter.line(text.replace("__V__", value))
    emitter.indent = 1
    return emitter.assemble("_agg", "rows, p, groups, order"), init_fn, fin_fn
