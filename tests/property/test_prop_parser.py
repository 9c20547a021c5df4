"""Property tests: expression SQL rendering round-trips through the parser.

Every expression node renders via ``.sql()``; parsing that text back and
evaluating both trees over random bindings must agree — the original
through the reference (``tests/sql_oracle.py``: SQLite, or a declared
dialect difference), the reparsed one as the engine's program. This pins
the renderer (used by EXPLAIN, provenance Query columns, and the aggregate
rewrite's structural matching) to the parser.
"""

from hypothesis import given, settings, strategies as st

from repro.db.expr import (
    Between,
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    UnaryOp,
)
from repro.db.sql.compile import compile_scalar
from repro.db.sql.parser import parse_sql
from repro.db.sql.planner import Layout
from sql_oracle import reference

LAYOUT = Layout.for_table("t", ["a", "b", "c"])

literal_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-100, 100),
    st.text(alphabet="abc x_%'", max_size=5),
)

column_names = st.sampled_from(["a", "b", "c"])


def leaf_exprs() -> st.SearchStrategy[Expr]:
    return st.one_of(
        literal_values.map(Literal),
        column_names.map(ColumnRef),
    )


def exprs(depth: int = 2) -> st.SearchStrategy[Expr]:
    if depth == 0:
        return leaf_exprs()
    sub = exprs(depth - 1)
    return st.one_of(
        leaf_exprs(),
        st.tuples(
            st.sampled_from(["+", "-", "*", "=", "<", "<=", ">", ">=", "<>", "AND", "OR"]),
            sub,
            sub,
        ).map(lambda t: BinaryOp(t[0], t[1], t[2])),
        st.tuples(sub, st.booleans()).map(
            lambda t: IsNull(t[0], negated=t[1])
        ),
        st.tuples(sub, st.lists(leaf_exprs(), min_size=1, max_size=3), st.booleans()).map(
            lambda t: InList(t[0], t[1], negated=t[2])
        ),
        st.tuples(sub, sub, sub, st.booleans()).map(
            lambda t: Between(t[0], t[1], t[2], negated=t[3])
        ),
        st.tuples(sub).map(lambda t: UnaryOp("NOT", t[0])),
        st.tuples(st.sampled_from(["UPPER", "LOWER", "LENGTH"]), leaf_exprs()).map(
            lambda t: FuncCall(t[0], [t[1]])
        ),
    )


def eval_or_error(evaluate, *args):
    try:
        value = evaluate(*args)
    except Exception as exc:  # noqa: BLE001 - compared structurally
        return ("error", type(exc).__name__)
    return ("ok", type(value), value)


class TestSqlRoundTrip:
    @given(exprs(), st.integers(-5, 5), st.integers(-5, 5), literal_values)
    @settings(max_examples=150, deadline=None)
    def test_rendered_sql_reparses_to_equivalent_expr(self, expr, a, b, c):
        text = expr.sql()
        stmt = parse_sql(f"SELECT {text}")
        reparsed = stmt.items[0].expr
        row = (a, b, c)
        assert eval_or_error(reference, expr, row, (), LAYOUT) == eval_or_error(
            compile_scalar(reparsed, LAYOUT), row, ()
        )

    @given(exprs())
    @settings(max_examples=100, deadline=None)
    def test_rendering_is_stable(self, expr):
        text = expr.sql()
        stmt = parse_sql(f"SELECT {text}")
        assert stmt.items[0].expr.sql() == text

    @given(st.text(alphabet="ab'c%_", max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_string_literals_roundtrip_with_escaping(self, value):
        text = Literal(value).sql()
        stmt = parse_sql(f"SELECT {text}")
        assert stmt.items[0].expr.value == value
