"""Property tests: SQL execution against a Python reference model."""

from functools import cmp_to_key

from hypothesis import given, settings, strategies as st

from repro.db import Database
from repro.db.types import compare_values

SortKey = cmp_to_key(compare_values)

value_strategy = st.one_of(
    st.none(), st.integers(-50, 50), st.text(alphabet="abc", max_size=3)
)
rows_strategy = st.lists(
    st.tuples(st.integers(-20, 20), st.text(alphabet="xyz", min_size=1, max_size=2)),
    max_size=25,
)


def load(rows):
    db = Database()
    db.execute("CREATE TABLE t (n INTEGER, s TEXT)")
    for n, s in rows:
        db.execute("INSERT INTO t VALUES (?, ?)", (n, s))
    return db


class TestSelectModel:
    @given(rows_strategy, st.integers(-20, 20))
    @settings(max_examples=50, deadline=None)
    def test_where_filter_matches_python(self, rows, threshold):
        db = load(rows)
        rs = db.execute("SELECT n, s FROM t WHERE n > ?", (threshold,))
        expected = sorted(
            [(n, s) for n, s in rows if n > threshold], key=lambda r: (r[0], r[1])
        )
        assert sorted(rs.rows, key=lambda r: (r[0], r[1])) == expected

    @given(rows_strategy)
    @settings(max_examples=50, deadline=None)
    def test_order_by_matches_python_sort(self, rows):
        db = load(rows)
        rs = db.execute("SELECT n FROM t ORDER BY n ASC, s DESC")
        expected = [
            n
            for n, _s in sorted(
                rows, key=lambda r: (SortKey(r[0]), SortKey(r[1])), reverse=False
            )
        ]
        # Python can't mix per-key directions in one key fn; emulate by
        # sorting s descending first (stable), then n ascending.
        by_s_desc = sorted(rows, key=lambda r: SortKey(r[1]), reverse=True)
        expected = [n for n, _s in sorted(by_s_desc, key=lambda r: SortKey(r[0]))]
        assert rs.column("n") == expected

    @given(rows_strategy)
    @settings(max_examples=50, deadline=None)
    def test_group_by_counts_match_python(self, rows):
        db = load(rows)
        rs = db.execute("SELECT s, COUNT(*), SUM(n) FROM t GROUP BY s")
        expected = {}
        for n, s in rows:
            count, total = expected.get(s, (0, 0))
            expected[s] = (count + 1, total + n)
        actual = {s: (c, t) for s, c, t in rs.rows}
        assert actual == expected

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_distinct_matches_set(self, rows):
        db = load(rows)
        rs = db.execute("SELECT DISTINCT s FROM t")
        assert sorted(rs.column("s")) == sorted({s for _n, s in rows})

    @given(rows_strategy, st.integers(0, 30), st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_limit_offset_window(self, rows, limit, offset):
        db = load(rows)
        rs = db.execute(
            "SELECT n FROM t ORDER BY n, s LIMIT ? OFFSET ?", (limit, offset)
        )
        all_rows = db.execute("SELECT n FROM t ORDER BY n, s").column("n")
        assert rs.column("n") == all_rows[offset : offset + limit]

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_self_join_on_equality_matches_python(self, rows):
        db = load(rows)
        rs = db.execute(
            "SELECT a.n, b.n FROM t a JOIN t b ON a.s = b.s"
        )
        expected = sorted(
            (n1, n2)
            for n1, s1 in rows
            for n2, s2 in rows
            if s1 == s2
        )
        assert sorted(rs.rows) == expected


small_strategy = st.one_of(st.none(), st.integers(-3, 3))
side_strategy = st.lists(st.tuples(small_strategy, small_strategy), max_size=8)


class TestJoinFilterPlacement:
    """Single-table WHERE conjuncts under a join, against a nested loop.

    The planner runs such a conjunct inside its table's scan when the
    table is an inner-join input. On a LEFT JOIN's null-extended side it
    must filter after the join, where an unmatched row's NULLs meet it:
    ``r.y IS NULL`` keeps unmatched left rows and drops matched ones whose
    ``y`` is set, which a pushed-down filter would get wrong.
    """

    @staticmethod
    def statement(left_join: bool, lt: int, right_pred: str) -> str:
        join = "LEFT JOIN" if left_join else "JOIN"
        return (
            f"SELECT l.a, l.x, r.b, r.y FROM l {join} r ON l.a = r.b"
            f" WHERE l.x > {lt} AND {right_pred}"
        )

    def test_filters_are_placed_as_the_property_assumes(self):
        db = Database()
        db.execute("CREATE TABLE l (a INTEGER, x INTEGER)")
        db.execute("CREATE TABLE r (b INTEGER, y INTEGER)")
        inner = db.explain(self.statement(False, 0, "r.y IS NULL"))
        assert inner[2:] == [
            "    Scan(l) filter[(l.x > 0)]",
            "    Scan(r) filter[(r.y IS NULL)]",
        ]
        left = db.explain(self.statement(True, 0, "r.y IS NULL"))
        assert left[1:] == [
            "  Filter[(r.y IS NULL)]",
            "    HashJoin(left, 1 key(s))",
            "      Scan(l) filter[(l.x > 0)]",
            "      Scan(r)",
        ]

    @given(
        side_strategy,
        side_strategy,
        st.booleans(),
        st.integers(-3, 3),
        st.integers(-3, 3),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_join_with_side_filters_matches_nested_loop(
        self, left, right, left_join, lt, rt, right_is_null
    ):
        db = Database()
        db.execute("CREATE TABLE l (a INTEGER, x INTEGER)")
        db.execute("CREATE TABLE r (b INTEGER, y INTEGER)")
        db.insert_rows("l", left)
        db.insert_rows("r", right)
        right_pred = "r.y IS NULL" if right_is_null else f"r.y < {rt}"
        joined = []
        for a, x in left:
            matches = [(b, y) for b, y in right if a is not None and a == b]
            if left_join and not matches:
                matches = [(None, None)]
            joined += [(a, x, b, y) for b, y in matches]

        def where(row) -> bool:  # NULL comparisons are not true
            _a, x, _b, y = row
            keep_right = y is None if right_is_null else y is not None and y < rt
            return x is not None and x > lt and keep_right

        expected = [row for row in joined if where(row)]
        rows = db.execute(self.statement(left_join, lt, right_pred)).rows
        assert sorted(rows, key=repr) == sorted(expected, key=repr)


class TestDmlModel:
    @given(rows_strategy, st.integers(-20, 20), st.integers(-50, 50))
    @settings(max_examples=40, deadline=None)
    def test_update_matches_python(self, rows, threshold, new_value):
        db = load(rows)
        count = db.execute(
            "UPDATE t SET n = ? WHERE n < ?", (new_value, threshold)
        ).rowcount
        expected = [
            (new_value if n < threshold else n, s) for n, s in rows
        ]
        assert count == sum(1 for n, _s in rows if n < threshold)
        assert sorted(db.execute("SELECT n, s FROM t").rows) == sorted(expected)

    @given(rows_strategy, st.integers(-20, 20))
    @settings(max_examples=40, deadline=None)
    def test_delete_matches_python(self, rows, threshold):
        db = load(rows)
        count = db.execute("DELETE FROM t WHERE n >= ?", (threshold,)).rowcount
        expected = [(n, s) for n, s in rows if n < threshold]
        assert count == len(rows) - len(expected)
        assert sorted(db.execute("SELECT n, s FROM t").rows) == sorted(expected)


class TestExpressionCompilerConsistency:
    """Generated programs must agree with sqlite3 (``tests/sql_oracle.py``)."""

    @given(
        st.integers(-5, 5),
        st.integers(-5, 5),
        st.sampled_from(["+", "-", "*", "=", "<", ">=", "<>"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_binary_ops_agree(self, a, b, op):
        from repro.db.expr import BinaryOp, Literal
        from repro.db.sql.compile import compile_scalar
        from repro.db.sql.planner import Layout
        from sql_oracle import reference

        expr = BinaryOp(op, Literal(a), Literal(b))
        want = reference(expr)
        compiled = compile_scalar(expr, Layout())((), ())
        assert (type(want), want) == (type(compiled), compiled)

    @given(
        st.lists(
            st.sampled_from([None, True, False, 0, 1, 2]), min_size=2, max_size=2
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_three_valued_logic_agrees(self, pair):
        from repro.db.expr import BinaryOp, Literal
        from repro.db.sql.compile import compile_scalar
        from repro.db.sql.planner import Layout
        from sql_oracle import reference

        a, b = pair
        for op in ("AND", "OR"):
            expr = BinaryOp(op, Literal(a), Literal(b))
            assert reference(expr) is compile_scalar(expr, Layout())((), ())
