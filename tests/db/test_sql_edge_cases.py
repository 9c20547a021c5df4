"""SQL executor edge cases across expressions, joins, and DML."""

import pytest

from repro.db import Database, ShardedDatabase
from repro.errors import ExecutionError, PlanningError, SqlSyntaxError


@pytest.fixture
def db() -> Database:
    database = Database()
    database.execute("CREATE TABLE t (a TEXT, b INTEGER, c FLOAT)")
    database.execute(
        "INSERT INTO t VALUES ('x', 1, 1.5), ('y', 2, 2.5), (NULL, 3, NULL)"
    )
    return database


class TestExpressionsInQueries:
    def test_case_in_where(self, db):
        rs = db.execute(
            "SELECT a FROM t WHERE CASE WHEN b > 1 THEN TRUE ELSE FALSE END"
        )
        assert len(rs) == 2

    def test_nested_scalar_functions(self, db):
        rs = db.execute("SELECT UPPER(COALESCE(a, 'missing')) FROM t WHERE b = 3")
        assert rs.scalar() == "MISSING"

    def test_in_with_params(self, db):
        rs = db.execute("SELECT b FROM t WHERE a IN (?, ?)", ("x", "y"))
        assert sorted(rs.column("b")) == [1, 2]

    def test_arithmetic_on_mixed_numeric_types(self, db):
        rs = db.execute("SELECT b + c FROM t WHERE a = 'x'")
        assert rs.scalar() == 2.5

    def test_string_concat_operator(self, db):
        rs = db.execute("SELECT a || '-' || b FROM t WHERE a = 'x'")
        assert rs.scalar() == "x-1"

    def test_like_with_underscore_and_percent_literals(self, db):
        db.execute("INSERT INTO t VALUES ('a_b', 9, 0.0)")
        # '_' is a single-char wildcard; 'a_b' matches 'a_b' and 'axb'.
        rs = db.execute("SELECT a FROM t WHERE a LIKE 'a_b'")
        assert rs.column("a") == ["a_b"]

    def test_not_like(self, db):
        rs = db.execute("SELECT a FROM t WHERE a NOT LIKE 'x%'")
        assert rs.column("a") == ["y"]  # NULL row excluded (NULL LIKE -> NULL)

    def test_between_on_floats(self, db):
        rs = db.execute("SELECT a FROM t WHERE c BETWEEN 1.0 AND 2.0")
        assert rs.column("a") == ["x"]

    def test_is_null_in_projection(self, db):
        rs = db.execute("SELECT a IS NULL AS missing FROM t ORDER BY b")
        assert rs.column("missing") == [False, False, True]

    def test_boolean_column_comparison(self, db):
        db.execute("CREATE TABLE flags (name TEXT, active BOOL)")
        db.execute("INSERT INTO flags VALUES ('a', TRUE), ('b', FALSE)")
        rs = db.execute("SELECT name FROM flags WHERE active = TRUE")
        assert rs.column("name") == ["a"]

    def test_unary_minus_in_where(self, db):
        rs = db.execute("SELECT a FROM t WHERE b = -(-2)")
        assert rs.column("a") == ["y"]

    def test_quoted_identifiers(self, db):
        db.execute('CREATE TABLE "Mixed Case" ("Weird Col" INTEGER)')
        db.execute('INSERT INTO "Mixed Case" ("Weird Col") VALUES (7)')
        rs = db.execute('SELECT "Weird Col" FROM "Mixed Case"')
        assert rs.scalar() == 7


class TestJoinEdgeCases:
    def test_join_on_expression_keys(self, db):
        db.execute("CREATE TABLE u (bb INTEGER)")
        db.execute("INSERT INTO u VALUES (2), (4)")
        rs = db.execute(
            "SELECT t.a FROM t JOIN u ON t.b * 2 = u.bb ORDER BY t.a"
        )
        assert rs.column("a") == ["x", "y"]

    def test_empty_left_side(self, db):
        db.execute("CREATE TABLE empty (a TEXT)")
        rs = db.execute("SELECT * FROM empty JOIN t ON empty.a = t.a")
        assert len(rs) == 0

    def test_left_join_aggregate_counts_unmatched_as_zero(self, db):
        db.execute("CREATE TABLE u (a TEXT, points INTEGER)")
        db.execute("INSERT INTO u VALUES ('x', 5), ('x', 6)")
        rs = db.execute(
            "SELECT t.a, COUNT(u.points) AS n FROM t LEFT JOIN u"
            " ON t.a = u.a WHERE t.a IS NOT NULL GROUP BY t.a ORDER BY t.a"
        )
        assert rs.rows == [("x", 2), ("y", 0)]

    def test_three_table_mixed_join_kinds(self, db):
        db.execute("CREATE TABLE u (a TEXT, tag TEXT)")
        db.execute("CREATE TABLE v (tag TEXT, score INTEGER)")
        db.execute("INSERT INTO u VALUES ('x', 'hot')")
        db.execute("INSERT INTO v VALUES ('hot', 10)")
        rs = db.execute(
            "SELECT t.a, v.score FROM t"
            " JOIN u ON t.a = u.a"
            " LEFT JOIN v ON u.tag = v.tag"
        )
        assert rs.rows == [("x", 10)]

    def test_boolean_keys_never_meet_numbers(self, db):
        """``TRUE = 1`` is FALSE, so no join pairs them; 1 and 1.0 still meet."""
        db.execute("CREATE TABLE flags (k BOOLEAN)")
        db.execute("CREATE TABLE nums (k INTEGER)")
        db.execute("INSERT INTO flags VALUES (TRUE), (FALSE), (NULL)")
        db.execute("INSERT INTO nums VALUES (1), (0), (NULL)")
        assert db.execute("SELECT TRUE = 1").scalar() is False
        for sql in (
            "SELECT * FROM flags JOIN nums ON flags.k = nums.k",
            "SELECT * FROM flags, nums WHERE flags.k = nums.k",
            "SELECT * FROM nums JOIN flags ON nums.k = flags.k",
        ):
            assert db.execute(sql).rows == [], sql
        for sql in (
            "SELECT COUNT(*) FROM flags JOIN nums ON flags.k = nums.k",
            "SELECT COUNT(*) FROM nums JOIN flags ON nums.k = flags.k",
        ):
            assert db.execute(sql).scalar() == 0, sql
        assert db.execute(
            "SELECT * FROM flags LEFT JOIN nums ON flags.k = nums.k"
        ).rows == [(True, None), (False, None), (None, None)]
        assert db.execute(
            "SELECT COUNT(*) FROM flags AS x JOIN flags AS y ON x.k = y.k"
        ).scalar() == 2
        db.execute("CREATE TABLE reals (k FLOAT)")
        db.execute("INSERT INTO reals VALUES (1.0), (2.0)")
        assert db.execute(
            "SELECT * FROM nums JOIN reals ON nums.k = reals.k"
        ).rows == [(1, 1.0)]
        for sql in (
            "SELECT COUNT(*) FROM nums JOIN reals ON nums.k = reals.k",
            "SELECT COUNT(*) FROM reals JOIN nums ON reals.k = nums.k",
        ):
            assert db.execute(sql).scalar() == 1, sql


class TestDmlEdgeCases:
    def test_update_no_matches_is_zero_rowcount(self, db):
        assert db.execute("UPDATE t SET b = 0 WHERE a = 'nope'").rowcount == 0

    def test_update_with_case_expression(self, db):
        db.execute(
            "UPDATE t SET b = CASE WHEN b > 1 THEN b * 10 ELSE b END"
        )
        assert sorted(db.execute("SELECT b FROM t").column("b")) == [1, 20, 30]

    def test_delete_by_null_check(self, db):
        assert db.execute("DELETE FROM t WHERE a IS NULL").rowcount == 1
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_insert_expression_values(self, db):
        db.execute("INSERT INTO t VALUES (UPPER('z'), 2 + 3, 1.0 * 4)")
        rs = db.execute("SELECT a, b, c FROM t WHERE a = 'Z'")
        assert rs.rows == [("Z", 5, 4.0)]

    def test_insert_null_into_nullable(self, db):
        db.execute("INSERT INTO t VALUES (NULL, 99, NULL)")
        assert (
            db.execute("SELECT COUNT(*) FROM t WHERE b = 99 AND a IS NULL").scalar()
            == 1
        )

    def test_update_inside_explicit_txn_visible_to_later_statements(self, db):
        txn = db.begin()
        db.execute("UPDATE t SET b = b + 100", txn=txn)
        total = db.execute("SELECT SUM(b) FROM t", txn=txn).scalar()
        assert total == 1 + 2 + 3 + 300
        txn.abort()
        assert db.execute("SELECT SUM(b) FROM t").scalar() == 6

    def test_statement_failure_in_explicit_txn_leaves_txn_usable(self, db):
        """Statement errors don't poison an explicit transaction; the
        caller decides whether to continue or abort."""
        txn = db.begin()
        with pytest.raises(PlanningError):
            db.execute("SELECT nope FROM t", txn=txn)
        result = db.execute("SELECT COUNT(*) FROM t", txn=txn)
        assert result.scalar() == 3
        txn.commit()


class TestQueryErrors:
    def test_group_by_alias_is_rejected(self, db):
        # Standard SQL: GROUP BY sees input columns, not output aliases.
        with pytest.raises((PlanningError, ExecutionError)):
            db.execute("SELECT UPPER(a) AS ua, COUNT(*) FROM t GROUP BY ua")

    def test_aggregate_in_where_rejected(self, db):
        with pytest.raises((PlanningError, ExecutionError)):
            db.execute("SELECT a FROM t WHERE COUNT(*) > 1")

    def test_scalar_function_arity_error_at_execution(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT UPPER(a, b) FROM t")

    def test_division_by_zero_reported(self, db):
        with pytest.raises(ExecutionError, match="division by zero"):
            db.execute("SELECT b / 0 FROM t")

    def test_order_by_unknown_column(self, db):
        with pytest.raises(PlanningError):
            db.execute("SELECT a FROM t ORDER BY zzz")

    def test_too_many_params(self, db):
        with pytest.raises(ExecutionError, match="parameter"):
            db.execute("SELECT a FROM t WHERE b = ?", (1, 2))

    def test_operand_type_mismatches_are_execution_errors(self, db):
        """Unary minus over text used to leak a raw TypeError."""
        with pytest.raises(ExecutionError, match=r"^invalid operand for -$"):
            db.execute("SELECT -'x' FROM t")
        with pytest.raises(ExecutionError, match=r"^invalid operand for -$"):
            db.execute("SELECT b FROM t WHERE -a = 1")
        with pytest.raises(ExecutionError, match=r"^invalid operand for -$"):
            db.execute("INSERT INTO t VALUES (?, -?, 0.5)", ("z", "nine"))
        assert db.execute("SELECT -b, -c, -(-b) FROM t WHERE a = 'x'").rows == [
            (-1, -1.5, 1)
        ]

    def test_one_message_per_error_whichever_evaluator_raises_it(self, db):
        """Per row (a program) and row-less (``Expr.eval``) word it the same."""
        with pytest.raises(ExecutionError) as per_row:
            db.execute("SELECT b + a FROM t")
        with pytest.raises(ExecutionError) as rowless:
            db.execute("INSERT INTO t VALUES ('z', 1 + ?, 0.5)", ("a",))
        assert str(per_row.value) == str(rowless.value) == "invalid operands for +"

    def _function_error(self, db, per_row_sql, rowless_sql, message):
        """A bad function argument raises the same ``ExecutionError`` per
        row (a program) and row-less (``Expr.eval``)."""
        with pytest.raises(ExecutionError) as per_row:
            db.execute(per_row_sql)
        with pytest.raises(ExecutionError) as rowless:
            db.execute(rowless_sql)
        assert str(per_row.value) == str(rowless.value) == message

    def test_abs_of_text_is_an_execution_error(self, db):
        self._function_error(
            db, "SELECT ABS(a) FROM t WHERE b = 1", "SELECT ABS('x')",
            "ABS() cannot take 'x'",
        )

    def test_round_of_text_is_an_execution_error(self, db):
        self._function_error(
            db, "SELECT ROUND(a) FROM t WHERE b = 1", "SELECT ROUND('x')",
            "ROUND() cannot take 'x'",
        )
        with pytest.raises(ExecutionError, match=r"^ROUND\(\) cannot take 'x'$"):
            db.execute("SELECT ROUND(c, a) FROM t WHERE b = 1")
        assert db.execute("SELECT ROUND('2.5'), ROUND(2.567, 2)").rows == [(2, 2.57)]

    def test_substr_with_text_position_is_an_execution_error(self, db):
        self._function_error(
            db, "SELECT SUBSTR('abc', a) FROM t WHERE b = 1", "SELECT SUBSTR('abc', 'x')",
            "SUBSTR() cannot take 'x'",
        )
        with pytest.raises(ExecutionError, match=r"^SUBSTR\(\) cannot take 'x'$"):
            db.execute("SELECT SUBSTR('abc', 1, a) FROM t WHERE b = 1")
        assert db.execute("SELECT SUBSTR('abcdef', 2, 3)").scalar() == "bcd"


def _engine(name: str):
    if name == "single":
        engine = Database()
    else:
        engine = ShardedDatabase(2, shard_keys={"t": "a"})
    engine.execute("CREATE TABLE t (a INTEGER, b TEXT)")
    for i in range(6):
        engine.execute("INSERT INTO t VALUES (?, ?)", (i, f"r{i}"))
    return engine


@pytest.mark.parametrize("engine_name", ["single", "sharded"])
class TestCountOperands:
    """LIMIT, OFFSET and AS OF take a non-negative integer — and no boolean,
    though ``isinstance(True, int)``."""

    @pytest.mark.parametrize(
        "sql, complaint",
        [
            ("SELECT a FROM t LIMIT ?", "LIMIT must be a non-negative integer"),
            ("SELECT a FROM t ORDER BY a LIMIT ?", "LIMIT must be a non-negative integer"),
            ("SELECT a FROM t LIMIT 2 OFFSET ?", "OFFSET must be a non-negative integer"),
            ("SELECT COUNT(*) FROM t OFFSET ?", "OFFSET must be a non-negative integer"),
            ("SELECT a FROM t AS OF ?", "AS OF expects a non-negative integer CSN"),
        ],
    )
    @pytest.mark.parametrize("value", [True, False, -1, "2", 1.5, None])
    def test_rejected(self, engine_name, sql, complaint, value):
        engine = _engine(engine_name)
        if value is None and sql.endswith("LIMIT ?"):
            assert len(engine.execute(sql, (None,)).rows) == 6  # LIMIT NULL: no limit
            return
        with pytest.raises(ExecutionError) as raised:
            engine.execute(sql, (value,))
        assert str(raised.value) == f"{complaint}, got {value!r}"

    def test_accepted(self, engine_name):
        engine = _engine(engine_name)
        assert len(engine.execute("SELECT a FROM t LIMIT ?", (1,)).rows) == 1
        assert engine.execute("SELECT a FROM t LIMIT ?", (0,)).rows == []
        assert engine.execute(
            "SELECT a FROM t ORDER BY a LIMIT ? OFFSET ?", (2, 3)
        ).rows == [(3,), (4,)]
        assert len(engine.execute("SELECT a FROM t LIMIT 1 + 1").rows) == 2
        csn = engine.last_commit_csn
        assert len(engine.execute("SELECT a FROM t AS OF ?", (csn,)).rows) == 6
        assert len(engine.execute("SELECT a FROM t AS OF ?", (float(csn),)).rows) == 6

    def test_a_column_is_no_count(self, engine_name):
        engine = _engine(engine_name)
        with pytest.raises(PlanningError, match="unknown column a"):
            engine.execute("SELECT a FROM t LIMIT a")
