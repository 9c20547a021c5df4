"""EXPLAIN output: verifying planner decisions are observable."""

import pytest

from repro.db import Database
from repro.errors import ExecutionError


@pytest.fixture
def db() -> Database:
    database = Database()
    database.execute("CREATE TABLE t (a TEXT, b INTEGER)")
    database.execute("CREATE TABLE u (a TEXT, c INTEGER)")
    return database


def text_of(db, sql):
    return "\n".join(db.explain(sql))


class TestExplainShapes:
    def test_simple_scan(self, db):
        plan = text_of(db, "SELECT * FROM t")
        assert "Scan(t)" in plan
        assert "Project(a, b)" in plan

    def test_filter_pushdown_to_scan(self, db):
        plan = text_of(db, "SELECT a FROM t WHERE b > 1")
        assert "filter[(t.b > 1)]" in plan or "filter[(b > 1)]" in plan
        assert "Filter[" not in plan  # fully pushed down

    def test_index_probe_chosen(self, db):
        db.execute("CREATE INDEX ix_a ON t (a)")
        plan = text_of(db, "SELECT * FROM t WHERE a = 'x'")
        assert "probe=ix_a[a]" in plan

    def test_no_probe_without_index(self, db):
        plan = text_of(db, "SELECT * FROM t WHERE a = 'x'")
        assert "probe=" not in plan

    def test_equi_join_uses_hash_join(self, db):
        plan = text_of(db, "SELECT * FROM t JOIN u ON t.a = u.a")
        assert "HashJoin(inner, 1 key(s))" in plan

    def test_paper_comma_join_is_hash_join(self, db):
        plan = text_of(
            db, "SELECT E.b FROM t as E, u as F ON E.a = F.a"
        )
        assert "HashJoin(inner" in plan
        assert "Scan(t AS E)" in plan

    def test_non_equi_join_uses_nested_loop(self, db):
        plan = text_of(db, "SELECT * FROM t JOIN u ON t.b < u.c")
        assert "NestedLoopJoin(inner)" in plan

    def test_cross_join_is_nested_loop(self, db):
        plan = text_of(db, "SELECT * FROM t, u")
        assert "NestedLoopJoin(cross)" in plan

    def test_left_join_kind_surfaces(self, db):
        plan = text_of(db, "SELECT * FROM t LEFT JOIN u ON t.a = u.a")
        assert "HashJoin(left" in plan

    def test_aggregate_and_sort_nodes(self, db):
        plan = text_of(
            db,
            "SELECT a, COUNT(*) FROM t GROUP BY a"
            " HAVING COUNT(*) > 1 ORDER BY a LIMIT 3",
        )
        assert "Aggregate(groups=1, aggs=[COUNT])" in plan
        assert "Sort(asc)" in plan
        assert "Limit" in plan
        assert "Filter" in plan  # the HAVING

    def test_distinct_node(self, db):
        plan = text_of(db, "SELECT DISTINCT a FROM t")
        assert "Distinct" in plan

    def test_where_conjunct_becomes_join_predicate(self, db):
        plan = text_of(
            db, "SELECT * FROM t, u WHERE t.a = u.a AND t.b = 1"
        )
        assert "HashJoin(inner, 1 key(s))" in plan
        assert "filter[(t.b = 1)]" in plan

    def test_explain_rejects_statements_without_a_plan(self, db):
        with pytest.raises(ExecutionError, match="SELECT, UPDATE and DELETE"):
            db.explain("INSERT INTO t VALUES ('x', 1)")
        with pytest.raises(ExecutionError):
            db.explain("CREATE INDEX ix_b ON t (b)")

    def test_explain_has_no_side_effects(self, db):
        before = dict(db.txn_manager.stats)
        db.explain("SELECT * FROM t")
        assert db.txn_manager.stats == before  # planning needs no transaction
        assert db.last_csn == 0  # nothing committed

    def test_indentation_reflects_tree_depth(self, db):
        lines = db.explain("SELECT a FROM t WHERE b = 1 ORDER BY a")
        assert lines[0].startswith("Sort") or lines[0].startswith("Project")
        assert any(line.startswith("  ") for line in lines[1:])


class TestExplainDml:
    """UPDATE and DELETE print over the scan that finds their rows."""

    def test_update_over_a_plain_scan(self, db):
        assert db.explain("UPDATE t SET b = b + 1 WHERE b > 1") == [
            "Update(t)",
            "  Scan(t) filter[(b > 1)]",
        ]

    def test_delete_without_where(self, db):
        assert db.explain("DELETE FROM t") == ["Delete(t)", "  Scan(t)"]

    def test_match_phase_takes_the_hash_probe(self, db):
        db.execute("CREATE INDEX ix_a ON t (a)")
        assert db.explain("UPDATE t SET b = 0 WHERE a = ? AND b < 5") == [
            "Update(t)",
            "  Scan(t) probe=ix_a[a] filter[(a = ?) AND (b < 5)]",
        ]
        assert db.explain("DELETE FROM t WHERE a = 'x'") == [
            "Delete(t)",
            "  Scan(t) probe=ix_a[a] filter[(a = 'x')]",
        ]

    def test_match_phase_takes_the_range_probe(self, db):
        db.execute("CREATE SORTED INDEX ix_b ON t (b)")
        plan = text_of(db, "DELETE FROM t WHERE b BETWEEN 1 AND 3")
        assert "range=ix_b[b]" in plan

    def test_same_access_path_as_the_select(self, db):
        db.execute("CREATE INDEX ix_a ON t (a)")
        for where in ("a = 'x'", "a = 'x' AND b = 2", "b = 2", "a > 'x'"):
            select_scan = db.explain(f"SELECT * FROM t WHERE {where}")[-1]
            update_scan = db.explain(f"UPDATE t SET b = 1 WHERE {where}")[-1]
            assert update_scan.strip() == select_scan.strip()

    def test_alias_surfaces(self, db):
        plan = text_of(db, "UPDATE t AS x SET b = 1 WHERE x.a = 'k'")
        assert "Update(t)" in plan and "Scan(t AS x)" in plan

    def test_constant_false_predicate_stays_in_the_scan(self, db):
        plan = db.explain("DELETE FROM t WHERE 1 = 0")
        assert plan[0] == "Delete(t)" and "filter[" in plan[1]
        db.execute("INSERT INTO t VALUES ('x', 1)")
        assert db.execute("DELETE FROM t WHERE 1 = 0").rowcount == 0
        assert db.execute("DELETE FROM t WHERE 1 = 1").rowcount == 1

    def test_explain_dml_has_no_side_effects(self, db):
        db.execute("INSERT INTO t VALUES ('x', 1)")
        csn = db.last_csn
        db.explain("DELETE FROM t")
        assert db.last_csn == csn
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 1

    def test_unknown_column_is_a_planning_error(self, db):
        from repro.errors import PlanningError

        with pytest.raises(PlanningError):
            db.explain("UPDATE t SET b = 1 WHERE nope = 1")

    def test_sharded_explain_shows_routing_over_the_shard_plan(self):
        from repro.db import ShardedDatabase

        sharded = ShardedDatabase(2, shard_keys={"t": "a"})
        sharded.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        sharded.execute("CREATE INDEX ix_a ON t (a)")
        routed = sharded.explain("UPDATE t SET b = 1 WHERE a = ?", (7,))
        assert routed[0].startswith("ShardedWrite(targets=[shard")
        assert routed[0].count("shard") == 1  # pinned to one shard
        assert routed[1:] == [
            "  Update(t)",
            "    Scan(t) probe=ix_a[a] filter[(a = ?)]",
        ]
        fanned = sharded.explain("DELETE FROM t WHERE b = 1")
        assert fanned[0] == "ShardedWrite(targets=[shard0, shard1])"
        assert fanned[1] == "  Delete(t)"


class TestExplainSharded:
    """A sharded SELECT prints the tree that runs, exchanges and all."""

    @pytest.fixture
    def sharded(self):
        from repro.db import ShardedDatabase

        cluster = ShardedDatabase(2, shard_keys={"t": "b", "u": "c"})
        cluster.execute("CREATE TABLE t (a TEXT, b INTEGER)")
        cluster.execute("CREATE TABLE u (a TEXT, c INTEGER)")
        for b in range(6):
            cluster.execute("INSERT INTO t VALUES (?, ?)", (f"x{b % 2}", b))
        cluster.execute("INSERT INTO u VALUES ('x1', 1)")
        return cluster

    def test_partial_aggregate_combines_above_the_exchange(self, sharded):
        assert sharded.explain("SELECT a, COUNT(*), SUM(b) FROM t GROUP BY a") == [
            "Project(a, COUNT(*), SUM(b))",
            "  Aggregate(groups=1, aggs=[SUM, SUM])",
            "    Exchange(targets=[shard0, shard1])",
            "      Project(_g0, _p0, _p1)",
            "        Aggregate(groups=1, aggs=[COUNT, SUM])",
            "          Scan(t)",
        ]

    def test_join_reads_its_smaller_side_through_a_broadcast(self, sharded):
        sql = "SELECT t.b, u.c FROM t JOIN u ON t.a = u.a WHERE u.c > 0"
        assert sharded.explain(sql) == [
            "Project(b, c)",
            "  Exchange(targets=[shard0, shard1])",
            "    HashJoin(inner, 1 key(s))",
            "      Scan(t)",
            "      Exchange(broadcast, targets=[shard0, shard1])",
            "        Scan(u) filter[(u.c > 0)]",
        ]
        assert sorted(sharded.execute(sql).rows) == [(1, 1), (3, 1), (5, 1)]

    def test_a_bound_key_pin_names_one_target(self, sharded):
        sql = "SELECT a FROM t WHERE b = ?"
        pinned = sharded.explain(sql, (4,))
        assert pinned[1].startswith("  Exchange(targets=[shard")
        assert pinned[1].count("shard") == 1
        assert sharded.explain(sql)[1] == "  Exchange(targets=[shard0, shard1])"

    def test_a_plain_limit_caps_the_exchange(self, sharded):
        assert sharded.explain("SELECT a FROM t LIMIT 2")[:3] == [
            "Limit",
            "  Project(a)",
            "    Exchange(capped, targets=[shard0, shard1])",
        ]

    def test_a_from_less_select_starts_at_depth_zero(self, sharded):
        assert sharded.explain("SELECT 1") == ["Project(1)", "  SingleRow"]
