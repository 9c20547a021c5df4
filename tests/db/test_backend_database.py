"""Database-level behaviours: shared parses, programmatic inserts,
observers, aliases, bulk loads and non-transactional DDL."""

import pytest

from repro.db import Database


class TestDatabaseMisc:
    def test_parsed_statements_are_shared_across_databases(self, monkeypatch):
        """One parse per statement text, whichever database runs it."""
        from repro.db.sql import parser

        parses = []
        parse_sql = parser.parse_sql
        monkeypatch.setattr(
            parser, "parse_sql", lambda sql: parses.append(sql) or parse_sql(sql)
        )
        sql = "SELECT * FROM parsed_once WHERE x = ?"
        for _ in range(2):
            db = Database()
            db.execute("CREATE TABLE parsed_once (x INTEGER)")
            db.execute(sql, (1,))
            db.execute(sql, (2,))
        assert parses.count(sql) == 1
        assert parser.parse_cached(sql) is parser.parse_cached(sql)
        assert parser.parse_sql(sql) is not parser.parse_sql(sql)  # itself uncached

    def test_insert_row_programmatic(self):
        db = Database()
        db.execute("CREATE TABLE t (k TEXT, v INTEGER)")
        rid = db.insert_row("t", {"k": "a", "v": 1})
        assert db.store("t").get(rid, None) == ("a", 1)

    def test_insert_row_in_explicit_txn(self):
        db = Database()
        db.execute("CREATE TABLE t (k TEXT)")
        txn = db.begin()
        db.insert_row("t", {"k": "x"}, txn=txn)
        txn.abort()
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_table_rows_reads_latest(self):
        db = Database()
        db.execute("CREATE TABLE t (k TEXT)")
        db.execute("INSERT INTO t VALUES ('a')")
        db.execute("INSERT INTO t VALUES ('b')")
        assert db.table_rows("t") == [{"k": "a"}, {"k": "b"}]
        assert db.execute("SELECT k FROM t AS OF 1").rows == [("a",)]

    def test_table_rows_takes_no_csn(self):
        """The past is read through ``AS OF`` only, which checks the range."""
        db = Database()
        db.execute("CREATE TABLE t (k TEXT)")
        db.execute("INSERT INTO t VALUES ('a')")
        with pytest.raises(TypeError):
            db.table_rows("t", csn=1)

    def test_observer_receives_events(self):
        seen = []

        class Observer:
            events = (
                "txn_began", "txn_committed", "txn_aborted", "statement_executed"
            )

            def txn_began(self, txn):
                seen.append(("began", txn.txn_id))

            def txn_committed(self, txn, csn, changes):
                seen.append(("committed", csn, len(changes)))

            def txn_aborted(self, txn):
                seen.append(("aborted", txn.txn_id))

            def statement_executed(self, txn, trace):
                seen.append(("stmt", trace.kind))

        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        db.add_observer(Observer())
        db.execute("INSERT INTO t VALUES (1)")
        txn = db.begin()
        txn.abort()
        kinds = [e[0] for e in seen]
        assert "began" in kinds and "committed" in kinds
        assert "aborted" in kinds and "stmt" in kinds

    def test_remove_observer(self):
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")

        class Observer:
            events = ("txn_began",)

            def txn_began(self, txn):
                pass

        observer = Observer()
        db.add_observer(observer)
        db.remove_observer(observer)
        db.remove_observer(observer)  # idempotent
        assert list(db.observers) == []

    def test_alias_query(self):
        db = Database()
        db.execute("CREATE TABLE executions (x INTEGER)")
        db.add_table_alias("Invocations", "executions")
        db.execute("INSERT INTO executions VALUES (1)")
        assert db.execute("SELECT COUNT(*) FROM Invocations").scalar() == 1

    def test_bulk_load_preserves_ids_and_indexes(self):
        db = Database()
        db.execute("CREATE TABLE t (k TEXT UNIQUE)")
        db.bulk_load("t", [(10, ("a",)), (20, ("b",))])
        assert db.store("t").get(10, None) == ("a",)
        # Unique index is populated: conflicting insert fails.
        import pytest as _pytest
        from repro.errors import IntegrityError

        with _pytest.raises(IntegrityError):
            db.execute("INSERT INTO t VALUES ('a')")

    def test_ddl_inside_txn_is_non_transactional(self):
        db = Database()
        txn = db.begin()
        db.execute("CREATE TABLE t (x INTEGER)", txn=txn)
        txn.abort()
        assert db.catalog.has_table("t")  # DDL survived the abort
