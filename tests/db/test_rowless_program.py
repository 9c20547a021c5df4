"""A rowless expression's program is generated once per expression.

INSERT VALUES, an index probe's keys and ``LIMIT ?`` evaluate expressions
that no row feeds, once per execution, through ``evaluate_rowless`` — as
do a sharded statement's key pins. A parsed statement serves every
execution of its text, so the program kept on each expression is built
the first time the statement runs and never again: a second run, with new
parameters, generates no program source at all.
"""

from repro.db import Database, ShardedDatabase
from repro.db.sql import compile as codegen

#: Text no other test uses: parses are shared process-wide, so the first
#: run here is the first run of each expression.
STATEMENTS = [
    ("INSERT INTO once_t VALUES (?, ?)", [(1, "a"), (2, "b")]),
    ("SELECT v FROM once_t WHERE k = ?", [(1,), (2,)]),
    ("SELECT k FROM once_t ORDER BY k LIMIT ?", [(1,), (2,)]),
]


def generated_sources(monkeypatch, run) -> list[str]:
    """The program sources ``run()`` generates."""
    sources: list[str] = []
    bind = codegen._bind

    def spy(source, *args):
        sources.append(source)
        return bind(source, *args)

    with monkeypatch.context() as patch:
        patch.setattr(codegen, "_bind", spy)
        run()
    return sources


def test_a_second_run_generates_no_program(monkeypatch):
    db = Database()
    db.execute("CREATE TABLE once_t (k INTEGER, v TEXT)")
    db.execute("CREATE INDEX ix_k ON once_t (k)")
    assert "probe=ix_k[k]" in "\n".join(db.explain(STATEMENTS[1][0]))
    for sql, (first, second) in STATEMENTS:
        built = generated_sources(monkeypatch, lambda: db.execute(sql, first))
        assert built, sql
        assert generated_sources(monkeypatch, lambda: db.execute(sql, second)) == [], sql
    assert db.execute("SELECT k, v FROM once_t ORDER BY k").rows == [(1, "a"), (2, "b")]


def test_a_routed_key_pin_is_built_once(monkeypatch):
    sharded = ShardedDatabase(2, shard_keys={"t": "k"})
    sharded.execute("CREATE TABLE t (k INTEGER, v TEXT)")
    sharded.execute("INSERT INTO t VALUES (?, ?)", (1, "a"))
    sql = "SELECT v FROM t WHERE k = ?"
    assert sharded.execute(sql, (1,)).rows == [("a",)]
    assert generated_sources(monkeypatch, lambda: sharded.execute(sql, (2,))) == []
