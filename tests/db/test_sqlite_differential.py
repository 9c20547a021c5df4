"""Differential: the engine answers what stdlib ``sqlite3`` answers.

A seeded generator in the style of SQLancer (Rigger & Su: PQS, OSDI 2020;
TLP, OOPSLA 2020) builds two tables of INTEGER, FLOAT and TEXT columns,
fills them with small values and NULLs, and writes a stream of INSERT,
UPDATE, DELETE and SELECT statements: WHERE, GROUP BY / HAVING, JOIN and
LEFT JOIN, DISTINCT, ORDER BY + LIMIT, over expressions using COALESCE,
NULLIF, CASE, ABS, IN, BETWEEN, LIKE, LENGTH, SUBSTR and REPLACE, with
integers and floats in boolean position. Every statement runs on a
``Database`` and on ``sqlite3.connect(":memory:")``. Answers are compared as
multisets, or as lists when ORDER BY covers every output column; DML by
its row count and by what the SELECTs after it see.

The generator keeps to the dialect both engines share. ``DIFFERENCES`` in
``tests/sql_oracle.py`` is the one list of where they part; each row's
``handling`` says what this generator avoids or normalises, and nothing
else is. The examples of every row run here too, so a difference that
stops being one shows.

Every ``ORDER BY ... LIMIT`` below its input's size sorts only the
LIMIT's head (``SortNode``); the test counts those statements, so the
oracle provably covers that path.

Most tables get an index on one INTEGER column, a hash index or now and
then a SORTED one, and SELECT, UPDATE and DELETE bound that column on
both sides now and then: strict and inclusive, ``BETWEEN``, float, NULL
and TEXT bounds, low above high, narrow spans and wide ones. Under a hash
index such a range is a span probe (``ScanNode._span_keys``), which looks
its keys up one by one or, past its cutoff, scans; the run lowers the
cutoff to one live row per key, so small tables take both paths, and the
test counts the statements that probed.

``REPRO_SQL_SEED`` runs one seed and ``REPRO_SQL_STATEMENTS`` sets its
stream's length (CI: 10 000 per seed). By default four seeds run 500
statements each.
"""

from __future__ import annotations

import os
import random
import re
import sqlite3
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator
from unittest import mock

import pytest

from repro.db import Database
from repro.db.sql import executor
from repro.errors import IntegrityError, ReproError
from sql_oracle import DIFFERENCES, ERROR, EXAMPLE_TABLE

if "REPRO_SQL_SEED" in os.environ:
    SEEDS = [int(os.environ["REPRO_SQL_SEED"])]
    STATEMENTS = int(os.environ.get("REPRO_SQL_STATEMENTS", "10000"))
else:
    SEEDS = [1, 2, 3, 4]
    STATEMENTS = int(os.environ.get("REPRO_SQL_STATEMENTS", "500"))

INT, FLOAT, TEXT, BOOL = "INTEGER", "FLOAT", "TEXT", "BOOL"
TEXTS = ["", "a", "b", "ab", "ba", "A", "Ab", "abc", "a%", "_b", "bca"]
PATTERNS = ["a%", "%b", "_", "%", "A%", "a_", "", "%a%", "_b%", "ab"]
DIVISORS = ["2.0", "4.0", "0.5", "(-2.0)"]


def literal(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return f"'{value}'"
    return f"({value!r})" if value < 0 else repr(value)


def normalised(row: tuple) -> tuple:
    """The "BOOLEAN" row: TRUE/FALSE compare as 1/0; a value keeps its type."""
    return tuple(
        (int, int(v)) if isinstance(v, bool) else (type(v), v) for v in row
    )


class Generator:
    """Statements over a random schema, in the shared dialect only."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.tables: dict[str, list[tuple[str, str]]] = {}
        self.next_id = 1
        for name in ("t0", "t1"):
            kinds = [INT, FLOAT, TEXT, self.rng.choice([INT, FLOAT, TEXT])]
            self.rng.shuffle(kinds)
            self.tables[name] = [("id", INT)] + [(f"c{i}", k) for i, k in enumerate(kinds)]
        #: table -> (the INTEGER column its ranges bound, its index DDL or
        #: ""): t0's index is a hash index, t1's any kind or none.
        self.spanned: dict[str, tuple[str, str]] = {}
        for name, columns in self.tables.items():
            column = self.rng.choice([c for c, kind in columns if kind == INT])
            kind = "" if name == "t0" else self.rng.choice(["", "", "SORTED ", None])
            ddl = "" if kind is None else f"CREATE {kind}INDEX ix_{name} ON {name} ({column})"
            self.spanned[name] = (column, ddl)

    # -- values and leaves ---------------------------------------------------

    def value(self, kind: str, nulls: float = 0.15) -> Any:
        rng = self.rng
        if rng.random() < nulls:
            return None
        if kind == INT:
            return rng.randint(-4, 4)
        if kind == FLOAT:
            return rng.randint(-12, 12) / 4
        return rng.choice(TEXTS)

    def columns(self, scope, kinds) -> list[str]:
        return [ref for ref, kind in scope if kind in kinds]

    def leaf(self, kind: str, scope) -> str:
        refs = self.columns(scope, (kind,))
        if refs and self.rng.random() < 0.7:
            return self.rng.choice(refs)
        return literal(self.value(kind, nulls=0.05))

    # -- expressions ---------------------------------------------------------

    def expr(self, kind: str, scope, depth: int = 2) -> str:
        if kind == BOOL:
            return self.predicate(scope, depth)
        if depth <= 0 or self.rng.random() < 0.35:
            return self.leaf(kind, scope)
        rng, d = self.rng, depth - 1
        same = lambda: self.expr(kind, scope, d)  # noqa: E731
        shared: list[Callable[[], str]] = [
            lambda: f"COALESCE({same()}, {same()})",
            lambda: f"NULLIF({same()}, {same()})",
            lambda: f"CASE WHEN {self.condition(scope, d)} THEN {same()} ELSE {same()} END",
            lambda: f"CASE WHEN {self.condition(scope, d)} THEN {same()} "
            f"WHEN {self.condition(scope, d)} THEN {same()} END",
        ]
        if kind == INT:
            forms = shared + [
                lambda: f"({same()} {rng.choice('+-*')} {same()})",
                lambda: f"({same()} % {literal(rng.choice([-3, -2, 2, 3, 4]))})",
                lambda: f"(- {same()})",
                lambda: f"ABS({same()})",
                lambda: f"LENGTH({self.expr(rng.choice([TEXT, INT]), scope, d)})",
            ]
        elif kind == FLOAT:
            number = lambda: self.expr(rng.choice([INT, FLOAT]), scope, d)  # noqa: E731
            forms = shared + [
                lambda: f"({same()} {rng.choice('+-*')} {number()})",
                lambda: f"({number()} {rng.choice('+-*')} {same()})",
                lambda: f"({number()} / {rng.choice(DIVISORS)})",
                lambda: f"(- {same()})",
                lambda: f"ABS({same()})",
            ]
        else:
            textual = lambda: self.expr(rng.choice([TEXT, TEXT, INT]), scope, d)  # noqa: E731
            position = lambda: self.expr(INT, scope, d - 1)  # noqa: E731
            forms = shared + [
                lambda: f"({textual()} || {textual()})",
                lambda: f"{rng.choice(['UPPER', 'LOWER'])}({same()})",
                lambda: f"SUBSTR({textual()}, {position()})",
                lambda: f"SUBSTR({textual()}, {position()}, {position()})",
                lambda: f"REPLACE({textual()}, {literal(rng.choice(TEXTS))}, "
                f"{literal(rng.choice(TEXTS))})",
            ]
        return rng.choice(forms)()

    def comparable(self) -> tuple[str, str]:
        """Two kinds that compare alike in both engines: two numbers or two
        TEXTs (the "TEXT against a number" row)."""
        if self.rng.random() < 0.3:
            return TEXT, TEXT
        return self.rng.choice([INT, FLOAT]), self.rng.choice([INT, FLOAT])

    def predicate(self, scope, depth: int) -> str:
        rng, d = self.rng, max(depth - 1, 0)
        a_kind, b_kind = self.comparable()
        a = lambda: self.expr(a_kind, scope, d)  # noqa: E731
        b = lambda: self.expr(b_kind, scope, d)  # noqa: E731
        negate = lambda: rng.choice(["", "NOT "])  # noqa: E731
        forms = [
            lambda: f"({a()} {rng.choice(['=', '!=', '<>', '<', '<=', '>', '>='])} {b()})",
            lambda: f"({a()} IS {negate()}NULL)",
            lambda: f"({a()} {negate()}IN ({', '.join(literal(self.value(b_kind, 0.1)) for _ in range(rng.randint(1, 4)))}))",
            lambda: f"({a()} {negate()}BETWEEN {b()} AND {b()})",
            lambda: f"({self.expr(TEXT, scope, d)} {negate()}LIKE "
            f"{literal(rng.choice(PATTERNS)) if rng.random() < 0.8 else self.expr(TEXT, scope, 0)})",
        ]
        if depth > 0:
            forms += [
                lambda: f"({self.condition(scope, d)} {rng.choice(['AND', 'OR'])} "
                f"{self.condition(scope, d)})",
                lambda: f"(NOT {self.condition(scope, d)})",
            ]
        return rng.choice(forms)()

    def condition(self, scope, depth: int = 2) -> str:
        """An expression in boolean position: a predicate, or a number (the
        truth rule); never TEXT (the "TEXT as a truth value" row)."""
        kind = self.rng.choices([BOOL, INT, FLOAT], weights=[6, 3, 1])[0]
        return self.expr(kind, scope, depth)

    # -- statements ----------------------------------------------------------

    def scope_of(self, table: str, alias: str | None = None) -> list[tuple[str, str]]:
        prefix = f"{alias}." if alias else ""
        return [(prefix + name, kind) for name, kind in self.tables[table]]

    def insert(self, params: bool) -> tuple[str, tuple]:
        table = self.rng.choice(list(self.tables))
        columns = self.tables[table]
        rows, args = [], []
        for _ in range(self.rng.randint(1, 3)):
            values = [self.next_id] + [self.value(kind) for _, kind in columns[1:]]
            self.next_id += 1
            if params:
                rows.append("(" + ", ".join("?" * len(values)) + ")")
                args.extend(values)
            else:
                rows.append("(" + ", ".join(literal(v) for v in values) + ")")
        names = ", ".join(name for name, _ in columns)
        return f"INSERT INTO {table} ({names}) VALUES {', '.join(rows)}", tuple(args)

    def bounded(self, kind: str, scope) -> str:
        """A value to store, kept small (the "INTEGER range" row) and exact:
        INTEGERs modulo 5, FLOATs in quarters, TEXT at most 4 characters."""
        if kind == INT:
            return f"({self.expr(INT, scope)} % 5)"
        if kind == FLOAT:
            return self.rng.choice([
                literal(self.value(FLOAT, 0.1)),
                f"({self.leaf(FLOAT, scope)} + {literal(self.value(FLOAT, 0))})",
                f"({self.expr(INT, scope, 1)} / 4.0)",
            ])
        return f"SUBSTR({self.expr(TEXT, scope)}, 1, 4)"

    def update(self) -> str:
        table = self.rng.choice(list(self.tables))
        scope = self.scope_of(table)
        targets = self.rng.sample(self.tables[table][1:], self.rng.randint(1, 2))
        sets = ", ".join(f"{name} = {self.bounded(kind, scope)}" for name, kind in targets)
        return f"UPDATE {table} SET {sets} WHERE {self.where(table, scope)}"

    def delete(self) -> str:
        table = self.rng.choice(list(self.tables))
        return f"DELETE FROM {table} WHERE {self.where(table, self.scope_of(table))}"

    def where(self, table: str, scope, prefix: str = "") -> str:
        """A WHERE condition on ``table``, now and then led by a span."""
        if self.rng.random() < 0.35:
            span = self.span(table, prefix)
            if self.rng.random() < 0.5:
                return span
            return f"{span} AND {self.condition(scope)}"
        return self.condition(scope)

    def span_bound(self, column: str) -> str:
        """A bound near ``column``'s values: ids grow, other INTEGERs stay
        in [-4, 4]. Now and then a float, NULL, or TEXT (never a numeric
        one, so SQLite's column affinity leaves it TEXT, which every
        number sorts below in both engines)."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.05:
            return "NULL"
        if roll < 0.1:
            return literal(rng.choice(TEXTS))
        value = rng.randint(-1, self.next_id) if column == "id" else rng.randint(-6, 6)
        if roll < 0.3:
            return literal(value + 0.5)
        return literal(value)

    def span(self, table: str, prefix: str = "") -> str:
        """Two bounds on ``table``'s spanned column, as one conjunct pair:
        strict or inclusive, either side first, ``BETWEEN`` now and then,
        low above high as it falls, and a wide span one time in ten."""
        rng = self.rng
        column = self.spanned[table][0]
        ref = prefix + column
        low, high = self.span_bound(column), self.span_bound(column)
        if rng.random() < 0.1:
            low, high = literal(-50 - rng.randint(0, 9)), literal(self.next_id + 50)
        if rng.random() < 0.25:
            return f"{ref} BETWEEN {low} AND {high}"
        lower = f"{ref} {rng.choice(['>', '>='])} {low}"
        upper = f"{ref} {rng.choice(['<', '<='])} {high}"
        if rng.random() < 0.3:
            lower = f"{low} {rng.choice(['<', '<='])} {ref}"
        pair = [lower, upper]
        rng.shuffle(pair)
        return " AND ".join(pair)

    def items(self, scope, count: int) -> list[str]:
        return [
            self.expr(self.rng.choice([INT, FLOAT, TEXT, BOOL]), scope)
            for _ in range(count)
        ]

    def from_clause(self) -> tuple[str, list[tuple[str, str]]]:
        if self.rng.random() < 0.6:
            table = self.rng.choice(list(self.tables))
            return f"{table} x", self.scope_of(table, "x")
        left, right = self.scope_of("t0", "x"), self.scope_of("t1", "y")
        kind = self.rng.choice([INT, FLOAT, TEXT])
        kinds = (TEXT,) if kind == TEXT else (INT, FLOAT)
        on = (
            f"{self.rng.choice(self.columns(left, (kind,)))} "
            f"{self.rng.choice(['=', '=', '<', '>='])} "
            f"{self.rng.choice(self.columns(right, kinds))}"
        )
        if self.rng.random() < 0.3:
            on = f"{on} AND {self.condition(left + right, 1)}"
        join = self.rng.choice(["JOIN", "LEFT JOIN"])
        return f"t0 x {join} t1 y ON {on}", left + right

    def select(self) -> tuple[str, bool]:
        """A SELECT and whether its ORDER BY covers every output column."""
        rng = self.rng
        source, scope = self.from_clause()
        table = source.split()[0]
        where = f" WHERE {self.where(table, scope, 'x.')}" if rng.random() < 0.7 else ""
        shape = rng.choice(["plain", "plain", "distinct", "aggregate", "aggregate", "ordered"])
        if shape == "aggregate":
            # A key that is a bare number would be a position to SQLite.
            keys = [self.key(scope) for _ in range(rng.randint(0, 2))]
            aggregates = [self.aggregate(scope) for _ in range(rng.randint(1, 3))]
            group = f" GROUP BY {', '.join(keys)}" if keys else ""
            having = ""
            if keys and rng.random() < 0.5:
                having = f" HAVING {self.having(scope)}"
            return f"SELECT {', '.join(keys + aggregates)} FROM {source}{where}{group}{having}", False
        items = self.items(scope, rng.randint(1, 3))
        if shape == "distinct":
            return f"SELECT DISTINCT {', '.join(items)} FROM {source}{where}", False
        if shape == "plain":
            return f"SELECT {', '.join(items)} FROM {source}{where}", False
        aliased = ", ".join(f"{item} AS o{i}" for i, item in enumerate(items))
        order = ", ".join(f"o{i} {rng.choice(['ASC', 'DESC'])}" for i in range(len(items)))
        limit = f" LIMIT {rng.randint(0, 6)}"
        if rng.random() < 0.4:
            limit += f" OFFSET {rng.randint(0, 3)}"
        distinct = "DISTINCT " if rng.random() < 0.3 else ""
        return f"SELECT {distinct}{aliased} FROM {source}{where} ORDER BY {order}{limit}", True

    def key(self, scope) -> str:
        """A GROUP BY key that reads a column and is no predicate, which
        SQLite could fold to a number (``p AND 0``): the "Positions" row."""
        while True:
            key = self.expr(self.rng.choice([INT, FLOAT, TEXT]), scope)
            if re.search(r"\b[xy]\.", key):
                return key

    def aggregate(self, scope) -> str:
        rng = self.rng
        kind = rng.choice([INT, FLOAT, TEXT])
        arg = self.expr(kind, scope, 1)
        names = ["COUNT", "MIN", "MAX"] + (["SUM", "AVG"] if kind != TEXT else [])
        name = rng.choice(names)
        if rng.random() < 0.15:
            return "COUNT(*)"
        distinct = "DISTINCT " if rng.random() < 0.2 else ""
        return f"{name}({distinct}{arg})"

    def having(self, scope) -> str:
        rng = self.rng
        forms = [
            lambda: f"COUNT(*) > {rng.randint(0, 2)}",
            lambda: f"SUM({self.leaf(INT, scope)}) {rng.choice(['>', '<=', '='])} {literal(rng.randint(-3, 3))}",
            lambda: f"MAX({self.leaf(TEXT, scope)}) < {literal(rng.choice(TEXTS))}",
            lambda: f"COUNT({self.leaf(rng.choice([INT, TEXT]), scope)})",
            lambda: f"SUM({self.leaf(INT, scope)})",
            lambda: f"AVG({self.leaf(FLOAT, scope)})",
        ]
        text = rng.choice(forms)()
        if rng.random() < 0.3:
            text = f"({text}) {rng.choice(['AND', 'OR'])} NOT ({rng.choice(forms)()})"
        return text

    def stream(self, count: int):
        """``count`` statements: ``(sql, params, kind, ordered)``."""
        prelude = 0
        for name, columns in self.tables.items():
            body = ", ".join(f"{column} {kind}" for column, kind in columns)
            yield f"CREATE TABLE {name} ({body})", (), "ddl", False
            if self.spanned[name][1]:
                yield self.spanned[name][1], (), "ddl", False
                prelude += 1
        for _ in range(6):
            sql, args = self.insert(params=True)
            yield sql, args, "dml", False
        for _ in range(count - 8 - prelude):
            roll = self.rng.random()
            if roll < 0.1:
                sql, args = self.insert(params=self.rng.random() < 0.5)
                yield sql, args, "dml", False
            elif roll < 0.18:
                yield self.update(), (), "dml", False
            elif roll < 0.23:
                yield self.delete(), (), "dml", False
            else:
                sql, ordered = self.select()
                yield sql, (), "select", ordered


@contextmanager
def head_sorts() -> Iterator[list[int]]:
    """Count, in the yielded one-item list, the sorts ``SortNode`` gives
    a LIMIT's head (or the rest after it): those handed leading keys it
    evaluated to find the head."""
    found = [0]
    ordered = executor.SortNode._ordered

    def spy(self, rows, params, known=None):
        found[0] += known is not None
        return ordered(self, rows, params, known)

    with mock.patch.object(executor.SortNode, "_ordered", spy):
        yield found


@contextmanager
def span_probes() -> Iterator[list[int]]:
    """Count, in the yielded ``[probed, scanned]``, the span probes that
    looked their keys up and those that scanned the table instead; the
    cutoff is one live row per key throughout."""
    found = [0, 0]
    span_keys = executor.ScanNode._span_keys

    def spy(self, ctx):
        keys = span_keys(self, ctx)
        found[keys is None] += 1
        return keys

    with mock.patch.object(executor.ScanNode, "_span_keys", spy), \
            mock.patch.object(executor, "SPAN_ROWS_PER_KEY", 1):
        yield found


def run(seed: int, count: int) -> tuple[int, list[str], int, list[int]]:
    """Run ``count`` statements of ``seed``'s stream on both engines:
    (statements run, undeclared mismatches, SELECTs whose ORDER BY took
    the bounded path, statements whose span probe [looked its keys up,
    scanned])."""
    db = Database()
    lite = sqlite3.connect(":memory:")
    lite.execute("PRAGMA case_sensitive_like = ON")  # the "LIKE" row
    mismatches: list[str] = []
    ran = bounded = 0
    spans = [0, 0]
    for sql, params, kind, ordered in Generator(seed).stream(count):
        ran += 1
        try:
            with head_sorts() as found, span_probes() as probes:
                result = db.execute(sql, params)
                ours: Any = result.rows if kind == "select" else result.rowcount
            bounded += found[0] > 0
            for path, taken in enumerate(probes):
                spans[path] += taken > 0
        except ReproError as exc:
            ours = f"error: {exc}"
        try:
            # SQLite has one kind of index.
            cursor = lite.execute(sql.replace("CREATE SORTED INDEX", "CREATE INDEX"), params)
            theirs: Any = cursor.fetchall() if kind == "select" else cursor.rowcount
        except sqlite3.Error as exc:
            theirs = f"error: {exc}"
        if kind == "ddl":
            continue
        if kind == "select" and not isinstance(ours, str) and not isinstance(theirs, str):
            ours = [normalised(row) for row in ours]
            theirs = [normalised(tuple(row)) for row in theirs]
            if not ordered:
                ours, theirs = Counter(ours), Counter(theirs)
        if ours != theirs:
            mismatches.append(f"{sql} {params!r}\n    engine: {ours}\n    sqlite: {theirs}")
    return ran, mismatches, bounded, spans


@pytest.mark.parametrize("seed", SEEDS)
def test_the_engine_answers_what_sqlite_answers(seed):
    ran, mismatches, bounded, (probed, scanned) = run(seed, STATEMENTS)
    assert ran == STATEMENTS
    assert bounded > 0, f"seed {seed}: no ORDER BY took the bounded path"
    assert probed > 0, f"seed {seed}: no span probe looked its keys up"
    assert scanned > 0, f"seed {seed}: no span probe scanned past its cutoff"
    assert not mismatches, (
        f"seed {seed}: {len(mismatches)} of {ran} statements answered "
        f"differently; replay with REPRO_SQL_SEED={seed} "
        f"REPRO_SQL_STATEMENTS={STATEMENTS}\n" + "\n".join(mismatches[:10])
    )


@pytest.mark.parametrize("row", DIFFERENCES, ids=lambda row: row.name)
def test_each_declared_difference_is_as_declared(row):
    """Each example gives the engine's declared answer on a ``Database`` and
    SQLite's on a plain ``sqlite3`` connection (no PRAGMA)."""
    db = Database()
    lite = sqlite3.connect(":memory:")
    for statement in EXAMPLE_TABLE:
        db.execute(statement)
        lite.execute(statement)
    for sql, here, there in row.examples:
        try:
            ours = db.execute(sql).scalar()
        except ReproError:
            ours = ERROR
        try:
            theirs = lite.execute(sql).fetchone()[0]
        except sqlite3.Error:
            theirs = ERROR
        assert (type(ours), ours) == (type(here), here), (row.name, sql)
        assert (type(theirs), theirs) == (type(there), there), (row.name, sql)


def test_docs_show_the_one_table():
    """``docs/api.md``'s "SQL dialect" section lists exactly the rows of
    ``DIFFERENCES``, in order."""
    docs = (Path(__file__).parents[2] / "docs" / "api.md").read_text()
    section = docs.split("## SQL dialect", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| \*\*(.+?)\*\* \|", section, flags=re.M)
    assert names == [row.name for row in DIFFERENCES]


def test_a_nan_parameter_binds_as_null():
    """A float NaN binds as NULL in both engines: it reads as NULL,
    matches nothing, and a NOT NULL column refuses it."""
    nan = float("nan")
    db = Database()
    lite = sqlite3.connect(":memory:")
    for statement in ("CREATE TABLE n (a FLOAT, b INTEGER NOT NULL)",
                      "INSERT INTO n VALUES (1.5, 1)"):
        db.execute(statement)
        lite.execute(statement)
    for sql in ("SELECT ?", "SELECT ? IS NULL", "SELECT COUNT(*) FROM n WHERE a < ?",
                "SELECT COALESCE(?, 'null')"):
        ours = db.execute(sql, (nan,)).scalar()
        theirs = lite.execute(sql, (nan,)).fetchone()[0]
        assert normalised((ours,)) == normalised((theirs,)), sql
    db.execute("INSERT INTO n VALUES (?, 2)", (nan,))
    lite.execute("INSERT INTO n VALUES (?, 2)", (nan,))
    assert db.execute("SELECT a FROM n WHERE b = 2").scalar() is None
    assert lite.execute("SELECT a FROM n WHERE b = 2").fetchone()[0] is None
    with pytest.raises(ReproError):
        db.execute("INSERT INTO n VALUES (1.0, ?)", (nan,))
    with pytest.raises(sqlite3.IntegrityError):
        lite.execute("INSERT INTO n VALUES (1.0, ?)", (nan,))


def test_a_stored_nan_is_null_on_every_insert_path():
    """``Database.insert_rows`` stores a float NaN as NULL too, as a NaN
    parameter binds: a NOT NULL column refuses it, and it orders as NULL."""
    nan = float("nan")
    db = Database()
    lite = sqlite3.connect(":memory:")
    for statement in ("CREATE TABLE n (a FLOAT, b INTEGER)",
                      "CREATE TABLE m (a FLOAT NOT NULL, b INTEGER)"):
        db.execute(statement)
        lite.execute(statement)
    rows = [(2.5, 1), (nan, 2), (-1.0, 3)]
    db.insert_rows("n", rows)
    db.insert_rows("n", [{"a": nan, "b": 4}])
    lite.executemany("INSERT INTO n VALUES (?, ?)", [*rows, (nan, 4)])
    for sql in ("SELECT * FROM n ORDER BY a LIMIT 1",
                "SELECT * FROM n ORDER BY a DESC, b LIMIT 3",
                "SELECT b FROM n WHERE a IS NULL ORDER BY b"):
        assert db.execute(sql).rows == lite.execute(sql).fetchall(), sql
    with pytest.raises(IntegrityError, match="NOT NULL"):
        db.insert_rows("m", [(1.0, 1), (nan, 2)])
    with pytest.raises(sqlite3.IntegrityError):
        lite.execute("INSERT INTO m VALUES (?, 2)", (nan,))
    assert db.execute("SELECT COUNT(*) FROM m").scalar() == 0
