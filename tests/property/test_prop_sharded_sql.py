"""Property differential: a sharded SELECT answers what a single database does.

Hypothesis loads the same rows (NULL groups and values, duplicate groups
and keys included) into a ``ShardedDatabase`` of one to four shards and
into a ``Database``, changes some of them after a bookmark, and runs a
fixed menu of statement shapes with generated parameters on both. Rows
must be equal — in order when the ORDER BY is total, as multisets
otherwise — and a statement that fails must fail with the same error
type on both. A LIMIT without ORDER BY may return any qualifying rows,
so it is held to the row count and to a sub-multiset of the unlimited
answer.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.db import Database, ShardedDatabase

SCHEMA = (
    "CREATE TABLE items (id INTEGER, grp TEXT, val INTEGER)",
    "CREATE TABLE grps (grp TEXT, label TEXT)",
)

#: ``(sql, params(p), ordered)``; ``p`` holds the generated parameters and
#: ``p["csn"]`` the engine's own bookmark for ``AS OF``.
SHAPES = [
    ("SELECT id, grp, val FROM items WHERE id = ?", lambda p: (p["k"],), False),
    ("SELECT id, val FROM items WHERE id IN (?, NULL, ?)",
     lambda p: (p["k"], p["k2"]), False),
    ("SELECT id, grp, val FROM items WHERE val > ? ORDER BY id, grp, val",
     lambda p: (p["lo"],), True),
    ("SELECT grp, COUNT(*), SUM(val) FROM items GROUP BY grp HAVING COUNT(*) > ?",
     lambda p: (p["n"],), False),
    ("SELECT grp, AVG(val), SUM(val) * 2 + COUNT(val), MAX(val) - MIN(val) "
     "FROM items WHERE id >= ? GROUP BY grp ORDER BY grp",
     lambda p: (p["k"],), True),
    ("SELECT COUNT(*), AVG(val), MIN(grp) FROM items WHERE val <= ?",
     lambda p: (p["hi"],), False),
    ("SELECT grp, COUNT(DISTINCT val) FROM items GROUP BY grp", lambda p: (), False),
    ("SELECT DISTINCT grp FROM items WHERE val < ?", lambda p: (p["hi"],), False),
    ("SELECT i.id, g.label FROM items i JOIN grps g ON i.grp = g.grp "
     "WHERE i.val >= ?", lambda p: (p["lo"],), False),
    ("SELECT i.id, i.grp, g.label FROM items i LEFT JOIN grps g ON i.grp = g.grp",
     lambda p: (), False),
    ("SELECT a.id, b.id, b.val FROM items a JOIN items b ON a.grp = b.grp "
     "WHERE a.id = ?", lambda p: (p["k"],), False),
    ("SELECT g.label, COUNT(*) FROM items i JOIN grps g ON i.grp = g.grp "
     "GROUP BY g.label", lambda p: (), False),
    ("SELECT id, grp, val FROM items ORDER BY id, grp, val LIMIT ? OFFSET ?",
     lambda p: (p["limit"], p["offset"]), True),
    ("SELECT grp, SUM(val) FROM items GROUP BY grp ORDER BY grp LIMIT ?",
     lambda p: (p["limit"],), True),
    ("SELECT id, val FROM items AS OF ? WHERE val > ? ORDER BY id, val",
     lambda p: (p["csn"], p["lo"]), True),
    ("SELECT grp, COUNT(*) FROM items AS OF ? GROUP BY grp", lambda p: (p["csn"],), False),
    ("SELECT 1 + ?, 'x'", lambda p: (p["n"],), True),
]

#: ``(sql with LIMIT, the same without it, params(p))``.
UNORDERED_LIMITS = [
    ("SELECT id, grp FROM items WHERE val > ? LIMIT ? OFFSET ?",
     "SELECT id, grp FROM items WHERE val > ?",
     lambda p: (p["lo"], p["limit"], p["offset"])),
    ("SELECT i.id, g.label FROM items i JOIN grps g ON i.grp = g.grp LIMIT ?",
     "SELECT i.id, g.label FROM items i JOIN grps g ON i.grp = g.grp",
     lambda p: (p["limit"],)),
]

maybe = lambda strategy: st.one_of(st.none(), strategy)  # noqa: E731
keys = st.integers(-3, 12)
items_rows = st.lists(
    st.tuples(keys, maybe(st.sampled_from("abc")), maybe(st.integers(-5, 9))),
    max_size=30,
)
grps_rows = st.lists(
    st.tuples(maybe(st.sampled_from("abd")), st.sampled_from(["L1", "L2", "L3"])),
    max_size=5,
)
params = st.fixed_dictionaries({
    "k": keys,
    "k2": keys,
    "lo": st.integers(-6, 10),
    "hi": st.integers(-6, 10),
    "n": st.integers(0, 3),
    # -1 is an invalid LIMIT / OFFSET: both engines must refuse it alike.
    "limit": st.integers(-1, 8),
    "offset": st.integers(-1, 4),
})


def load(db, items, grps, changes) -> int:
    """Load both tables, bookmark, apply ``changes``; the bookmark's CSN."""
    for ddl in SCHEMA:
        db.execute(ddl)
    db.execute("CREATE INDEX ix_items_id ON items (id)")
    txn = db.begin()
    for row in items:
        db.execute("INSERT INTO items VALUES (?, ?, ?)", row, txn=txn)
    for row in grps:
        db.execute("INSERT INTO grps VALUES (?, ?)", row, txn=txn)
    txn.commit()
    bookmark = db.last_commit_csn
    bump, gone = changes
    db.execute("UPDATE items SET val = val + 1 WHERE id < ?", (bump,))
    db.execute("DELETE FROM items WHERE id = ?", (gone,))
    return bookmark


def run(db, sql, args):
    try:
        return db.execute(sql, args).rows, None
    except Exception as exc:  # the error type is part of the answer
        return None, type(exc)


def as_multiset(rows):
    return Counter(map(repr, rows))


@given(
    n_shards=st.integers(1, 4),
    items=items_rows,
    grps=grps_rows,
    changes=st.tuples(keys, keys),
    p=params,
)
@settings(max_examples=100, deadline=None)
def test_sharded_select_matches_single_node(n_shards, items, grps, changes, p):
    sharded = ShardedDatabase(n_shards, shard_keys={"items": "id", "grps": "grp"})
    single = Database()
    csns = {
        engine: load(engine, items, grps, changes) for engine in (sharded, single)
    }
    for sql, make_params, ordered in SHAPES:
        answers = []
        for engine in (sharded, single):
            args = make_params({**p, "csn": csns[engine]})
            answers.append(run(engine, sql, args))
        (got, got_error), (want, want_error) = answers
        assert got_error == want_error, sql
        if want is not None and not ordered:
            got, want = as_multiset(got), as_multiset(want)
        assert got == want, sql
    for sql, unlimited, make_params in UNORDERED_LIMITS:
        args = make_params(p)
        got, got_error = run(sharded, sql, args)
        want, want_error = run(single, sql, args)
        assert got_error == want_error, sql
        if want is None:
            continue
        assert len(got) == len(want), sql
        everything = as_multiset(
            single.execute(unlimited, args[: unlimited.count("?")]).rows
        )
        assert not as_multiset(got) - everything, sql
