"""Scan predicates against the eager read recorder, seeded.

A traced whole-table scan in one chunk records its predicate, which the
provenance store reenacts into Read rows when provenance is read; every
other read records its rows (``tests/eager_reads.py``). Each seed runs a
stream twice, once as it is and once under the eager recorder, and the
two must answer alike: every provenance table in ``Seq`` order — so each
statement's read set row for row, ``Seq`` included — every transaction
touching each table, the access-control and taint analyses, and each
request's tracking and replay, and a retroactive run.

Streams:

* interleaved transactions on one database: up to three open at once, at
  every isolation level, scanning after writes of their own and after
  commits made since they began, with filters, params, joins,
  aggregates, LIMITs, INSERT ... SELECT, AS OF reads, null reads,
  lock refusals and aborts;
* the Moodle, checkout and notes apps, one request at a time;
* a table dropped and created again under its name, and one traced
  again after a delete made while detached.

A reenactment that disagrees with the count its scan recorded raises.

CI's chaos-seed matrix adds each of its seeds through ``REPRO_CHAOS_SEED``.
"""

import os
import random

import pytest

from repro.apps import build_ecommerce_app, build_moodle_app
from repro.core import Trod
from repro.db import Database, IsolationLevel, ScanRead
from repro.errors import ProvenanceError, ReproError
from repro.runtime import Request, Runtime
from repro.workload.generators import CheckoutWorkload

from eager_reads import answers, eager_reads

SEEDS = [0, 1, 2, 3, 4]
if os.environ.get("REPRO_CHAOS_SEED"):
    SEEDS.append(int(os.environ["REPRO_CHAOS_SEED"]))

OWNERS = ("ann", "bob", "cy")
NOTES = ("a", "b", "zzz")

#: Statements of the interleaved stream, each with a function of the rng
#: that draws its params.
READS = (
    ("SELECT * FROM acct", lambda r: ()),
    ("SELECT id, bal FROM acct WHERE bal > ?", lambda r: (r.randrange(120),)),
    ("SELECT owner, SUM(bal), COUNT(*) FROM acct GROUP BY owner", lambda r: ()),
    (
        "SELECT a.id, t.note FROM acct a JOIN tag t ON a.owner = t.owner"
        " WHERE t.note = ?",
        lambda r: (r.choice(NOTES),),
    ),
    ("SELECT id FROM acct ORDER BY bal DESC, id LIMIT 3", lambda r: ()),
    ("SELECT bal FROM acct WHERE id = ?", lambda r: (r.randrange(30),)),
    ("SELECT * FROM tag WHERE owner = ?", lambda r: (r.choice(OWNERS),)),
    ("SELECT COUNT(*) FROM tag WHERE note = 'none'", lambda r: ()),
)
WRITES = (
    ("INSERT INTO acct VALUES (?, ?, ?)",
     lambda r: (r.randrange(30, 60), r.choice(OWNERS), r.randrange(100))),
    ("UPDATE acct SET bal = bal + ? WHERE owner = ?",
     lambda r: (r.randrange(-5, 6), r.choice(OWNERS))),
    ("DELETE FROM tag WHERE note = ?", lambda r: (r.choice(NOTES),)),
    ("INSERT INTO tag SELECT owner, 'b' FROM acct WHERE bal > ?",
     lambda r: (r.randrange(90, 130),)),
    ("INSERT INTO tag VALUES (?, ?)", lambda r: (r.choice(OWNERS), r.choice(NOTES))),
)
ISOLATIONS = tuple(IsolationLevel)


def interleaved(seed: int) -> Trod:
    rng = random.Random(seed)
    db = Database()
    db.execute("CREATE TABLE acct (id INTEGER, owner TEXT, bal INTEGER)")
    db.execute("CREATE TABLE tag (owner TEXT, note TEXT)")
    db.execute("CREATE INDEX ix_acct_id ON acct (id)")
    db.insert_rows("acct", [(i, OWNERS[i % 3], 50 + i * 3) for i in range(20)])
    trod = Trod(db).attach()  # the rows so far are the base snapshot
    db.insert_rows("tag", [(OWNERS[i % 3], NOTES[i % 2]) for i in range(6)])

    def run(sql, params, txn=None):
        try:
            db.execute(sql, params, txn=txn)
        except ReproError:
            if txn is not None:
                txn.abort()

    # A serializable reader that began before a commit it then reads, and
    # one that scans its own write.
    early = db.begin(IsolationLevel.SERIALIZABLE)
    run("UPDATE acct SET bal = bal + 1 WHERE owner = 'ann'", ())
    run("SELECT owner, SUM(bal) FROM acct GROUP BY owner", (), early)
    early.commit()
    own = db.begin()
    run("INSERT INTO tag VALUES ('cy', 'a')", (), own)
    run("SELECT * FROM tag WHERE owner = ?", ("cy",), own)
    own.commit()
    open_txns = []
    for _step in range(120):
        open_txns = [t for t in open_txns if t.status.value == "ACTIVE"]
        roll = rng.random()
        if roll < 0.15 and len(open_txns) < 3:
            open_txns.append(db.begin(rng.choice(ISOLATIONS)))
        elif roll < 0.3 and open_txns:
            txn = open_txns.pop(rng.randrange(len(open_txns)))
            try:
                txn.commit() if rng.random() < 0.8 else txn.abort()
            except ReproError:
                pass
        elif roll < 0.35:
            run(f"SELECT * FROM acct AS OF {rng.randrange(1, db.last_csn + 1)}", ())
        else:
            sql, draw = rng.choice(READS if rng.random() < 0.6 else WRITES)
            txn = rng.choice(open_txns) if open_txns and rng.random() < 0.6 else None
            run(sql, draw(rng), txn)
    for txn in open_txns:
        txn.abort()
    return trod


def app_run(app: str, seed: int, notes_env) -> tuple[Trod, list[str]]:
    rng = random.Random(seed)
    if app == "notes":
        _db, runtime, trod = notes_env()
        requests = [
            Request("postNote", (rng.choice(["al", "bo"]), rng.choice(["x", "y"])))
            if rng.random() < 0.5
            else Request(rng.choice(["editNotes", "dropNotes"]), (rng.choice(["al", "bo"]),))
            for _ in range(10)
        ]
    elif app == "moodle":
        db = Database()
        runtime = Runtime(db)
        trod = Trod(db, event_names=build_moodle_app(db, runtime)).attach(runtime)
        requests = [
            Request(rng.choice(["subscribeUser", "unsubscribeUser"]),
                    (rng.choice(["U1", "U2", "U3"]), rng.choice(["F1", "F2"])))
            if rng.random() < 0.6
            else Request("fetchSubscribers", (rng.choice(["F1", "F2"]),))
            for _ in range(12)
        ]
    else:
        db = Database()
        runtime = Runtime(db)
        event_names = build_ecommerce_app(db, runtime)
        generator = CheckoutWorkload(n_users=3, n_skus=2, seed=seed)
        generator.seed_database(runtime)
        trod = Trod(db, event_names=event_names).attach(runtime)
        orders = generator.requests(12)
        requests = []
        for _ in range(6):
            kind = rng.choice(["order", "order", "restock", "weeklyReport"])
            if kind == "order":
                requests += next(orders), next(orders)
            elif kind == "restock":
                requests.append(Request("restock", ("SKU0", 5)))
            else:
                requests.append(Request("weeklyReport", ()))
    req_ids = [runtime.execute_request(request).req_id for request in requests]
    return trod, req_ids


@pytest.mark.parametrize("seed", SEEDS)
def test_an_interleaved_stream_answers_as_the_eager_recorder(seed):
    trod = interleaved(seed)
    with eager_reads():
        eager = interleaved(seed)
    trod.flush()
    assert len(trod.provenance.pending_scans()) >= 20
    assert answers(trod) == answers(eager)
    assert not trod.provenance.pending_scans()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("app", ["moodle", "checkout", "notes"])
def test_an_app_answers_as_the_eager_recorder(app, seed, notes_env):
    trod, req_ids = app_run(app, seed, notes_env)
    with eager_reads():
        eager, eager_ids = app_run(app, seed, notes_env)
    assert req_ids == eager_ids
    trod.flush()
    assert trod.provenance.pending_scans()
    retro = req_ids[:2] if app == "moodle" else ()
    assert answers(trod, req_ids, retro) == answers(eager, eager_ids, retro)


def recreated() -> Trod:
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("INSERT INTO t VALUES (1), (2)")
    trod = Trod(db).attach()
    db.execute("SELECT * FROM t WHERE a > ?", (0,))
    db.execute("DROP TABLE t")
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("INSERT INTO t VALUES (5)")
    db.execute("SELECT * FROM t WHERE a > ?", (0,))
    return trod


def test_a_self_insert_select_stages_the_rows_it_read():
    """The statement's rows are staged after it ran: they are the state
    its scan read, not one holding the rows it then inserted."""

    def run(setup):
        trod = setup()
        trod.database.execute("INSERT INTO t SELECT a + 10 FROM t WHERE a > ?", (0,))
        return trod

    for setup in (recreated, reattached):
        trod = run(setup)
        with eager_reads():
            eager = run(setup)
        assert answers(trod) == answers(eager)


def test_a_table_created_again_stages_its_rows():
    trod = recreated()
    with eager_reads():
        eager = recreated()
    _rows, batches, scans = trod.buffer.drain()
    # The scan before the drop is a predicate; the one after, its row.
    assert [h[6] for h in scans["t"][0]] == [2]
    assert [(h[2], h[6]) for h in batches["t"][0]] == [("Insert", 1), ("Read", 1)]
    trod.provenance.ingest((_rows, batches, scans))
    assert answers(trod) == answers(eager)


def reattached() -> Trod:
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("INSERT INTO t VALUES (1), (2), (3)")
    trod = Trod(db).attach()
    db.execute("SELECT * FROM t")
    trod.detach()
    db.execute("DELETE FROM t WHERE a = 2")
    trod.attach()
    db.execute("SELECT * FROM t")
    return trod


def test_a_table_traced_again_stages_its_rows():
    trod = reattached()
    with eager_reads():
        eager = reattached()
    assert answers(trod) == answers(eager)
    reads = trod.query("SELECT TxnId, A FROM TEvents WHERE Type = 'Read' ORDER BY Seq")
    assert [a for _txn, a in reads.rows] == [1, 2, 3, 1, 3]


def diverged() -> tuple[Trod, ScanRead]:
    """A pending scan of ``t`` its history no longer reenacts, beside a
    scan of ``u`` it does."""
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("CREATE TABLE u (b TEXT)")
    trod = Trod(db).attach()
    db.execute("INSERT INTO t VALUES (1), (2), (3)")
    db.execute("SELECT * FROM t WHERE a > ?", (1,))
    db.execute("INSERT INTO u VALUES ('x'), ('y')")
    db.execute("SELECT * FROM u WHERE b = ?", ("x",))
    trod.flush()
    read = trod.provenance.pending_scans()[0]
    assert (read.table, read.params, read.count) == ("t", (1,), 2)
    # A write the history holds at that CSN and the live table never had.
    late = Trod(db).buffer
    late.add_batch("t", "TXN99", 99, "Insert", "late", read.csn, [(9, (7,))])
    trod.provenance.ingest(late.drain())
    return trod, read


def test_a_reenactment_short_of_its_count_raises_and_stays_pending():
    trod, read = diverged()
    with pytest.raises(ProvenanceError, match="read 2 rows; its reenactment finds 3"):
        trod.query("SELECT COUNT(*) FROM TEvents")
    assert trod.provenance.pending_scans()[0] == read
    # The table's later scans stage their rows.
    trod.database.execute("SELECT * FROM t").rows
    _rows, batches, scans = trod.buffer.drain()
    assert not scans and [h[6] for h in batches["t"][0]] == [3]


def test_a_reenactment_short_of_its_count_leaves_other_tables_readable():
    trod, read = diverged()
    # Readers of another table answer; event_count counts the pending rows.
    reads = trod.query("SELECT B FROM UEvents WHERE Type = 'Read'").rows
    assert reads == [("x",)]
    assert trod.provenance.pending_scans() == [read]
    count = trod.provenance.event_count
    with pytest.raises(ProvenanceError):
        trod.provenance.expand_reads()
    assert trod.provenance.event_count == count
    assert trod.provenance.pending_scans() == [read]
