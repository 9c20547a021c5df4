"""Shared fixtures: pre-built app environments with TROD attached."""

from __future__ import annotations

import gc
import types

import pytest

from repro.apps import (
    build_ecommerce_app,
    build_mediawiki_app,
    build_moodle_app,
    build_profiles_app,
)
from repro.core import Trod
from repro.db import Database
from repro.db.sql import executor
from repro.db.txn.wal import WalCommit
from repro.runtime import Request, Runtime
from repro.workload.generators import ForumWorkload


@pytest.fixture(autouse=True)
def cold_plan_memo():
    """Every test starts with an empty process-wide plan memo, so the
    ``plan_cache_stats`` of the databases it builds count its own plans."""
    executor._plan_memo.clear()


@pytest.fixture
def db() -> Database:
    return Database()


@pytest.fixture
def moodle_env():
    """(db, runtime, trod) with the Moodle app built and TROD attached."""
    database = Database()
    runtime = Runtime(database)
    event_names = build_moodle_app(database, runtime)
    trod = Trod(database, event_names=event_names).attach(runtime)
    return database, runtime, trod


@pytest.fixture
def racy_moodle(moodle_env):
    """Moodle env after the MDL-59854 race: R1/R2 duplicates, R3 error."""
    database, runtime, trod = moodle_env
    runtime.run_concurrent(
        ForumWorkload.racy_pair(), schedule=ForumWorkload.RACY_SCHEDULE
    )
    runtime.submit("fetchSubscribers", "F2")
    return database, runtime, trod


@pytest.fixture
def mediawiki_env():
    database = Database()
    runtime = Runtime(database)
    event_names = build_mediawiki_app(database, runtime)
    trod = Trod(database, event_names=event_names).attach(runtime)
    return database, runtime, trod


@pytest.fixture
def ecommerce_env():
    database = Database()
    runtime = Runtime(database)
    event_names = build_ecommerce_app(database, runtime)
    trod = Trod(database, event_names=event_names).attach(runtime)
    return database, runtime, trod


@pytest.fixture
def profiles_env():
    database = Database()
    runtime = Runtime(database)
    event_names = build_profiles_app(database, runtime)
    trod = Trod(database, event_names=event_names).attach(runtime)
    return database, runtime, trod


def build_notes_app(database: Database, runtime: Runtime) -> None:
    """``postNote`` inserts a note, then lists its author's notes in a
    second transaction; ``editNotes`` and ``dropNotes`` rewrite and
    delete an author's notes."""
    database.execute("CREATE TABLE notes (author TEXT, body TEXT)")

    def post_note(ctx, author, body):
        with ctx.txn(label="addNote") as t:
            t.execute("INSERT INTO notes (author, body) VALUES (?, ?)", (author, body))
        with ctx.txn(label="listNotes") as t:
            return t.execute(
                "SELECT body FROM notes WHERE author = ?", (author,)
            ).rows

    def edit_notes(ctx, author):
        with ctx.txn(label="editNotes") as t:
            t.execute("UPDATE notes SET body = 'final' WHERE author = ?", (author,))

    def drop_notes(ctx, author):
        with ctx.txn(label="dropNotes") as t:
            t.execute("DELETE FROM notes WHERE author = ?", (author,))

    runtime.register("postNote", post_note)
    runtime.register("editNotes", edit_notes)
    runtime.register("dropNotes", drop_notes)


@pytest.fixture(scope="session")
def notes_env():
    """``notes_env()``: a fresh (db, runtime, trod) with the notes app
    (:func:`build_notes_app`) built and TROD attached — a request that
    reads, in a later transaction, a row it inserted."""

    def build():
        database = Database()
        runtime = Runtime(database)
        build_notes_app(database, runtime)
        trod = Trod(database).attach(runtime)
        return database, runtime, trod

    return build


def make_request(handler: str, *args, **kwargs) -> Request:
    return Request(handler, args, kwargs)


class CommitTap(list):
    """The commits a database makes while tapped, as the ``WalCommit``
    records its log writes (an empty commit logs none, so it is left out
    here too). The log keeps no commit; a test that reads them taps."""

    events = ("txn_committed",)

    def txn_committed(self, txn, csn, changes):
        if changes:
            self.append(WalCommit(csn, txn.txn_id, changes))


@pytest.fixture(scope="session")
def commit_tap():
    """``commit_tap(db)``: a :class:`CommitTap` observing ``db``'s commits
    from now on."""

    def tap(db) -> CommitTap:
        observer = CommitTap()
        db.add_observer(observer)
        return observer

    return tap


class SideEffectTap(list):
    """The side effects a runtime records while tapped. The runtime keeps
    none; a test that reads them taps."""

    events = ("side_effect",)

    def side_effect(self, ctx, effect):
        self.append(effect)


@pytest.fixture(scope="session")
def side_effect_tap():
    """``side_effect_tap(runtime)``: a :class:`SideEffectTap` observing
    ``runtime``'s side effects from now on."""

    def tap(runtime) -> SideEffectTap:
        observer = SideEffectTap()
        runtime.add_observer(observer)
        return observer

    return tap


#: Not followed by :func:`reaches`: a type, module or function leads to
#: everything the process holds, the application's own data included.
_OPAQUE = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.CodeType,
)


def reaches(root, value) -> bool:
    """Whether a walk over ``gc.get_referents`` from ``root`` finds an
    object of ``value``'s type equal to it."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) in seen or isinstance(ref, _OPAQUE):
                continue
            seen.add(id(ref))
            if type(ref) is type(value) and ref == value:
                return True
            stack.append(ref)
    return False


@pytest.fixture(scope="session")
def erasure_oracle():
    """``erasure_oracle(trod, value, replay=())``: after a
    ``forget_value(..., value)``, no way into provenance shows ``value``:
    not the params of a scan predicate still pending, not its objects,
    not ``AS OF`` at any provenance CSN, not a reconstructed state at any
    commit, not a dev database, and not the writes a replay of each
    request in ``replay`` injects."""

    def check(trod, value, replay=()) -> None:
        provenance = trod.provenance
        for read in provenance.pending_scans():
            assert value not in read.params, f"a pending scan's params: {read.query}"
        assert not reaches(provenance, value), "an object still holds it"
        db = provenance.db
        for table in db.catalog.table_names():
            for csn in range(1, db.last_csn + 1):
                rows = db.execute(f"SELECT * FROM {table} AS OF {csn}").rows
                assert not any(value in row for row in rows), (table, csn)
        csns = sorted(
            set(
                db.execute(
                    "SELECT Csn FROM Executions WHERE Status = 'Committed'"
                ).column("Csn")
            )
        )
        for table in provenance.traced_tables():
            for csn in csns:
                rows = provenance.reconstruct_rows(table, csn)
                assert not any(value in values for _id, values in rows), (table, csn)
        dev = trod.replayer.build_dev_db(csns[-1] if csns else trod.base_csn)
        for table in dev.catalog.table_names():
            assert not any(value in values for _id, values in dev.snapshot_rows(table))
        for req_id in replay:
            for step in trod.replayer.replay_request(req_id).steps:
                for write in step.injected:
                    assert value not in (write.values or {}).values(), write

    return check
