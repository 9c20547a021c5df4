"""Soak test: all four case-study apps on one database, one TROD.

Runs a mixed deterministic workload across every app, then checks
whole-trace integrity invariants — the properties that make the
provenance database trustworthy as a debugging source:

* every committed write event joins to exactly one Executions row;
* write-event counts equal WAL change counts (nothing lost or invented);
* every traced request's arguments re-parse (retroactive-ready);
* sampled requests replay with full fidelity;
* reconstruction from provenance agrees with the live database.
"""

import pytest

from repro.apps import (
    build_ecommerce_app,
    build_mediawiki_app,
    build_moodle_app,
    build_profiles_app,
)
from repro.core import Trod
from repro.db import Database
from repro.runtime import Request, Runtime
from repro.workload.generators import ForumWorkload, MediaWikiWorkload


@pytest.fixture(scope="module")
def soaked(commit_tap):
    db = Database()
    tap = commit_tap(db)
    runtime = Runtime(db)
    names = {}
    names.update(build_moodle_app(db, runtime))
    names.update(build_mediawiki_app(db, runtime))
    names.update(build_ecommerce_app(db, runtime))
    names.update(build_profiles_app(db, runtime))
    trod = Trod(db, event_names=names).attach(runtime)

    # Mixed deterministic workload across all apps.
    runtime.submit("createPage", "P1", "Soak", "hello")
    runtime.submit("registerUser", "U1", "u1@x.com", "4111", auth_user="U1")
    runtime.submit("restock", "SKU1", 100)
    runtime.submit("createProfile", "alice", "a@x.com", auth_user="alice")
    forum = ForumWorkload(n_users=10, n_forums=3, seed=1)
    for request in forum.requests(25, fetch_ratio=0.2):
        runtime.execute_request(request)
    runtime.run_concurrent(
        ForumWorkload.racy_pair(), schedule=ForumWorkload.RACY_SCHEDULE
    )
    runtime.run_concurrent(
        MediaWikiWorkload.racy_edit_pair(),
        schedule=MediaWikiWorkload.RACY_SCHEDULE,
    )
    runtime.submit("addToCart", "C1", "U1", "SKU1", 2, 3.5, auth_user="U1")
    runtime.submit("checkout", "C1", "U1", auth_user="U1")
    runtime.submit("updateProfile", "alice", "soaked", auth_user="alice")
    trod.flush()
    return db, runtime, trod, tap


class TestTraceIntegrity:
    def test_every_write_event_joins_to_a_committed_txn(self, soaked):
        _db, _runtime, trod, _tap = soaked
        for table in trod.provenance.traced_tables():
            event_table = trod.provenance.event_table_of(table)
            orphans = trod.query(
                f"SELECT COUNT(*) FROM {event_table} AS F"
                " LEFT JOIN Executions AS E ON F.TxnId = E.TxnId"
                " WHERE F.Type IN ('Insert', 'Update', 'Delete')"
                " AND E.TxnId IS NULL"
            ).scalar()
            assert orphans == 0, f"orphan write events in {event_table}"

    def test_write_events_match_cdc_exactly(self, soaked):
        _db, _runtime, trod, tap = soaked
        wal_count = sum(len(commit.changes) for commit in tap)
        event_count = 0
        for table in trod.provenance.traced_tables():
            event_table = trod.provenance.event_table_of(table)
            event_count += trod.query(
                f"SELECT COUNT(*) FROM {event_table}"
                " WHERE Type IN ('Insert', 'Update', 'Delete')"
            ).scalar()
        assert event_count == wal_count

    def test_committed_txn_csns_are_unique_and_ordered(self, soaked):
        _db, _runtime, trod, _tap = soaked
        csns = trod.query(
            "SELECT Csn FROM Executions WHERE Status = 'Committed'"
            " ORDER BY Csn"
        ).column("Csn")
        assert len(csns) == len(set(csns))
        assert csns == sorted(csns)

    def test_every_request_has_reexecutable_args(self, soaked):
        _db, _runtime, trod, _tap = soaked
        req_ids = trod.query("SELECT ReqId FROM Requests").column("ReqId")
        assert len(req_ids) >= 30
        for req_id in req_ids:
            handler, args, kwargs, _auth = trod.provenance.request_args(req_id)
            assert isinstance(handler, str) and handler
            assert isinstance(args, tuple)
            assert isinstance(kwargs, dict)

    def test_reconstruction_agrees_with_live_database(self, soaked):
        db, _runtime, trod, _tap = soaked
        for table in trod.provenance.traced_tables():
            live = dict(db.store(table).scan(None))
            rebuilt = dict(
                trod.provenance.reconstruct_rows(table, upto_csn=1 << 60)
            )
            assert rebuilt == live, f"reconstruction mismatch for {table}"

    def test_sampled_requests_replay_faithfully(self, soaked):
        _db, _runtime, trod, _tap = soaked
        rows = trod.query(
            "SELECT DISTINCT ReqId FROM Executions"
            " WHERE Status = 'Committed' AND ReqId IS NOT NULL"
        ).column("ReqId")
        sample = rows[:: max(1, len(rows) // 6)][:6]
        assert sample
        for req_id in sample:
            result = trod.replayer.replay_request(req_id)
            assert result.fidelity, (req_id, result.divergences)

    def test_overall_scale(self, soaked):
        _db, _runtime, trod, _tap = soaked
        assert trod.provenance.event_count > 150
        stats = trod.overhead_stats()
        assert stats["requests_traced"] >= 30
