"""Tests for the §5 extensions: profiling, data quality, privacy."""

import pytest

from repro.core.privacy import REDACTED
from repro.workload.generators import ForumWorkload


class TestPerformanceProfiler:
    def test_request_latencies_recorded(self, moodle_env):
        _db, runtime, trod = moodle_env
        profiler = trod.enable_profiling()
        for i in range(5):
            runtime.submit("subscribeUser", f"U{i}", "F1")
        slowest = profiler.slowest_requests(3)
        assert len(slowest) == 3
        assert all(row["DurationUs"] > 0 for row in slowest)
        assert slowest[0]["DurationUs"] >= slowest[-1]["DurationUs"]

    def test_handler_stats_grouped(self, moodle_env):
        _db, runtime, trod = moodle_env
        profiler = trod.enable_profiling()
        runtime.submit("subscribeUser", "U1", "F1")
        runtime.submit("fetchSubscribers", "F1")
        stats = {row["HandlerName"]: row for row in profiler.handler_stats()}
        assert set(stats) == {"subscribeUser", "fetchSubscribers"}
        assert stats["subscribeUser"]["n"] == 1

    def test_txn_label_stats(self, moodle_env):
        _db, runtime, trod = moodle_env
        profiler = trod.enable_profiling()
        runtime.submit("subscribeUser", "U1", "F1")
        labels = {row["Label"] for row in profiler.txn_label_stats()}
        assert {"isSubscribed", "DB.insert"} <= labels

    def test_rpc_handler_spans(self, ecommerce_env):
        _db, runtime, trod = ecommerce_env
        profiler = trod.enable_profiling()
        runtime.submit("registerUser", "U1", "u@x", "4111")
        runtime.submit("restock", "S1", 5)
        runtime.submit("addToCart", "C1", "U1", "S1", 1, 2.0)
        runtime.submit("checkout", "C1", "U1")
        breakdown = profiler.request_breakdown("R4")
        kinds = {row["Kind"] for row in breakdown}
        assert kinds == {"request", "handler", "txn"}
        handlers = {
            row["HandlerName"] for row in breakdown if row["Kind"] == "handler"
        }
        assert "chargePayment" in handlers

    def test_profiler_is_optional_and_detachable(self, moodle_env):
        _db, runtime, trod = moodle_env
        profiler = trod.enable_profiling()
        runtime.submit("subscribeUser", "U1", "F1")
        profiler.detach()
        runtime.submit("subscribeUser", "U2", "F1")
        stats = profiler.handler_stats()
        assert sum(row["n"] for row in stats) == 1  # second request unmeasured

    def test_a_flush_is_one_run_of_the_records_in_order(self, moodle_env, commit_tap):
        _db, runtime, trod = moodle_env
        profiler = trod.enable_profiling()
        for i in range(3):
            runtime.submit("subscribeUser", f"U{i}", "F1")
        records = [tuple(record.values()) for record in profiler._pending]
        assert len(records) > 3
        db = trod.provenance.db
        tap = commit_tap(db)
        assert profiler.flush() == len(records)
        assert [values for _rid, values in db.snapshot_rows("PerfEvents")] == records
        (change,) = [
            change
            for commit in tap
            for change in commit.changes
            if change.table == "perfevents"
        ]
        assert (change.op, len(change.values)) == ("append", len(records))

    def test_profiling_before_attach_rejected(self):
        from repro.core import Trod
        from repro.db import Database

        trod = Trod(Database())
        with pytest.raises(RuntimeError):
            trod.enable_profiling()


class TestDataQuality:
    def test_unique_check_finds_first_degrading_request(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        trod.quality.add_unique_check(
            "one-sub-per-user-forum", "forum_sub", ["userId", "forum"]
        )
        violation = trod.quality.first_degradation("one-sub-per-user-forum")
        assert violation is not None
        # The SECOND insert (R1's, committed at csn 2 of the pair) is the
        # degrading write; its request is identified.
        assert violation.req_id == "R1"
        assert violation.handler == "subscribeUser"
        assert "appears 2 times" in violation.detail

    def test_unique_check_clean_history(self, moodle_env):
        _db, runtime, trod = moodle_env
        runtime.submit("subscribeUser", "U1", "F1")
        runtime.submit("subscribeUser", "U2", "F1")
        trod.quality.add_unique_check("uq", "forum_sub", ["userId", "forum"])
        assert trod.quality.first_degradation("uq") is None

    def test_row_check(self, moodle_env):
        _db, runtime, trod = moodle_env
        runtime.submit("subscribeUser", "U1", "F1")
        runtime.submit("subscribeUser", "BAD USER", "F1")
        trod.quality.add_row_check(
            "no-spaces", "forum_sub", lambda row: " " not in row["userId"]
        )
        violation = trod.quality.first_degradation("no-spaces")
        assert violation is not None
        assert violation.req_id == "R2"

    def test_delete_heals_unique_violation_history(self, racy_moodle):
        """A later unsubscribe removes the duplicate, but the scan still
        finds the original degradation point."""
        _db, runtime, trod = racy_moodle
        runtime.submit("unsubscribeUser", "U1", "F2")
        trod.quality.add_unique_check("uq", "forum_sub", ["userId", "forum"])
        violation = trod.quality.first_degradation("uq")
        assert violation is not None  # history still shows the degradation
        current = trod.quality.validate_current_state()
        assert current["uq"] == []  # but the current state is clean

    def test_scan_runs_all_checks(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        trod.quality.add_unique_check("uq", "forum_sub", ["userId", "forum"])
        trod.quality.add_row_check(
            "user-prefix", "forum_sub", lambda row: row["userId"].startswith("U")
        )
        violations = trod.quality.scan()
        assert [v.check for v in violations] == ["uq"]

    def test_upto_csn_bounds_the_scan(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        trod.quality.add_unique_check("uq", "forum_sub", ["userId", "forum"])
        violation = trod.quality.first_degradation("uq")
        before = trod.quality.first_degradation("uq", upto_csn=violation.csn - 1)
        assert before is None


class TestPrivacy:
    def test_forget_value_redacts_events_but_keeps_metadata(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        report = trod.privacy.forget_value("forum_sub", "userId", "U1")
        assert report.events_redacted >= 2  # both inserts at minimum
        rows = trod.query(
            "SELECT Type, Query, UserId FROM ForumEvents WHERE Query = ?",
            (REDACTED,),
        ).as_dicts()
        assert rows
        assert all(r["UserId"] is None for r in rows)
        # Metadata survives: the execution log still shows who ran what.
        count = trod.query(
            "SELECT COUNT(*) FROM Executions WHERE HandlerName = 'subscribeUser'"
        ).scalar()
        assert count == 4

    def test_erasure_reaches_reads_of_the_past(self, racy_moodle):
        """A redaction overwrites the only copy of each event row: ``AS
        OF`` a CSN before it finds the erased value nowhere."""
        _db, _runtime, trod = racy_moodle
        trod.flush()
        trod.provenance.expand_reads()  # the Read rows too lie before it
        before = trod.provenance.db.last_csn
        sql = f"SELECT COUNT(*) FROM ForumEvents AS OF {before} WHERE UserId = 'U1'"
        assert trod.query(sql).scalar() == 4
        trod.privacy.forget_value("forum_sub", "userId", "U1")
        assert trod.query(sql).scalar() == 0

    def test_no_way_into_provenance_shows_an_erased_value(
        self, racy_moodle, erasure_oracle
    ):
        _db, _runtime, trod = racy_moodle
        trod.privacy.forget_value("forum_sub", "userId", "U1")
        erasure_oracle(trod, "U1", replay=("R1", "R2", "R3"))

    def test_request_args_scrubbed(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        report = trod.privacy.forget_value("forum_sub", "userId", "U1")
        assert report.requests_scrubbed == 2
        handler, args, _kwargs, _auth = trod.provenance.request_args("R1")
        assert args == (REDACTED, "F2")

    def test_audit_log_has_no_sensitive_values(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        trod.privacy.forget_value("forum_sub", "userId", "U1")
        log = trod.privacy.audit_log()
        assert len(log) == 1
        assert "U1" not in str(log)  # the value itself is never stored
        assert log[0]["EventsRedacted"] >= 2

    def test_reconstruction_from_partial_data(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        trod.privacy.forget_value("forum_sub", "userId", "U1")
        rows = trod.provenance.reconstruct_rows("forum_sub", upto_csn=1 << 60)
        assert rows == []  # the erased rows are simply absent

    def test_replay_degrades_gracefully_after_redaction(self, racy_moodle):
        """§5: 'support debugging from partial data' — replay of a request
        whose dependencies were erased reports divergence, not a crash."""
        _db, _runtime, trod = racy_moodle
        trod.privacy.forget_value("forum_sub", "userId", "U1")
        result = trod.replayer.replay_request("R1")
        assert not result.fidelity  # the injected write is gone
        assert result.error is None or isinstance(result.error, str)

    def test_redacted_count(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        assert trod.privacy.redacted_event_count("forum_sub") == 0
        trod.privacy.forget_value("forum_sub", "userId", "U1")
        assert trod.privacy.redacted_event_count("forum_sub") >= 2

    def test_untraced_table_rejected(self, racy_moodle):
        from repro.errors import ProvenanceError

        _db, _runtime, trod = racy_moodle
        with pytest.raises(ProvenanceError):
            trod.privacy.forget_value("nonexistent", "x", "v")
