"""Tracing + provenance store tests against the Moodle fixture."""

import pytest

from repro.core import Trod
from repro.db import Database
from repro.errors import ProvenanceError, TrodError
from repro.runtime import Request, Runtime
from repro.workload.generators import ForumWorkload


class TestAttachment:
    def test_attach_requires_shared_database(self, moodle_env):
        database, runtime, _trod = moodle_env
        other = Trod(Database())
        with pytest.raises(TrodError):
            other.attach(runtime)

    def test_double_attach_rejected(self, moodle_env):
        _db, runtime, trod = moodle_env
        with pytest.raises(TrodError):
            trod.attach(runtime)

    def test_attach_enables_read_tracking(self, moodle_env):
        database, _runtime, _trod = moodle_env
        assert database.track_reads is True

    def test_detach_restores_database(self, moodle_env):
        database, _runtime, trod = moodle_env
        trod.detach()
        assert database.track_reads is False
        assert trod.interposition not in database.observers

    def test_event_tables_created_with_custom_names(self, moodle_env):
        _db, _runtime, trod = moodle_env
        assert trod.provenance.event_table_of("forum_sub") == "ForumEvents"
        assert "ForumEvents" in trod.provenance.db.catalog.table_names()

    def test_tables_created_after_attach_are_traced(self, moodle_env):
        database, runtime, trod = moodle_env
        database.execute("CREATE TABLE late_table (x INTEGER)")

        def writer(ctx):
            ctx.sql("INSERT INTO late_table VALUES (1)")

        runtime.register("lateWriter", writer)
        runtime.submit("lateWriter")
        trod.flush()
        events = trod.provenance.query(
            "SELECT Type FROM LateTableEvents"
        ).column("Type")
        assert "Insert" in events


class TestExecutionsTable:
    def test_committed_txns_recorded_in_commit_order(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        rows = trod.query(
            "SELECT TxnId, HandlerName, ReqId, Metadata FROM Executions"
            " WHERE Status = 'Committed' ORDER BY Csn"
        ).rows
        assert [r[2] for r in rows] == ["R1", "R2", "R2", "R1", "R3"]
        assert rows[0][3] == "func:isSubscribed"
        assert rows[3][3] == "func:DB.insert"

    def test_invocations_alias_works(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        count = trod.query("SELECT COUNT(*) FROM Invocations").scalar()
        assert count == 5

    def test_aborted_txns_have_no_csn(self, moodle_env):
        database, runtime, trod = moodle_env

        def aborter(ctx):
            with ctx.txn(label="doomed") as t:
                t.execute("INSERT INTO forum_sub VALUES ('U9', 'F9')")
                raise ValueError("abort me")

        runtime.register("aborter", aborter)
        runtime.submit("aborter")
        rows = trod.query(
            "SELECT Status, Csn FROM Executions WHERE Metadata = 'func:doomed'"
        ).rows
        assert rows == [("Aborted", None)]

    def test_timestamps_strictly_increase_with_commit_order(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        ts = trod.query(
            "SELECT Timestamp FROM Executions WHERE Status = 'Committed'"
            " ORDER BY Csn"
        ).column("Timestamp")
        # Begin timestamps follow the schedule: R1 and R2 checks began
        # before the inserts, and within this schedule commit order
        # follows begin order except the raced pair.
        assert len(set(ts)) == len(ts)


class TestEventTables:
    def test_table2_shape(self, racy_moodle):
        """The exact shape of the paper's Table 2."""
        _db, _runtime, trod = racy_moodle
        rows = trod.query(
            "SELECT TxnId, Type, UserId, Forum FROM ForumEvents"
            " WHERE Type != 'Snapshot' ORDER BY Seq"
        ).rows
        kinds = [r[1] for r in rows]
        assert kinds == ["Read", "Read", "Insert", "Insert", "Read", "Read"]
        # The two empty-check reads carry null data columns.
        assert rows[0][2] is None and rows[0][3] is None
        assert rows[1][2] is None and rows[1][3] is None
        # Both inserts carry the duplicated key.
        assert rows[2][2:] == ("U1", "F2")
        assert rows[3][2:] == ("U1", "F2")
        # The fetch matched both duplicate rows -> two read events.
        assert rows[4][2:] == ("U1", "F2")
        assert rows[5][2:] == ("U1", "F2")

    def test_write_events_carry_commit_csn(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        rows = trod.query(
            "SELECT Csn FROM ForumEvents WHERE Type = 'Insert'"
        ).column("Csn")
        assert all(csn is not None for csn in rows)

    def test_read_events_have_null_csn(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        rows = trod.query(
            "SELECT Csn FROM ForumEvents WHERE Type = 'Read'"
        ).column("Csn")
        assert all(csn is None for csn in rows)

    def test_untraced_kinds_excluded_from_update_delete(self, moodle_env):
        database, runtime, trod = moodle_env
        runtime.submit("subscribeUser", "U1", "F1")
        runtime.submit("unsubscribeUser", "U1", "F1")
        kinds = trod.query(
            "SELECT Type FROM ForumEvents WHERE Type != 'Snapshot' ORDER BY Seq"
        ).column("Type")
        assert kinds == ["Read", "Insert", "Delete"]


class TestRequestsAndSnapshots:
    def test_requests_capture_args_for_reexecution(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        trod.flush()  # provenance.* reads the raw store; Trod.query flushes
        handler, args, kwargs, auth = trod.provenance.request_args("R1")
        assert handler == "subscribeUser"
        assert args == ("U1", "F2")
        assert kwargs == {}

    def test_failed_request_status(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        trod.flush()
        row = trod.provenance.request_row("R3")
        assert row["Status"] == "Error"
        assert "duplicated" in row["Error"]

    def test_missing_request_raises(self, moodle_env):
        _db, _runtime, trod = moodle_env
        with pytest.raises(ProvenanceError):
            trod.provenance.request_row("R999")

    def test_snapshot_rows_written_for_preexisting_data(self):
        database = Database()
        database.execute("CREATE TABLE t (k TEXT)")
        database.execute("INSERT INTO t VALUES ('pre')")
        runtime = Runtime(database)
        trod = Trod(database).attach(runtime)
        rows = trod.query(
            "SELECT Type, K FROM TEvents WHERE Type = 'Snapshot'"
        ).rows
        assert rows == [("Snapshot", "pre")]

    def test_reconstruction_from_provenance_alone(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        trod.flush()
        rows = trod.provenance.reconstruct_rows("forum_sub", upto_csn=10**9)
        values = sorted(v for _rid, v in rows)
        assert values == [("U1", "F2"), ("U1", "F2")]

    def test_reconstruction_at_base_is_empty(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        trod.flush()
        assert trod.provenance.reconstruct_rows("forum_sub", trod.base_csn) == []

    def test_restore_into_dev_database(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        trod.flush()
        dev = Database(name="dev")
        counts = trod.provenance.restore_into(dev, upto_csn=10**9)
        assert counts["forum_sub"] == 2


class TestWorkflowEdgesAndEffects:
    def test_workflow_edges_recorded(self, ecommerce_env):
        _db, runtime, trod = ecommerce_env
        runtime.submit("registerUser", "U1", "u@x", "4111")
        runtime.submit("addToCart", "C1", "U1", "S1", 1, 2.0)
        runtime.submit("restock", "S1", 10)
        runtime.submit("checkout", "C1", "U1")
        trod.flush()
        edges = trod.debugger.workflow("R4")
        assert [e["Callee"] for e in edges] == [
            "validateCart", "reserveInventory", "chargePayment", "createOrder",
        ]

    def test_no_per_request_state_outlives_the_request(self, ecommerce_env):
        _db, runtime, trod = ecommerce_env
        runtime.submit("registerUser", "U1", "u@x", "4111")
        runtime.submit("restock", "S1", 10)
        for cart in ("C1", "C2"):
            runtime.submit("addToCart", cart, "U1", "S1", 1, 2.0)
            assert runtime.submit("checkout", cart, "U1").ok  # child handlers
        failed = runtime.submit("checkout", "no-such-cart", "U1")
        assert not failed.ok  # fails inside a child handler
        layer = trod.interposition
        assert layer.requests_traced == 7
        assert layer._edge_seq == {} and layer._txn_statements == {}
        # Edge numbering still restarts with every request.
        for req_id in ("R4", "R6"):
            assert [e["Seq"] for e in trod.debugger.workflow(req_id)] == [1, 2, 3, 4]

    def test_side_effects_traced(self, ecommerce_env):
        _db, runtime, trod = ecommerce_env
        runtime.submit("weeklyReport")
        rows = trod.query("SELECT Channel FROM SideEffects").column("Channel")
        assert rows == ["email"]


class TestOverheadAccounting:
    def test_overhead_stats_populated(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        stats = trod.overhead_stats()
        assert stats["requests_traced"] == 3
        assert stats["events_emitted"] > 0
        assert stats["tracing_overhead_us_per_request"] > 0

    def test_flush_us_max_is_the_longest_single_drain(self, racy_moodle):
        _db, runtime, trod = racy_moodle
        assert trod.overhead_stats()["flush_us_max"] == 0.0
        trod.flush()
        first = trod.overhead_stats()
        assert 0 < first["flush_us_max"] == first["flush_us_total"]
        runtime.submit("fetchSubscribers", "F1")
        trod.flush()
        stats = trod.overhead_stats()
        assert stats["buffer"]["flushes"] == 2
        assert stats["flush_us_max"] >= first["flush_us_max"]
        assert stats["flush_us_max"] < stats["flush_us_total"]

    def test_a_traced_scan_buffers_a_batch_not_an_object_per_row(self):
        database = Database()
        database.execute("CREATE TABLE count_probe (k INTEGER, v TEXT)")
        database.insert_rows("count_probe", [(i, f"v{i}") for i in range(1000)])
        trod = Trod(database).attach()
        trod.flush()
        assert database.execute("SELECT COUNT(*) FROM count_probe").scalar() == 1000
        # 1000 Read rows and the commit, in (at most) a read batch, the
        # Executions row and nothing per row.
        assert len(trod.buffer) == trod.buffer.stats()["buffered"] == 1001
        rows, batches = staged = trod.buffer.drain()
        assert [len(staged_rows) for staged_rows in rows.values()] == [1]
        assert [len(headers) for headers, _pairs in batches.values()] == [1]
        assert trod.provenance.ingest(staged) == 1001
        events = trod.provenance.event_table_of("count_probe")
        assert trod.query(
            f"SELECT COUNT(*) FROM {events} WHERE Type = 'Read'"
        ).scalar() == 1000

    def test_buffer_autoflush_on_capacity(self):
        database = Database()
        database.execute("CREATE TABLE t (k TEXT)")
        runtime = Runtime(database)
        trod = Trod(database, buffer_capacity=8).attach(runtime)

        def writer(ctx, i):
            ctx.sql("INSERT INTO t VALUES (?)", (f"v{i}",))

        runtime.register("writer", writer)
        for i in range(20):
            runtime.submit("writer", i)
        # Capacity-triggered flushes happened; nothing was lost.
        assert trod.buffer.stats()["flushes"] >= 1
        trod.flush()
        count = trod.provenance.query(
            "SELECT COUNT(*) FROM TEvents WHERE Type = 'Insert'"
        ).scalar()
        assert count == 20
