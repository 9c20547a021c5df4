"""Trace buffer tests."""

import gc

import pytest

from repro.core import Trod
from repro.core.buffer import TraceBuffer
from repro.db import Database, ScanRead

EXEC_ROW = ("TXN1", 1, 10, None, None, "", "SERIALIZABLE", "Committed", 1, 0, None)


def read(buffer, txn_num, pairs, table="kv"):
    """Stage a read set of ``pairs`` on ``table``."""
    return buffer.add_batch(table, f"TXN{txn_num}", txn_num, "Read", "q", None, pairs)


class TestAppend:
    def test_drain_returns_each_tables_records_in_order(self):
        buffer = TraceBuffer(capacity=10)
        for i in range(3):
            buffer.add_row("Executions", (f"TXN{i}", i))
        assert buffer.drain() == (
            {"Executions": [("TXN0", 0), ("TXN1", 1), ("TXN2", 2)]}, {}, {}
        )
        assert len(buffer) == 0

    def test_add_signals_flush_at_capacity(self):
        buffer = TraceBuffer(capacity=2)
        assert buffer.add_row("Executions", EXEC_ROW) is False
        assert buffer.add_row("Executions", EXEC_ROW) is True  # reached capacity

    def test_a_batch_counts_its_rows(self):
        buffer = TraceBuffer(capacity=10)
        assert read(buffer, 1, [(i, (i,)) for i in range(7)]) is False
        assert len(buffer) == 7
        # Heavier than the remaining room: kept whole, and the flush is due.
        assert read(buffer, 2, [(i, (i,)) for i in range(5)]) is True
        assert len(buffer) == 12 and buffer.high_water
        rows, batches, _scans = buffer.drain()
        assert rows == {}
        headers, pairs = batches["kv"]
        assert headers == [
            ("TXN1", 1, "Read", "q", None, 0, 7),
            ("TXN2", 2, "Read", "q", None, 7, 5),
        ]
        assert pairs == [(i, (i,)) for i in range(7)] + [(i, (i,)) for i in range(5)]
        assert len(buffer) == 0 and not buffer.high_water
        assert buffer.add_row("Executions", EXEC_ROW) is False

    def test_ordinals_count_pairs_across_tables_and_restart_per_drain(self):
        buffer = TraceBuffer()
        read(buffer, 1, [(1, (1,)), (2, (2,))], table="a")
        buffer.add_row("Executions", EXEC_ROW)  # takes no ordinal
        read(buffer, 1, [(None, None)], table="b")
        read(buffer, 2, [(3, (3,))], table="a")
        _rows, batches, _scans = buffer.drain()
        assert [h[5:] for h in batches["a"][0]] == [(0, 2), (3, 1)]
        assert [h[5:] for h in batches["b"][0]] == [(2, 1)]
        read(buffer, 3, [(4, (4,))], table="b")
        assert buffer.drain()[1]["b"][0][0][5:] == (0, 1)

    def test_a_scan_predicate_is_one_row_that_reserves_its_count(self):
        buffer = TraceBuffer(capacity=3)
        read(buffer, 1, [(1, (1,))], table="a")
        keep = object()
        predicate = ScanRead("kv", "q", (5,), 7, keep, 40)
        assert buffer.add_scan("TXN2", 2, predicate) is False
        read(buffer, 3, [(2, (2,))], table="a")
        assert len(buffer) == buffer.appended == 3 and buffer.high_water
        _rows, batches, scans = buffer.drain()
        assert scans == {
            "kv": ([("TXN2", 2, "Read", "q", None, 1, 40, 7)], [(5,)], [keep])
        }
        # The next batch numbers its rows after the predicate's 40.
        assert [h[5:] for h in batches["a"][0]] == [(0, 1), (41, 1)]

    def test_a_batch_keeps_no_reference_to_the_callers_pairs(self):
        buffer = TraceBuffer()
        pairs = [(1, (1,))]
        read(buffer, 1, pairs)
        pairs.append((2, (2,)))
        assert buffer.drain()[1]["kv"][1] == [(1, (1,))]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)

    def test_buffer_grows_past_capacity_and_drops_nothing(self):
        buffer = TraceBuffer(capacity=2)
        for i in range(4):
            buffer.add_row("Executions", (i,))
        # Nothing dropped; caller is responsible for flushing.
        assert len(buffer) == buffer.appended == 4
        assert buffer.drain() == ({"Executions": [(0,), (1,), (2,), (3,)]}, {}, {})


class TestStats:
    def test_stats_track_counts(self):
        buffer = TraceBuffer(capacity=4)
        buffer.add_row("Executions", EXEC_ROW)
        buffer.drain()
        buffer.add_row("Executions", EXEC_ROW)
        stats = buffer.stats()
        assert stats["appended"] == 2
        assert stats["flushes"] == 1
        assert stats["buffered"] == 1
        assert stats["capacity"] == 4

    def test_only_a_drain_that_returns_records_is_a_flush(self):
        buffer = TraceBuffer()
        assert buffer.drain() == ({}, {}, {})
        buffer.add_row("Executions", EXEC_ROW)
        assert buffer.drain() == ({"Executions": [EXEC_ROW]}, {}, {})
        assert buffer.drain() == ({}, {}, {})
        assert buffer.stats()["flushes"] == 1

    def test_queries_on_an_idle_buffer_flush_nothing(self):
        trod = Trod(Database())
        for _ in range(5):
            trod.query("SELECT COUNT(*) FROM Executions")
        assert trod.buffer.stats()["flushes"] == 0

    def test_stats_count_rows_not_records(self):
        buffer = TraceBuffer(capacity=100)
        read(buffer, 1, [(i, (i,)) for i in range(40)])
        buffer.add_row("Executions", EXEC_ROW)
        stats = buffer.stats()
        assert (stats["appended"], stats["buffered"]) == (41, 41)
        rows, batches, _scans = buffer.drain()
        assert len(rows["Executions"]) == 1 and len(batches["kv"][0]) == 1

    def test_high_water(self):
        buffer = TraceBuffer(capacity=1)
        assert not buffer.high_water
        buffer.add_row("Executions", EXEC_ROW)
        assert buffer.high_water


def tracked_reachable(root) -> int:
    """Collector-tracked objects reachable from ``root`` through dicts,
    lists and tuples (any other tracked object counts, unvisited)."""
    seen, stack, tracked = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if gc.is_tracked(obj):
            tracked += 1
            if type(obj) in (dict, list, tuple):
                stack.extend(gc.get_referents(obj))
    return tracked


class TestCollectorFootprint:
    def test_a_full_buffer_is_a_few_objects_per_table(self):
        """20k single-row reads and writes staged through the hooks leave
        the buffer O(tables) tracked objects after one young collection:
        what a full collection would walk."""
        database = Database()
        database.execute("CREATE TABLE kv (k INTEGER, v TEXT)")
        database.execute("CREATE TABLE log (k INTEGER, note TEXT)")
        database.insert_rows("kv", [(i, f"v{i}") for i in range(100)])
        trod = Trod(database, buffer_capacity=10**9).attach()
        trod.flush()
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for i in range(10_000):
                database.execute("SELECT v FROM kv WHERE k = ?", (i % 100,))
                database.execute("INSERT INTO log VALUES (?, ?)", (i, "n"))
            gc.collect(0)
            tracked = tracked_reachable(vars(trod.buffer))
        finally:
            if enabled:
                gc.enable()
        # Executions and two app tables (log's INSERT reads nothing).
        assert len(trod.buffer) >= 40_000
        assert tracked <= 16
