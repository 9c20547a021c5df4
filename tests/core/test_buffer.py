"""Trace buffer tests."""

import pytest

from repro.core import Trod
from repro.core.buffer import TraceBuffer
from repro.db import Database


class TestAppend:
    def test_append_and_drain_fifo(self):
        buffer = TraceBuffer(capacity=10)
        for i in range(3):
            buffer.append(i)
        assert buffer.drain() == [0, 1, 2]
        assert len(buffer) == 0

    def test_append_signals_flush_at_capacity(self):
        buffer = TraceBuffer(capacity=2)
        assert buffer.append(1) is False
        assert buffer.append(2) is True  # reached capacity

    def test_a_batch_counts_its_rows(self):
        buffer = TraceBuffer(capacity=10)
        assert buffer.append("batch", 7) is False
        assert len(buffer) == 7 and buffer.peek() == ["batch"]
        # Heavier than the remaining room: kept whole, and the flush is due.
        assert buffer.append("big", 5) is True
        assert len(buffer) == 12 and buffer.high_water
        assert buffer.drain() == ["batch", "big"]
        assert len(buffer) == 0 and not buffer.high_water
        assert buffer.append("one") is False

    def test_extend(self):
        buffer = TraceBuffer(capacity=10)
        need = buffer.extend([1, 2, 3])
        assert need is False
        assert len(buffer) == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)

    def test_buffer_grows_past_capacity_and_drops_nothing(self):
        buffer = TraceBuffer(capacity=2)
        for i in range(4):
            buffer.append(i)
        # Nothing dropped; caller is responsible for flushing.
        assert len(buffer) == buffer.appended == 4
        assert buffer.drain() == [0, 1, 2, 3]


class TestStats:
    def test_stats_track_counts(self):
        buffer = TraceBuffer(capacity=4)
        buffer.append("x")
        buffer.drain()
        buffer.append("y")
        stats = buffer.stats()
        assert stats["appended"] == 2
        assert stats["flushes"] == 1
        assert stats["buffered"] == 1
        assert stats["capacity"] == 4

    def test_only_a_drain_that_returns_events_is_a_flush(self):
        buffer = TraceBuffer()
        assert buffer.drain() == []
        buffer.append("x")
        assert buffer.drain() == ["x"]
        assert buffer.drain() == []
        assert buffer.stats()["flushes"] == 1

    def test_queries_on_an_idle_buffer_flush_nothing(self):
        trod = Trod(Database())
        for _ in range(5):
            trod.query("SELECT COUNT(*) FROM Executions")
        assert trod.buffer.stats()["flushes"] == 0

    def test_stats_count_rows_not_events(self):
        buffer = TraceBuffer(capacity=100)
        buffer.append("batch", 40)
        buffer.append("row")
        stats = buffer.stats()
        assert (stats["appended"], stats["buffered"]) == (41, 41)
        assert buffer.peek() == ["batch", "row"]

    def test_peek_does_not_drain(self):
        buffer = TraceBuffer()
        buffer.append(1)
        assert buffer.peek() == [1]
        assert len(buffer) == 1

    def test_high_water(self):
        buffer = TraceBuffer(capacity=1)
        assert not buffer.high_water
        buffer.append(1)
        assert buffer.high_water
