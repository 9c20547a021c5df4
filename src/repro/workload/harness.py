"""Timing, reporting, and connection-pooling utilities for workloads."""

from __future__ import annotations

import time
from typing import Sequence

from repro.db.result import text_table


class Timer:
    """Context-manager stopwatch reporting microseconds."""

    def __init__(self):
        self.elapsed_ns = 0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed_ns = time.perf_counter_ns() - self._start

    @property
    def elapsed_us(self) -> float:
        return self.elapsed_ns / 1000.0

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_ns / 1_000_000.0

    @property
    def elapsed_s(self) -> float:
        return self.elapsed_ns / 1_000_000_000.0


def summarize_us(samples_us: Sequence[float]) -> dict[str, float]:
    """Mean / p50 / p95 / p99 / min / max of latency samples."""
    if not samples_us:
        return {k: 0.0 for k in ("mean", "p50", "p95", "p99", "min", "max")}
    ordered = sorted(samples_us)

    def pct(p: float) -> float:
        index = min(len(ordered) - 1, int(round(p * (len(ordered) - 1))))
        return ordered[index]

    return {
        "mean": sum(ordered) / len(ordered),
        "p50": pct(0.50),
        "p95": pct(0.95),
        "p99": pct(0.99),
        "min": ordered[0],
        "max": ordered[-1],
    }


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Aligned text table for benchmark output."""
    return text_table(headers, [[_fmt(value) for value in row] for row in rows])


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if abs(value) >= 100:
            return f"{value:,.0f}"
        return f"{value:.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def checked_out(pool):
    """Borrow a connection from a :class:`~repro.db.connection.
    ConnectionPool` for one block: checkout on entry, checkin on exit.

    The workload generators use this per statement, so drivers reuse
    pooled connections instead of constructing one per statement. Thin
    alias for :meth:`~repro.db.connection.ConnectionPool.connection`,
    kept here so workload code needs no import from the db layer.
    """
    return pool.connection()


def format_us(us: float) -> str:
    if us >= 1_000_000:
        return f"{us / 1_000_000:.2f}s"
    if us >= 1_000:
        return f"{us / 1_000:.2f}ms"
    return f"{us:.1f}us"
