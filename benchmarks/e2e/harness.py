"""Measurement core of the end-to-end benchmark.

A run sets the workload up (:func:`build`), drives a fixed number of ops
of its seeded stream closed-loop with one client (:func:`run_region`,
:func:`timed_finish`), and reports the result object the driver contract
asks for.

Every timing is *speed-normalised*. This sandbox's whole VM speeds up and
slows down by 15-25% within seconds and between sessions, so a fixed
calibration kernel is sampled every 25 ms of CPU time *while the
workload runs* — from a timer signal, so also in the middle of a
three-second trace-buffer flush — and each raw time is scaled by
``CALIB_REF_US / kernel time around it`` (:meth:`SpeedClock.factors`). The
kernel's own time is subtracted from whatever it interrupted. Units stay microseconds and
ops/s "at reference speed"; raw numbers are reported beside them as
per-layer diagnostics.
"""

from __future__ import annotations

import gc
import itertools
import resource
import signal
import statistics
import sys
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable

#: Kernel time on the sandbox the benchmark was defined on, measured while
#: a workload runs. A constant, so numbers from different sessions compare.
CALIB_REF_US = 1450.0
#: CPU time between two kernel samples: the kernel runs for 6% of a run.
#: The machine also stalls for milliseconds at a time, about 5% of all time;
#: only a stall that lands inside a kernel run is seen, and at 100 ms (1.4%
#: of a run, one or two stalls caught) two kernels sampled side by side
#: disagreed by 4% on a run's mean speed. At 25 ms they disagree by 2%
#: (README.md, "Noise that justifies this").
CALIB_PERIOD_S = 0.025
#: A timed interval is scaled by the samples from this far around it.
CALIB_WINDOW_NS = 250_000_000

_now = time.perf_counter_ns

_KERNEL_INTS = tuple((i * 7919) % 1009 for i in range(10_000))
_KERNEL_WORDS = tuple(str(i % 97) for i in range(600))
_KERNEL_LOOKUP = {i: (i * 31) % 251 for i in range(1009)}


def calibration_kernel() -> float:
    """Fixed sort / dict-lookup / str work; returns its duration in µs.

    It has to track the machine's speed and nothing else, so it works on
    prebuilt data with small integers and allocates a handful of objects:
    a kernel that built thousands of tuples ran 40% slower right after a
    trace-buffer flush had scattered the allocator's free lists. For the
    same reason the collector is off inside — a collection triggered here
    would scan the workload's heap.
    """
    gc.disable()
    try:
        start = _now()
        lookup = _KERNEL_LOOKUP
        acc = 0
        for value in sorted(_KERNEL_INTS):
            acc = (acc + lookup[value]) % 251
        for _ in range(40):
            text = ",".join(_KERNEL_WORDS)
            acc = (acc + text.count("7") + len(text.replace("9,", ";"))) % 251
        return (_now() - start) / 1000.0
    finally:
        gc.enable()


class SpeedClock:
    """Samples the kernel on a CPU-time timer; scales raw time afterwards.

    Use as a context manager around everything that is timed. The timer is
    ``ITIMER_VIRTUAL`` (``SIGVTALRM``): Python runs the handler between two
    bytecodes of the main thread, wherever the program happens to be.
    """

    def __init__(self) -> None:
        self.at_ns: list[int] = []
        self.samples_us: list[float] = []
        #: Total time spent sampling; timed code subtracts its share.
        self.stolen_ns = 0
        self._sampling = False

    def sample(self, count: int = 1) -> None:
        """Run the kernel ``count`` times, now.

        The timer may fire inside a sample taken by hand; that tick is
        dropped, or the two samples would interleave their entries, the
        outer kernel time would include the inner one and ``stolen_ns``
        would count it twice.
        """
        if self._sampling:
            return
        self._sampling = True
        try:
            for _ in range(count):
                start = _now()
                self.at_ns.append(start)
                self.samples_us.append(calibration_kernel())
                self.stolen_ns += _now() - start
        finally:
            self._sampling = False

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGVTALRM, lambda _sig, _frame: self.sample())
        self.sample(5)
        signal.setitimer(signal.ITIMER_VIRTUAL, CALIB_PERIOD_S, CALIB_PERIOD_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)

    def factors(self, start_ns: int, end_ns: int) -> tuple[float, float]:
        """What to scale raw time spent in ``[start_ns, end_ns]`` by:
        ``(for a latency, for a contribution to a total)``.

        The machine changes speed, which every kernel run around the
        interval shows, and it stalls for milliseconds at a time, which
        only the runs that were hit show. A contribution to a total
        (throughput, set-up) is scaled by the *mean* kernel time around
        it: a sum of the ops includes the ops that were hit. A percentile
        of the ops ignores them — unless an op is so long that most
        contain a stall. So a latency is scaled by the median over the
        stretches of kernel time *as long as the op*: the median kernel
        run for an op no longer than the kernel, the median of the means
        of k consecutive runs for one k times as long, the mean of all
        for one longer than the window.
        """
        low = bisect_left(self.at_ns, start_ns - CALIB_WINDOW_NS)
        high = bisect_right(self.at_ns, end_ns + CALIB_WINDOW_NS)
        if high - low < 3:  # a sparse stretch: take the neighbours too
            low, high = max(0, low - 2), high + 2
        window = self.samples_us[low:high]
        mean = statistics.fmean(window)
        runs = max(1, round((end_ns - start_ns) / 1000.0 / mean))
        if runs >= len(window):
            typical = mean
        else:
            typical = statistics.median(
                statistics.fmean(window[i:i + runs])
                for i in range(0, len(window) - runs + 1, runs)
            )
        return CALIB_REF_US / typical, CALIB_REF_US / mean

    def timed(self, fn: Callable[[], Any]) -> tuple[int, int, int]:
        """Run ``fn``; return (start, end, ns spent net of sampling)."""
        stolen = self.stolen_ns
        start = _now()
        fn()
        end = _now()
        return start, end, end - start - (self.stolen_ns - stolen)


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(round(p * (len(ordered) - 1))))]


def peak_rss_mb() -> float:
    """High-water resident set of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Region:
    """What one timed region measured (filled in by :func:`timed_finish`)."""

    attempted: int = 0
    failed: int = 0
    norm_us: float = 0.0  # timed work at reference speed
    raw_us: float = 0.0
    lat_us: dict[str, list[float]] = field(default_factory=dict)  # normalised
    raw_lat_us: dict[str, list[float]] = field(default_factory=dict)
    peak_rss_mb: float = 0.0  # read when the region closes, before verification
    errors: list[str] = field(default_factory=list)
    #: (kind or None for a failed op, start ns, end ns, ns spent) per timed call
    timed: list[tuple[str | None, int, int, int]] = field(default_factory=list)

    @property
    def ok_ops(self) -> int:
        return self.attempted - self.failed

    def ops_per_s(self, raw: bool = False) -> float:
        spent = self.raw_us if raw else self.norm_us
        return self.ok_ops / (spent / 1e6) if spent else 0.0

    def sorted_lat(self, kind: str, raw: bool = False) -> list[float]:
        return sorted((self.raw_lat_us if raw else self.lat_us).get(kind, []))

    def p50(self, kind: str, raw: bool = False) -> float:
        return percentile(self.sorted_lat(kind, raw), 0.5)


def run_region(
    workload: Any,
    clock: SpeedClock,
    n_ops: int,
    on_op: Callable[[int], None] | None = None,
) -> Region:
    """Drive the first ``n_ops`` ops of ``workload.ops()`` closed-loop.

    A fixed op count, never a fixed duration: every run of a workload does
    identical work, so buffer flushes, checkpoints and collector passes
    fall on the same ops on both commits compared. Only
    ``workload.execute(op)`` is timed; result checks run between ops. A
    failed op — exception or wrong result — keeps its time in the
    throughput denominator and leaves the latency samples. Follow with
    :func:`timed_finish`.
    """
    region = Region()
    gc.collect()
    for op in itertools.islice(workload.ops(), n_ops):
        if on_op is not None:
            on_op(region.attempted)
        stolen = clock.stolen_ns
        start = _now()
        try:
            out = workload.execute(op)
            error = None
        except Exception as exc:  # noqa: BLE001 - a failed op, counted below
            out, error = None, f"{type(exc).__name__}: {exc}"
        end = _now()
        region.attempted += 1
        if error is None:
            error = workload.check(op, out)
        if error is not None:
            region.failed += 1
            if len(region.errors) < 5:
                region.errors.append(f"op {region.attempted} {op[0]}: {error}")
        region.timed.append(
            (op[0] if error is None else None, start, end,
             end - start - (clock.stolen_ns - stolen))
        )
    return region


def timed_finish(workload: Any, clock: SpeedClock, region: Region) -> None:
    """Close the region with ``workload.finish()`` inside it, then scale.

    A traced workload's ``finish`` ingests every event the region produced:
    all tracing work the ops caused is inside the region.
    """
    region.timed.append((None, *clock.timed(workload.finish)))
    region.peak_rss_mb = peak_rss_mb()
    clock.sample(3)  # the last ops need samples after them too
    for kind, start, end, spent_ns in region.timed:
        raw_us = spent_ns / 1000.0
        for_latency, for_total = clock.factors(start, end)
        region.raw_us += raw_us
        region.norm_us += raw_us * for_total
        if kind is not None:
            region.raw_lat_us.setdefault(kind, []).append(raw_us)
            region.lat_us.setdefault(kind, []).append(raw_us * for_latency)
    region.timed.clear()


def build(factory: Callable[[], Any], clock: SpeedClock) -> tuple[Any, float]:
    """Set the workload up; returns it with its reference-speed set-up seconds."""
    workload = factory()
    start, end, spent_ns = clock.timed(workload.setup)
    clock.sample(3)
    return workload, spent_ns / 1e9 * clock.factors(start, end)[1]


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def result_object(
    correct: bool, region: Region, metrics: dict[str, dict[str, Any]]
) -> dict[str, Any]:
    """The one JSON object a run prints last (driver contract)."""
    return {
        "correct": bool(correct),
        "attempted": max(1, region.attempted),
        "failed": region.failed,
        "metrics": metrics,
    }


def end_to_end_metrics(
    workload: Any, region: Region, setup_s: float
) -> dict[str, dict[str, Any]]:
    return {
        "ops_per_s": metric(region.ops_per_s(), "ops/s"),
        "p50_us": metric(region.p50(workload.headline), "us"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(region.peak_rss_mb, "MB"),
    }


def warn(message: str) -> None:
    print(f"[e2e] {message}", file=sys.stderr)
