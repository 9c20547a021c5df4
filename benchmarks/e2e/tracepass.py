"""The ``--trace 1`` run: where the time went, layer by layer.

One process, one set-up, three measurements of the same seeded stream:

1. a *plain* segment (nothing wrapped) — latency diagnostics, raw numbers
   and the deltas of the engine's own public counters;
2. a *span* segment with :mod:`spans` installed — self time and calls per
   layer; its slowdown against (1) is ``spans.overhead_pct``;
3. where the workload has an untraced twin, a short run of the twin — the
   paper's traced-vs-untraced figures.

Nothing here is gated: end-to-end numbers come from ``--trace 0`` runs.
"""

from __future__ import annotations

import os
import statistics
from typing import Any, Callable

import harness
from harness import Region, metric, percentile
from spans import LAYERS, SpanRecorder

#: Shares of a ``--trace 0`` run's ops that each segment runs. Every segment
#: starts with an empty trace buffer, and on the traced workloads each of
#: the first two is long enough to fill it once (an inline flush).
PLAIN_SHARE = 0.5
SPAN_SHARE = 0.45
TWIN_SHARE = 0.125

#: Every op kind of every workload; each gets ``lat.<kind>.p50_us``.
KINDS = (
    "order", "agg", "filter", "join", "topk", "probe", "point", "range", "asof",
    "insert", "update", "update_warm", "delete", "checkpoint", "transfer", "replay",
    "retro", "qpoint", "qgroup",
)

#: name -> unit of every per-layer metric, in the order they are printed.
PER_LAYER: dict[str, str] = {
    **{f"{layer}.self_us_per_op": "us" for layer in LAYERS},
    **{f"{layer}.calls_per_op": "count" for layer in LAYERS},
    "core.interposition.events_per_op": "count",
    "core.interposition.self_reported_us_per_req": "us",
    "core.interposition.overhead_us_per_op": "us",
    "core.interposition.overhead_pct": "%",
    "core.buffer.flushes": "count",
    "core.provenance.ingest_events_per_s": "1/s",
    "core.provenance.flush_stall_ms_max": "ms",
    "core.provenance.rows_per_app_write": "count",
    "db.database.plan_cache_hit_ratio": "ratio",
    "db.sql.executor.batches_per_op": "count",
    "db.sql.executor.traced_vs_untraced_ratio": "ratio",
    "db.txn.manager.commits_per_op": "count",
    "db.txn.manager.aborts_per_op": "count",
    "db.txn.wal.bytes_per_op": "bytes",
    "db.pages.pool_hit_ratio": "ratio",
    "db.pages.evictions_per_op": "count",
    "db.pages.page_reads_per_op": "count",
    "db.pages.page_writes_per_op": "count",
    "db.pages.disk_bytes_per_live_row": "bytes",
    "db.pages.checkpoint_ms": "ms",
    "db.pages.reopen_ms": "ms",
    "db.sharding.routed_share": "ratio",
    "db.multistore.two_pc_per_op": "count",
    "db.replication.shipped_records_per_op": "count",
    "lat.p90_us": "us",
    "lat.p99_us": "us",
    "lat.max_ms": "ms",
    **{f"lat.{kind}.p50_us": "us" for kind in KINDS},
    "raw.ops_per_s": "ops/s",
    "raw.p50_us": "us",
    "calib.us_median": "us",
    "calib.spread_pct": "%",
    "spans.overhead_pct": "%",
}


#: Per-layer metrics where more is better; for all others less is.
HIGHER_IS_BETTER = frozenset({
    "core.provenance.ingest_events_per_s",
    "db.database.plan_cache_hit_ratio",
    "db.pages.pool_hit_ratio",
    "db.sharding.routed_share",
    "raw.ops_per_s",
})


class Counters:
    """Cumulative engine counters, read through the public stats views.

    Paths are walked by name; one that is gone (the ROADMAP plans to fold
    the ad-hoc ``stats`` dicts into one registry) reads 0 with one warning.
    """

    def __init__(self) -> None:
        self._warned: set[str] = set()

    def read(self, obj: Any, path: str) -> Any:
        for part in path.split("."):
            call = part.endswith("()")
            name = part[:-2] if call else part
            if isinstance(obj, dict) and name in obj:
                obj = obj[name]
            elif hasattr(obj, name):
                obj = getattr(obj, name)
            else:
                if path not in self._warned:
                    self._warned.add(path)
                    harness.warn(f"counter {path} not found; reporting 0")
                return 0
            if call:
                obj = obj()
        return obj

    def snapshot(self, workload: Any) -> dict[str, float]:
        read = self.read
        engine, trod = workload.engine, workload.trod
        nodes = getattr(engine, "shards", None) or [engine]
        snap: dict[str, float] = {
            "batches": read(engine, "executor_stats.batches_processed"),
            "versions": read(engine, "storage_stats.versions"),
            "commits": sum(read(n, "txn_manager.stats.committed") for n in nodes),
            "aborts": sum(read(n, "txn_manager.stats.aborted") for n in nodes),
            "plan_hits": sum(
                read(n, "plan_cache_stats.hits") + read(n, "plan_cache_stats.dml_hits")
                for n in nodes
            ),
            "plan_misses": sum(
                read(n, "plan_cache_stats.misses") + read(n, "plan_cache_stats.dml_misses")
                for n in nodes
            ),
            "wal_bytes": sum(
                os.path.getsize(path) for n in nodes if (path := read(n, "wal.path"))
            ),
        }
        if trod is not None:
            overhead = read(trod, "overhead_stats()")
            snap.update(
                events=read(overhead, "events_emitted"),
                requests=read(overhead, "requests_traced"),
                hook_us=read(overhead, "tracing_overhead_us_total"),
                flush_us=read(overhead, "flush_us_total"),
                flushes=read(overhead, "buffer.flushes"),
                prov_rows=read(trod, "provenance.event_count"),
            )
        if read(engine, "storage_stats.storage") == "paged":
            storage = read(engine, "storage_stats")
            for key in ("pool_hits", "pool_misses", "pool_evictions",
                        "file_page_reads", "file_page_writes"):
                snap[key] = read(storage, key)
        if hasattr(engine, "shards"):
            snap.update(
                routed=read(engine, "stats.routed_statements"),
                fanout=read(engine, "stats.fanout_statements"),
                decisions=read(engine, "cluster_stats.decisions_logged"),
                shipped=read(engine, "cluster_stats.shipped_records"),
            )
        return snap


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _speed(region: Region) -> float:
    """The region's overall raw -> reference-speed factor."""
    return _ratio(region.norm_us, region.raw_us)


def span_values(recorder: SpanRecorder, spanned: Region, plain: Region) -> dict[str, float]:
    ops = max(1, spanned.ok_ops)
    speed = _speed(spanned)
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_us_per_op"] = recorder.self_ns[layer] / 1000.0 / ops * speed
        values[f"{layer}.calls_per_op"] = recorder.calls[layer] / ops
    values["spans.overhead_pct"] = 100.0 * (
        _ratio(spanned.norm_us / ops, plain.norm_us / max(1, plain.ok_ops)) - 1.0
    )
    values["core.provenance.flush_stall_ms_max"] = (
        recorder.max_ns.get("repro.core.tracer:Trod.flush", 0) / 1e6 * speed
    )
    return values


def counter_values(
    workload: Any, plain: Region, delta: dict[str, float], early: dict[str, float]
) -> dict[str, float]:
    """Counter deltas of the plain segment, per successful op.

    ``early`` is the delta over the segment's first quarter, which ends
    before the trace buffer first fills. Times the program measured itself
    are brought to reference speed with the segment's overall factor.
    """
    ops = max(1, plain.ok_ops)
    speed = _speed(plain)
    values = {
        "db.sql.executor.batches_per_op": delta["batches"] / ops,
        "db.txn.manager.commits_per_op": delta["commits"] / ops,
        "db.txn.manager.aborts_per_op": delta["aborts"] / ops,
        "db.txn.wal.bytes_per_op": delta["wal_bytes"] / ops,
        "db.database.plan_cache_hit_ratio": _ratio(
            delta["plan_hits"], delta["plan_hits"] + delta["plan_misses"]
        ),
    }
    if "events" in delta:  # traced
        values.update({
            "core.interposition.events_per_op": delta["events"] / ops,
            # The hooks time themselves, and the one that fills the buffer
            # times the flush and the freeing of 65 536 events with it:
            # the flush-free first quarter is the hooks alone.
            "core.interposition.self_reported_us_per_req": speed * _ratio(
                early["hook_us"], early["requests"]
            ),
            "core.buffer.flushes": delta["flushes"],
            "core.provenance.ingest_events_per_s": _ratio(
                delta["events"], delta["flush_us"] / 1e6 * speed
            ),
            "core.provenance.rows_per_app_write": _ratio(
                delta["prov_rows"], delta["versions"]
            ),
        })
    if "pool_hits" in delta:  # paged
        values.update({
            "db.pages.pool_hit_ratio": _ratio(
                delta["pool_hits"], delta["pool_hits"] + delta["pool_misses"]
            ),
            "db.pages.evictions_per_op": delta["pool_evictions"] / ops,
            "db.pages.page_reads_per_op": delta["file_page_reads"] / ops,
            "db.pages.page_writes_per_op": delta["file_page_writes"] / ops,
            "db.pages.checkpoint_ms": plain.p50("checkpoint") / 1000.0,
            "db.pages.reopen_ms": workload.reopen_ms * speed,
            "db.pages.disk_bytes_per_live_row": _ratio(
                workload.disk_bytes, len(workload.rows)
            ),
        })
    if "routed" in delta:  # sharded
        values.update({
            "db.sharding.routed_share": _ratio(
                delta["routed"], delta["routed"] + delta["fanout"]
            ),
            "db.multistore.two_pc_per_op": delta["decisions"] / ops,
            "db.replication.shipped_records_per_op": delta["shipped"] / ops,
        })
    return values


def latency_values(plain: Region, headline: str) -> dict[str, float]:
    ordered = plain.sorted_lat(headline)
    values = {
        "lat.p90_us": percentile(ordered, 0.90),
        "lat.p99_us": percentile(ordered, 0.99),
        "lat.max_ms": max(
            (max(samples) for samples in plain.lat_us.values()), default=0.0
        ) / 1000.0,
        "raw.ops_per_s": plain.ops_per_s(raw=True),
        "raw.p50_us": plain.p50(headline, raw=True),
    }
    for kind in plain.lat_us:
        values[f"lat.{kind}.p50_us"] = plain.p50(kind)
    return values


def twin_values(
    workload: Any, plain: Region, clock: harness.SpeedClock, seconds: float
) -> tuple[dict[str, float], list[str]]:
    """Headline p50 against a short run of the untraced twin."""
    twin = workload.twin(workload.seed, scale=workload.scale, workdir=workload.workdir)
    twin.setup()
    try:
        arm = harness.run_region(twin, clock, twin.op_budget(seconds * TWIN_SHARE))
        harness.timed_finish(twin, clock, arm)
    finally:
        twin.close()
    traced, untraced = plain.p50(workload.headline), arm.p50(twin.headline)
    return {
        "core.interposition.overhead_us_per_op": traced - untraced,
        "core.interposition.overhead_pct": 100.0 * (_ratio(traced, untraced) - 1.0),
        "db.sql.executor.traced_vs_untraced_ratio": _ratio(traced, untraced),
    }, arm.errors


def run(
    factory: Callable[[], Any], seconds: float, spans_out: str | None = None
) -> tuple[dict, list[str]]:
    counters = Counters()
    values = dict.fromkeys(PER_LAYER, 0.0)
    with harness.SpeedClock() as clock:
        recorder = SpanRecorder(clock)
        workload, _setup_s = harness.build(factory, clock)
        try:
            before = counters.snapshot(workload)
            n_plain = workload.op_budget(seconds * PLAIN_SHARE)
            quarter: dict[str, float] = {}

            def snapshot_quarter(done: int) -> None:
                if done == n_plain // 4:
                    quarter.update(counters.snapshot(workload))

            plain = harness.run_region(workload, clock, n_plain, on_op=snapshot_quarter)
            harness.timed_finish(workload, clock, plain)
            after = counters.snapshot(workload)

            recorder.install()
            try:
                spanned = harness.run_region(
                    workload, clock, workload.op_budget(seconds * SPAN_SHARE),
                    on_op=recorder.mark,
                )
                harness.timed_finish(workload, clock, spanned)
            finally:
                recorder.uninstall()

            problems = plain.errors + spanned.errors + workload.verify()
            values.update(span_values(recorder, spanned, plain))
            values.update(counter_values(
                workload, plain,
                delta={key: after[key] - before[key] for key in after},
                early={key: quarter[key] - before[key] for key in quarter},
            ))
            values.update(latency_values(plain, workload.headline))
        finally:
            workload.close()
        if workload.twin is not None:
            twin, errors = twin_values(workload, plain, clock, seconds)
            values.update(twin)
            problems += errors
    if spans_out:
        recorder.write(spans_out)

    quartiles = statistics.quantiles(clock.samples_us, n=4)
    values["calib.us_median"] = quartiles[1]
    values["calib.spread_pct"] = 100.0 * (quartiles[2] - quartiles[0]) / quartiles[1]

    metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}
    plain.attempted += spanned.attempted
    plain.failed += spanned.failed
    return harness.result_object(not problems, plain, metrics), problems
