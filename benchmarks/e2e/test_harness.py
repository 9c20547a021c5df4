"""Self-test of the end-to-end benchmark (collected by tier-1, a few seconds).

Everything runs at a tiny ``scale`` (small tables, short histories) and a
tiny ``seconds`` (a handful of ops), through the same code paths as a
driver run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))  # the benchmark is plain files, not a package

import run  # noqa: E402

run._import_program()

import compare  # noqa: E402
import harness  # noqa: E402
import tracepass  # noqa: E402
import workloads  # noqa: E402
from suite import spread_pct  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)
SCALE = 0.02
SECONDS = 0.02
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Layers that must show self time on a workload, and ones that must be idle.
BUSY = {
    "checkout_traced": ("runtime", "core.interposition", "core.provenance",
                        "db.database", "db.sql.executor", "db.txn.manager", "db.txn.locks"),
    "checkout_untraced": ("runtime", "db.database", "db.sql.executor", "db.txn.manager"),
    "scan_traced": ("core.interposition", "core.provenance", "db.connection",
                    "db.sql.executor"),
    "paged_mixed": ("db.connection", "db.database", "db.sql.executor", "db.txn.wal",
                    "db.pages"),
    "cluster_mix": ("db.connection", "db.sharding", "db.multistore", "db.replication"),
    "debug_replay": ("core.replay", "core.retroactive", "core.provenance", "runtime"),
}
IDLE_ON_CHECKOUT = ("db.pages", "db.sharding", "db.multistore", "db.replication")


@pytest.fixture(scope="module")
def plain_runs():
    return {name: run.run_once(name, 5, SECONDS, False, scale=SCALE) for name in NAMES}


@pytest.fixture(scope="module")
def trace_runs():
    return {name: run.run_once(name, 5, SECONDS, True, scale=SCALE) for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_and_verifies(plain_runs, name):
    result, problems = plain_runs[name]
    assert problems == []
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 40
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0, metric["name"]


@pytest.mark.parametrize("name", NAMES)
def test_trace_pass_reports_every_layer_metric(trace_runs, name):
    result, problems = trace_runs[name]
    assert problems == [] and result["correct"] is True
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for metric in SPEC["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    for layer in BUSY[name]:
        assert metrics[f"{layer}.self_us_per_op"]["value"] > 0, layer
        assert metrics[f"{layer}.calls_per_op"]["value"] > 0, layer
    if name.startswith("checkout"):
        for layer in IDLE_ON_CHECKOUT:
            assert metrics[f"{layer}.calls_per_op"]["value"] == 0, layer
    assert metrics["spans.overhead_pct"]["value"] != 0
    assert metrics[f"lat.{workloads.WORKLOADS[name].headline}.p50_us"]["value"] > 0


def test_full_size_checkout_region_spans_two_inline_flushes(trace_runs):
    """The region starts with an empty trace buffer and an order emits the
    same events at any scale, so a full-size run's op count decides how
    many times the buffer fills."""
    from repro.core import Trod
    from repro.db import Database

    metrics = trace_runs["checkout_traced"][0]["metrics"]
    events_per_op = metrics["core.interposition.events_per_op"]["value"]
    ops = workloads.CheckoutTraced(5).op_budget(SPEC["run_seconds"])
    capacity = Trod(Database(storage="memory")).buffer.capacity
    assert events_per_op * ops >= 2 * capacity
    for share in (tracepass.PLAIN_SHARE, tracepass.SPAN_SHARE):  # one each
        assert events_per_op * int(ops * share) >= capacity


def _fingerprint(name: str, seed: int, workdir: Path) -> tuple[str, dict]:
    """(hash of the first ops, deterministic engine counters after them)."""
    workload = workloads.WORKLOADS[name](seed, scale=SCALE, workdir=str(workdir))
    workload.setup()
    try:
        ops = list(itertools.islice(workload.ops(), 15))
        for op in ops:
            assert workload.check(op, workload.execute(op)) is None
        workload.finish()
        counters = tracepass.Counters().snapshot(workload)
    finally:
        workload.close()
    for timing in ("hook_us", "flush_us"):
        counters.pop(timing, None)
    return hashlib.sha256(repr(ops).encode()).hexdigest(), counters


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_stream_and_counters(tmp_path, name):
    first = _fingerprint(name, 11, tmp_path)
    assert _fingerprint(name, 11, tmp_path) == first
    assert _fingerprint(name, 12, tmp_path)[0] != first[0]


def test_wrong_expected_value_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "_STOCK", 999_999)
    code = run.print_result(*run.run_once("checkout_untraced", 5, SECONDS, False, scale=SCALE))
    assert code != 0
    last_line = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last_line)["correct"] is False


def test_missing_span_boundary_is_a_warning_not_a_failure(monkeypatch, capsys, tmp_path):
    import spans

    monkeypatch.setattr(
        spans, "BOUNDARIES", spans.BOUNDARIES + (("db.database", "repro.db.database:Database.gone"),)
    )
    dump = tmp_path / "spans.jsonl"
    result, problems = run.run_once(
        "checkout_untraced", 5, SECONDS, True, scale=SCALE, spans_out=str(dump)
    )
    assert problems == [] and result["correct"]
    assert "Database.gone not found" in capsys.readouterr().err
    # The raw spans are written out: name, start, end, parent, op id.
    written = [json.loads(line) for line in dump.read_text().splitlines()]
    assert written and set(written[0]) == {"name", "start_ns", "end_ns", "parent", "op"}
    roots = [s for s in written if s["parent"] == -1]
    assert roots and all(s["name"].endswith("Runtime.execute_request") for s in roots)


def test_benchmark_json_matches_what_run_prints():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == NAMES
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
        assert 0 < len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracepass.PER_LAYER
    assert {m["name"] for m in SPEC["per_layer"] if m["better"] == "higher"} == (
        tracepass.HIGHER_IS_BETTER
    )
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + NAMES
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) for n in names)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    # The driver's limits, not a view on how wide a bound should be.
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert 1 <= SPEC["run_seconds"] <= 60


def _report(ops_per_s: float, spread: float = 1.0, failed: int = 0) -> dict:
    entry = {
        "correct": True, "attempted": 100, "failed": failed,
        "end_to_end": {
            m["name"]: {"median": ops_per_s, "unit": m["unit"],
                        "spread_pct": spread, "values": [ops_per_s]}
            for m in SPEC["end_to_end"]
        },
    }
    return {"workloads": {name: entry for name in NAMES}}


def test_compare_flags_breaches_and_unresolved_pairs():
    rows, breached = compare.compare(SPEC, _report(100.0), _report(100.0))
    assert not breached and {row[-1] for row in rows} == {"ok"}
    # Half the value: a breach for higher-is-better metrics only.
    rows, breached = compare.compare(SPEC, _report(100.0), _report(50.0))
    verdicts = {row[1]: row[-1] for row in rows if row[0] == NAMES[0]}
    assert breached and verdicts["ops_per_s"] == "BREACH" and verdicts["p50_us"] == "ok"
    rows, breached = compare.compare(SPEC, _report(100.0, spread=60.0), _report(100.0))
    assert not breached
    assert {row[-1] for row in rows if row[1] != "failed_share"} == {"unresolved"}
    # failed_share may not rise at all.
    rows, breached = compare.compare(SPEC, _report(100.0), _report(100.0, failed=1))
    assert breached
    assert {row[1] for row in rows if row[-1] == "BREACH"} == {"failed_share"}


def test_statistics_helpers():
    assert harness.percentile([], 0.5) == 0.0
    assert harness.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
    assert harness.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.99) == 5.0
    assert spread_pct([10.0]) == 0.0
    assert spread_pct([9.0, 10.0, 10.0, 11.0]) == pytest.approx(15.0)
