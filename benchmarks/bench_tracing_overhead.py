"""E7 — §3.7 always-on tracing overhead.

Paper: "the overall tracing overhead is <100µs per request. This causes a
relative overhead of <15% when using the in-memory database VoltDB and
negligible overhead when using the on-disk database Postgres."

We run identical checkout-workflow request streams with and without TROD
attached, on the in-memory ("voltdb") and on-disk ("postgres") simulated
backend profiles (a :class:`CostModel` observer on the database), and
report:

* interposition self-time per request (the <100µs figure),
* end-to-end per-request latency traced vs untraced,
* relative overhead per backend (the <15% / negligible figure).
"""

import time

from repro.workload.generators import CheckoutWorkload
from repro.workload.harness import render_table

from conftest import fresh_ecommerce

N_CHECKOUTS = 120

#: Simulated backend costs in microseconds: (begin, statement, row write,
#: commit). Neither engine is available offline, and TROD's tracing cost
#: is a roughly fixed number of microseconds per request, so its relative
#: overhead shrinks as the backend's own cost grows.
PROFILES = {
    # In-memory, single-threaded execution engine: cheap everywhere.
    "voltdb": (2.0, 10.0, 1.0, 15.0),
    # Conventional disk-based engine: commit pays a simulated fsync.
    "postgres": (30.0, 80.0, 10.0, 2000.0),
}


def busy_wait_us(microseconds: float) -> None:
    """Spin: sleep granularity is far coarser than the costs modeled."""
    deadline = time.perf_counter_ns() + int(microseconds * 1000)
    while time.perf_counter_ns() < deadline:
        pass


class CostModel:
    """A database observer that spends a profile's costs where the
    backend would: at each transaction begin, statement and commit."""

    events = ("txn_began", "statement_executed", "txn_committed")

    def __init__(self, backend: str):
        costs = PROFILES[backend]
        self.begin_us, self.statement_us, self.row_us, self.commit_us = costs

    def txn_began(self, txn) -> None:
        busy_wait_us(self.begin_us)

    def statement_executed(self, txn, trace) -> None:
        busy_wait_us(self.statement_us)

    def txn_committed(self, txn, csn, changes) -> None:
        busy_wait_us(self.commit_us + len(changes) * self.row_us)


def ecommerce_on(backend: str, attach_trod: bool):
    db, runtime, trod = fresh_ecommerce(attach_trod=attach_trod)
    db.add_observer(CostModel(backend))
    return db, runtime, trod


def run_stream(backend: str, attach_trod: bool) -> dict:
    """Per-request latencies, summarized by the median.

    This machine class shows multi-millisecond OS-scheduler stalls;
    totals (or means) over a 240-request stream would let one stall
    swamp a ~70µs effect, while the median is stall-immune.
    """
    db, runtime, trod = ecommerce_on(backend, attach_trod)
    workload = CheckoutWorkload(n_users=20, n_skus=10, seed=7)
    workload.seed_database(runtime)
    requests = list(workload.requests(N_CHECKOUTS))
    samples_us = []
    for request in requests:
        start = time.perf_counter_ns()
        result = runtime.execute_request(request)
        samples_us.append((time.perf_counter_ns() - start) / 1000.0)
        assert result.ok, result.error
    samples_us.sort()
    median_us = samples_us[len(samples_us) // 2]
    tracer_us = (
        trod.overhead_stats()["tracing_overhead_us_per_request"]
        if trod is not None
        else 0.0
    )
    return {"per_request_us": median_us, "tracer_us": tracer_us}


def test_tracing_overhead_voltdb_vs_postgres(benchmark, emit):
    results = {}
    for backend in ("voltdb", "postgres"):
        untraced = run_stream(backend, attach_trod=False)
        traced = run_stream(backend, attach_trod=True)
        overhead_us = traced["per_request_us"] - untraced["per_request_us"]
        relative = overhead_us / untraced["per_request_us"]
        results[backend] = {
            "untraced_us": untraced["per_request_us"],
            "traced_us": traced["per_request_us"],
            "overhead_us": overhead_us,
            "relative_pct": 100.0 * relative,
            "interposition_us": traced["tracer_us"],
        }

    # The benchmarked operation: one traced request on the fast backend.
    db, runtime, trod = ecommerce_on("voltdb", attach_trod=True)
    workload = CheckoutWorkload(n_users=20, n_skus=10, seed=7)
    workload.seed_database(runtime)
    requests = iter(workload.requests(100_000))
    benchmark(lambda: runtime.execute_request(next(requests)))

    emit(
        "",
        "=== E7: §3.7 always-on tracing overhead "
        f"({N_CHECKOUTS} checkout workflows, 2 requests each) ===",
        render_table(
            [
                "backend", "untraced us/req (median)", "traced us/req (median)",
                "overhead us/req", "relative %", "interposition us/req",
            ],
            [
                [
                    name,
                    row["untraced_us"],
                    row["traced_us"],
                    row["overhead_us"],
                    row["relative_pct"],
                    row["interposition_us"],
                ]
                for name, row in results.items()
            ],
        ),
        "paper: <100us interposition/request; <15% on VoltDB-class,"
        " negligible on Postgres-class backends",
        "",
    )

    voltdb = results["voltdb"]
    postgres = results["postgres"]
    # Shape assertions (generous bounds for noisy CI machines):
    # interposition cost is tens of microseconds per request;
    assert voltdb["interposition_us"] < 500
    # relative overhead on the fast backend is bounded (paper: <15%);
    assert voltdb["relative_pct"] < 50
    # and the slow (durable-commit) backend makes it far smaller.
    assert postgres["relative_pct"] < voltdb["relative_pct"]
    assert postgres["relative_pct"] < 12
