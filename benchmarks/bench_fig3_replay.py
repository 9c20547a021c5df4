"""E4/E5/E6 — Figure 3: original history, faithful replay, retroactive fix.

Benchmarks the replay engine (top half) and the retroactive engine over
both orderings (bottom half), printing both histories in the paper's
lane layout, plus the checkpointed dev-database restore that makes
replay O(delta) instead of O(history).
"""

import time

from repro.apps.moodle import subscribe_user_fixed
from repro.core import report

from conftest import fresh_moodle, racy_scenario


def test_fig3_top_replay(benchmark, emit):
    db, runtime, trod = racy_scenario(fresh_moodle())

    result = benchmark.pedantic(
        lambda: trod.replayer.replay_request("R1"), rounds=5, iterations=1
    )

    emit(
        "",
        "=== E4: Figure 3 (top) — original transaction history ===",
        report.history_diagram(trod, req_ids=["R1", "R2", "R3"]),
        "",
        "=== E5: §3.5 replay of R1 (breakpoints + injected writes) ===",
    )
    for step in result.steps:
        injected = [
            f"{w.kind} {w.table}({w.values}) from {w.req_id}"
            for w in step.injected
        ]
        emit(
            f"  step {step.index}: before {step.original_txn} "
            f"[{step.label}] injected={injected or 'nothing'}"
        )
    emit(
        f"  replay output: {result.output!r} "
        f"(original {result.original_output})",
        f"  fidelity: {result.fidelity}",
        f"  dev forum_sub rows: {result.dev_db.table_rows('forum_sub')}",
        "",
    )

    assert result.fidelity, result.divergences
    assert len(result.dev_db.table_rows("forum_sub")) == 2  # bug reproduced
    # The injected write between R1's transactions came from R2.
    assert [w.req_id for w in result.steps[1].injected] == ["R2"]


def test_fig3_bottom_retroactive(benchmark, emit):
    db, runtime, trod = racy_scenario(fresh_moodle())
    trod.flush()

    result = benchmark.pedantic(
        lambda: trod.retroactive.run(
            ["R1", "R2"],
            patches={"subscribeUser": subscribe_user_fixed},
            followups=["R3"],
        ),
        rounds=3,
        iterations=1,
    )

    emit(
        "",
        "=== E6: Figure 3 (bottom) — retroactive run of the patched code ===",
        result.summary(),
    )
    for outcome in result.outcomes:
        followup = outcome.followups[0]
        emit(
            f"  ordering {outcome.schedule}: final forum_sub = "
            f"{outcome.final_state['forum_sub']}, "
            f"fetchSubscribers -> {followup.output_repr} "
            f"(error: {followup.error})"
        )
    emit("")

    # Paper shape: both orderings tested, duplication gone, R3' clean.
    assert result.explored == 2
    assert result.all_ok
    assert result.states_agree()
    for outcome in result.outcomes:
        assert outcome.final_state["forum_sub"] == [("U1", "F2")]
        assert outcome.followups[0].error is None


def test_fig3_checkpointed_dev_db_restore(benchmark, emit):
    """``build_dev_db`` from kept states must beat full-history restore."""
    db, runtime, trod = racy_scenario(fresh_moodle())
    # Grow the history well past the slice replay cares about.
    for i in range(300):
        runtime.submit("subscribeUser", f"U{i + 10}", "F1")
    trod.flush()
    prov = trod.provenance
    upto = db.last_csn

    def best_of(fn, rounds=5):
        samples = []
        for _ in range(rounds):
            start = time.perf_counter_ns()
            fn()
            samples.append(time.perf_counter_ns() - start)
        return min(samples) / 1e6  # milliseconds

    def cold_build():
        prov.invalidate_checkpoints()
        return trod.replayer.build_dev_db(upto)

    full_ms = best_of(cold_build)
    dev_full = cold_build()  # ... which leaves every table's state kept
    checkpointed_ms = best_of(lambda: trod.replayer.build_dev_db(upto))
    dev_ck = trod.replayer.build_dev_db(upto)

    benchmark(lambda: trod.replayer.build_dev_db(upto))

    emit(
        "",
        "=== E4b: checkpointed vs full-history dev-db restore ===",
        f"  history: {upto} commits, "
        f"{prov.event_count} provenance rows",
        f"  full-history restore: {full_ms:.2f} ms",
        f"  checkpointed restore: {checkpointed_ms:.2f} ms "
        f"({full_ms / checkpointed_ms:.1f}x faster)",
        "",
    )

    # Same state either way, but the restore from kept states must win.
    for table in dev_full.catalog.table_names():
        assert dev_ck.table_rows(table) == dev_full.table_rows(table)
    assert checkpointed_ms < full_ms
