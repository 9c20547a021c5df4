"""Retroactive programming tests (§3.6, Figure 3 bottom)."""

import pytest

from repro.apps.moodle import subscribe_user_fixed
from repro.errors import RetroactiveError
from repro.workload.generators import CheckoutWorkload, ForumWorkload


class TestPaperScenario:
    def test_fix_validated_over_both_orderings(self, racy_moodle):
        """Figure 3 bottom: patched subscribeUser over R1, R2 with R3'
        after — no ordering errors, no duplicates."""
        _db, _runtime, trod = racy_moodle
        result = trod.retroactive.run(
            ["R1", "R2"],
            patches={"subscribeUser": subscribe_user_fixed},
            followups=["R3"],
        )
        assert result.explored == 2  # R1' first and R2' first
        assert result.all_ok
        assert result.states_agree()
        for outcome in result.outcomes:
            assert outcome.final_state["forum_sub"] == [("U1", "F2")]
            followup = outcome.followups[0]
            assert followup.ok
            assert followup.output_repr == "['U1']"
            # Originally R3 errored; now it succeeds — behaviour changed.
            assert followup.changed

    def test_unpatched_code_still_fails_under_racy_ordering(self, racy_moodle):
        """Running the ORIGINAL buggy code retroactively shows at least
        one ordering reproducing the duplicate."""
        _db, _runtime, trod = racy_moodle
        result = trod.retroactive.run(["R1", "R2"], followups=["R3"])
        assert not result.all_ok
        bad = [o for o in result.outcomes if not o.ok]
        assert bad
        for outcome in bad:
            assert outcome.final_state["forum_sub"] == [
                ("U1", "F2"), ("U1", "F2"),
            ]

    def test_ordering_space_accounting(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        result = trod.retroactive.run(
            ["R1", "R2"], patches={"subscribeUser": subscribe_user_fixed}
        )
        # Patched handler has 1 txn per request -> 2 naive interleavings.
        assert result.naive_orderings == 2
        assert result.explored == 2
        assert not result.truncated

    def test_summary_renders(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        result = trod.retroactive.run(
            ["R1", "R2"], patches={"subscribeUser": subscribe_user_fixed}
        )
        text = result.summary()
        assert "naive=2" in text and "explored=2" in text


class TestEngineMechanics:
    def test_empty_request_list_rejected(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        with pytest.raises(RetroactiveError):
            trod.retroactive.run([])

    def test_unknown_orderings_mode_rejected(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        with pytest.raises(RetroactiveError):
            trod.retroactive.run(["R1"], orderings="bogus")

    def test_explicit_orderings_respected(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        result = trod.retroactive.run(
            ["R1", "R2"],
            orderings=[[0, 1, 1, 0]],  # replay exactly the racy schedule
        )
        assert result.explored == 1
        outcome = result.outcomes[0]
        assert outcome.final_state["forum_sub"] == [("U1", "F2"), ("U1", "F2")]

    def test_max_orderings_cap(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        result = trod.retroactive.run(
            ["R1", "R2"], orderings="all", max_orderings=1
        )
        assert result.explored == 1
        assert result.truncated

    def test_invariant_checker_runs_per_ordering(self, racy_moodle):
        _db, _runtime, trod = racy_moodle

        def no_duplicates(dev_db):
            rows = dev_db.execute(
                "SELECT userId, forum, COUNT(*) FROM forum_sub"
                " GROUP BY userId, forum HAVING COUNT(*) > 1"
            ).rows
            return [f"duplicate {r[:2]}" for r in rows]

        result = trod.retroactive.run(
            ["R1", "R2"], invariant=no_duplicates
        )
        violating = [o for o in result.outcomes if o.invariant_violations]
        assert violating  # the buggy code violates under some ordering
        fixed = trod.retroactive.run(
            ["R1", "R2"],
            patches={"subscribeUser": subscribe_user_fixed},
            invariant=no_duplicates,
        )
        assert fixed.all_ok

    def test_retroactive_leaves_production_untouched(self, racy_moodle):
        database, _runtime, trod = racy_moodle
        before = database.table_rows("forum_sub")
        trod.retroactive.run(
            ["R1", "R2"], patches={"subscribeUser": subscribe_user_fixed}
        )
        assert database.table_rows("forum_sub") == before

    def test_original_outcomes_available_for_comparison(self, racy_moodle):
        _db, _runtime, trod = racy_moodle
        result = trod.retroactive.run(
            ["R1", "R2"], patches={"subscribeUser": subscribe_user_fixed}
        )
        outcome = result.outcomes[0].requests[0]
        assert outcome.original_output == "True"
        assert outcome.output_repr == "True"
        assert not outcome.changed


def counting_reconstructions(prov, monkeypatch) -> list:
    """Spies on ``_kept_table``, the one per-table reconstruction that
    ``reconstruct_rows`` and ``kept_state`` (a retroactive run's) share."""
    calls = []
    original = prov._kept_table

    def counted(table, upto_csn):
        calls.append((table, upto_csn))
        return original(table, upto_csn)

    monkeypatch.setattr(prov, "_kept_table", counted)
    return calls


class TestOneReconstructionPerRun:
    """Every pilot and every ordering loads one shared base state."""

    def racy_pair_over_existing_rows(self, moodle_env):
        database, runtime, trod = moodle_env
        for user in ("U7", "U8"):  # R1, R2: rows the base state holds
            runtime.submit("subscribeUser", user, "F2")
        runtime.run_concurrent(  # R3, R4
            ForumWorkload.racy_pair(), schedule=ForumWorkload.RACY_SCHEDULE
        )
        return trod

    def test_orderings_equal_runs_with_their_own_reconstruction(
        self, moodle_env, monkeypatch
    ):
        trod = self.racy_pair_over_existing_rows(moodle_env)
        calls = counting_reconstructions(trod.provenance, monkeypatch)
        result = trod.retroactive.run(["R3", "R4"], orderings="all")
        # One per traced table, for two pilots and six orderings.
        assert len(calls) == len(trod.provenance.traced_tables())
        assert result.explored == result.naive_orderings == 6
        base = [("U7", "F2"), ("U8", "F2")]
        seen = set()
        for outcome in result.outcomes:
            alone = trod.retroactive.run(
                ["R3", "R4"], orderings=[outcome.schedule]
            ).outcomes[0]
            assert outcome.final_state == alone.final_state
            assert outcome.requests == alone.requests
            # The base rows are there, and nothing an earlier ordering's
            # database wrote came along with them.
            rows = outcome.final_state["forum_sub"]
            assert rows[-2:] == base and set(rows[:-2]) == {("U1", "F2")}
            seen.add(len(rows))
        assert seen == {3, 4}  # serial orderings dedupe, racy ones do not

    def test_a_run_reads_each_request_row_once(self, moodle_env, monkeypatch):
        trod = self.racy_pair_over_existing_rows(moodle_env)
        prov = trod.provenance
        reads = []
        query = prov.query

        def counted(sql, params=()):
            if "FROM Requests" in sql:
                reads.append(params)
            return query(sql, params)

        monkeypatch.setattr(prov, "query", counted)
        result = trod.retroactive.run(["R3", "R4"], orderings="all", followups=["R1"])
        assert result.explored == 6
        # Not once per ordering: the originals are read before the first.
        assert sorted(reads) == [("R1",), ("R3",), ("R4",)]
        monkeypatch.undo()
        for outcome in result.outcomes:
            for request in outcome.requests + outcome.followups:
                row = prov.request_row(request.req_id)
                assert request.original_output == row["Output"]
                assert request.original_error == row["Error"]

    def test_a_run_on_a_warm_store_is_the_run_on_a_cold_one(self, moodle_env):
        trod = self.racy_pair_over_existing_rows(moodle_env)
        prov = trod.provenance

        def run():
            result = trod.retroactive.run(["R3", "R4"], orderings="all")
            return result.summary(), [
                (o.schedule, o.final_state, o.requests) for o in result.outcomes
            ]

        cold = run()
        stats = dict(prov.checkpoint_stats)
        assert stats["full_restores"] == len(prov.traced_tables())
        assert run() == cold
        assert prov.checkpoint_stats == {
            **stats,
            "checkpoint_restores": stats["checkpoint_restores"] + stats["full_restores"],
        }

    def test_a_two_request_run_reconstructs_each_table_once(
        self, ecommerce_env, monkeypatch
    ):
        _database, runtime, trod = ecommerce_env
        generator = CheckoutWorkload(n_users=3, n_skus=2, seed=5)
        generator.seed_database(runtime)
        added, placed = [
            runtime.execute_request(request).req_id
            for request in generator.requests(1)
        ]
        trod.flush()
        trod.provenance.expand_reads()  # the reader barrier's own reconstructions
        calls = counting_reconstructions(trod.provenance, monkeypatch)
        result = trod.retroactive.run([added, placed])
        assert result.all_ok and result.explored >= 1
        assert len(calls) == len(trod.provenance.traced_tables()) == 7
        assert {csn for _table, csn in calls} == {result.base_csn}


class TestRegressionScenario:
    def test_mdl_60669_regression_found_by_wider_retroactive_test(self, moodle_env):
        """§4.1: the MDL-59854 patch regressed course restore. Testing the
        patch only on the subscription requests passes; widening the
        retroactive test to requests touching the same table (the paper's
        advice) catches the restore failure before production."""
        _db, runtime, trod = moodle_env
        from repro.runtime import Request
        from repro.workload.generators import ForumWorkload

        runtime.submit("createCourse", "C1", "Intro", ["F2"])
        runtime.run_concurrent(
            ForumWorkload.racy_pair(), schedule=ForumWorkload.RACY_SCHEDULE
        )  # R2, R3 (R1 was createCourse)
        runtime.submit("deleteCourse", "C1")  # R4
        runtime.submit("restoreCourse", "C1")  # R5: fails in production!
        trod.flush()
        assert trod.provenance.request_row("R5")["Status"] == "Error"

        # Narrow retroactive test (subscriptions only): everything passes.
        narrow = trod.retroactive.run(
            ["R2", "R3"], patches={"subscribeUser": subscribe_user_fixed}
        )
        assert narrow.all_ok

        # Wide test including the restore request over the same table:
        # the pre-existing duplicates still break restoreCourse.
        wide = trod.retroactive.run(
            ["R2", "R3"],
            patches={"subscribeUser": subscribe_user_fixed},
            orderings=[[0, 1]],
            followups=["R4", "R5"],
        )
        assert wide.all_ok  # fixed code prevents NEW duplicates...

        # ...but replaying the patch against the ORIGINAL duplicated state
        # (restore runs after the original buggy requests) shows the crash.
        original_state = trod.retroactive.run(
            ["R2", "R3"],  # unpatched originals recreate the duplicates
            orderings=[[0, 1, 1, 0]],
            followups=["R4", "R5"],
        )
        assert not original_state.all_ok
        restore_outcome = original_state.outcomes[0].followups[-1]
        assert restore_outcome.error is not None
        assert "duplicate" in restore_outcome.error
