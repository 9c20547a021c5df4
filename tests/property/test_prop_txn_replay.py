"""Property tests over the paper's core guarantees.

* Strict serializability: any transaction-granularity schedule produces
  the state of executing transactions serially in commit order.
* Replay fidelity: every traced request replays with full fidelity, for
  arbitrary schedules of the racy forum workload — the paper's
  "Heisenbugs become Bohrbugs".
* Retroactive soundness: the single-transaction fix passes all pruned
  orderings of any racy request set.
* WAL recovery: a recovered database equals the original.
"""

from hypothesis import given, settings, strategies as st

from repro.apps import build_moodle_app
from repro.core import Trod
from repro.db import Database
from repro.runtime import Request, Runtime


def build_env():
    db = Database()
    runtime = Runtime(db)
    names = build_moodle_app(db, runtime)
    trod = Trod(db, event_names=names).attach(runtime)
    return db, runtime, trod


#: Random mixes of subscribe/fetch requests over a tiny key space (to
#: force collisions) and a random scheduler seed.
requests_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("subscribeUser"),
            st.sampled_from(["U1", "U2"]),
            st.sampled_from(["F1", "F2"]),
        ),
        st.tuples(st.just("fetchSubscribers"), st.sampled_from(["F1", "F2"])),
    ),
    min_size=2,
    max_size=5,
)


class TestSerializability:
    @given(requests_strategy, st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_any_schedule_equals_serial_commit_order(self, commit_tap, specs, seed):
        # Concurrent run with a random (seeded) schedule.
        db1, rt1, _trod1 = build_env()
        tap = commit_tap(db1)
        requests = [Request(spec[0], tuple(spec[1:])) for spec in specs]
        rt1.run_concurrent(requests, seed=seed)
        realized = rt1.realized_txn_order()

        # Serial re-execution following the realized txn order is not
        # directly expressible request-wise (requests interleave), so we
        # verify the strict-serializability *consequence*: the committed
        # state equals redoing the commits' changes in order, and commit
        # CSNs are dense.
        csns = [c.csn for c in tap]
        assert csns == sorted(csns)
        state = sorted(
            tuple(r.values()) for r in db1.table_rows("forum_sub")
        )
        replayed = Database()
        replayed.create_table(db1.catalog.get("forum_sub"))
        from repro.db.txn.wal import redo_change

        store = replayed.store("forum_sub")
        for commit in tap:
            for change in commit.changes:
                if change.table == "forum_sub":
                    redo_change(store, change, commit.csn)
        assert sorted(
            tuple(r.values()) for r in replayed.table_rows("forum_sub")
        ) == state

    @given(requests_strategy, st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_same_seed_same_outcome(self, specs, seed):
        def run():
            db, rt, _trod = build_env()
            requests = [Request(spec[0], tuple(spec[1:])) for spec in specs]
            results = rt.run_concurrent(requests, seed=seed)
            return (
                [(r.output, r.error) for r in results],
                sorted(tuple(r.values()) for r in db.table_rows("forum_sub")),
            )

        assert run() == run()


class TestReplayFidelityProperty:
    @given(requests_strategy, st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_every_request_replays_faithfully(self, specs, seed):
        _db, rt, trod = build_env()
        requests = [Request(spec[0], tuple(spec[1:])) for spec in specs]
        results = rt.run_concurrent(requests, seed=seed)
        for result in results:
            if not result.txn_names:
                continue  # nothing committed to replay
            trod.flush()
            txns = trod.provenance.txns_of_request(result.req_id)
            if not txns:
                continue
            replay = trod.replayer.replay_request(result.req_id)
            assert replay.fidelity, (
                f"{result.req_id} diverged: {replay.divergences}"
            )


class TestRetroactiveProperty:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["U1", "U2"]), st.sampled_from(["F1"])),
            min_size=2,
            max_size=3,
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_atomic_fix_never_duplicates(self, pairs):
        from repro.apps.moodle import subscribe_user_fixed

        _db, rt, trod = build_env()
        requests = [Request("subscribeUser", pair) for pair in pairs]
        rt.run_concurrent(requests, seed=1)
        trod.flush()
        req_ids = [r.req_id for r in requests]

        def no_duplicates(dev_db):
            rows = dev_db.execute(
                "SELECT userId, forum, COUNT(*) FROM forum_sub"
                " GROUP BY userId, forum HAVING COUNT(*) > 1"
            ).rows
            return [str(r) for r in rows]

        result = trod.retroactive.run(
            req_ids,
            patches={"subscribeUser": subscribe_user_fixed},
            invariant=no_duplicates,
            max_orderings=30,
        )
        assert result.all_ok, result.summary()


class TestWalRecoveryProperty:
    @given(requests_strategy, st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_recovered_database_matches(self, specs, seed):
        import tempfile
        import os

        handle, path = tempfile.mkstemp(suffix=".jsonl")
        os.close(handle)
        db = Database(wal_path=path)
        rt = Runtime(db)
        build_moodle_app(db, rt)
        requests = [Request(spec[0], tuple(spec[1:])) for spec in specs]
        rt.run_concurrent(requests, seed=seed)
        db.wal.close()
        schemas = [db.catalog.get(n) for n in db.catalog.table_names()]
        try:
            recovered = Database.recover(schemas, path)
            for name in db.catalog.table_names():
                assert sorted(
                    tuple(r.values()) for r in recovered.table_rows(name)
                ) == sorted(tuple(r.values()) for r in db.table_rows(name))
        finally:
            os.unlink(path)
