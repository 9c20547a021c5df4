"""The read-heavy replicated workload profile, single-node and sharded."""

import pytest

import repro
from repro.db import Database, ShardedDatabase
from repro.db.replication import ReplicaSet
from repro.workload.generators import ReplicatedReadWorkload


class TestReplicatedReadWorkload:
    def test_single_node_async_holds_read_your_writes(self):
        db = Database()
        workload = ReplicatedReadWorkload(n_keys=40, n_sessions=4, seed=7)
        workload.seed_database(db)
        rs = ReplicaSet(db, n_replicas=2, mode="async")
        counts = workload.run(rs, 300, write_ratio=0.3, ship_every=20)
        assert counts["ryw_checks"] == counts["writes"] > 0
        assert counts["reads"] > counts["writes"]  # read-heavy
        assert counts["replica_reads"] > 0
        # Under lag, some probes must have needed the session token.
        assert counts["stale_fallbacks"] > 0

    def test_single_node_wait_mode_never_falls_back(self):
        db = Database()
        workload = ReplicatedReadWorkload(n_keys=40, n_sessions=4, seed=8)
        workload.seed_database(db)
        rs = ReplicaSet(db, n_replicas=2, mode="async")
        counts = workload.run(
            rs, 200, write_ratio=0.3, ship_every=20, read_preference="wait"
        )
        assert counts["stale_fallbacks"] == 0
        assert counts["catch_up_waits"] > 0

    def test_sync_mode_serves_everything_from_replicas(self):
        db = Database()
        workload = ReplicatedReadWorkload(n_keys=40, n_sessions=4, seed=9)
        workload.seed_database(db)
        rs = ReplicaSet(db, n_replicas=3, mode="sync")
        counts = workload.run(rs, 200, write_ratio=0.2, ship_every=None)
        assert counts["stale_fallbacks"] == 0
        assert counts["primary_reads"] == 0
        assert counts["replica_reads"] == counts["reads"] + counts["ryw_checks"]

    def test_sharded_cluster_profile(self):
        sharded = ShardedDatabase(3, shard_keys={"kv": "k"})
        workload = ReplicatedReadWorkload(n_keys=60, n_sessions=6, seed=10)
        workload.seed_database(sharded)
        sharded.attach_replicas(2, mode="async")
        counts = workload.run(sharded, 250, write_ratio=0.25, ship_every=25)
        assert counts["ryw_checks"] == counts["writes"] > 0
        assert counts["replica_reads"] > 0
        # Final state agrees between primaries and caught-up replicas.
        sharded.catch_up()
        expected = sharded.execute("SELECT k, val FROM kv ORDER BY k").rows
        routed = repro.connect(sharded).execute(
            "SELECT k, val FROM kv ORDER BY k"
        ).rows
        assert routed == expected

    def test_violation_detection_trips_on_a_broken_engine(self):
        from repro.errors import ReplicationError

        db = Database()
        workload = ReplicatedReadWorkload(n_keys=10, n_sessions=2, seed=11)
        workload.seed_database(db)

        class FloorlessCluster(ReplicaSet):
            """Drops the session floor — stale reads go unprotected."""

            def execute_read(self, sql, params=(), floor=0, **routing):
                return super().execute_read(sql, params, floor=0, **routing)

        with pytest.raises(ReplicationError, match="read back"):
            # With no floor, a lagging replica eventually serves a stale
            # read-your-writes probe; the workload must catch it.
            workload.run(
                FloorlessCluster(db, n_replicas=1, mode="async"),
                300,
                write_ratio=0.5,
                ship_every=50,
            )


#: Counts of seeded runs recorded on the engine before ``ReplicaSet.target``
#: replaced the live and ``AS OF`` routing methods (and the set stopped
#: being wrapped by ``connect()``); routing must not have moved a read.
RECORDED = {
    ("async", 25, "replica"): {
        "reads": 213, "writes": 87, "ryw_checks": 87, "replica_reads": 102,
        "primary_reads": 0, "stale_fallbacks": 198, "catch_up_waits": 0,
    },
    ("async", 25, "wait"): {
        "reads": 213, "writes": 87, "ryw_checks": 87, "replica_reads": 300,
        "primary_reads": 0, "stale_fallbacks": 0, "catch_up_waits": 87,
    },
    ("sync", None, "replica"): {
        "reads": 213, "writes": 87, "ryw_checks": 87, "replica_reads": 300,
        "primary_reads": 0, "stale_fallbacks": 0, "catch_up_waits": 0,
    },
}


@pytest.mark.parametrize("mode, ship_every, read_preference", list(RECORDED))
def test_seeded_run_routes_as_recorded(mode, ship_every, read_preference):
    db = Database()
    workload = ReplicatedReadWorkload(n_keys=40, n_sessions=4, seed=7)
    workload.seed_database(db)
    rs = ReplicaSet(db, n_replicas=2, mode=mode)
    counts = workload.run(
        rs,
        300,
        write_ratio=0.3,
        ship_every=ship_every,
        read_preference=read_preference,
    )
    assert counts == RECORDED[mode, ship_every, read_preference]


def test_seeded_sharded_run_routes_as_recorded():
    sharded = ShardedDatabase(3, shard_keys={"kv": "k"})
    workload = ReplicatedReadWorkload(n_keys=60, n_sessions=6, seed=10)
    workload.seed_database(sharded)
    sharded.attach_replicas(2, mode="async")
    assert workload.run(sharded, 250, write_ratio=0.25, ship_every=25) == {
        "reads": 187, "writes": 63, "ryw_checks": 63, "replica_reads": 142,
        "primary_reads": 0, "stale_fallbacks": 108, "catch_up_waits": 0,
    }
