"""Cluster robustness: probe timeouts, backoff, quorum degradation,
and automatic re-provisioning of demoted nodes.

These are the deterministic chaos tests for the failure-handling
policies that sit *around* the failover machinery: a probe that answers
too slowly is a miss, a suspected node is probed on a backoff schedule
instead of hammered, a primary that loses its write quorum degrades to
read-only (and recovers), and a demoted primary rejoins the fleet as a
fresh replica with no operator action. Fault points let tests stand in
for real network failures without monkeypatching.
"""

import time

import pytest

from repro.cluster import Controller
from repro.cluster.detector import HeartbeatDetector
from repro.db.connection import connect
from repro.db.database import Database
from repro.db.replication import ReplicaSet
from repro.db.sharding import ShardedDatabase
from repro.errors import (
    ProbeTimeoutError,
    ReadOnlyError,
    ReplicationError,
    UnavailableError,
)
from repro.faults import BackoffPolicy, FaultInjector, injected
from repro.runtime.scheduler import (
    CheckpointKind,
    CooperativeScheduler,
    maybe_checkpoint,
)


class TestProbeTimeouts:
    def test_slow_probe_counts_as_timeout_miss(self):
        detector = HeartbeatDetector(
            suspicion_threshold=2, probe_timeout=0.0005
        )
        detector.watch("slow", lambda: time.sleep(0.002))
        detector.poll()
        assert detector.stats["probe_timeouts"] == 1
        assert detector.stats["misses"] == 1
        assert detector.suspected() == ["slow"]
        detector.poll()
        assert detector.confirmed() == ["slow"]
        assert detector.stats["probe_timeouts"] == 2

    def test_fast_probe_is_not_a_timeout(self):
        alive = Database(name="quick")
        detector = HeartbeatDetector(probe_timeout=5.0)
        detector.watch("quick", alive.ping)
        detector.poll()
        assert detector.stats["probes"] == 1
        assert detector.stats["probe_timeouts"] == 0
        assert detector.stats["misses"] == 0

    def test_probe_raising_timeout_error_counts(self):
        def probe():
            raise ProbeTimeoutError("rpc deadline exceeded")

        detector = HeartbeatDetector()
        detector.watch("deadline", probe)
        detector.poll()
        assert detector.stats["probe_timeouts"] == 1
        assert detector.stats["misses"] == 1

    def test_invalid_probe_timeout_rejected(self):
        with pytest.raises(ReplicationError, match="probe_timeout"):
            HeartbeatDetector(probe_timeout=0)

    def test_controller_threads_probe_policy_through(self):
        sharded = ShardedDatabase(1, name="policy", shard_keys={})
        controller = Controller(
            sharded,
            probe_timeout=0.5,
            probe_backoff=BackoffPolicy(base=1, factor=2, cap=4),
        )
        assert controller.detector.probe_timeout == 0.5
        assert controller.detector.backoff.cap == 4


class TestProbeBackoff:
    def test_backoff_spares_a_suspected_target(self):
        down = Database(name="down")
        down.crashed = True
        detector = HeartbeatDetector(
            suspicion_threshold=3,
            backoff=BackoffPolicy(base=1, factor=2, cap=2),
        )
        detector.watch("down", down.ping)
        # ticks(1) == ticks(2) == 2: probes land on polls 1, 4 and 7,
        # the polls between are backoff skips.
        for _ in range(7):
            detector.poll()
        assert detector.confirmed() == ["down"]
        assert detector.stats["probes"] == 3
        assert detector.stats["backoff_skips"] == 4
        # Confirmed targets keep full probe cadence so recovery is
        # noticed promptly.
        detector.poll()
        assert detector.stats["probes"] == 4
        down.crashed = False
        detector.poll()
        assert detector.confirmed() == []
        assert detector.suspected() == []

    def test_success_resets_the_backoff(self):
        flaky = Database(name="flaky")
        detector = HeartbeatDetector(
            suspicion_threshold=3,
            backoff=BackoffPolicy(base=2, factor=2, cap=8),
        )
        detector.watch("flaky", flaky.ping)
        flaky.crashed = True
        detector.poll()  # miss: schedules a skip window
        flaky.crashed = False
        skips_before = detector.stats["backoff_skips"]
        while detector.stats["backoff_skips"] > skips_before - 1:
            before = detector.stats["probes"]
            detector.poll()
            if detector.stats["probes"] > before:
                break  # probed again: the skip window elapsed
        assert detector.suspected() == []
        detector.poll()  # healthy: probed at full cadence again
        assert detector.stats["misses"] == 1


class TestInjectedProbeFaults:
    def test_injected_probe_fault_counts_as_miss(self):
        alive = Database(name="fine")
        detector = HeartbeatDetector(suspicion_threshold=2)
        detector.watch("fine", alive.ping)
        injector = FaultInjector()
        injector.fail("detector.probe", count=2, exc=UnavailableError)
        with injected(injector):
            detector.poll()
            detector.poll()
        assert detector.stats["misses"] == 2
        assert detector.confirmed() == ["fine"]
        assert injector.hits["detector.probe"] == 2
        detector.poll()  # fault cleared: the healthy node re-arms
        assert detector.confirmed() == []

    def test_injected_timeout_is_counted_as_timeout(self):
        alive = Database(name="fine")
        detector = HeartbeatDetector()
        detector.watch("fine", alive.ping)
        injector = FaultInjector()
        injector.fail_every("detector.probe", 1.0, exc=ProbeTimeoutError)
        with injected(injector):
            detector.poll()
        assert detector.stats["probe_timeouts"] == 1
        assert detector.stats["misses"] == 1


class TestQuorumDegradation:
    def make_set(self):
        primary = Database(name="deg")
        primary.execute("CREATE TABLE t (k INTEGER)")
        return primary, ReplicaSet(primary, n_replicas=2, ack_quorum=2)

    def test_quorum_loss_degrades_primary_to_read_only(self):
        primary, replica_set = self.make_set()
        for replica in replica_set.replicas:
            replica.database.crashed = True
        with pytest.raises(ReplicationError, match="quorum not met"):
            primary.execute("INSERT INTO t VALUES (1)")
        assert replica_set.degraded
        assert primary.read_only
        assert "write quorum lost" in primary.read_only_reason
        # Further writes are refused with the quorum explanation — not
        # the misleading "this is a replica" default.
        with pytest.raises(ReadOnlyError, match="write quorum lost"):
            primary.execute("INSERT INTO t VALUES (2)")
        # Reads keep flowing: a quorum-less primary must stay readable,
        # and the quorum-missing write IS durable locally.
        assert primary.execute("SELECT COUNT(*) FROM t").scalar() == 1

    def test_restoration_lifts_the_fence(self):
        primary, replica_set = self.make_set()
        for replica in replica_set.replicas:
            replica.database.crashed = True
        with pytest.raises(ReplicationError, match="quorum not met"):
            primary.execute("INSERT INTO t VALUES (1)")
        for replica in replica_set.replicas:
            replica.database.crashed = False
        replica_set.catch_up()
        assert not replica_set.degraded
        assert not primary.read_only
        assert primary.read_only_reason is None
        primary.execute("INSERT INTO t VALUES (2)")  # writes flow again
        assert replica_set.stats["quorum_misses"] == 1
        assert replica_set.stats["degradations"] == 1
        assert replica_set.stats["restorations"] == 1
        assert replica_set.stats["quorum_commits"] == 1
        assert all(
            r.csn == primary.last_csn for r in replica_set.replicas
        )

    def test_injected_apply_fault_degrades_then_restores(self):
        primary = Database(name="quorum-fault")
        primary.execute("CREATE TABLE t (k INTEGER)")
        replica_set = ReplicaSet(primary, n_replicas=1, ack_quorum=1)
        injector = FaultInjector()
        injector.fail("repl.apply", exc=UnavailableError)
        with injected(injector):
            with pytest.raises(ReplicationError, match="quorum not met"):
                primary.execute("INSERT INTO t VALUES (1)")
        assert replica_set.degraded and primary.read_only
        # The fault is gone; catch-up converges the replica and lifts
        # the degradation in the same pass.
        replica_set.catch_up()
        assert not replica_set.degraded and not primary.read_only
        assert replica_set.replicas[0].csn == primary.last_csn
        primary.execute("INSERT INTO t VALUES (2)")
        assert replica_set.stats["quorum_commits"] == 1


class TestShipFaultPoints:
    def test_ship_and_apply_points_observe_replication(self):
        primary = Database(name="ship")
        replica_set = ReplicaSet(primary, n_replicas=1)
        injector = FaultInjector()
        with injected(injector):
            primary.execute("CREATE TABLE t (k INTEGER)")
            primary.execute("INSERT INTO t VALUES (1)")
            replica_set.catch_up()
        assert injector.hits["repl.ship"] >= 2  # DDL + commit records
        assert injector.hits["repl.apply"] >= 2


class TestReprovision:
    def test_demoted_primary_rejoins_as_fresh_replica(self):
        primary = Database(name="rp")
        primary.execute("CREATE TABLE t (k INTEGER)")
        primary.execute("INSERT INTO t VALUES (1)")
        replica_set = ReplicaSet(primary, n_replicas=1)
        replica_set.catch_up()
        new_primary = replica_set.promote()
        assert replica_set.retired == [primary]
        assert primary.fenced
        # The demoted node is up (fenced, not crashed): it rejoins on
        # the next reprovision pass, as a FRESH bootstrap — its old
        # state may have diverged, so never a rewind.
        assert replica_set.reprovision() == 1
        assert replica_set.retired == []
        rejoined = replica_set.replicas[0]
        assert "rejoin" in rejoined.name
        assert rejoined.csn == new_primary.last_csn
        new_primary.execute("INSERT INTO t VALUES (2)")
        replica_set.catch_up()
        assert rejoined.csn == new_primary.last_csn
        assert replica_set.stats["reprovisions"] == 1

    def test_crashed_retired_node_waits_for_revival(self):
        primary = Database(name="crashed-rp")
        primary.execute("CREATE TABLE t (k INTEGER)")
        replica_set = ReplicaSet(primary, n_replicas=1)
        primary.crashed = True
        replica_set.promote()
        assert replica_set.reprovision() == 0
        assert replica_set.retired == [primary]
        primary.crashed = False
        assert replica_set.reprovision() == 1
        assert replica_set.retired == []

    def test_controller_reprovisions_revived_primary(self):
        """The full loop, no operator: kill a shard primary, let the
        detection loop promote, revive the corpse, and the next
        detection tick re-provisions it as a replica of the new
        primary."""
        sharded = ShardedDatabase(2, name="auto", shard_keys={"kv": "k"})
        sharded.execute("CREATE TABLE kv (k INTEGER, v TEXT)")
        for i in range(8):
            sharded.execute("INSERT INTO kv VALUES (?, ?)", (i, f"v{i}"))
        sharded.attach_replicas(1)
        controller = Controller(sharded, suspicion_threshold=2)
        controller.refresh_watches()

        dead = controller.kill("shard0")
        controller.detection_loop(max_polls=3)
        assert controller.detector.stats["failovers"] >= 1
        replica_set = sharded.replica_sets["shard0"]
        assert replica_set.retired == [dead]
        assert controller.stats["reprovisions"] == 0  # still crashed

        controller.revive(dead)
        controller.detection_loop(max_polls=1)
        assert controller.stats["reprovisions"] == 1
        assert replica_set.retired == []
        assert any("rejoin" in r.name for r in replica_set.replicas)
        # The rejoined replica is immediately under watch.
        assert any(
            "rejoin" in name for name in controller.detector.watching()
        )
        # And it serves: it tracks the new primary through catch-up.
        sharded.execute("INSERT INTO kv VALUES (100, 'post')")
        replica_set.catch_up()
        assert all(
            r.csn == replica_set.primary.last_csn
            for r in replica_set.replicas
        )


class TestFailoverRetry:
    def test_connection_retry_backoff_rides_out_a_failover(self):
        """Deterministic for ANY scheduler seed: the primary is dead
        before the statement runs, so the connection MUST burn at least
        one retry (spaced by its backoff policy) before the promotion —
        triggered only once a retry is observed — lets it through."""
        sharded = ShardedDatabase(1, name="retry", shard_keys={"kv": "k"})
        conn = connect(
            sharded,
            read_preference="primary",
            max_failover_retries=50,
            retry_backoff=BackoffPolicy(base=1, factor=2, cap=4),
        )
        conn.execute("CREATE TABLE kv (k INTEGER, v TEXT)")
        sharded.attach_replicas(1)
        sharded.shard_named("shard0").crashed = True

        def workload():
            conn.execute("INSERT INTO kv VALUES (1, 'x')")

        def promoter():
            while conn.stats["failover_retries"] == 0:
                maybe_checkpoint(CheckpointKind.SCAN_BATCH, "promoter")
            sharded.failover("shard0")

        scheduler = CooperativeScheduler(seed=5)
        outcomes = scheduler.run([workload, promoter])
        assert [o.error for o in outcomes if o.error is not None] == []
        assert conn.stats["failover_retries"] > 0
        # Retries are mirrored into the cluster-wide robustness surface.
        assert sharded.stats["failover_retries"] > 0
        assert (
            sharded.cluster_stats["failover_retries"]
            == sharded.stats["failover_retries"]
        )
        assert conn.execute("SELECT COUNT(*) FROM kv").scalar() == 1


class TestClusterStatsSurface:
    def test_cluster_stats_unifies_the_surfaces(self):
        sharded = ShardedDatabase(2, name="stats", shard_keys={"kv": "k"})
        sharded.execute("CREATE TABLE kv (k INTEGER, v TEXT)")
        sharded.attach_replicas(1)
        controller = Controller(sharded, suspicion_threshold=2)
        controller.refresh_watches()
        gtxn = sharded.begin()
        for k in range(4):  # spans both shards: a real 2PC decision
            sharded.execute(
                "INSERT INTO kv VALUES (?, ?)", (k, f"v{k}"), txn=gtxn
            )
        gtxn.commit()
        sharded.catch_up()
        controller.detection_loop(max_polls=1)

        stats = controller.cluster_stats
        for key in (
            "shipped_records",
            "promotions",
            "quorum_misses",
            "degradations",
            "reprovisions",
            "decisions_logged",
            "in_doubt_committed",
            "failover_retries",
            "detector_probes",
            "detector_probe_timeouts",
            "detector_backoff_skips",
            "detection_polls",
            "controller_reprovisions",
            "reshards",
        ):
            assert key in stats, f"cluster_stats missing {key!r}"
        assert stats["detector_probes"] >= 1
        assert stats["shipped_records"] >= 1
        assert stats["decisions_logged"] >= 1

    def test_faults_injected_appears_only_when_installed(self):
        sharded = ShardedDatabase(2, name="fi", shard_keys={"kv": "k"})
        sharded.execute("CREATE TABLE kv (k INTEGER, v TEXT)")
        assert "faults_injected" not in sharded.cluster_stats
        injector = FaultInjector()
        injector.fail("repl.ship", at=10**9)  # armed, far away
        with injected(injector):
            sharded.execute("INSERT INTO kv VALUES (1, 'x')")
            assert sharded.cluster_stats["faults_injected"] == 0
        assert "faults_injected" not in sharded.cluster_stats
