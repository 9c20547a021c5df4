"""The cluster controller: background loops and chaos helpers.

A :class:`Controller` wraps one :class:`~repro.db.sharding.
ShardedDatabase` and owns the self-managing machinery as cooperative-
scheduler tasks:

* :meth:`Controller.ship_loop` — drains every shard's replication log a
  batch at a time (replica catch-up interleaved with foreground work).
* :meth:`Controller.detection_loop` — refreshes the heartbeat watch set
  to the current topology and polls it; a confirmed primary failure
  drives :meth:`~repro.db.sharding.ShardedDatabase.failover`
  automatically, with no operator in the loop.
* :meth:`Controller.reshard` — runs the online N -> M migration
  (:func:`repro.cluster.reshard.reshard`) as a task while both loops —
  and the write workload — keep running.

``kill`` / ``revive`` flip the simulated-crash flag the detector probes,
so chaos tests drive real failovers deterministically.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.detector import HeartbeatDetector
from repro.cluster.reshard import reshard as _reshard
from repro.db.database import Database
from repro.db.sharding import ShardedDatabase
from repro.errors import ReplicationError
from repro.faults import BackoffPolicy
from repro.runtime.scheduler import CheckpointKind, maybe_checkpoint


class Controller:
    """Owns a sharded cluster's failure detection, shipping, and moves."""

    def __init__(
        self,
        sharded: ShardedDatabase,
        suspicion_threshold: int = 3,
        ship_batch: int = 32,
        probe_timeout: float | None = None,
        probe_backoff: "BackoffPolicy | None" = None,
    ):
        if ship_batch < 1:
            raise ReplicationError(f"ship batch must be >= 1, got {ship_batch}")
        self.sharded = sharded
        self.detector = HeartbeatDetector(
            suspicion_threshold,
            probe_timeout=probe_timeout,
            backoff=probe_backoff,
        )
        self.ship_batch = ship_batch
        self.stop_requested = False
        self.stats = {
            "detection_polls": 0,
            "ship_rounds": 0,
            "shipped_records": 0,
            "reshards": 0,
            "reprovisions": 0,
        }

    # -- topology-tracking watch set --------------------------------------

    def refresh_watches(self) -> None:
        """Point the detector at the *current* topology.

        Resharding and failover change the store list and replica sets
        under the detector's feet; each detection tick re-derives the
        watch set so new primaries are probed and departed ones dropped.
        Replica probes carry no failover action — a dead replica is
        simply skipped by shipping and routing until revived or
        re-provisioned by the next promote.
        """
        wanted: set[str] = set()
        for store in self.sharded.store_names:
            name = f"primary:{store}"
            wanted.add(name)
            if name not in self.detector.watching():
                self.detector.watch_shard(self.sharded, store)
        for store, replica_set in list(self.sharded.replica_sets.items()):
            for replica in list(replica_set.replicas):
                name = f"replica:{store}/{replica.name}"
                wanted.add(name)
                if name not in self.detector.watching():
                    database = replica.database
                    self.detector.watch(name, lambda db=database: db.ping())
        for name in self.detector.watching():
            if name not in wanted:
                self.detector.unwatch(name)

    # -- background loops (cooperative-scheduler tasks) -------------------

    def detection_loop(self, max_polls: int | None = None) -> int:
        """Probe liveness until stopped; returns confirmed-failure count.

        Run as a scheduler task: each tick refreshes the watch set,
        polls every probe once, and yields the baton. Failovers happen
        inside the poll, on this task's turn — which is what makes the
        chaos tests deterministic.
        """
        confirmed = 0
        polls = 0
        while not self.stop_requested:
            self.refresh_watches()
            confirmed += len(self.detector.poll())
            self.stats["reprovisions"] += self.reprovision()
            self.stats["detection_polls"] += 1
            polls += 1
            if max_polls is not None and polls >= max_polls:
                break
            maybe_checkpoint(CheckpointKind.SCAN_BATCH, "detection_loop")
        return confirmed

    def ship_loop(self, max_rounds: int | None = None) -> int:
        """Drain replica shipping in batches until stopped (or until
        ``max_rounds``); returns the number of records applied.

        The one background catch-up loop: each round applies at most
        ``ship_batch`` records per replica and parks at a SCAN_BATCH
        checkpoint, so foreground work interleaves with the drain. It
        does not exit when the logs run dry — it idles (still yielding)
        so commits that arrive later keep flowing to replicas for as
        long as the controller runs.
        """
        applied = 0
        rounds = 0
        while not self.stop_requested:
            try:
                got = self.sharded.catch_up(limit=self.ship_batch)
            except ReplicationError:
                # A primary died mid-drain; the detection loop will
                # promote and the next round ships from the new primary.
                got = 0
            applied += got
            self.stats["ship_rounds"] += 1
            self.stats["shipped_records"] += got
            rounds += 1
            if max_rounds is not None and rounds >= max_rounds:
                break
            maybe_checkpoint(CheckpointKind.SCAN_BATCH, "ship_loop")
        return applied

    def reshard(self, n_shards: int, chunk_size: int = 128) -> dict[str, Any]:
        """Online N -> M migration; see :func:`repro.cluster.reshard.reshard`."""
        result = _reshard(self.sharded, n_shards, chunk_size=chunk_size)
        self.stats["reshards"] += 1
        self.refresh_watches()
        return result

    def reprovision(self) -> int:
        """Rejoin every revived retired node as a fresh replica.

        A primary demoted by failover sits in its replica set's
        ``retired`` list; once revived (``crashed`` cleared) the next
        detection tick re-provisions it from the current primary's
        snapshot — the node rejoins the fleet automatically, no operator
        action. Returns the number of nodes rejoined this call.
        """
        rejoined = 0
        for replica_set in list(self.sharded.replica_sets.values()):
            rejoined += replica_set.reprovision()
        if rejoined:
            self.refresh_watches()
        return rejoined

    @property
    def cluster_stats(self) -> dict[str, int]:
        """One unified robustness-counter surface for the whole cluster.

        Mirrors ``executor_stats``/``storage_stats``: detector counters,
        per-replica-set replication counters (summed across shards), the
        coordinator's 2PC decision-log counters, and the controller's own
        loop counters, in one flat dict.
        """
        return self.sharded.cluster_stats | {
            f"detector_{key}": value for key, value in self.detector.stats.items()
        } | {
            "detection_polls": self.stats["detection_polls"],
            "ship_rounds": self.stats["ship_rounds"],
            "controller_shipped_records": self.stats["shipped_records"],
            "reshards": self.stats["reshards"],
            "controller_reprovisions": self.stats["reprovisions"],
        }

    def stop(self) -> None:
        """Ask both loops to exit at their next tick."""
        self.stop_requested = True

    # -- chaos helpers ----------------------------------------------------

    def kill(self, store: str) -> Database:
        """Simulate a crash of a shard's primary (it answers nothing)."""
        database = self.sharded.shard_named(store)
        database.crashed = True
        return database

    def kill_replica(self, store: str, replica: str) -> Database:
        database = self.sharded.replica_sets[store].replica(replica).database
        database.crashed = True
        return database

    def revive(self, database: Database) -> None:
        """Bring a killed node back; shipping heals it from the log."""
        database.crashed = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Controller {self.sharded.name!r} "
            f"shards={len(self.sharded.shards)} "
            f"watching={len(self.detector.watching())}>"
        )
