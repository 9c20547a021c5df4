"""Quorum replication: ack_quorum commits, applied synchronously to the
first N healthy replicas of one primary."""

import pytest

from repro.db.database import Database
from repro.db.replication import ReplicaSet
from repro.errors import ReplicationError


def make_primary() -> Database:
    primary = Database(name="q")
    primary.execute("CREATE TABLE kv (k INTEGER, v TEXT)")
    for i in range(5):
        primary.execute("INSERT INTO kv VALUES (?, ?)", (i, f"v{i}"))
    return primary


class TestAckQuorum:
    def test_rejects_negative_quorum(self):
        with pytest.raises(ReplicationError, match="ack_quorum"):
            ReplicaSet(make_primary(), ack_quorum=-1)

    def test_rejects_quorum_with_sync_mode(self):
        with pytest.raises(ReplicationError, match="redundant"):
            ReplicaSet(make_primary(), n_replicas=1, mode="sync", ack_quorum=1)

    def test_commit_applies_to_quorum_synchronously(self):
        primary = make_primary()
        replica_set = ReplicaSet(primary, n_replicas=3, ack_quorum=2)
        primary.execute("INSERT INTO kv VALUES (?, ?)", (10, "durable"))
        acked = [r for r in replica_set.replicas if r.csn == primary.last_csn]
        # Exactly the quorum is synchronous; the rest catch up later.
        assert len(acked) == 2
        assert replica_set.stats["quorum_commits"] >= 1
        behind = [r for r in replica_set.replicas if r.csn < primary.last_csn]
        assert len(behind) == 1
        replica_set.catch_up()
        assert all(r.csn == primary.last_csn for r in replica_set.replicas)

    def test_quorum_skips_crashed_replicas(self):
        primary = make_primary()
        replica_set = ReplicaSet(primary, n_replicas=3, ack_quorum=2)
        crashed = replica_set.replicas[0]
        crashed.database.crashed = True
        primary.execute("INSERT INTO kv VALUES (?, ?)", (11, "skip"))
        assert crashed.csn < primary.last_csn
        acked = [
            r
            for r in replica_set.replicas[1:]
            if r.csn == primary.last_csn
        ]
        assert len(acked) == 2

    def test_quorum_not_met_raises_after_primary_applied(self):
        """Losing the quorum surfaces as an error, but the write is
        durable on the primary and in the ship log — recovery replays
        it, it is never silently dropped."""
        primary = make_primary()
        replica_set = ReplicaSet(primary, n_replicas=2, ack_quorum=2)
        for replica in replica_set.replicas:
            replica.database.crashed = True
        before = primary.last_csn
        with pytest.raises(ReplicationError, match="quorum not met"):
            primary.execute("INSERT INTO kv VALUES (?, ?)", (12, "short"))
        assert primary.last_csn == before + 1
        assert (
            primary.execute("SELECT v FROM kv WHERE k = ?", (12,)).scalar()
            == "short"
        )
        assert replica_set.log.last_seq > 0
        # Revived replicas converge from the log: durability was only
        # ever deferred, not lost.
        for replica in replica_set.replicas:
            replica.database.crashed = False
        replica_set.catch_up()
        for replica in replica_set.replicas:
            assert (
                replica.database.execute(
                    "SELECT v FROM kv WHERE k = ?", (12,)
                ).scalar()
                == "short"
            )

