"""The acceptance bar for the unified API: one statement stream, three
engines, byte-identical results.

A randomized (but seeded) mix of inserts, updates, deletes, point/range
reads, aggregates, and ``AS OF`` probes drives the *same* Connection code
over a single ``Database``, a hash-sharded cluster, and a replica-routed
cluster — the results (including historical reads at per-engine CSN
bookmarks) must match statement for statement.
"""

import os

import pytest

from repro.db import (
    Database,
    ReplicatedDatabase,
    ShardedDatabase,
    connect,
)
from repro.workload.generators import ConnectionWorkload

N_STATEMENTS = 150

#: Workload seeds; CI's chaos-seed matrix adds each of its seeds through
#: ``REPRO_CHAOS_SEED``, the variable ``tests/cluster/test_chaos.py`` reads.
SEEDS = [0, 1, 7]
if os.environ.get("REPRO_CHAOS_SEED"):
    SEEDS.append(int(os.environ["REPRO_CHAOS_SEED"]))


def make_engines():
    sharded = ShardedDatabase(3, shard_keys={"ledger": "acct"})
    return {
        "single": Database(),
        "sharded": sharded,
        "replicated": ReplicatedDatabase(n_replicas=2, mode="async"),
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_same_stream_same_results_on_all_engines(seed):
    fingerprints = {}
    for name, engine in make_engines().items():
        workload = ConnectionWorkload(seed=seed)
        conn = connect(engine)
        workload.seed(conn)
        fingerprints[name] = workload.run(
            conn, N_STATEMENTS, catch_up_every=20
        )
    single = fingerprints.pop("single")
    assert len(single) == N_STATEMENTS
    assert sum(1 for kind, _ in single if kind == "asof") > 0
    for name, prints in fingerprints.items():
        for i, (expected, got) in enumerate(zip(single, prints)):
            assert expected == got, f"{name} diverged at statement {i}"


def test_columns_and_kinds_agree_across_engines():
    """Output column names (not just rows) must match across engines."""
    sql = (
        "SELECT region, COUNT(*) AS n, SUM(balance) FROM ledger "
        "GROUP BY region ORDER BY region"
    )
    results = {}
    for name, engine in make_engines().items():
        workload = ConnectionWorkload(seed=3)
        conn = connect(engine)
        workload.seed(conn)
        results[name] = conn.execute(sql)
    single = results.pop("single")
    for name, result in results.items():
        assert result.columns == single.columns, name
        assert result.rows == single.rows, name


def test_session_guarantees_hold_on_every_engine():
    """Read-your-writes through the connection, even under async lag."""
    for name, engine in make_engines().items():
        workload = ConnectionWorkload(seed=5)
        conn = connect(engine)
        workload.seed(conn)
        for key in (1, 2, 3):
            conn.execute(
                "UPDATE ledger SET balance = ? WHERE acct = ?",
                (7777.0, key),
            )
            observed = conn.execute(
                "SELECT balance FROM ledger WHERE acct = ?", (key,)
            ).scalar()
            assert observed == 7777.0, name
