"""One API, three replicas: session-guaranteed reads over a replica set.

``repro.connect()`` over a `ReplicaSet` bakes read-your-writes in:
each connection carries a session token (the CSN of its last acknowledged
write) and SELECTs are served only by replicas that have applied it,
falling back to the primary when replication lag would violate the
guarantee. ``AS OF`` reads route to any replica whose shipped history
covers the target CSN.

Run:  python examples/replicated_reads.py
"""

import repro
from repro.db import Database, ReplicaSet


def main() -> None:
    cluster = ReplicaSet(Database(name="replicated"), n_replicas=3, mode="async")
    conn = repro.connect(cluster)  # read_preference="replica" is the default

    conn.execute("CREATE TABLE inventory (sku TEXT, stock INTEGER)")
    for i in range(8):
        conn.execute("INSERT INTO inventory VALUES (?, ?)", (f"SKU{i}", 100))
    cluster.catch_up()
    restock_point = conn.last_commit_csn
    routing = cluster.stats  # who answered each read, and why

    # Replicas are now caught up: reads are served by them round-robin.
    for _ in range(6):
        conn.execute("SELECT stock FROM inventory WHERE sku = ?", ("SKU1",))
    print(f"after catch-up: {routing['replica_reads']} replica reads, "
          f"{routing['stale_fallbacks']} stale fallbacks")

    # A write the replicas have NOT applied yet (async shipping): the
    # session floor forces the read back to the primary — the connection
    # never serves you a state older than your own writes.
    conn.execute(
        "UPDATE inventory SET stock = stock - 99 WHERE sku = ?", ("SKU1",)
    )
    seen = conn.execute(
        "SELECT stock FROM inventory WHERE sku = ?", ("SKU1",)
    ).scalar()
    print(f"read-your-writes under lag: stock={seen} "
          f"(stale fallbacks now {routing['stale_fallbacks']})")

    # A *fresh* session has no floor: its reads may legally see the
    # slightly stale replica state until the stream catches up.
    other = repro.connect(cluster)
    stale = other.execute(
        "SELECT stock FROM inventory WHERE sku = ?", ("SKU1",)
    ).scalar()
    cluster.catch_up()
    fresh = other.execute(
        "SELECT stock FROM inventory WHERE sku = ?", ("SKU1",)
    ).scalar()
    print(f"fresh session: saw {stale} before catch-up, {fresh} after")

    # Time travel: replicas preserve CSNs, so AS OF reads are served by
    # whichever replica's history covers the bookmark.
    at_restock = conn.execute(
        "SELECT stock FROM inventory WHERE sku = ? AS OF ?",
        ("SKU1", restock_point),
    ).scalar()
    print(f"stock at AS OF {restock_point}: {at_restock}")

    # Failover: promote the most caught-up replica; the same connection
    # keeps working against the new primary.
    cluster.promote()
    conn.execute("UPDATE inventory SET stock = 500 WHERE sku = ?", ("SKU0",))
    print(f"after failover, writes land on {cluster.primary.name!r}: "
          f"SKU0 stock = "
          f"{conn.execute('SELECT stock FROM inventory WHERE sku = ?', ('SKU0',)).scalar()}")


if __name__ == "__main__":
    main()
