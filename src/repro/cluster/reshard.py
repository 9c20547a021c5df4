"""Online resharding: migrate a sharded cluster N -> M stores, live.

The protocol (each phase is cooperative — the migration runs as a
scheduler task and yields between chunks, so 2PC writers keep
committing throughout):

1. **Tap** every old shard with a :class:`~repro.db.replication.
   ReplicationLog` — from this point no commit can escape the migration.
2. **Provision** M fresh stores carrying the cluster's schema, indexes,
   aliases and storage (:meth:`~repro.db.database.Database.empty_like`).
3. **Snapshot copy**: under a SNAPSHOT transaction per old shard, scan
   every table in chunks and insert each row into its new owner (the new
   M-way hash ring). Row ids are assigned fresh — ids are only unique
   per store, so N stores' ids cannot be preserved into M — and an id
   map ``(old store, table, old row id) -> (new store, new row id)``
   records every placement.
4. **Delta catch-up**: replay tapped commits past each shard's snapshot
   CSN, re-hashed onto the new owners through the id map. Rounds repeat
   (yielding between them) until a round finds the logs nearly drained.
5. **Fence and swap**: raise the write fence (new write transactions
   park; reads continue), wait out in-flight writers, drain the final
   deltas, verify no DDL slipped in (catalog epochs unchanged), then
   atomically swap the router/store-map/coordinator via
   :meth:`~repro.db.sharding.ShardedDatabase.apply_reshard` and lift
   the fence. The old primaries are fenced so stray references fail
   loudly instead of accepting orphaned writes.

Invariants: the global CSN clock and aligned log survive (a synthetic
aligned commit maps the new stores' positions at the swap); AS-OF reads
below the new reshard horizon raise
:class:`~repro.errors.TimeTravelError`; every row sits on its hash
owner afterwards, so ``ShardedDatabase(databases=...)`` adoption checks
would pass on the new stores.
"""

from __future__ import annotations

from typing import Any

from repro.db.replication import ReplicationLog, ShipRecord
from repro.db.sharding import ShardedDatabase, ShardRouter
from repro.db.txn.manager import IsolationLevel
from repro.errors import ReplicationError, SchemaError, TransactionError
from repro.runtime.scheduler import CheckpointKind, maybe_checkpoint

#: Delta-catch-up rounds before fencing regardless of remaining lag: the
#: fence absorbs whatever is left, it just stays up a little longer.
_MAX_LIVE_ROUNDS = 1000


class _Migration:
    """State for one N -> M migration (id map, taps, counters)."""

    def __init__(self, sharded: ShardedDatabase, n_shards: int):
        self.sharded = sharded
        self.old_named = sharded.named_shards()
        self.template = self.old_named[0][1]
        new_names = [f"shard{i}" for i in range(n_shards)]
        self.router = ShardRouter(new_names)
        self.router._keys = dict(sharded.router._keys)
        self.new_stores = {
            name: self.template.empty_like(f"{sharded.name}-{name}")
            for name in new_names
        }
        #: (old store, table, old row id) -> (new store, new row id).
        self.id_map: dict[tuple[str, str, int], tuple[str, int]] = {}
        self.taps = {store: ReplicationLog(db) for store, db in self.old_named}
        self.applied_seq = {store: 0 for store, _ in self.old_named}
        self.snap_csns: dict[str, int] = {}
        self.stats: dict[str, Any] = {
            "rows_copied": 0,
            "deltas_applied": 0,
            "catchup_rounds": 0,
            "old_shards": len(self.old_named),
            "new_shards": n_shards,
        }

    def detach(self) -> None:
        for tap in self.taps.values():
            tap.detach()

    # -- phase 3: snapshot copy -------------------------------------------

    def copy_snapshot(self, chunk_size: int) -> None:
        for store, db in self.old_named:
            snap = db.begin(IsolationLevel.SNAPSHOT)
            self.snap_csns[store] = snap.snapshot_csn
            try:
                for table in db.catalog.table_names():
                    chunk: list[tuple[int, tuple]] = []
                    for row_id, values in snap.scan(table):
                        chunk.append((row_id, values))
                        if len(chunk) >= chunk_size:
                            self._copy_chunk(store, table, chunk)
                            chunk = []
                            maybe_checkpoint(
                                CheckpointKind.SCAN_BATCH, "reshard-copy"
                            )
                    if chunk:
                        self._copy_chunk(store, table, chunk)
            finally:
                snap.abort()

    def _copy_chunk(
        self, store: str, table: str, chunk: list[tuple[int, tuple]]
    ) -> None:
        schema = self.template.catalog.get(table)
        by_owner: dict[str, list[tuple[int, tuple]]] = {}
        for row_id, values in chunk:
            owner = self.router.shard_for_row(table, schema, values)
            by_owner.setdefault(owner, []).append((row_id, values))
        for owner, rows in by_owner.items():
            txn = self.new_stores[owner].begin()
            try:
                for old_id, values in rows:
                    new_id = txn.insert(table, values)
                    self.id_map[(store, table, old_id)] = (owner, new_id)
                txn.commit()
            except Exception:
                txn.abort()
                raise
        self.stats["rows_copied"] += len(chunk)

    # -- phase 4: delta catch-up ------------------------------------------

    def drain(self, store: str) -> int:
        """Replay tapped records past the snapshot CSN onto new owners."""
        applied = 0
        for record in self.taps[store].since(self.applied_seq[store]):
            self.applied_seq[store] = record.seq
            if record.kind == "ddl":
                raise ReplicationError(
                    "DDL landed during resharding (before the fence); "
                    "the migration cannot carry a schema change — aborted"
                )
            if record.csn <= self.snap_csns[store]:
                continue  # already inside the snapshot copy
            self._apply_delta(store, record)
            applied += 1
        self.taps[store].release(self.applied_seq[store])
        return applied

    def drain_all(self) -> int:
        return sum(self.drain(store) for store, _ in self.old_named)

    def _apply_delta(self, store: str, record: ShipRecord) -> None:
        if not record.changes:
            return  # empty commit: only the old shard's CSN clock moved
        by_owner: dict[str, list[tuple[str, str, int, tuple | None]]] = {}
        for change in record.changes:
            table = self.template.catalog.resolve(change.table)
            if change.op == "insert":
                schema = self.template.catalog.get(table)
                owner = self.router.shard_for_row(table, schema, change.values)
            else:
                placed = self.id_map.get((store, table, change.row_id))
                if placed is None:
                    raise ReplicationError(
                        f"delta {change.op} on {store}/{table} row "
                        f"{change.row_id} references a row the migration "
                        "never placed; the tap stream has a gap"
                    )
                owner = placed[0]
            by_owner.setdefault(owner, []).append(
                (change.op, table, change.row_id, change.values)
            )
        for owner, changes in by_owner.items():
            txn = self.new_stores[owner].begin()
            try:
                for op, table, old_id, values in changes:
                    if op == "insert":
                        new_id = txn.insert(table, values)
                        self.id_map[(store, table, old_id)] = (owner, new_id)
                    elif op == "update":
                        _owner, new_id = self.id_map[(store, table, old_id)]
                        txn.update(table, new_id, values)
                    else:  # delete
                        _owner, new_id = self.id_map.pop((store, table, old_id))
                        txn.delete(table, new_id)
                txn.commit()
            except Exception:
                txn.abort()
                raise
        self.stats["deltas_applied"] += 1


def reshard(
    sharded: ShardedDatabase,
    n_shards: int,
    chunk_size: int = 128,
) -> dict[str, Any]:
    """Migrate ``sharded`` to ``n_shards`` stores under live 2PC traffic.

    Returns the migration's stats dict (rows copied, deltas applied,
    rounds, and ``horizon`` — the new reshard-horizon global CSN).
    Raises without touching the visible topology if the migration cannot
    complete (DDL mid-copy, a stuck writer); the fence is always lifted.
    """
    if n_shards < 1:
        raise SchemaError("a sharded database needs at least one shard")
    if chunk_size < 1:
        raise SchemaError(f"chunk size must be >= 1, got {chunk_size}")
    if sharded._resharding:
        raise TransactionError(
            f"a reshard of {sharded.name!r} is already in progress"
        )
    sharded._resharding = True
    migration = _Migration(sharded, n_shards)
    try:
        migration.copy_snapshot(chunk_size)
        # Live catch-up: repeat until a round finds the taps (nearly)
        # dry. Writers keep committing between rounds; the fence below
        # absorbs whatever trickles in after the last live round.
        for _round in range(_MAX_LIVE_ROUNDS):
            applied = migration.drain_all()
            migration.stats["catchup_rounds"] += 1
            if applied < chunk_size:
                break
            maybe_checkpoint(CheckpointKind.SCAN_BATCH, "reshard-catchup")
        epochs = sharded._epochs()
        sharded.fence_writes()
        try:
            sharded.drain_writers()
            migration.drain_all()
            if sharded._epochs() != epochs:  # pragma: no cover - drain raises first
                raise ReplicationError(
                    "schema changed during resharding; migration aborted"
                )
            old_named = migration.old_named
            migration.stats["horizon"] = sharded.apply_reshard(
                migration.new_stores
            )
        finally:
            sharded.unfence_writes()
        # Old primaries are out of the topology; fence them so any stray
        # reference fails loudly instead of committing into a void.
        for _store, db in old_named:
            db.fenced = True
        return migration.stats
    finally:
        migration.detach()
        sharded._resharding = False
