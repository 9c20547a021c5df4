"""Time travel: reconstructing past database states from the version store.

Replay (§3.5) needs "the database as of right before transaction T". Every
commit stamps versions with its CSN, so any historical state up to the
vacuum horizon can be materialized, either wholesale or restricted to the
tables a replay actually touches (the paper's "only restore those data
items used in replayed transactions" optimization — ablation A1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.errors import TimeTravelError, TransactionError

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.database import Database
    from repro.db.sharding import ShardedDatabase


class TimeTravel:
    """Historical reads and restores over one database."""

    def __init__(self, database: "Database"):
        self._db = database

    def _check_horizon(self, csn: int) -> None:
        if csn < self._db.history_horizon:
            raise TimeTravelError(
                f"csn {csn} predates the vacuum horizon "
                f"({self._db.history_horizon})"
            )
        if csn > self._db.txn_manager.last_csn:
            raise TimeTravelError(
                f"csn {csn} is in the future (last committed is "
                f"{self._db.txn_manager.last_csn})"
            )

    def rows_as_of(self, table: str, csn: int) -> list[tuple[int, tuple]]:
        """``(row_id, values)`` pairs of ``table`` as of commit ``csn``."""
        self._check_horizon(csn)
        return list(self._db.store(table).scan(csn))

    def state_as_of(
        self, csn: int, tables: Iterable[str] | None = None
    ) -> dict[str, list[dict[str, Any]]]:
        """Full snapshot (as column dicts) of selected tables at ``csn``."""
        self._check_horizon(csn)
        names = (
            [self._db.catalog.resolve(t) for t in tables]
            if tables is not None
            else [n.lower() for n in self._db.catalog.table_names()]
        )
        out: dict[str, list[dict[str, Any]]] = {}
        for name in names:
            schema = self._db.catalog.get(name)
            out[schema.name] = [
                schema.row_dict(values)
                for _row_id, values in self._db.store(name).scan(csn)
            ]
        return out

    def csn_before_txn(self, txn_id: int) -> int:
        """The CSN of the state a committed transaction started from.

        With strict serializability, "the snapshot right before TXN"
        (§3.5's replay starting point) is simply its commit CSN minus one.
        """
        csn = self._db.txn_manager.csn_of(txn_id)
        if csn is None:
            raise TimeTravelError(f"txn {txn_id} never committed")
        return csn - 1

    def restore_into(
        self,
        target: "Database",
        csn: int,
        tables: Iterable[str] | None = None,
        create_schemas: bool = True,
    ) -> dict[str, int]:
        """Materialize the state at ``csn`` into ``target`` (a dev database).

        Row ids are preserved so provenance row references stay valid in
        the restored database. Returns per-table restored row counts.
        """
        self._check_horizon(csn)
        names = (
            [self._db.catalog.resolve(t) for t in tables]
            if tables is not None
            else [n.lower() for n in self._db.catalog.table_names()]
        )
        counts: dict[str, int] = {}
        for name in names:
            schema = self._db.catalog.get(name)
            if not target.catalog.has_table(name):
                if not create_schemas:
                    raise TimeTravelError(
                        f"target database is missing table {schema.name!r}"
                    )
                target.create_table(schema)
            rows = list(self._db.store(name).scan(csn))
            target.bulk_load(schema.name, rows)
            counts[schema.name] = len(rows)
        return counts


class ShardedTimeTravel:
    """Historical reads over a :class:`~repro.db.sharding.ShardedDatabase`.

    A global CSN (a position in the coordinator's aligned commit log)
    translates onto per-shard local CSNs, and each shard answers from its
    own version store at that local position — so an ``AS OF`` read sees
    exactly the cross-shard state some global commit produced, never a
    torn state with one shard ahead of another.
    """

    def __init__(self, sharded: "ShardedDatabase"):
        self._sharded = sharded

    def local_csns_at(self, global_csn: int) -> dict[str, int]:
        """Per-shard local commit positions for a global CSN."""
        try:
            return self._sharded.coordinator.local_csns_at(global_csn)
        except TransactionError as exc:
            raise TimeTravelError(str(exc)) from None

    def _shards_at(
        self, global_csn: int, prefer_replicas: bool
    ) -> Iterator[tuple["Database", int]]:
        """``(serving database, local csn)`` per shard for a global CSN.

        With ``prefer_replicas`` each shard's
        :meth:`~repro.db.replication.ReplicaSet.as_of_target` names the
        database: replicas preserve CSNs, so one whose shipped history
        covers the local CSN serves the read identically — offloading
        AS-OF traffic from the primary exactly like the live read path.
        """
        local_csns = self.local_csns_at(global_csn)
        for store, shard in self._sharded.named_shards():
            replica_set = self._sharded.replica_sets.get(store)
            if prefer_replicas and replica_set is not None:
                shard = replica_set.as_of_target(local_csns[store])
            yield shard, local_csns[store]

    def rows_as_of(
        self, table: str, global_csn: int, prefer_replicas: bool = False
    ) -> list[dict[str, Any]]:
        """All rows of ``table`` across shards, as of a global commit."""
        out: list[dict[str, Any]] = []
        for shard, local_csn in self._shards_at(global_csn, prefer_replicas):
            schema = shard.catalog.get(table)
            out.extend(
                schema.row_dict(values)
                for _row_id, values in TimeTravel(shard).rows_as_of(
                    table, local_csn
                )
            )
        return out

    def state_as_of(
        self,
        global_csn: int,
        tables: Iterable[str] | None = None,
        prefer_replicas: bool = False,
    ) -> dict[str, list[dict[str, Any]]]:
        """Merged cross-shard snapshot of selected tables at a global CSN."""
        out: dict[str, list[dict[str, Any]]] = {}
        for shard, local_csn in self._shards_at(global_csn, prefer_replicas):
            for name, rows in TimeTravel(shard).state_as_of(
                local_csn, tables
            ).items():
                out.setdefault(name, []).extend(rows)
        return out
