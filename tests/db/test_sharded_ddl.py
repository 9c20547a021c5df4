"""Sharded DDL has one fan-out: ``create_table`` and SQL CREATE TABLE
change every shard or none, and leave every shard with shard 0's
catalog."""

import pytest

from repro.db import ShardedDatabase
from repro.db.schema import Column, ColumnType, TableSchema
from repro.errors import SchemaError

NEW_T = TableSchema(
    "t", [Column("k", ColumnType.INTEGER), Column("v", ColumnType.TEXT)]
)


def diverged_cluster() -> ShardedDatabase:
    """Three shards, the last already holding a different ``t``."""
    sharded = ShardedDatabase(3, name="ddl")
    sharded.shard_named("shard2").execute("CREATE TABLE t (other TEXT)")
    return sharded


def layouts(sharded: ShardedDatabase) -> dict:
    return {
        store: shard.catalog.get("t").column_names
        if shard.catalog.has_table("t")
        else None
        for store, shard in sharded.named_shards()
    }


UNCHANGED = {"shard0": None, "shard1": None, "shard2": ("other",)}


class TestCreateEverywhereOrNowhere:
    def test_create_table_refused_by_one_shard_changes_none(self):
        sharded = diverged_cluster()
        with pytest.raises(SchemaError):
            sharded.create_table(NEW_T, shard_key="k")
        assert layouts(sharded) == UNCHANGED
        assert sharded.router.key_column("t") is None

    def test_sql_create_table_refused_by_one_shard_changes_none(self):
        sharded = diverged_cluster()
        with pytest.raises(SchemaError):
            sharded.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        assert layouts(sharded) == UNCHANGED
        assert sharded.router.key_column("t") is None

    def test_create_table_succeeds_on_every_shard(self):
        sharded = ShardedDatabase(3, name="ddl")
        sharded.create_table(NEW_T, shard_key="v")
        assert set(layouts(sharded).values()) == {("k", "v")}
        assert sharded.router.key_column("t") == "v"


    @pytest.mark.parametrize("holder", ["shard0", "shard2"])
    def test_if_not_exists_meeting_a_different_table_changes_none(self, holder):
        sharded = ShardedDatabase(3, name="ddl")
        sharded.shard_named(holder).execute("CREATE TABLE t (other TEXT)")
        with pytest.raises(SchemaError, match="diverges from shard0"):
            sharded.execute("CREATE TABLE IF NOT EXISTS t (k INTEGER, v TEXT)")
        assert layouts(sharded) == {
            store: ("other",) if store == holder else None
            for store in sharded.store_names
        }
        assert sharded.router.key_column("t") is None

    def test_if_not_exists_meeting_the_same_table_succeeds(self):
        sharded = ShardedDatabase(3, name="ddl")
        sharded.shard_named("shard2").execute("CREATE TABLE t (k INTEGER, v TEXT)")
        sharded.execute("CREATE TABLE IF NOT EXISTS t (k INTEGER, v TEXT)")
        assert set(layouts(sharded).values()) == {("k", "v")}
        assert len({shard.catalog_shape for shard in sharded.shards}) == 1
        assert sharded.router.key_column("t") == "k"
