"""The transactional database substrate (paper principles P1/P2).

Public surface:

* :func:`connect` / :class:`Connection` / :class:`Cursor` — the unified
  entry point over every deployment shape (see :mod:`repro.db.connection`);
  ``SELECT ... AS OF <csn>`` is the one way to read past states
* :class:`Engine` — the protocol all deployment shapes implement
* :class:`Database` — embedded multi-version SQL database
* :class:`ShardedDatabase` — hash-partitioned execution over N stores
* :class:`ReplicaSet` — a primary plus log-shipping replicas
* :class:`TableSchema` / :class:`Column` / :class:`ColumnType` — schemas
* :class:`IsolationLevel` / :class:`Transaction` — transaction control
* :class:`ResultSet` / :class:`Row` — query results
* :class:`FencedError` / :class:`UnavailableError` /
  :class:`ReplicationError` — the failover-story exceptions surfaced by
  :func:`connect`'s transparent retry (see ``docs/cluster.md``)
"""

from repro.db.connection import (
    Connection,
    ConnectionPool,
    Cursor,
    Engine,
    connect,
)
from repro.db.database import Database, StatementTrace
from repro.db.replication import (
    Applier,
    Replica,
    ReplicaSet,
    ReplicationLog,
    Session,
    ShipRecord,
)
from repro.db.result import ResultSet, Row
from repro.db.schema import Catalog, Column, TableSchema
from repro.db.sharding import ShardedDatabase, ShardRouter
from repro.db.txn.manager import (
    IsolationLevel,
    ReadSet,
    ScanRead,
    Transaction,
    TransactionStatus,
)
from repro.db.types import ColumnType
from repro.errors import FencedError, ReplicationError, UnavailableError

__all__ = [
    "Applier",
    "Catalog",
    "Column",
    "ColumnType",
    "Connection",
    "ConnectionPool",
    "Cursor",
    "Database",
    "Engine",
    "FencedError",
    "IsolationLevel",
    "ReadSet",
    "Replica",
    "ReplicaSet",
    "ReplicationError",
    "ReplicationLog",
    "ResultSet",
    "Row",
    "ScanRead",
    "Session",
    "ShardRouter",
    "ShardedDatabase",
    "ShipRecord",
    "StatementTrace",
    "TableSchema",
    "Transaction",
    "TransactionStatus",
    "UnavailableError",
    "connect",
]
