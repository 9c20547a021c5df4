"""Transaction subsystem: locking, write-ahead logging, lifecycle."""

from repro.db.txn.locks import LockManager, LockMode
from repro.db.txn.manager import (
    IsolationLevel,
    ReadRecord,
    Transaction,
    TransactionManager,
    TransactionStatus,
)
from repro.db.txn.wal import WalCommit, WriteAheadLog

__all__ = [
    "IsolationLevel",
    "LockManager",
    "LockMode",
    "ReadRecord",
    "Transaction",
    "TransactionManager",
    "TransactionStatus",
    "WalCommit",
    "WriteAheadLog",
]
