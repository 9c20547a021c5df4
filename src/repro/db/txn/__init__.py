"""Transaction subsystem: locking, write-ahead logging, lifecycle."""

from repro.db.txn.locks import LockManager, LockMode
from repro.db.txn.manager import (
    IsolationLevel,
    ReadSet,
    ScanRead,
    Transaction,
    TransactionManager,
    TransactionStatus,
)
from repro.db.txn.wal import WalCommit, WriteAheadLog

__all__ = [
    "IsolationLevel",
    "LockManager",
    "LockMode",
    "ReadSet",
    "ScanRead",
    "Transaction",
    "TransactionManager",
    "TransactionStatus",
    "WalCommit",
    "WriteAheadLog",
]
