"""Durable paged storage tier: slotted pages, page files, buffer pool.

Opt in via ``Database(storage="paged", data_dir=...)``; a replica or a
reshard target provisioned from a paged database is paged too. See
``docs/storage.md``.
"""

from repro.db.pages.buffer import DEFAULT_POOL_PAGES, BufferPool, Frame
from repro.db.pages.file_manager import (
    PAGE_FILE_SUFFIX,
    PageFile,
    PageFileManager,
    table_file_name,
)
from repro.db.pages.page import DEFAULT_PAGE_SIZE, Page
from repro.db.pages.store import PagedTableStore, PagedVersion

__all__ = [
    "BufferPool",
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_POOL_PAGES",
    "Frame",
    "PAGE_FILE_SUFFIX",
    "Page",
    "PageFile",
    "PageFileManager",
    "PagedTableStore",
    "PagedVersion",
    "table_file_name",
]
