"""Paged :class:`TableStore`: version payloads live in slotted pages.

:class:`PagedTableStore` subclasses the in-memory store and overrides
only the version-lifecycle hooks — every ``apply_*`` method, the live-row
caches, ``write_epoch``/``last_write_csn`` semantics, pinned scans, and
the snapshot bisect read path are inherited unchanged, which is what
keeps the SQL executor, compiled batch path, sharding, and replication
running unmodified on top.

A :class:`PagedVersion` keeps the MVCC metadata (``row_id``, ``begin``,
``end``) in memory — chains still bisect without touching disk — but its
``values`` live in a page record and are decoded through the buffer pool
on demand. Sealing a version patches the 8-byte ``end`` field in place.

Durability protocol:

- Writes go to pool frames; eviction may push them to disk early.
- ``flush(csn)`` (checkpoint) writes back every dirty frame, then
  durably records ``flushed_csn = csn`` in the file header.
- ``load`` scans the pages, rebuilds chains (normalizing ``end`` stamps
  that a crash left stale), and the database replays only the WAL tail
  above ``flushed_csn`` through :meth:`reconcile`, which is idempotent —
  pages flushed after the last checkpoint replay as no-ops.
"""

from __future__ import annotations

import bisect
import struct
from operator import attrgetter

from repro.db.pages.buffer import BufferPool
from repro.db.pages.file_manager import PageFile, PageFileManager
from repro.db.pages.page import (
    FLAG_INLINE,
    FLAG_OVERFLOW,
    HEADER_SIZE,
    KIND_DATA,
    KIND_OVERFLOW,
    OVERFLOW_REF,
    RECORD_END_OFFSET,
    RECORD_HEADER,
    SLOT_SIZE,
    Page,
    decode_values,
    encode_record,
    encode_values,
)
from repro.db.schema import TableSchema
from repro.db.storage import TableStore
from repro.db.txn.wal import WalChange
from repro.errors import PageCorruptError, StorageError, WalError

_BEGIN = attrgetter("begin")
_END_PATCH = struct.Struct("<q")


def _reclaim_orphan_pages(
    file: PageFile,
    data_pages: set[int],
    overflow_refs: list[int],
    overflow_next: dict[int, int | None],
) -> int:
    """Return crash-orphaned pages to the file's free list.

    A checkpoint that crashes partway can flush an overflow chain whose
    owning data record never reached disk; WAL replay then reconciles the
    insert by writing a *fresh* chain, so the flushed one is permanently
    unreferenced — invisible to ``load`` (which follows data records) and
    absent from the free list. The same crash can leave all-zero holes
    from out-of-order file extension, or ``KIND_FREE`` pages stamped after
    the last durable header (unreachable from the recovered free head).

    Called at the end of the recovery scan, before WAL replay: any
    allocated page that is neither a data page, an overflow page reachable
    from a data record, nor already on the free list is stamped free, so
    the tail replay's allocations reuse it instead of growing the file.
    """
    referenced: set[int] = set()
    stack = list(overflow_refs)
    while stack:
        page_id = stack.pop()
        if page_id in referenced:
            continue
        referenced.add(page_id)
        next_id = overflow_next.get(page_id)
        if next_id is not None:
            stack.append(next_id)
    on_free_list: set[int] = set()
    head = file.free_head
    while head is not None and head not in on_free_list:
        on_free_list.add(head)
        try:
            head = file.read_page(head).free_next()
        except (PageCorruptError, StorageError):
            break  # broken tail; the sweep below re-frees what it finds
    reclaimed = 0
    for page_id in range(file.npages):
        if (
            page_id in data_pages
            or page_id in referenced
            or page_id in on_free_list
        ):
            continue
        file.free(page_id)
        reclaimed += 1
    return reclaimed


class PagedVersion:
    """One committed row version whose payload lives in a page record.

    Duck-types :class:`~repro.db.storage.RowVersion`: same fields, same
    ``visible_at``, but ``values`` is a lazy read through the buffer
    pool. Holds a reference to its :class:`PageFile` so versions pinned
    by long snapshot scans keep reading the pre-vacuum file even after a
    compact-rewrite replaced it on disk.
    """

    __slots__ = ("row_id", "begin", "end", "file", "page_id", "slot", "store")

    def __init__(
        self,
        row_id: int,
        begin: int,
        end: int | None,
        file: PageFile,
        page_id: int,
        slot: int,
        store: "PagedTableStore",
    ):
        self.row_id = row_id
        self.begin = begin
        self.end = end
        self.file = file
        self.page_id = page_id
        self.slot = slot
        self.store = store

    @property
    def values(self) -> tuple:
        return self.store._read_version_values(self)

    def visible_at(self, csn: int) -> bool:
        if self.begin > csn:
            return False
        return self.end is None or self.end > csn


class PagedTableStore(TableStore):
    """Versioned storage for one table, backed by a page file."""

    def __init__(
        self,
        schema: TableSchema,
        manager: PageFileManager,
        pool: BufferPool,
        table_key: str,
        file: PageFile,
    ):
        super().__init__(schema)
        self._manager = manager
        self._pool = pool
        self._table_key = table_key
        self._file = file
        #: Current partially-filled data page (append target), or None.
        self._fill_pid: int | None = None
        #: Every commit at or below this CSN is durable in the data pages
        #: (recorded in the file header at checkpoint).
        self.flushed_csn: int = file.meta.get("flushed_csn", 0)
        #: Pages returned to the free list by the recovery orphan sweep.
        self.orphan_pages_reclaimed: int = 0

    # -- version lifecycle hooks ------------------------------------------

    def _new_version(self, row_id: int, begin: int, values: tuple) -> PagedVersion:
        return self._write_record(row_id, begin, None, values)

    def _seal_version(self, version: PagedVersion, end: int) -> None:
        version.end = end
        frame = self._pool.fetch(version.file, version.page_id)
        try:
            frame.page.patch_record(
                version.slot, RECORD_END_OFFSET, _END_PATCH.pack(end)
            )
        finally:
            self._pool.release(frame, dirty=True)

    # -- record I/O --------------------------------------------------------

    def _max_inline(self) -> int:
        return self._file.page_size - HEADER_SIZE - SLOT_SIZE

    def _write_record(
        self, row_id: int, begin: int, end: int | None, values: tuple
    ) -> PagedVersion:
        payload = encode_values(values)
        record = encode_record(row_id, begin, end, FLAG_INLINE, payload)
        if len(record) > self._max_inline():
            first = self._write_overflow_chain(payload)
            record = encode_record(
                row_id, begin, end, FLAG_OVERFLOW,
                OVERFLOW_REF.pack(first, len(payload)),
            )
        frame, slot = self._append_record(record)
        version = PagedVersion(
            row_id, begin, end, self._file, frame.page.page_id, slot, self
        )
        self._pool.release(frame, dirty=True)
        return version

    def _append_record(self, record: bytes):
        pool, file = self._pool, self._file
        if self._fill_pid is not None:
            frame = pool.fetch(file, self._fill_pid)
            slot = frame.page.insert_record(record)
            if slot is not None:
                return frame, slot
            pool.release(frame)
        page_id = file.allocate()
        page = Page(page_id, file.page_size, kind=KIND_DATA)
        frame = pool.adopt(file, page)
        slot = page.insert_record(record)
        if slot is None:  # pragma: no cover - overflow path prevents this
            pool.release(frame)
            raise StorageError(
                f"{self.schema.name}: record of {len(record)} bytes does not "
                f"fit an empty page"
            )
        self._fill_pid = page_id
        return frame, slot

    def _write_overflow_chain(self, payload: bytes) -> int:
        file, pool = self._file, self._pool
        capacity = Page.overflow_capacity(file.page_size)
        chunks = [payload[i : i + capacity] for i in range(0, len(payload), capacity)]
        page_ids = [file.allocate() for _ in chunks]
        for index, chunk in enumerate(chunks):
            page = Page(page_ids[index], file.page_size, kind=KIND_OVERFLOW)
            next_id = page_ids[index + 1] if index + 1 < len(page_ids) else None
            page.set_overflow(next_id, chunk)
            frame = pool.adopt(file, page)
            pool.release(frame, dirty=True)
        return page_ids[0]

    def _read_version_values(self, version: PagedVersion) -> tuple:
        pool = self._pool
        frame = pool.fetch(version.file, version.page_id)
        try:
            record = frame.page.read_record(version.slot)
            flags = record[RECORD_HEADER.size - 1]
            payload = bytes(record[RECORD_HEADER.size :])
        finally:
            pool.release(frame)
        if flags == FLAG_OVERFLOW:
            first, total = OVERFLOW_REF.unpack(payload[: OVERFLOW_REF.size])
            payload = self._read_overflow_chain(version.file, first, total)
        return decode_values(payload)

    def _read_overflow_chain(
        self, file: PageFile, first_page: int, total_len: int
    ) -> bytes:
        pool = self._pool
        parts: list[bytes] = []
        next_id: int | None = first_page
        while next_id is not None:
            frame = pool.fetch(file, next_id)
            try:
                next_id, chunk = frame.page.read_overflow()
            finally:
                pool.release(frame)
            parts.append(chunk)
        payload = b"".join(parts)
        if len(payload) != total_len:
            raise StorageError(
                f"{self.schema.name}: overflow chain from page {first_page} "
                f"yielded {len(payload)} bytes, expected {total_len}"
            )
        return payload

    # -- checkpoint / durability ------------------------------------------

    def flush(self, csn: int) -> None:
        """Make every commit at or below ``csn`` durable in the pages."""
        self._pool.flush_file(self._file)
        self._file.write_header(
            flushed_csn=csn, next_row_id=self._next_row_id
        )
        self.flushed_csn = csn

    # -- recovery ----------------------------------------------------------

    @classmethod
    def load(
        cls,
        schema: TableSchema,
        manager: PageFileManager,
        pool: BufferPool,
        table_key: str,
    ) -> "PagedTableStore":
        """Rebuild a store from its page file (no WAL replay here)."""
        file = manager.open(table_key)
        store = cls(schema, manager, pool, table_key, file)
        chains: dict[int, list[PagedVersion]] = {}
        max_row_id = 0
        max_csn = 0
        fill_pid = None
        data_pages: set[int] = set()
        overflow_refs: list[int] = []
        overflow_next: dict[int, int | None] = {}
        for page in file.scan_pages():
            if page.kind == KIND_OVERFLOW:
                overflow_next[page.page_id] = page.overflow_next()
                continue
            if page.kind != KIND_DATA:
                continue
            data_pages.add(page.page_id)
            for slot, record in page.records():
                row_id, begin, enc_end, flags = RECORD_HEADER.unpack_from(record, 0)
                end = None if enc_end == -1 else enc_end
                if flags == FLAG_OVERFLOW:
                    overflow_refs.append(
                        OVERFLOW_REF.unpack_from(record, RECORD_HEADER.size)[0]
                    )
                version = PagedVersion(
                    row_id, begin, end, file, page.page_id, slot, store
                )
                chains.setdefault(row_id, []).append(version)
                max_row_id = max(max_row_id, row_id)
                max_csn = max(max_csn, begin, end or 0)
            if page.free_space() > 0:
                fill_pid = page.page_id
        for chain in chains.values():
            chain.sort(key=_BEGIN)
            # A crash can leave a superseded version's end stamp stale
            # (its page missed the flush that carried its successor).
            # Chains are begin-ordered and versions never overlap, so a
            # non-tail version left open, or ending after its successor
            # begins, ends at that begin; restore it, on disk too. An
            # end before the successor's begin is a delete followed by a
            # re-insert under the same row id, and stays.
            for current, successor in zip(chain, chain[1:]):
                if current.end is None or current.end > successor.begin:
                    store._seal_version(current, successor.begin)
        store._versions = chains
        store._next_row_id = max(
            max_row_id + 1, file.meta.get("next_row_id", 1)
        )
        store.last_write_csn = max_csn
        store._fill_pid = fill_pid
        store.orphan_pages_reclaimed = _reclaim_orphan_pages(
            file, data_pages, overflow_refs, overflow_next
        )
        store._rebuild_caches()
        store.write_epoch = 0
        return store

    def reconcile(self, change: WalChange, csn: int) -> bool:
        """Idempotently redo one WAL change during recovery.

        Data pages may already contain any suffix of the replayed tail
        (buffer-pool evictions push pages newer than the checkpoint
        header). Returns True if the change actually mutated the store.

        Only used during recovery, before any reader exists: live/scan
        caches are not maintained here — the database rebuilds them once
        after the full tail is replayed (:meth:`finish_recovery`).
        """
        row_id = change.row_id
        chain = self._versions.get(row_id)
        if change.op == "insert":
            index = (
                bisect.bisect_right(chain, csn, key=_BEGIN) if chain else 0
            )
            if chain and index > 0 and chain[index - 1].begin == csn:
                return False  # already on disk
            next_begin = chain[index].begin if chain and index < len(chain) else None
            version = self._write_record(row_id, csn, next_begin, change.values)
            if chain is None:
                self._versions[row_id] = [version]
            else:
                chain.insert(index, version)
            if row_id >= self._next_row_id:
                self._next_row_id = row_id + 1
        elif change.op == "update":
            if not chain:
                raise WalError(
                    f"{self.schema.name}: WAL update of unknown row {row_id}"
                )
            index = bisect.bisect_right(chain, csn, key=_BEGIN)
            if index > 0 and chain[index - 1].begin == csn:
                return False
            if index == 0:
                raise WalError(
                    f"{self.schema.name}: WAL update of row {row_id} at csn "
                    f"{csn} precedes its first version"
                )
            predecessor = chain[index - 1]
            if predecessor.end is None or predecessor.end > csn:
                self._seal_version(predecessor, csn)
            next_begin = chain[index].begin if index < len(chain) else None
            version = self._write_record(row_id, csn, next_begin, change.values)
            chain.insert(index, version)
        elif change.op == "delete":
            if not chain:
                raise WalError(
                    f"{self.schema.name}: WAL delete of unknown row {row_id}"
                )
            index = bisect.bisect_right(chain, csn, key=_BEGIN)
            if index == 0:
                raise WalError(
                    f"{self.schema.name}: WAL delete of row {row_id} at csn "
                    f"{csn} precedes its first version"
                )
            victim = chain[index - 1]
            if victim.end is not None and victim.end <= csn:
                return False  # already sealed on disk
            self._seal_version(victim, csn)
        else:  # pragma: no cover - constructed only by our code
            raise WalError(f"unknown WAL op {change.op!r}")
        self.last_write_csn = max(self.last_write_csn, csn)
        return True

    def finish_recovery(self) -> None:
        """Rebuild the live/scan caches after the WAL tail is replayed."""
        self._rebuild_caches()
        self.write_epoch = 0

    # -- maintenance -------------------------------------------------------

    def vacuum(self, keep_after_csn: int) -> int:
        """Drop dead versions by compact-rewriting into a fresh file.

        The old file object is kept alive by any still-pinned versions
        (snapshot scans started before the vacuum read the unlinked
        inode); new reads and writes go to the compacted file.
        """
        old_file = self._file
        old_fill = self._fill_pid
        new_file = self._manager.start_rewrite(self._table_key)
        removed = 0
        new_versions: dict[int, list[PagedVersion]] = {}
        self._file = new_file
        self._fill_pid = None
        try:
            for row_id in sorted(self._versions):
                chain = self._versions[row_id]
                kept = [
                    v for v in chain if v.end is None or v.end > keep_after_csn
                ]
                removed += len(chain) - len(kept)
                if not kept:
                    continue
                new_versions[row_id] = [
                    self._write_record(v.row_id, v.begin, v.end, v.values)
                    for v in kept
                ]
        except BaseException:
            self._file = old_file
            self._fill_pid = old_fill
            self._manager.abort_rewrite(new_file)
            raise
        # Persist the compacted state, then swap it in. The rewrite holds
        # everything the store has applied, so the new header's
        # flushed_csn can advance to the newest applied commit.
        flushed = max(self.flushed_csn, self.last_write_csn)
        self._pool.flush_file(new_file)
        new_file.write_header(
            flushed_csn=flushed, next_row_id=self._next_row_id
        )
        # Old dirty frames must reach the old file before its frames are
        # dropped: pinned snapshot readers re-read it through the pool.
        self._pool.flush_file(old_file)
        self._manager.commit_rewrite(self._table_key, new_file)
        self._pool.drop_file(old_file)
        self.flushed_csn = flushed
        self._versions = new_versions
        self._rebuild_caches()
        return removed

    # -- stats -------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        base = super().stats()
        base["file_pages"] = self._file.npages
        base["flushed_csn"] = self.flushed_csn
        base["orphan_pages_reclaimed"] = self.orphan_pages_reclaimed
        return base
