"""Capacity-bounded LRU buffer pool.

Every page read or write in the paged storage tier goes through one
:class:`BufferPool` shared by all of a database's page files. Frames are
keyed by ``(space_id, page_id)`` — space ids are unique per
:class:`~repro.db.pages.file_manager.PageFile` instance, so a vacuum
rewrite (new file, new space id) can never alias frames of the file it
replaced.

Pinned frames are never evicted; callers pin for the duration of one
record read or write and release immediately, so pins are short and the
pool can be far smaller than the hot table. Evicting a dirty frame
writes the page back to its file first. That may push state *newer*
than the last durable checkpoint header to disk, which is safe: the
store only ever writes committed data, and recovery replays the WAL
tail with idempotent reconciliation, so disk state anywhere between
"checkpoint exactly" and "latest commit" recovers identically.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from repro.db.pages.file_manager import PageFile
from repro.db.pages.page import Page
from repro.errors import BufferPoolError

DEFAULT_POOL_PAGES = 256


class Frame:
    """One cached page plus its pool bookkeeping."""

    __slots__ = ("page", "file", "pins", "dirty")

    def __init__(self, page: Page, file: PageFile):
        self.page = page
        self.file = file
        self.pins = 0
        self.dirty = False


class BufferPool:
    def __init__(self, capacity: int = DEFAULT_POOL_PAGES):
        if capacity < 1:
            raise BufferPoolError(f"buffer pool capacity {capacity} < 1")
        self.capacity = capacity
        #: (space_id, page_id) -> Frame, in LRU order (oldest first).
        self._frames: OrderedDict[tuple[int, int], Frame] = OrderedDict()
        #: The WAL rule: invoked once before any dirty write-back so the
        #: commits a page reflects are log-durable before the page is.
        #: Without it a group-commit crash could leave a *partial* commit
        #: on disk that tail replay cannot reconcile (its WAL record was
        #: still pending). The database wires this to ``wal.flush``.
        self.before_write: Callable[[], None] | None = None
        self.stats = {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "writebacks": 0,
        }

    # -- fetch / create / release ----------------------------------------

    def fetch(self, file: PageFile, page_id: int) -> Frame:
        """Pin the frame for ``page_id``, reading it from disk on a miss."""
        key = (file.space_id, page_id)
        frame = self._frames.get(key)
        if frame is not None:
            self.stats["hits"] += 1
            self._frames.move_to_end(key)
            frame.pins += 1
            return frame
        self.stats["misses"] += 1
        page = file.read_page(page_id)
        frame = Frame(page, file)
        frame.pins = 1
        self._admit(key, frame)
        return frame

    def adopt(self, file: PageFile, page: Page, *, dirty: bool = True) -> Frame:
        """Admit a freshly created page without a disk read (pinned)."""
        key = (file.space_id, page.page_id)
        if key in self._frames:
            raise BufferPoolError(
                f"page {page.page_id} of space {file.space_id} already cached"
            )
        frame = Frame(page, file)
        frame.pins = 1
        frame.dirty = dirty
        self._admit(key, frame)
        return frame

    def release(self, frame: Frame, *, dirty: bool = False) -> None:
        if frame.pins <= 0:
            raise BufferPoolError(
                f"release of unpinned page {frame.page.page_id}"
            )
        frame.pins -= 1
        if dirty:
            frame.dirty = True

    # -- eviction ---------------------------------------------------------

    def _admit(self, key: tuple[int, int], frame: Frame) -> None:
        while len(self._frames) >= self.capacity:
            self._evict_one()
        self._frames[key] = frame

    def _evict_one(self) -> None:
        for key, frame in self._frames.items():
            if frame.pins == 0:
                break
        else:
            raise BufferPoolError(
                f"cannot evict: all {len(self._frames)} cached pages are pinned"
            )
        del self._frames[key]
        if frame.dirty and not frame.file.defunct:
            if self.before_write is not None:
                self.before_write()
            frame.file.write_page(frame.page)
            self.stats["writebacks"] += 1
        self.stats["evictions"] += 1

    # -- file-level operations -------------------------------------------

    def flush_file(self, file: PageFile) -> int:
        """Write back every dirty frame of ``file`` (frames stay cached)."""
        written = 0
        for (space_id, _pid), frame in self._frames.items():
            if space_id == file.space_id and frame.dirty:
                if written == 0 and self.before_write is not None:
                    self.before_write()
                file.write_page(frame.page)
                frame.dirty = False
                written += 1
        if written:
            self.stats["writebacks"] += written
        return written

    def drop_file(self, file: PageFile) -> None:
        """Discard every frame of ``file`` without writing back (the file
        is being deleted or replaced)."""
        doomed = [
            key for key in self._frames if key[0] == file.space_id
        ]
        for key in doomed:
            frame = self._frames[key]
            if frame.pins:
                raise BufferPoolError(
                    f"drop_file: page {key[1]} of space {key[0]} is pinned"
                )
            del self._frames[key]

    # -- stats ------------------------------------------------------------

    def cached_pages(self) -> int:
        return len(self._frames)

    def snapshot_stats(self) -> dict[str, int]:
        pinned = sum(1 for f in self._frames.values() if f.pins)
        dirty = sum(1 for f in self._frames.values() if f.dirty)
        return {
            **self.stats,
            "capacity": self.capacity,
            "cached": len(self._frames),
            "pinned": pinned,
            "dirty": dirty,
        }
