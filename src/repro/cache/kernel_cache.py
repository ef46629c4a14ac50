"""The Linux kernel page cache model.

Structure follows the kernel (and the paper's profiling findings,
Section 6.5):

* per-file (per-inode) page-cache tree of cached pages, each guarded by a
  **single spinlock** ("a single lock protects the radix tree of cached
  pages, and, as a result, is highly contended");
* the same lock is needed to mark a page dirty ("this lock is also
  required to mark a page as dirty");
* one machine-wide LRU with a capacity limit (the cgroup bound the paper
  sets), reclaimed in the faulting thread's context (direct reclaim) when
  full.

The tree's contents are the resident map ``_pages`` keyed by (file id,
file page): the lookup, insert and removal charges are fixed constants
that do not depend on the tree's shape, so only its lock is modeled per
inode.  Frames come from a simple free stack — the buddy allocator is not
a contention point at the paper's thread counts, the tree lock is.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Optional, Tuple

from repro.common import constants
from repro.mem.frames import FramePool
from repro.mem.lru import ApproxLRU
from typing import TYPE_CHECKING

if TYPE_CHECKING:   # break the cache <-> mmio import cycle
    from repro.mmio.files import BackingFile
from repro.cache.base import CachePage
from repro.obs import METRICS
from repro.sim.clock import CycleClock
from repro.sim.locks import SpinlockTimeline


class _FileCache:
    """Per-inode page-cache state: the tree_lock."""

    __slots__ = ("tree_lock",)

    def __init__(self, file_id: int) -> None:
        self.tree_lock = SpinlockTimeline(f"tree_lock[{file_id}]")


class KernelPageCache:
    """System-wide page cache with per-inode tree locks and a global LRU."""

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_pages = capacity_pages
        self.pool = FramePool(capacity_pages, numa_nodes=2)
        self._free: List[int] = list(range(capacity_pages - 1, -1, -1))
        self._files: Dict[int, _FileCache] = {}
        self.lru = ApproxLRU()
        #: Optional per-tenant QoS partition (``repro.cache.partition``);
        #: when installed, reclaim prefers over-quota tenants' pages.
        self.partition = None
        self._pages: Dict[Tuple[int, int], CachePage] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        METRICS.bind_object(
            "cache.kernel",
            self,
            {
                "hits": "hits",
                "misses": "misses",
                "evictions": "evictions",
                "resident_pages": lambda c: len(c._pages),
                "tree_lock.contended": lambda c: sum(
                    f.tree_lock.contended_acquisitions for f in c._files.values()
                ),
                "tree_lock.wait_cycles": lambda c: sum(
                    f.tree_lock.total_wait_cycles for f in c._files.values()
                ),
            },
        )

    def tree_lock_of(self, file: "BackingFile") -> SpinlockTimeline:
        """The per-inode tree lock.

        Callers resolve it once per operation and pass it to
        :meth:`lookup` and :meth:`insert_run`.
        """
        cache = self._files.get(file.file_id)
        if cache is None:
            cache = _FileCache(file.file_id)
            self._files[file.file_id] = cache
        return cache.tree_lock

    def resident_pages(self) -> int:
        """Pages currently cached."""
        return len(self._pages)

    def dirty_pages(self) -> int:
        """Resident pages that are dirty."""
        return sum(1 for page in self._pages.values() if page.dirty)

    # -- lookup / insert, under the tree lock --------------------------------

    def lookup(
        self,
        clock: CycleClock,
        thread_id: int,
        tree_lock: SpinlockTimeline,
        file: "BackingFile",
        file_page: int,
    ) -> Optional[CachePage]:
        """Page-cache lookup under the inode's ``tree_lock``."""
        tree_lock.acquire(clock, thread_id, "idle.lock.tree_lock")
        clock.charge("fault.pcache_lookup", constants.LINUX_PCACHE_LOOKUP_CYCLES)
        page = self._pages.get((file.file_id, file_page))
        tree_lock.release(clock, thread_id)
        if page is not None:
            self.hits += 1
            self.lru.touch(page.key)
        else:
            self.misses += 1
        return page

    def absent_pages(self, file: "BackingFile", start: int, end: int) -> List[int]:
        """File pages in ``[start, end)`` that are not resident (no cost)."""
        file_id = file.file_id
        resident = self._pages
        return [page for page in range(start, end) if (file_id, page) not in resident]

    def insert_run(
        self,
        clock: CycleClock,
        thread_id: int,
        tree_lock: SpinlockTimeline,
        file: "BackingFile",
        file_pages: List[int],
    ) -> List[CachePage]:
        """Allocate a frame for each of ``file_pages`` and insert it, in order.

        Per page: ``fault.page_alloc``, then ``fault.pcache_insert`` under
        ``tree_lock`` (the inode's), then ``fault.lru``, with one tree lock
        acquisition each.  Only the first acquisition can wait: executor
        operations are atomic, so once this thread has released the lock
        no other thread takes it before the run ends.

        Stops at the first page the free list cannot serve, with its
        ``fault.page_alloc`` charged, so the caller can reclaim and go on
        from that page.  Returns the pages inserted, in order, locked
        (PG_locked): the caller unlocks each once its data is in.
        """
        charge = clock.charge
        free = self._free
        resident = self._pages
        order = self.lru._order
        alloc_cycles = constants.LINUX_PAGE_ALLOC_CYCLES
        insert_cycles = constants.LINUX_PCACHE_INSERT_CYCLES
        lru_cycles = constants.LINUX_LRU_UPDATE_CYCLES
        pages: List[CachePage] = []
        for file_page in file_pages:
            charge("fault.page_alloc", alloc_cycles)
            if not free:
                break
            page = CachePage(file, file_page, free.pop())
            page.locked = True
            if not pages:
                tree_lock.acquire(clock, thread_id, "idle.lock.tree_lock")
            charge("fault.pcache_insert", insert_cycles)
            if not pages:
                tree_lock.release(clock, thread_id)
            released_at = clock.now
            resident[page.key] = page
            # A non-resident key is never on the LRU: it joins the hot end.
            order[page.key] = None
            charge("fault.lru", lru_cycles)
            pages.append(page)
        if len(pages) > 1:
            tree_lock.reacquired_uncontended(len(pages) - 1, released_at)
        self.pool.claim([page.frame for page in pages])
        return pages

    def mark_dirty(self, clock: CycleClock, thread_id: int, page: CachePage) -> None:
        """Mark dirty — requires the tree lock (the Fig 10 write bottleneck)."""
        tree_lock = self.tree_lock_of(page.file)
        tree_lock.acquire(clock, thread_id, "idle.lock.tree_lock")
        clock.charge("fault.mark_dirty", constants.LINUX_TREE_LOCK_HOLD_CYCLES)
        page.dirty = True
        tree_lock.release(clock, thread_id)

    def pick_victims(self, count: int) -> List[CachePage]:
        """Choose up to ``count`` cold pages for reclaim (LRU order).

        Walks the LRU lazily from the cold end and stops at ``count``;
        every LRU key is resident (pages join and leave both together).
        With a QoS ``partition`` installed, candidates are reordered so
        over-quota tenants' pages are reclaimed first (LRU order within
        each preference class).
        """
        keys = self.lru.cold_to_hot()
        if self.partition is not None:
            keys = self.partition.victim_order(keys, self._pages)
        resident = self._pages
        return [resident[key] for key in islice(keys, count)]

    def remove(self, clock: CycleClock, thread_id: int, page: CachePage) -> None:
        """Drop a page from the tree and return its frame to the free pool."""
        tree_lock = self.tree_lock_of(page.file)
        tree_lock.acquire(clock, thread_id, "idle.lock.tree_lock")
        clock.charge("reclaim.remove", constants.LINUX_TREE_LOCK_HOLD_CYCLES)
        self._pages.pop(page.key, None)
        tree_lock.release(clock, thread_id)
        self.lru.remove(page.key)
        self.pool.mark_free(page.frame)
        self._free.append(page.frame)
        self.evictions += 1

    def remove_batch(
        self, clock: CycleClock, thread_id: int, pages: List[CachePage]
    ) -> List[CachePage]:
        """Drop many pages, taking each inode's tree lock once.

        Mirrors ``shrink_page_list``: reclaim processes victims grouped by
        mapping, *trylocks* each tree lock, and skips busy mappings rather
        than queueing behind their faulting threads.  Each removed page
        leaves the tree (the resident map) and the LRU in one loop; its
        frame is scrubbed and pushed on the free list in victim order.
        Returns the pages actually removed.
        """
        by_file: Dict[int, List[CachePage]] = {}
        for page in pages:
            by_file.setdefault(page.file.file_id, []).append(page)
        removed: List[CachePage] = []
        resident = self._pages
        order = self.lru._order
        for file_id, group in by_file.items():
            cache = self._files[file_id]
            if not cache.tree_lock.try_acquire(clock, thread_id):
                continue
            clock.charge(
                "reclaim.remove",
                constants.LINUX_TREE_LOCK_HOLD_CYCLES + 60 * (len(group) - 1),
            )
            frames = []
            for page in group:
                resident.pop(page.key, None)
                order.pop(page.key, None)
                frames.append(page.frame)
            cache.tree_lock.release(clock, thread_id)
            self.pool.release(frames)
            self._free.extend(frames)
            self.evictions += len(group)
            removed.extend(group)
        return removed

    def pages_of_file(self, file_id: int) -> List[CachePage]:
        """All resident pages belonging to ``file_id`` (file deletion)."""
        return [page for key, page in self._pages.items() if key[0] == file_id]

    def get_nocost(self, file: "BackingFile", file_page: int) -> Optional[CachePage]:
        """Cost-free peek for tests."""
        return self._pages.get((file.file_id, file_page))

    def pages(self) -> List[CachePage]:
        """Snapshot of all resident pages (writeback scans)."""
        return list(self._pages.values())
