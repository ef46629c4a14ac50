"""The Linux kernel page-cache model."""

import pytest

from repro.common import constants, units
from repro.cache.kernel_cache import KernelPageCache
from repro.devices.pmem import PmemDevice
from repro.mmio.files import ExtentFile
from repro.sim.clock import CycleClock


def _file(name="f", pages=64):
    device = PmemDevice(capacity_bytes=64 * units.MIB)
    return ExtentFile(name, device, 0, pages * units.PAGE_SIZE)


def _insert(cache, clock, file, file_page):
    """Insert one page through ``insert_run``; None when no frame is free."""
    pages = cache.insert_run(clock, 1, cache.tree_lock_of(file), file, [file_page])
    return pages[0] if pages else None


def _lookup(cache, clock, file, file_page):
    return cache.lookup(clock, 1, cache.tree_lock_of(file), file, file_page)


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = KernelPageCache(16)
        file = _file()
        clock = CycleClock()
        assert _lookup(cache, clock, file, 0) is None
        frame = _insert(cache, clock, file, 0).frame
        page = _lookup(cache, clock, file, 0)
        assert page is not None and page.frame == frame
        assert cache.hits == 1 and cache.misses == 1

    def test_per_file_isolation(self):
        cache = KernelPageCache(16)
        a, b = _file("a"), _file("b")
        clock = CycleClock()
        _insert(cache, clock, a, 0)
        assert _lookup(cache, clock, b, 0) is None

    def test_per_file_tree_locks_distinct(self):
        cache = KernelPageCache(16)
        a, b = _file("a"), _file("b")
        assert cache.tree_lock_of(a) is not cache.tree_lock_of(b)
        assert cache.tree_lock_of(a) is cache.tree_lock_of(a)

    def test_allocate_exhaustion(self):
        cache = KernelPageCache(2)
        file = _file()
        clock = CycleClock()
        assert _insert(cache, clock, file, 0) is not None
        assert _insert(cache, clock, file, 1) is not None
        assert _insert(cache, clock, file, 2) is None

    def test_insert_run_returns_locked_pages_in_order(self):
        cache = KernelPageCache(4)
        file = _file()
        clock = CycleClock()
        lock = cache.tree_lock_of(file)
        pages = cache.insert_run(clock, 1, lock, file, [3, 4, 5, 6, 7])
        # Stops at the page the free list cannot serve, its alloc charged.
        assert [page.file_page for page in pages] == [3, 4, 5, 6]
        assert all(page.locked for page in pages)
        assert [cache.get_nocost(file, n) for n in (3, 4, 5, 6)] == pages
        assert clock.breakdown.get("fault.page_alloc") == 5 * constants.LINUX_PAGE_ALLOC_CYCLES
        assert clock.breakdown.get("fault.pcache_insert") == (
            4 * constants.LINUX_PCACHE_INSERT_CYCLES
        )
        assert lock.acquisitions == 4


class TestDirtyAndVictims:
    def test_mark_dirty_takes_lock(self):
        cache = KernelPageCache(8)
        file = _file()
        clock = CycleClock()
        page = _insert(cache, clock, file, 0)
        lock = cache.tree_lock_of(file)
        acquisitions = lock.acquisitions
        cache.mark_dirty(clock, 1, page)
        assert page.dirty
        assert lock.acquisitions == acquisitions + 1
        assert cache.dirty_pages() == 1

    def test_pick_victims_lru_order(self):
        cache = KernelPageCache(8)
        file = _file()
        clock = CycleClock()
        pages = [_insert(cache, clock, file, i) for i in range(4)]
        _lookup(cache, clock, file, 0)   # refresh page 0
        victims = cache.pick_victims(2)
        assert [v.file_page for v in victims] == [1, 2]

    def test_remove_returns_frame(self):
        cache = KernelPageCache(2)
        file = _file()
        clock = CycleClock()
        page = _insert(cache, clock, file, 0)
        frame = page.frame
        _insert(cache, clock, file, 1)
        assert _insert(cache, clock, file, 2) is None
        cache.remove(clock, 1, page)
        assert _insert(cache, clock, file, 2).frame == frame
        assert cache.evictions == 1

    def test_remove_batch_groups_by_file(self):
        cache = KernelPageCache(16)
        a, b = _file("a"), _file("b")
        clock = CycleClock()
        pages = []
        for i in range(3):
            pages.append(_insert(cache, clock, a, i))
            pages.append(_insert(cache, clock, b, i))
        lock_a = cache.tree_lock_of(a)
        before = lock_a.acquisitions
        removed = cache.remove_batch(clock, 1, pages)
        assert len(removed) == 6
        assert lock_a.acquisitions == before + 1   # one acquisition per file

    def test_remove_batch_skips_busy_files(self):
        cache = KernelPageCache(16)
        file = _file()
        clock = CycleClock()
        page = _insert(cache, clock, file, 0)
        # Simulate the lock being held into the future.
        holder = CycleClock()
        holder.charge("hold", 10_000)
        lock = cache.tree_lock_of(file)
        lock.acquire(holder, 99)
        removed = cache.remove_batch(clock, 1, [page])
        assert removed == []
        assert cache.get_nocost(file, 0) is page
        lock.release(holder, 99)

    def test_pages_of_file(self):
        cache = KernelPageCache(16)
        a, b = _file("a"), _file("b")
        clock = CycleClock()
        _insert(cache, clock, a, 0)
        _insert(cache, clock, a, 1)
        _insert(cache, clock, b, 0)
        assert len(cache.pages_of_file(a.file_id)) == 2
        assert len(cache.pages_of_file(b.file_id)) == 1
