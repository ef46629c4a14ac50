"""The Linux mmap mmio path (the paper's baseline).

Reproduces the behaviours the paper attributes to Linux:

* ring 3 -> ring 0 **trap** on every fault (1287 cycles, Section 6.4);
* ``mmap_sem`` read lock + VMA rb-tree walk, then the per-inode
  **tree lock** for every page-cache lookup, insert, removal, and dirty
  marking — the single contended lock of Section 6.5;
* **128 KB readahead** around faults ("mmap prefetches 128KB for 1KB
  reads", Section 6.1), disabled by ``MADV_RANDOM``;
* **direct reclaim** in the faulting thread when the cgroup-limited page
  cache is full, including writeback of dirty victims and per-page TLB
  shootdowns;
* **aggressive writeback**: when dirty pages exceed the dirty ratio the
  faulting thread synchronously flushes a batch (the behaviour Tucana and
  kmmap call out as causing latency variability, Section 7.2).
"""

from __future__ import annotations

from typing import List, Optional

from repro.common import constants, units
from repro.common.errors import (
    DeviceError,
    OutOfMemoryError,
    SegmentationFault,
    TransientDeviceError,
)
from repro.devices.pmem import PmemDevice
from repro.cache.base import CachePage
from repro.cache.kernel_cache import KernelPageCache
from repro.fault.crash import CRASH
from repro.fault.retry import retry_after_failure
from repro.hw.machine import Machine
from repro.hw.vmx import ExecutionDomain, VMXCostModel
from repro.mmio.engine import Mapping, MmioEngine
from repro.mmio.files import BackingFile
from repro.mmio.vma import (
    MADV_DONTNEED,
    MADV_NORMAL,
    MADV_RANDOM,
    MADV_SEQUENTIAL,
    MADV_WILLNEED,
    VMA,
    LinuxVMAStore,
)
from repro.obs import TRACER
from repro.sim.executor import SimThread
from repro.sim.locks import SpinlockTimeline

#: Linux direct reclaim works in SWAP_CLUSTER_MAX-sized batches.
RECLAIM_BATCH_PAGES = 32

#: Fraction of the page cache allowed to be dirty before the faulting
#: thread is forced into synchronous writeback (vm.dirty_ratio class knob).
DIRTY_RATIO = 0.20


class LinuxMmapEngine(MmioEngine):
    """Linux kernel mmio over a shared kernel page cache."""

    name = "linux-mmap"

    def __init__(
        self,
        machine: Machine,
        cache_pages: int,
        readahead_pages: int = constants.LINUX_READAHEAD_PAGES,
        dirty_ratio: float = DIRTY_RATIO,
    ) -> None:
        super().__init__(
            machine,
            LinuxVMAStore(),
            VMXCostModel(ExecutionDomain.ROOT_RING3),
        )
        self.cache = KernelPageCache(cache_pages)
        self.readahead_pages = readahead_pages
        self.dirty_ratio = dirty_ratio
        self._shootdowns = machine.make_shootdown_controller("linux")
        self.readahead_reads = 0
        self.readahead_aborted = 0
        self.reclaim_runs = 0
        # Readahead window size per madvise advice.  Readahead cannot
        # outgrow memory: clamp to a quarter of the cache (the kernel
        # similarly backs off under memory pressure).
        normal = max(1, min(readahead_pages, cache_pages // 4))
        self._window_pages = {
            MADV_NORMAL: normal,
            MADV_RANDOM: 1,
            MADV_SEQUENTIAL: max(1, min(readahead_pages * 2, cache_pages // 4)),
            MADV_WILLNEED: normal,
            MADV_DONTNEED: normal,
        }

    # -- engine plumbing ------------------------------------------------------

    def _pool(self):
        return self.cache.pool

    def _cached_page(self, file: BackingFile, file_page: int) -> Optional[CachePage]:
        return self.cache.get_nocost(file, file_page)

    def _shootdown(self, thread: SimThread, vpns: List[int]) -> None:
        self._shootdowns.shootdown(thread.clock, thread.core, vpns)

    def _charge_range_update(self, thread: SimThread) -> None:
        self.vmx.syscall(thread.clock, "syscall.mmap")

    def _pages_of_file(self, file_id: int):
        return self.cache.pages_of_file(file_id)

    def _drop_page(self, thread: SimThread, page: CachePage) -> None:
        self.cache.remove(thread.clock, thread.tid, page)

    # -- fault handling ---------------------------------------------------------

    def _fault(self, thread: SimThread, vma: VMA, vpn: int, is_write: bool) -> int:
        clock = thread.clock
        self.vmx.fault_entry(clock)
        # No sub-spans around the vma/cache lookups: they are cheap, run on
        # every fault, and their cycles stay visible as charge categories
        # on the enclosing "fault" span.
        checked = self.vmas.lookup(clock, vpn)   # mmap_sem + rb-tree walk
        if checked is None or checked.vma_id != vma.vma_id:
            raise SegmentationFault(vpn << units.PAGE_SHIFT)
        file = vma.file
        file_page = vma.file_page_of(vpn)

        tree_lock = self.cache.tree_lock_of(file)
        page = self.cache.lookup(clock, thread.tid, tree_lock, file, file_page)
        if page is None:
            self.major_faults += 1
            page = self._read_in(thread, vma, file, file_page, tree_lock)
        else:
            self.minor_faults += 1

        pte = self.page_table.install(vpn, page.frame, writable=False)
        page.mapped_vpns.add(vpn)
        clock.charge("fault.pte_install", constants.LINUX_PTE_INSTALL_CYCLES)
        self.machine.tlb_of(thread)._insert(vpn)

        if is_write:
            return self._write_protect_fault(thread, vma, vpn, pte, in_fault=True)
        return page.frame

    def _write_protect_fault(
        self, thread: SimThread, vma: VMA, vpn: int, pte, in_fault: bool = False
    ) -> int:
        clock = thread.clock
        if not in_fault:
            # A separate protection fault: full trap + VMA check again.
            self.vmx.fault_entry(clock)
            self.vmas.lookup(clock, vpn)
        file_page = vma.file_page_of(vpn)
        page = self.cache.get_nocost(vma.file, file_page)
        if page is None:
            raise SegmentationFault(vpn << units.PAGE_SHIFT, "dirty fault on evicted page")
        self.cache.mark_dirty(clock, thread.tid, page)   # takes the tree lock
        pte.writable = True
        pte.dirty = True
        clock.charge("fault.pte_install", constants.LINUX_PTE_INSTALL_CYCLES // 2)
        # Background writeback must skip the page being dirtied right now:
        # its store has not landed in the frame yet (the fault returns
        # first), so flushing it here would persist stale bytes and mark
        # it clean — losing the write on a later eviction.
        self._maybe_writeback(thread, exclude_key=page.key)
        return page.frame

    # -- page-cache fill (miss path) ---------------------------------------------

    def _read_in(
        self,
        thread: SimThread,
        vma: VMA,
        file: BackingFile,
        file_page: int,
        tree_lock: SpinlockTimeline,
    ) -> CachePage:
        """Read the faulting page plus its readahead window, run by run.

        Mirrors the kernel's ordering: pages are added to the page-cache
        tree first (``tree_lock`` held only for the insert), then the
        device reads fill them — so the tree lock is *not* held across
        I/O.  Returns the faulting page.
        """
        clock = thread.clock
        cache = self.cache
        start, end = self._readahead_window(vma, file, file_page)

        # Phase 1: allocate frames and install tree entries, one run at a
        # time.  Each fresh page comes back locked (PG_locked) until its
        # data arrives, so reclaim cannot steal it.  Direct reclaim runs
        # only when the free list runs dry; it may evict a later page of
        # this window that was resident, so residency is re-checked from
        # the page that found no frame.
        fresh: List[CachePage] = []
        with TRACER.span("fault.alloc", clock):
            if end - start == 1:
                pending = [file_page]   # the lookup just missed it
            else:
                pending = cache.absent_pages(file, start, end)
            reclaimed = False
            while True:
                got = cache.insert_run(clock, thread.tid, tree_lock, file, pending)
                fresh += got
                done = len(got)
                if done == len(pending):
                    break
                if reclaimed and not got:
                    raise OutOfMemoryError("reclaim failed to free any page")
                self._direct_reclaim(thread)
                reclaimed = True
                pending = cache.absent_pages(file, pending[done], end)

        # Phase 2: read device data into the new frames, one command per
        # run of device-contiguous pages; only the run containing the
        # faulting page blocks, the rest is readahead.
        with TRACER.span("fault.io", clock):
            index, total = 0, len(fresh)
            try:
                while index < total:
                    first_page = fresh[index].file_page
                    if fresh[-1].file_page - first_page == total - 1 - index:
                        stop = total   # the rest of the window is consecutive
                    else:
                        stop = index + 1
                        while fresh[stop].file_page == fresh[stop - 1].file_page + 1:
                            stop += 1
                    if stop - index > 1:
                        stop = index + file.contiguous_run(first_page, stop - index)
                    run = fresh[index:stop]
                    blocking = first_page <= file_page < first_page + len(run)
                    if blocking:
                        target = run[file_page - first_page]
                    self._read_run(thread, file, run, blocking)
                    index = stop
            except DeviceError:
                # The blocking read gave up: as on a readahead abort, drop
                # the pages no run filled so nobody maps unfilled frames,
                # and unlock the rest so reclaim can take them.
                for page in fresh:
                    page.locked = False
                for page in fresh[index:]:
                    cache.remove(clock, thread.tid, page)
                raise
        for page in fresh:
            page.locked = False
        return target

    def _read_run(
        self, thread: SimThread, file: BackingFile, run: List[CachePage], blocking: bool
    ) -> None:
        """Fill the pages of ``run`` (device-contiguous) in one command.

        A ``blocking`` run (the one holding the faulting page) is read
        synchronously, retried on transient faults; any other run is
        asynchronous readahead, and a failed submission drops its pages
        instead of retrying.
        """
        clock = thread.clock
        device = file.device
        offset = file.device_offset(run[0].file_page)
        count = len(run)
        if blocking:
            try:
                data = device.submit_read_pages(
                    clock, offset, count, wait_category="idle.io.fault"
                )
            except TransientDeviceError as error:
                data = retry_after_failure(
                    clock,
                    lambda: device.submit_read_pages(
                        clock, offset, count, wait_category="idle.io.fault"
                    ),
                    error,
                    "fault.io",
                    self.retry_policy,
                )
            if not isinstance(device, PmemDevice):
                # Interrupt-driven completion: IRQ + wakeup + reschedule.
                clock.charge("fault.io.irq", constants.HOST_NVME_COMPLETION_CYCLES)
        else:
            try:
                device.submit_async(
                    clock, offset, count << units.PAGE_SHIFT, is_write=False
                )
            except TransientDeviceError:
                # Speculative readahead degrades instead of retrying:
                # unlock and drop the fresh pages so nobody sees unfilled
                # frames.
                for page in run:
                    page.locked = False
                    self.cache.remove(clock, thread.tid, page)
                self.readahead_aborted += count
                return
            data = device.store.read_pages(offset >> units.PAGE_SHIFT, count)
            self.readahead_reads += count
        self.cache.pool.install([page.frame for page in run], data)

    def _readahead_window(self, vma: VMA, file: BackingFile, file_page: int):
        ra = self._window_pages[vma.advice]
        if ra == 1:
            return file_page, file_page + 1
        # Read-around: center the window on the fault, as fault-around does.
        start = max(0, file_page - ra // 2)
        end = min(file.size_pages, start + ra)
        end = max(end, file_page + 1)
        # Clip to the mapped range of the VMA.
        vma_first = vma.file_start_page
        vma_last = vma.file_start_page + vma.num_pages
        return (max(start, vma_first), min(end, vma_last))

    # -- reclaim and writeback ---------------------------------------------------

    def _direct_reclaim(self, thread: SimThread) -> None:
        """Evict a batch of cold pages in the faulting thread's context.

        Busy mappings are skipped (trylock), as ``shrink_page_list`` does;
        a forced single-page eviction guarantees progress if every victim
        group was busy.
        """
        clock = thread.clock
        self.reclaim_runs += 1
        with TRACER.span("reclaim", clock):
            self._reclaim_batch(thread)

    def _reclaim_batch(self, thread: SimThread) -> None:
        clock = thread.clock
        victims = [
            page
            for page in self.cache.pick_victims(RECLAIM_BATCH_PAGES * 2)
            if not page.locked
        ]
        if not victims:
            raise OutOfMemoryError("page cache empty but allocation failed")
        del victims[RECLAIM_BATCH_PAGES:]
        clock.charge(
            "reclaim.scan", constants.LINUX_RECLAIM_PER_PAGE_CYCLES * len(victims)
        )
        dirty = sorted(
            (v for v in victims if v.dirty), key=lambda page: page.device_offset
        )
        if dirty:
            self._write_back_pages(thread, dirty, sync=True, category="reclaim.writeback")
            # Victims the trylock pass skips stay resident: they must be
            # re-protected like any cleaned page.
            self._mark_clean_and_protect(thread, dirty)
        CRASH.point(f"{self.name}.reclaim")
        removed = self.cache.remove_batch(clock, thread.tid, victims)
        if not removed:
            # Every mapping was busy: force one page out to make progress.
            forced = victims[0]
            self.cache.remove(clock, thread.tid, forced)
            removed = [forced]
        vpns: List[int] = []
        for page in removed:
            mapped = page.mapped_vpns
            if mapped:
                vpns.extend(mapped)
                mapped.clear()
        self.page_table.remove_many(vpns)
        self._shootdown(thread, vpns)

    def _maybe_writeback(self, thread: SimThread, exclude_key=None) -> None:
        """Aggressive background writeback charged to the dirtying thread."""
        limit = int(self.cache.capacity_pages * self.dirty_ratio)
        if self.cache.dirty_pages() <= limit:
            return
        with TRACER.span("writeback.bg", thread.clock):
            dirty = sorted(
                (
                    page
                    for page in self._all_pages()
                    if page.dirty and page.key != exclude_key
                ),
                key=lambda page: page.device_offset,
            )[: constants.LINUX_WRITEBACK_BATCH_PAGES]
            self._write_back_pages(thread, dirty, sync=False, category="writeback.bg")
            self._mark_clean_and_protect(thread, dirty)

    def _mark_clean_and_protect(self, thread: SimThread, pages) -> None:
        """Clean written-back pages and write-protect their PTEs.

        The kernel's ``clear_page_dirty_for_io``: a page going clean must
        be re-protected so the *next* store takes a protection fault and
        re-marks it dirty — otherwise later writes are lost on eviction.
        """
        vpns: List[int] = []
        for page in pages:
            page.dirty = False
            for vpn in page.mapped_vpns:
                pte = self.page_table.lookup(vpn)
                if pte is not None and pte.writable:
                    pte.writable = False
                    pte.dirty = False
                    vpns.append(vpn)
        self._shootdown(thread, vpns)

    def _all_pages(self):
        return self.cache.pages()

    def msync(self, thread: SimThread, mapping: Mapping) -> int:
        """Synchronously flush the mapping's dirty pages."""
        with TRACER.span("msync", thread.clock):
            self.vmx.syscall(thread.clock, "syscall.msync")
            file = mapping.vma.file
            first = mapping.vma.file_start_page
            last = first + mapping.vma.num_pages
            dirty = sorted(
                (
                    page
                    for page in self._all_pages()
                    if page.dirty
                    and page.file.file_id == file.file_id
                    and first <= page.file_page < last
                ),
                key=lambda page: page.device_offset,
            )
            written = self._write_back_pages(
                thread, dirty, sync=True, category="writeback.msync"
            )
            self._mark_clean_and_protect(thread, dirty)
            # Ordering: background writeback (sync=False) marked its pages
            # clean at submission, so they are invisible to the dirty scan
            # above — but their device completions may still be pending.
            # msync must not report durability before they land.
            self._drain_inflight(thread, file)
            CRASH.point(f"{self.name}.msync")
            return written
