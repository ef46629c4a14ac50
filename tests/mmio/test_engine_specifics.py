"""Engine-specific behaviours: what distinguishes the three mmio paths."""

import pytest

from repro.bench.setups import make_aquila_stack, make_kmmap_stack, make_linux_stack
from repro.common import constants, units
from repro.mmio.vma import MADV_NORMAL, MADV_RANDOM, MADV_SEQUENTIAL
from repro.sim.executor import SimThread


def _map(stack, pages=128, advice=None):
    file = stack.allocator.create("data", pages * units.PAGE_SIZE)
    thread = SimThread(core=0)
    mapping = stack.engine.mmap(thread, file)
    if advice is not None:
        mapping.madvise(thread, advice)
    return file, thread, mapping


class TestLinuxReadahead:
    def test_default_advice_prefetches(self):
        """A single 1-byte read pulls the 128 KB window (Section 6.1)."""
        stack = make_linux_stack("pmem", cache_pages=256)
        _, thread, mapping = _map(stack, advice=MADV_NORMAL)
        mapping.load(thread, 64 * units.PAGE_SIZE, 1)
        assert stack.engine.cache.resident_pages() >= 16

    def test_madv_random_disables_readahead(self):
        stack = make_linux_stack("pmem", cache_pages=256)
        _, thread, mapping = _map(stack, advice=MADV_RANDOM)
        mapping.load(thread, 64 * units.PAGE_SIZE, 1)
        assert stack.engine.cache.resident_pages() == 1

    def test_readahead_amplifies_device_reads(self):
        """The Figure 5(b) pathology: 32x read amplification."""
        random_stack = make_linux_stack("pmem", cache_pages=512)
        normal_stack = make_linux_stack("pmem", cache_pages=512)
        _, t1, m1 = _map(random_stack, advice=MADV_RANDOM)
        _, t2, m2 = _map(normal_stack, advice=MADV_NORMAL)
        for page in range(0, 128, 37):
            m1.load(t1, page * units.PAGE_SIZE, 1)
            m2.load(t2, page * units.PAGE_SIZE, 1)
        assert normal_stack.device.bytes_read > 8 * random_stack.device.bytes_read

    def test_readahead_clamped_by_cache(self):
        """Readahead never overruns a tiny cache (PG_locked safety)."""
        stack = make_linux_stack("pmem", cache_pages=8)
        _, thread, mapping = _map(stack, pages=64, advice=MADV_NORMAL)
        for page in range(64):
            mapping.load(thread, page * units.PAGE_SIZE, 1)
        assert stack.engine.cache.resident_pages() <= 8

    def test_trap_cost_in_breakdown(self):
        stack = make_linux_stack("pmem", cache_pages=64)
        _, thread, mapping = _map(stack, advice=MADV_RANDOM)
        mapping.load(thread, 0, 1)
        assert thread.clock.breakdown.get("fault.trap") == constants.TRAP_RING3_CYCLES


class TestAquilaSpecifics:
    def test_exception_not_trap(self):
        stack = make_aquila_stack("pmem", cache_pages=64)
        _, thread, mapping = _map(stack)
        mapping.load(thread, 0, 1)
        assert thread.clock.breakdown.get("fault.trap") == constants.TRAP_AQUILA_CYCLES

    def test_no_readahead_by_default(self):
        stack = make_aquila_stack("pmem", cache_pages=256)
        _, thread, mapping = _map(stack)
        mapping.load(thread, 0, 1)
        assert stack.engine.cache.resident_pages() == 1

    def test_madv_sequential_readahead(self):
        stack = make_aquila_stack("pmem", cache_pages=256)
        stack.engine.readahead_pages = 8
        _, thread, mapping = _map(stack, advice=MADV_SEQUENTIAL)
        mapping.load(thread, 0, 1)
        assert stack.engine.cache.resident_pages() == 9

    @pytest.mark.parametrize(
        "engine_kind, cache_pages, eviction_batch, readahead_pages",
        [
            ("aquila", 64, 8, 60),
            ("aquila", 64, 8, 64),
            ("aquila", 256, 32, 300),
            # Linux: 5- and 7-page MADV_SEQUENTIAL windows over caches
            # smaller than a 32-page reclaim batch, so direct reclaim runs
            # in the middle of a window and would take its pages.
            ("linux", 23, None, 32),
            ("linux", 30, None, 32),
        ],
    )
    def test_readahead_never_evicts_its_faulting_page(
        self, engine_kind, cache_pages, eviction_batch, readahead_pages
    ):
        """A window near the cache size must not recycle the frame the
        fault is about to map: every load returns its own page's bytes."""
        from repro.devices.io_engines import DaxIO
        from repro.devices.pmem import PmemDevice
        from repro.hw.machine import Machine
        from repro.mmio.aquila import AquilaEngine
        from repro.mmio.files import ExtentAllocator
        from repro.mmio.linux_mmap import LinuxMmapEngine

        device = PmemDevice(capacity_bytes=64 * units.MIB)
        if engine_kind == "aquila":
            engine = AquilaEngine(
                Machine(),
                cache_pages=cache_pages,
                io_path=DaxIO(device),
                eviction_batch=eviction_batch,
                readahead_pages=readahead_pages,
            )
        else:
            engine = LinuxMmapEngine(
                Machine(), cache_pages=cache_pages, readahead_pages=readahead_pages
            )
        file = ExtentAllocator(device).create("seq", 2048 * units.PAGE_SIZE)
        for page in range(2048):
            device.store.write_page(
                file.device_offset(page) >> units.PAGE_SHIFT,
                bytes([page % 251]) * units.PAGE_SIZE,
            )
        thread = SimThread(core=0)
        mapping = engine.mmap(thread, file)
        mapping.madvise(thread, MADV_SEQUENTIAL)
        wrong = [
            page
            for page in range(0, 2048, 97)
            if mapping.load(thread, page * units.PAGE_SIZE, 1) != bytes([page % 251])
        ]
        assert wrong == []
        if engine_kind == "aquila":
            assert engine.eviction_batches > 0
        else:
            assert engine.reclaim_runs > 0

    def test_batched_eviction(self):
        stack = make_aquila_stack("pmem", cache_pages=64)
        _, thread, mapping = _map(stack, pages=256)
        for page in range(256):
            mapping.load(thread, page * units.PAGE_SIZE, 1)
        assert stack.engine.eviction_batches > 0
        # Evictions happen eviction_batch pages at a time.
        assert (
            stack.engine.cache.evictions
            >= stack.engine.eviction_batches * stack.engine.cache.eviction_batch
        )

    def test_mmap_is_vmcall_not_syscall(self):
        """Range updates interact with the hypervisor (Section 3.4)."""
        stack = make_aquila_stack("pmem", cache_pages=64)
        file = stack.allocator.create("f", units.PAGE_SIZE)
        thread = SimThread(core=0)
        stack.engine.mmap(thread, file)
        assert stack.engine.vmx.vmcalls >= 1

    def test_madvise_is_function_call(self):
        """Intercepted syscalls cost ~a function call (Section 4.4)."""
        stack = make_aquila_stack("pmem", cache_pages=64)
        _, thread, mapping = _map(stack)
        before = thread.clock.now
        mapping.madvise(thread, MADV_RANDOM)
        assert thread.clock.now - before < constants.SYSCALL_CYCLES

    def test_ept_faults_with_1g_granule_negligible(self):
        from repro.core import Aquila, AquilaConfig
        from repro.devices.pmem import PmemDevice
        from repro.hw.machine import Machine

        aquila = Aquila(
            Machine(),
            PmemDevice(capacity_bytes=64 * units.MIB),
            AquilaConfig(cache_pages=256, io_path="dax", ept_granule="1G"),
        )
        thread = SimThread(core=0)
        aquila.enter(thread)
        file = aquila.open(thread, "/f", size_bytes=units.MIB)
        mapping = aquila.mmap(thread, file)
        for page in range(256):
            mapping.load(thread, page * units.PAGE_SIZE, 1)
        assert aquila.engine.ept.faults == 1


class TestKmmapSpecifics:
    def test_kernel_trap_cost(self):
        stack = make_kmmap_stack("pmem", cache_pages=64)
        _, thread, mapping = _map(stack)
        mapping.load(thread, 0, 1)
        assert thread.clock.breakdown.get("fault.trap") == constants.TRAP_RING3_CYCLES

    def test_kernel_device_path(self):
        """kmmap reads pmem through the kernel: non-SIMD copy cost."""
        stack = make_kmmap_stack("pmem", cache_pages=64)
        _, thread, mapping = _map(stack)
        mapping.load(thread, 0, 1)
        device_cycles = thread.clock.breakdown.prefix_total(
            "idle.fault.io"
        ) + thread.clock.breakdown.prefix_total("fault.io")
        assert device_cycles >= constants.MEMCPY_4K_NOSIMD_CYCLES

    def test_coarser_eviction_batches_than_aquila(self):
        kmmap = make_kmmap_stack("pmem", cache_pages=512)
        aquila = make_aquila_stack("pmem", cache_pages=512)
        assert kmmap.engine.cache.eviction_batch > aquila.engine.cache.eviction_batch

    def test_scalable_cache_structures_shared_with_aquila(self):
        from repro.cache.aquila_cache import AquilaCache

        stack = make_kmmap_stack("pmem", cache_pages=64)
        assert isinstance(stack.engine.cache, AquilaCache)


class TestCostOrdering:
    def test_fault_cost_ordering(self):
        """Aquila is cheapest; the two kernel paths are comparable.

        kmmap's wins over mmap come from writeback policy and cache
        scalability, not the single-thread cold-fault path — per fault it
        pays the same trap and kernel device I/O as mmap.
        """
        costs = {}
        for name, maker in (
            ("linux", make_linux_stack),
            ("aquila", make_aquila_stack),
            ("kmmap", make_kmmap_stack),
        ):
            stack = maker("pmem", cache_pages=256)
            _, thread, mapping = _map(stack, advice=MADV_RANDOM)
            start = thread.clock.now
            for page in range(100):
                mapping.load(thread, page * units.PAGE_SIZE, 1)
            costs[name] = thread.clock.now - start
        assert costs["aquila"] < costs["kmmap"]
        assert costs["aquila"] < costs["linux"]
        assert costs["kmmap"] < 1.2 * costs["linux"]
