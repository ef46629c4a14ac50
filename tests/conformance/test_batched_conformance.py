"""Property-based conformance: batched == unbatched, bit for bit.

Every cell replays one seed-generated workload under the unbatched
min-heap scheduler and the epoch-batched scheduler and asserts the
complete state digests agree exactly: per-thread clocks and latency
streams, page table, TLBs, cache contents down to page-byte checksums,
durable device bytes, and every engine counter (minus the two counters
that *describe* batching).  See ``repro.sim.conformance``.
"""

import pytest

from repro.fault.plan import FaultSpec, clear_plan
from repro.sim.conformance import (
    ENGINE_KINDS,
    MMIO_ENGINE_KINDS,
    MODE_COUNTERS,
    assert_fastforward_agrees,
    assert_modes_agree,
    diff_digests,
    mmio_state_digest,
    run_cell,
    run_explicit_cell,
)

FAULTY_SPEC = FaultSpec(error_rate=0.02, latency_rate=0.02, torn_rate=0.01)

SEEDS = [1, 7, 23]


@pytest.fixture(autouse=True)
def _clean_plan():
    yield
    clear_plan()


def _mmio(engine_kind, batched, seed, **kwargs):
    return run_cell(engine_kind, batched, seed=seed, **kwargs)


class TestCleanConformance:
    @pytest.mark.parametrize("engine_kind", MMIO_ENGINE_KINDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_in_memory_shared(self, engine_kind, seed):
        assert_modes_agree(_mmio, engine_kind=engine_kind, seed=seed)

    @pytest.mark.parametrize("engine_kind", MMIO_ENGINE_KINDS)
    def test_in_memory_reaccess_heavy(self, engine_kind):
        # More accesses than pages: the touch-once plan re-accesses owned
        # pages, which is the pure-hit regime run-ahead accelerates most.
        assert_modes_agree(
            _mmio,
            engine_kind=engine_kind,
            seed=11,
            accesses_per_thread=900,
            dataset_pages=160,
        )

    @pytest.mark.parametrize("engine_kind", MMIO_ENGINE_KINDS)
    def test_read_only_unbounded_certificate(self, engine_kind):
        # write_fraction=0 and an in-cache dataset keep the engine's
        # quiescence certificate (run_ahead_unbounded_ok) true for the
        # whole run, so each thread retires its re-access tail under an
        # infinite horizon — the most aggressive batching the executor
        # ever does, and it must still be bit-exact.
        assert_modes_agree(
            _mmio,
            engine_kind=engine_kind,
            seed=19,
            write_fraction=0.0,
            accesses_per_thread=1200,
            dataset_pages=160,
        )

    @pytest.mark.parametrize("engine_kind", MMIO_ENGINE_KINDS)
    def test_private_files(self, engine_kind):
        assert_modes_agree(
            _mmio, engine_kind=engine_kind, seed=5, shared_file=False
        )

    @pytest.mark.parametrize("engine_kind", MMIO_ENGINE_KINDS)
    def test_out_of_memory_evictions(self, engine_kind):
        # Eviction + shootdown heavy: every barrier-op hazard is live.
        assert_modes_agree(
            _mmio,
            engine_kind=engine_kind,
            seed=13,
            touch_once=False,
            dataset_pages=1024,
            cache_pages=128,
        )

    def test_single_thread_infinite_horizon(self):
        assert_modes_agree(
            _mmio, engine_kind="aquila", seed=3, num_threads=1
        )

    def test_smt_core_sharing_disables_run_ahead_but_stays_exact(self):
        # 33+ threads can't fit 32 hardware threads; cores collide and the
        # executor degrades to zero quantum — results must still match.
        assert_modes_agree(
            _mmio,
            engine_kind="aquila",
            seed=9,
            num_threads=36,
            accesses_per_thread=64,
        )

    def test_aquila_out_of_memory_seed_18(self):
        # Regression: a hit run could start up to 120 cycles past the heap
        # top, ahead of another thread's earlier-starting fault whose
        # eviction batch unmaps the hit's page.  The unbatched reference
        # runs that fault first, so the batched run took 15179 faults
        # and 444 eviction batches against 15205 and 445.
        digest = assert_fastforward_agrees(
            _mmio,
            engine_kind="aquila",
            seed=18,
            num_threads=16,
            accesses_per_thread=1024,
            cache_pages=1024,
            dataset_pages=12800,
            write_fraction=0.0,
            touch_once=False,
        )
        assert digest["engine"]["faults"] == 15205
        assert digest["engine"]["eviction_batches"] == 445

    def test_kmmap_out_of_memory(self):
        # kmmap's canonical miss path (batch eviction, zero-copy fills) in
        # the mmap-miss regime: 16 threads, uniform reads of a file 12.5x
        # the cache, so nearly every access faults and evicts.
        digest = assert_fastforward_agrees(
            _mmio,
            engine_kind="kmmap",
            seed=9,
            num_threads=16,
            accesses_per_thread=256,
            cache_pages=256,
            dataset_pages=3200,
            write_fraction=0.0,
            touch_once=False,
        )
        assert digest["engine"]["eviction_batches"] > 20
        assert digest["engine"]["major_faults"] > 3000

    @pytest.mark.parametrize("seed", SEEDS)
    def test_explicit_solo(self, seed):
        assert_modes_agree(run_explicit_cell, seed=seed)

    def test_explicit_multithreaded_fallback(self, ):
        assert_modes_agree(run_explicit_cell, seed=17, num_threads=4)


class TestFaultyConformance:
    @pytest.mark.parametrize("engine_kind", MMIO_ENGINE_KINDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mmio_with_faults(self, engine_kind, seed):
        # Out-of-memory so device traffic (the faultable surface) is heavy;
        # the digest includes the injected fault schedule itself.
        digest = assert_modes_agree(
            _mmio,
            engine_kind=engine_kind,
            seed=seed,
            touch_once=False,
            dataset_pages=768,
            cache_pages=96,
            fault_spec=FAULTY_SPEC,
            fault_seed=seed,
        )
        assert digest["fault_schedule"], "fault plan injected nothing"

    def test_explicit_with_faults(self):
        digest = assert_modes_agree(
            run_explicit_cell,
            seed=29,
            reads_per_thread=400,
            cache_pages=16,
            file_pages=128,
            fault_spec=FAULTY_SPEC,
            fault_seed=4,
        )
        assert digest["fault_schedule"], "fault plan injected nothing"


def _linux_readahead_cell(batched, seed, cores, fault_spec=None, traced=False):
    """A Linux cell mapped ``MADV_NORMAL``: every fault reads a readahead
    window, and the 96-page cache (24-page windows) reclaims mid-window.

    ``run_cell`` maps ``MADV_RANDOM`` (1-page windows), so this builds the
    same microbenchmark by hand.  Threads run on ``cores``; siblings of
    one physical core get the SMT CPI factor.  Returns the state digest,
    the merged breakdown and, when ``traced``, the finished spans.
    """
    from repro.bench.setups import make_linux_stack
    from repro.common import units
    from repro.fault.plan import FaultPlan, install_plan
    from repro.mmio.files import BackingFile
    from repro.mmio.vma import MADV_NORMAL
    from repro.obs import TRACER
    from repro.sim.executor import SimThread, make_epoch_executor
    from repro.workloads.microbench import access_workload

    SimThread.reset_ids()
    BackingFile.reset_ids()
    plan = FaultPlan(seed, fault_spec) if fault_spec is not None else None
    install_plan(plan)
    with TRACER.isolated(enable=traced, capacity=1 << 18):
        stack = make_linux_stack("nvme", 96)
        engine = stack.engine
        file = stack.allocator.create("ra", 256 * units.PAGE_SIZE)
        threads = [SimThread(core=core) for core in cores]
        mapping = engine.mmap(threads[0], file)
        mapping.madvise(threads[0], MADV_NORMAL)
        executor = make_epoch_executor(batched, engine.run_ahead_unbounded_ok)
        for index, thread in enumerate(threads):
            executor.add(
                thread,
                access_workload(
                    thread, mapping, 160, 0.2, False, seed, index, len(threads)
                ),
            )
        engine.machine.apply_smt_penalty(threads)
        result = executor.run()
        spans = TRACER.finished_spans() if traced else []
        assert TRACER.dropped == 0
    clear_plan()
    return mmio_state_digest(stack, result, plan), result.merged_breakdown(), spans


class TestLinuxReadaheadConformance:
    """Readahead windows, mid-window reclaim and the readahead-abort path."""

    def _agree(self, **kwargs):
        unbatched, _, _ = _linux_readahead_cell(False, **kwargs)
        batched, _, _ = _linux_readahead_cell(True, **kwargs)
        problems = diff_digests(unbatched, batched)
        assert not problems, "batched execution diverged:\n  " + "\n  ".join(
            problems[:10]
        )
        assert unbatched["engine"]["reclaim_runs"] > 0
        return unbatched

    def test_smt_windows(self):
        # Cores 0-3 and their siblings 16-19: every thread runs at CPI 1.4,
        # so charges are fractional and their order matters bit for bit.
        digest = self._agree(seed=3, cores=[0, 16, 1, 17, 2, 18, 3, 19])
        breakdown = digest["threads"][0]["breakdown"]
        assert any(not float(cycles).is_integer() for cycles in breakdown.values())

    def test_faulty_windows_abort_readahead(self):
        digest = self._agree(
            seed=8,
            cores=[0, 1, 2, 3, 4, 5],
            fault_spec=FaultSpec(error_rate=0.1, latency_rate=0.02),
        )
        assert digest["fault_schedule"], "fault plan injected nothing"
        assert digest["engine"]["readahead_aborted"] > 0

    def test_tracing_changes_no_state_and_spans_cover_the_charges(self):
        cores = [0, 16, 1, 17]
        plain, _, _ = _linux_readahead_cell(True, seed=5, cores=cores)
        traced, breakdown, spans = _linux_readahead_cell(
            True, seed=5, cores=cores, traced=True
        )
        assert diff_digests(plain, traced) == []
        # Every frame-allocation and tree-insert charge lands on a
        # fault.alloc span (reclaim runs nest inside it under its own
        # span); every fault-read wait and completion IRQ on fault.io.
        owners = {
            "fault.page_alloc": "fault.alloc",
            "fault.pcache_insert": "fault.alloc",
            "fault.lru": "fault.alloc",
            "idle.io.fault": "fault.io",
            "fault.io.irq": "fault.io",
        }
        for category, owner in owners.items():
            charged = sum(
                span.charges.get(category, 0.0) for span in spans if span.name == owner
            )
            assert breakdown.get(category) > 0
            assert charged == pytest.approx(breakdown.get(category), rel=1e-12)


class TestKmmapTracing:
    """Tracing observes kmmap's miss path without changing it."""

    def test_traced_run_has_the_untraced_digest(self):
        from repro.obs import TRACER

        cell = dict(
            seed=4, num_threads=8, accesses_per_thread=200, cache_pages=64,
            dataset_pages=800, write_fraction=0.25, touch_once=False,
        )
        plain = _mmio("kmmap", True, **cell)
        with TRACER.isolated(enable=True, capacity=1 << 18):
            traced = _mmio("kmmap", True, **cell)
            spans = TRACER.finished_spans()
            assert TRACER.dropped == 0
        assert diff_digests(plain, traced) == []
        assert plain["engine"]["eviction_batches"] > 0
        # Eviction charges land on the evict span, fill waits on fault.io.
        breakdown = {}
        for thread in plain["threads"]:
            for category, cycles in thread["breakdown"].items():
                breakdown[category] = breakdown.get(category, 0.0) + cycles
        owners = {
            "evict.select": "evict",
            "cache.hash.remove": "evict",
            "idle.fault.io.device": "fault.io",
        }
        for category, owner in owners.items():
            charged = sum(
                span.charges.get(category, 0.0) for span in spans if span.name == owner
            )
            assert breakdown[category] > 0
            assert charged == pytest.approx(breakdown[category], rel=1e-12)


class TestBatchingEngages:
    """The fast path must actually fire — a vacuous conformance pass
    (batched mode never batching) would prove nothing."""

    def test_mode_counters_excluded_from_digest(self):
        digest = run_cell(
            "aquila", True, seed=11, accesses_per_thread=900, dataset_pages=160
        )
        assert "hit_runs" not in digest["engine"]
        assert "batched_hits" not in digest["engine"]

    def test_mode_counters_nonzero_in_batched_mode(self):
        from repro.bench.setups import make_aquila_stack
        from repro.common import units
        from repro.mmio.files import BackingFile
        from repro.sim.executor import SimThread
        from repro.workloads.microbench import MicrobenchConfig, run_microbench

        SimThread.reset_ids()
        BackingFile.reset_ids()
        stack = make_aquila_stack("pmem", 256)
        f = stack.allocator.create("engage", 160 * units.PAGE_SIZE)
        cfg = MicrobenchConfig(
            num_threads=4, accesses_per_thread=900, touch_once=True, batched=True
        )
        run_microbench(stack.engine, f, cfg)
        assert stack.engine.hit_runs > 0
        assert stack.engine.batched_hits > stack.engine.hit_runs
        assert MODE_COUNTERS == {
            "hit_runs",
            "batched_hits",
            "ff_runs",
            "ff_hits",
            "ff_faults",
            "fastforward",
        }

    def test_explicit_read_run_engages_solo(self):
        from repro.sim.conformance import run_explicit_cell

        digest = run_explicit_cell(True, reads_per_thread=300, cache_pages=64,
                                   file_pages=48, seed=2)
        # Small file + big cache => hit-heavy; cache counters must show
        # the same hits as unbatched (they are real hits, not metadata).
        assert digest["cache_counters"]["hits"] > 0

    def test_engine_matrix_is_complete(self):
        assert set(ENGINE_KINDS) == {"aquila", "linux", "kmmap", "explicit"}
