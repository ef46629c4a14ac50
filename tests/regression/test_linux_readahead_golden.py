"""Golden pin of the Linux mmap readahead (miss) path.

The conformance microbenchmark maps ``MADV_RANDOM``, so every Linux
conformance cell faults 1-page windows; nothing there exercises the
readahead window, its mid-window direct reclaim or the per-page tree
inserts.  This tier pins two small runs that do, bit for bit:

* a RocksDB YCSB-A job in ``mmap`` mode (the KV path faults 32-page
  windows clamped to a quarter of the cache), load phase included;
* a ``MADV_NORMAL`` walk by four threads over a file four times the
  cache, with writes, so direct reclaim (with writeback of dirty
  victims) runs in the middle of readahead windows;
* the same walk on SMT sibling cores (CPI 1.4), where fractional
  charges make the clock depend on the order they are made in;
* the same walk under a seeded transient-fault plan, so blocking fills
  retry and failed readahead submissions drop the pages they hold;
* an ``mmap-miss``-shaped run: 16 threads reading uniformly through
  ``MADV_RANDOM`` over a pmem file 12.5x the cache, so direct reclaim
  runs every ~32 faults.

Each pin holds the full state digest, every engine, cache, device and
tree-lock counter, and the merged per-category cycle breakdown.  The
pinned values live in ``linux_readahead_golden.json``; regenerate them
with ``PYTHONPATH=src python tests/regression/test_linux_readahead_golden.py``
only for a deliberate model change.
"""

import json
import os
import random

import pytest

from repro.bench.setups import make_linux_stack, make_rocksdb
from repro.common import units
from repro.fault.plan import FaultPlan, FaultSpec, plan_installed
from repro.mmio.files import BackingFile
from repro.mmio.vma import MADV_NORMAL
from repro.sim.conformance import _numeric_state, hash_digest, mmio_state_digest
from repro.sim.executor import Executor, RunResult, SimThread
from repro.sim.rand import derive_seed
from repro.workloads.microbench import MicrobenchConfig, run_microbench
from repro.workloads.ycsb import YCSBConfig, YCSBDriver

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "linux_readahead_golden.json")


def _reset_ids() -> None:
    SimThread.reset_ids()
    BackingFile.reset_ids()


def _counters(stack) -> dict:
    engine = stack.engine
    cache = engine.cache
    device = stack.device
    return {
        "engine": _numeric_state(engine),
        "cache": _numeric_state(cache),
        "cache.free_frames": len(cache._free),
        "cache.lru_len": len(cache.lru),
        "device": _numeric_state(device),
        "device.read_timeline": _numeric_state(device._read_timeline),
        "device.write_timeline": _numeric_state(device._write_timeline),
        "tree_locks": {
            str(file_id): [
                fc.tree_lock.acquisitions,
                fc.tree_lock.contended_acquisitions,
                fc.tree_lock.total_wait_cycles,
            ]
            for file_id, fc in sorted(cache._files.items())
        },
    }


def _pin(stack, threads, extra=None, plan=None) -> dict:
    result = RunResult(threads)
    state = mmio_state_digest(stack, result, plan)
    if extra:
        state.update(extra)
    return {
        "state": hash_digest(state),
        "counters": json.loads(json.dumps(_counters(stack))),
        "breakdown": dict(sorted(result.merged_breakdown().as_dict().items())),
    }


def run_kv_ycsb_a() -> dict:
    """RocksDB (mmap mode) loads 512 records, then runs 4 x 150 YCSB-A ops."""
    _reset_ids()
    db, stack = make_rocksdb("mmap", cache_pages=64, capacity_bytes=1 << 28)
    config = YCSBConfig(
        workload="A",
        record_count=512,
        operation_count=600,
        distribution="uniform",
        seed=5,
        threads=4,
    )
    driver = YCSBDriver(db, config)
    loader = SimThread(core=0)
    driver.load(loader)
    db.flush(loader)
    db.compact_all(loader)
    executor = Executor()
    threads = []
    for index in range(4):
        thread = SimThread(core=index)
        thread.clock.now = loader.clock.now
        threads.append(thread)
        executor.add(thread, driver.run_workload(thread, 150))
    stack.machine.apply_smt_penalty(threads)
    executor.run()
    return _pin(
        stack,
        [loader] + threads,
        extra={"db": db.stats(), "ycsb": vars(driver.stats)},
    )


def run_normal_walk(cores=(0, 1, 2, 3), plan=None) -> dict:
    """Four threads, 200 accesses each (25% 8-byte stores) over 256 pages
    mapped ``MADV_NORMAL`` through a 64-page cache on NVMe.  A fault
    ``plan``, if given, is armed on the device."""
    _reset_ids()
    with plan_installed(plan):
        stack = make_linux_stack("nvme", cache_pages=64, capacity_bytes=1 << 26)
    engine = stack.engine
    file = stack.allocator.create("walk", 256 * units.PAGE_SIZE)

    def walk(thread, mapping):
        rng = random.Random(derive_seed(11, f"ra-walk-{thread.tid}"))
        for _ in range(200):
            offset = rng.randrange(256) * units.PAGE_SIZE + rng.randrange(0, 4088, 8)
            start = thread.clock.now
            if rng.random() < 0.25:
                mapping.store(thread, offset, b"ra-walk!")
            else:
                mapping.load(thread, offset, 8)
            thread.record_op(start)
            yield

    executor = Executor()
    threads = [SimThread(core=core) for core in cores]
    mapping = engine.mmap(threads[0], file)
    mapping.madvise(threads[0], MADV_NORMAL)
    for thread in threads:
        executor.add(thread, walk(thread, mapping))
    stack.machine.apply_smt_penalty(threads)
    executor.run()
    return _pin(stack, threads, plan=plan)


def run_normal_walk_smt() -> dict:
    """The same walk on two SMT sibling pairs: every thread runs at CPI
    1.4, so charges are fractional and the clock depends on their order."""
    return run_normal_walk(cores=(0, 16, 1, 17))


def run_normal_walk_faulty() -> dict:
    """The walk on six cores with 10% of device commands failing
    transiently (and 2% slowed): blocking fills retry with backoff, and
    readahead submissions that fail drop their pages."""
    plan = FaultPlan(8, FaultSpec(error_rate=0.1, latency_rate=0.02))
    return run_normal_walk(cores=(0, 1, 2, 3, 4, 5), plan=plan)


def run_mmap_miss() -> dict:
    """16 threads, 64 uniform ``MADV_RANDOM`` reads each, over a pmem
    file 12.5x a 64-page cache, batched with fast-forward on."""
    _reset_ids()
    stack = make_linux_stack("pmem", cache_pages=64, capacity_bytes=1 << 26)
    file = stack.allocator.create("shared", 64 * 100 // 8 * units.PAGE_SIZE)
    config = MicrobenchConfig(
        num_threads=16, accesses_per_thread=64, touch_once=False, seed=7
    )
    result = run_microbench(stack.engine, file, config)
    return _pin(stack, result.threads)


RUNS = {
    "kv_ycsb_a": run_kv_ycsb_a,
    "mmap_miss": run_mmap_miss,
    "normal_walk": run_normal_walk,
    "normal_walk_faulty": run_normal_walk_faulty,
    "normal_walk_smt": run_normal_walk_smt,
}


def _golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(autouse=True)
def _fresh_ids():
    _reset_ids()
    yield
    _reset_ids()


@pytest.mark.parametrize("name", sorted(RUNS))
@pytest.mark.parametrize("part", ["state", "counters", "breakdown"])
def test_linux_readahead_golden(name, part):
    observed = RUNS[name]()
    assert observed[part] == _golden()[name][part], (
        f"{name}: {part} drifted from the pinned Linux readahead golden"
    )


def test_walk_reclaims_mid_window():
    """The walk must actually reclaim while readahead windows are open."""
    pinned = _golden()["normal_walk"]["counters"]
    assert pinned["engine"]["reclaim_runs"] > 0
    # Windows fill many pages per major fault, so reclaim runs mid-window.
    assert pinned["cache"]["evictions"] > 4 * pinned["engine"]["major_faults"]


def test_faulty_walk_retries_fills_and_aborts_readahead():
    """The faulty walk must take both failure paths of a fill."""
    pinned = _golden()["normal_walk_faulty"]
    assert pinned["breakdown"].get("fault.io.retry_backoff", 0) > 0
    assert pinned["counters"]["engine"]["readahead_aborted"] > 0


def test_mmap_miss_reclaims_every_few_dozen_faults():
    """The mmap-miss run faults nearly every access and reclaims often."""
    engine = _golden()["mmap_miss"]["counters"]["engine"]
    assert engine["major_faults"] > 900
    assert engine["major_faults"] // 40 < engine["reclaim_runs"]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump({name: run() for name, run in RUNS.items()}, handle, indent=1, sort_keys=True)
        handle.write("\n")
