"""Golden pin of the canonical Aquila-family miss path (Aquila and kmmap).

kmmap never takes Aquila's fused fault replay, and Aquila leaves it
whenever fast-forward is off, so the canonical fault, fill and eviction
path is the only one these runs exercise (kmmap's cold hits may still
retire in fast-forward windows).  The tier pins four small runs bit for
bit:

* a kmmap run shaped like the ``mmap-miss`` benchmark: 16 threads over
  pmem, uniform reads of a file 12.5 times the cache, batched with
  fast-forward on;
* kmmap on NVMe, where every kernel-path fill pays the IRQ completion
  charge and 25% of the accesses are stores;
* Aquila on pmem with fast-forward off and 25% stores, so eviction
  writes dirty victims back before it frees them;
* the same Aquila walk on SMT sibling cores (CPI 1.4), where fractional
  charges make the clock depend on the order they are made in.

Each pin holds the full state digest, every engine, cache, freelist,
device and shootdown counter, and the merged per-category cycle
breakdown.  The pinned values live in ``aquila_miss_golden.json``;
regenerate them with
``PYTHONPATH=src python tests/regression/test_aquila_miss_golden.py``
only for a deliberate model change.
"""

import json
import os
import random

import pytest

from repro.bench.setups import make_aquila_stack, make_kmmap_stack
from repro.common import units
from repro.mmio.files import BackingFile
from repro.sim.conformance import _numeric_state, hash_digest, mmio_state_digest
from repro.sim.executor import Executor, RunResult, SimThread
from repro.sim.rand import derive_seed
from repro.workloads.microbench import MicrobenchConfig, run_microbench

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "aquila_miss_golden.json")


def _reset_ids() -> None:
    SimThread.reset_ids()
    BackingFile.reset_ids()


def _counters(stack) -> dict:
    engine = stack.engine
    cache = engine.cache
    device = stack.device
    return {
        "engine": _numeric_state(engine),
        "vmas": _numeric_state(engine.vmas),
        "page_table": _numeric_state(engine.page_table),
        "cache": _numeric_state(cache),
        "cache.table": _numeric_state(cache.table),
        "cache.lru_len": len(cache.lru),
        "freelist": _numeric_state(cache.freelist),
        "freelist.core_queues": [len(queue) for queue in cache.freelist._core_queues],
        "freelist.node_queues": [len(queue) for queue in cache.freelist._node_queues],
        "device": _numeric_state(device),
        "device.read_timeline": _numeric_state(device._read_timeline),
        "device.write_timeline": _numeric_state(device._write_timeline),
        "shootdowns": _numeric_state(engine._shootdowns),
    }


def _pin(stack, result) -> dict:
    return {
        "state": hash_digest(mmio_state_digest(stack, result)),
        "counters": json.loads(json.dumps(_counters(stack))),
        "breakdown": dict(sorted(result.merged_breakdown().as_dict().items())),
    }


def run_kmmap_miss() -> dict:
    """16 kmmap threads, 256 uniform reads each, over 3200 pmem pages
    through a 256-page cache (the ``mmap-miss`` shape, scaled down)."""
    _reset_ids()
    stack = make_kmmap_stack("pmem", 256)
    file = stack.allocator.create("shared", 256 * 100 // 8 * units.PAGE_SIZE)
    config = MicrobenchConfig(
        num_threads=16,
        accesses_per_thread=256,
        touch_once=False,
        shared_file=True,
        seed=7,
        batched=True,
        fastforward=True,
    )
    return _pin(stack, run_microbench(stack.engine, file, config))


def _walk_stack(stack, cores, accesses=200, file_pages=512) -> dict:
    """Threads on ``cores`` make ``accesses`` uniform accesses each (25%
    8-byte stores) over ``file_pages`` pages on the per-op executor."""
    file = stack.allocator.create("walk", file_pages * units.PAGE_SIZE)

    def walk(thread, mapping):
        rng = random.Random(derive_seed(13, f"aq-walk-{thread.tid}"))
        for _ in range(accesses):
            offset = rng.randrange(file_pages) * units.PAGE_SIZE + rng.randrange(0, 4088, 8)
            start = thread.clock.now
            if rng.random() < 0.25:
                mapping.store(thread, offset, b"aq-walk!")
            else:
                mapping.load(thread, offset, 8)
            thread.record_op(start)
            yield

    executor = Executor()
    threads = [SimThread(core=core) for core in cores]
    mapping = stack.engine.mmap(threads[0], file)
    for thread in threads:
        executor.add(thread, walk(thread, mapping))
    stack.machine.apply_smt_penalty(threads)
    return _pin(stack, executor.run())


def run_kmmap_nvme() -> dict:
    """Four kmmap threads over NVMe through a 64-page cache."""
    _reset_ids()
    return _walk_stack(make_kmmap_stack("nvme", 64), cores=(0, 1, 2, 3))


def run_aquila_dirty(cores=(0, 1, 2, 3)) -> dict:
    """Four Aquila threads over pmem (DAX) through a 64-page cache with
    fast-forward off: dirty victims are written back during eviction."""
    _reset_ids()
    return _walk_stack(make_aquila_stack("pmem", 64), cores=cores)


def run_aquila_dirty_smt() -> dict:
    """The same Aquila walk on two SMT sibling pairs (CPI 1.4)."""
    return run_aquila_dirty(cores=(0, 16, 1, 17))


RUNS = {
    "kmmap_miss": run_kmmap_miss,
    "kmmap_nvme": run_kmmap_nvme,
    "aquila_dirty": run_aquila_dirty,
    "aquila_dirty_smt": run_aquila_dirty_smt,
}


def _golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(autouse=True)
def _fresh_ids():
    _reset_ids()
    yield
    _reset_ids()


@pytest.fixture(scope="module")
def observed():
    """Each run once per module; every part of its pin is checked."""
    return {}


@pytest.mark.parametrize("name", sorted(RUNS))
@pytest.mark.parametrize("part", ["state", "counters", "breakdown"])
def test_aquila_miss_golden(name, part, observed):
    if name not in observed:
        observed[name] = RUNS[name]()
    assert observed[name][part] == _golden()[name][part], (
        f"{name}: {part} drifted from the pinned Aquila-family miss golden"
    )


def test_runs_exercise_the_miss_path():
    """Every run must fault, evict and (where stores run) write back."""
    golden = _golden()
    for name in RUNS:
        counters = golden[name]["counters"]
        assert counters["engine"]["major_faults"] > counters["cache"]["capacity_pages"], name
        assert counters["engine"]["eviction_batches"] > 0, name
    for name in ("kmmap_nvme", "aquila_dirty", "aquila_dirty_smt"):
        assert golden[name]["counters"]["device"]["writes"] > 0, name
    assert golden["kmmap_nvme"]["breakdown"]["fault.io.irq"] > 0
    assert golden["aquila_dirty_smt"]["state"] != golden["aquila_dirty"]["state"]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump({name: run() for name, run in RUNS.items()}, handle, indent=1, sort_keys=True)
        handle.write("\n")
