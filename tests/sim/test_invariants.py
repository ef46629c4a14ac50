"""``repro.sim.invariants.check_mappings``: holds after runs, catches breaks."""

import pytest

from repro.bench.setups import make_aquila_stack, make_kmmap_stack, make_linux_stack
from repro.common import units
from repro.common.errors import SimulationError
from repro.mmio.files import BackingFile
from repro.sim.executor import SimThread
from repro.sim.invariants import check_frames, check_mappings
from repro.workloads.microbench import MicrobenchConfig, run_microbench

MAKERS = {
    "aquila": make_aquila_stack,
    "kmmap": make_kmmap_stack,
    "linux": make_linux_stack,
}


def _stack(engine_kind, fastforward=True):
    """An out-of-memory run with writes: faults, evictions and shootdowns."""
    SimThread.reset_ids()
    BackingFile.reset_ids()
    stack = MAKERS[engine_kind]("pmem", 64)
    file = stack.allocator.create("inv", 256 * units.PAGE_SIZE)
    config = MicrobenchConfig(
        num_threads=4,
        accesses_per_thread=300,
        write_fraction=0.3,
        touch_once=False,
        fastforward=fastforward,
    )
    run_microbench(stack.engine, file, config)
    return stack


@pytest.mark.parametrize("fastforward", [False, True])
@pytest.mark.parametrize("engine_kind", sorted(MAKERS))
def test_holds_after_a_run(engine_kind, fastforward):
    stack = _stack(engine_kind, fastforward)
    assert stack.engine.cache.evictions > 0
    check_frames(stack)
    check_mappings(stack)


def _resident(stack):
    return next(iter(stack.engine.cache._pages.values()))


def _mapped(stack):
    return next(p for p in stack.engine.cache._pages.values() if p.mapped_vpns)


def _drop_reverse_mapping(stack):
    _mapped(stack).mapped_vpns.clear()


def _stale_tlb_entry(stack):
    vpn = max(stack.engine.page_table._entries) + 1000
    stack.engine.machine.tlbs[0]._entries[vpn] = None


def _lru_key_lost(stack):
    stack.engine.cache.lru.remove(_resident(stack).key)


def _pte_to_free_frame(stack):
    page = _mapped(stack)
    vpn = next(iter(page.mapped_vpns))
    del stack.engine.cache._pages[page.key]
    stack.engine.cache.lru.remove(page.key)
    assert vpn in stack.engine.page_table._entries


@pytest.mark.parametrize(
    "corrupt",
    [_drop_reverse_mapping, _stale_tlb_entry, _lru_key_lost, _pte_to_free_frame],
    ids=lambda f: f.__name__.lstrip("_"),
)
@pytest.mark.parametrize("engine_kind", sorted(MAKERS))
def test_catches_a_broken_link(engine_kind, corrupt):
    stack = _stack(engine_kind)
    corrupt(stack)
    with pytest.raises(SimulationError, match="mapping invariant"):
        check_mappings(stack)
