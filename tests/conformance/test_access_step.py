"""``MmioEngine.access_step``: each branch against the per-op reference.

Every case retires a short op list through ``access_step`` twice, each
time on a fresh stack: once with the case's horizon and gates, once as
the unbatched reference (horizon ``None``, fast-forward off).  The two
full end-state digests must agree, and the op under test must take the
branch the case names — the fused fault, the fused single hit, or the
per-op ``load``/``store`` path.
"""

import math

import pytest

from repro.bench.setups import make_aquila_stack, make_kmmap_stack, make_linux_stack
from repro.common import units
from repro.mmio.files import BackingFile
from repro.mmio.vma import MADV_RANDOM
from repro.obs import TRACER
from repro.sim.conformance import MMIO_ENGINE_KINDS, diff_digests, mmio_state_digest
from repro.sim.executor import RunResult, SimThread
from repro.sim.fastforward import AccessPlan

MAKERS = {
    "aquila": make_aquila_stack,
    "kmmap": make_kmmap_stack,
    "linux": make_linux_stack,
}

#: case -> (ops as (page, in-page offset, is_write); the last op is the
#: one under test, the ones before it run first on the per-op path).
CASES = {
    "fastforward_read_miss": [(3, 16, False)],
    "write_miss": [(3, 16, True)],
    "hit_past_horizon": [(3, 16, False), (3, 24, False)],
    "cpi_1_4": [(3, 16, False)],
    "tracer_on": [(3, 16, False)],
    "open_span": [(3, 16, False)],
    "no_horizon": [(3, 16, False)],
}

#: Cases whose op under test must take the per-op load/store path.
PER_OP = {"write_miss", "cpi_1_4", "tracer_on", "open_span", "no_horizon"}


def _run(engine_kind, case, reference):
    """Run ``case``'s ops; returns (digest, engine, consumed, calls)."""
    SimThread.reset_ids()
    BackingFile.reset_ids()
    stack = MAKERS[engine_kind]("pmem", 64)
    engine = stack.engine
    thread = SimThread(core=0)
    mapping = engine.mmap(thread, stack.allocator.create("step", 32 * units.PAGE_SIZE))
    mapping.madvise(thread, MADV_RANDOM)
    if case == "cpi_1_4":
        thread.clock.cpi_factor = 1.4
    ops = CASES[case]
    plan = AccessPlan(*zip(*ops))
    last = len(ops) - 1
    for index in range(last):
        engine.access_step(thread, mapping, plan, index, len(ops))
    engine.fastforward = not reference
    if reference or case == "no_horizon":
        thread.run_horizon = None
    elif case == "hit_past_horizon":
        # A clock tie with a lower-order heap top: the horizon is the
        # largest float below this thread's clock.
        thread.run_horizon = math.nextafter(thread.clock.now, -math.inf)
    else:
        thread.run_horizon = math.inf
    calls = []
    for name in ("load", "store"):
        real = getattr(engine, name)
        setattr(engine, name, lambda *args, _r=real, _n=name: calls.append(_n) or _r(*args))
    counters = (engine.faults, getattr(engine, "ff_faults", 0), engine.hit_runs)
    if case == "open_span":
        with TRACER.span("outer", thread.clock):
            consumed = engine.access_step(thread, mapping, plan, last, len(ops))
    else:
        consumed = engine.access_step(thread, mapping, plan, last, len(ops))
    del engine.load, engine.store
    deltas = (
        engine.faults - counters[0],
        getattr(engine, "ff_faults", 0) - counters[1],
        engine.hit_runs - counters[2],
    )
    thread.run_horizon = None
    return mmio_state_digest(stack, RunResult([thread])), consumed, calls, deltas


def _both(engine_kind, case):
    if case in ("tracer_on", "open_span"):
        with TRACER.isolated(enable=True):
            return _run(engine_kind, case, False), _run(engine_kind, case, True)
    return _run(engine_kind, case, False), _run(engine_kind, case, True)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("engine_kind", MMIO_ENGINE_KINDS)
def test_branch_matches_the_per_op_reference(engine_kind, case):
    (digest, consumed, calls, deltas), (ref_digest, _, ref_calls, _) = _both(
        engine_kind, case
    )
    assert diff_digests(ref_digest, digest) == []
    assert consumed == 1
    assert len(ref_calls) == 1
    faults, ff_faults, hit_runs = deltas
    if case in PER_OP:
        assert calls == ref_calls
        return
    # Fused branches: no load/store call and no hit run.
    assert calls == []
    assert hit_runs == 0
    if case == "fastforward_read_miss":
        assert faults == 1
        # Only Aquila has a fused replay of its fault protocol.
        assert ff_faults == (1 if engine_kind == "aquila" else 0)
    else:
        assert faults == 0
