"""Device-level fault injection and the retry-with-backoff policy."""

import pytest

from repro.bench.setups import make_aquila_stack, make_kmmap_stack, make_linux_stack
from repro.common import units
from repro.common.errors import DeviceError, TornWriteError, TransientDeviceError
from repro.devices.io_engines import KernelFaultIO
from repro.devices.nvme import NvmeDevice
from repro.devices.pmem import PmemDevice
from repro.fault.plan import (
    FAULT_ERROR,
    FAULT_LATENCY,
    FAULT_TORN,
    FaultPlan,
    FaultSpec,
    clear_plan,
    plan_installed,
)
from repro.fault.retry import DEFAULT_RETRY_POLICY, RetryPolicy, with_retries
from repro.mmio.files import BackingFile
from repro.obs import METRICS
from repro.sim.clock import CycleClock
from repro.sim.conformance import MMIO_ENGINE_KINDS
from repro.sim.executor import SimThread
from repro.sim.invariants import check_frames

PAGE = units.PAGE_SIZE


@pytest.fixture(autouse=True)
def _clean_state():
    yield
    clear_plan()
    METRICS.disable()
    METRICS.reset()


def _nvme_with(triggers, **spec_kwargs):
    plan = FaultPlan(1, FaultSpec(triggers={"nvme0": triggers}, **spec_kwargs))
    with plan_installed(plan):
        device = NvmeDevice(capacity_bytes=4 * units.MIB)
    return device, plan


def _giveup_stack(engine_kind, triggers):
    """A 32-page NVMe stack whose 64-page file holds byte p+1 in page p,
    msynced and dropped from the cache; ``triggers`` arm the device."""
    SimThread.reset_ids()
    BackingFile.reset_ids()
    maker = {
        "aquila": make_aquila_stack,
        "kmmap": make_kmmap_stack,
        "linux": make_linux_stack,
    }[engine_kind]
    with plan_installed(FaultPlan(1, FaultSpec(triggers={"nvme0": triggers}))):
        stack = maker("nvme", 32)
    thread = SimThread(core=0)
    file = stack.allocator.create("giveup", 64 * PAGE)
    mapping = stack.engine.mmap(thread, file)
    for page in range(64):
        mapping.store(thread, page * PAGE, bytes([page + 1]) * PAGE)
    mapping.msync(thread)
    stack.engine.invalidate_file(thread, file)
    return stack, thread, mapping


class TestDeviceInjection:
    def test_no_plan_no_faults(self):
        device = NvmeDevice(capacity_bytes=4 * units.MIB)
        assert device.faults is None
        device.submit(CycleClock(), 0, PAGE, is_write=False)

    def test_error_trigger_raises_transient(self):
        device, _ = _nvme_with({0: FAULT_ERROR})
        with pytest.raises(TransientDeviceError):
            device.submit(CycleClock(), 0, PAGE, is_write=False)

    def test_torn_write_lands_prefix_only(self):
        device, _ = _nvme_with({0: FAULT_TORN})
        data = bytes(range(256)) * (PAGE // 256)
        with pytest.raises(TornWriteError) as excinfo:
            device.submit(CycleClock(), 0, PAGE, is_write=True, data=data)
        torn = excinfo.value.written_bytes
        assert 0 <= torn < PAGE
        stored = device.store.read(0, PAGE)
        assert stored[:torn] == data[:torn]
        assert stored[torn:] == bytes(PAGE - torn)

    def test_latency_spike_delays_completion(self):
        clean = NvmeDevice(capacity_bytes=4 * units.MIB)
        clock_clean = CycleClock()
        clean.submit(clock_clean, 0, PAGE, is_write=False)

        device, _ = _nvme_with({0: FAULT_LATENCY})
        clock_faulty = CycleClock()
        device.submit(clock_faulty, 0, PAGE, is_write=False)
        assert clock_faulty.now > clock_clean.now

    def test_latency_scaled_by_device_class(self):
        """pmem spikes are ~100x shorter than NVMe spikes."""
        assert PmemDevice.fault_latency_scale < NvmeDevice.fault_latency_scale

    def test_submit_async_error_raises(self):
        device, _ = _nvme_with({0: FAULT_ERROR})
        with pytest.raises(TransientDeviceError):
            device.submit_async(CycleClock(), 0, PAGE, is_write=True, data=bytes(PAGE))

    def test_counters_accumulate(self):
        device, plan = _nvme_with({0: FAULT_ERROR, 1: FAULT_LATENCY})
        clock = CycleClock()
        with pytest.raises(TransientDeviceError):
            device.submit(clock, 0, PAGE, is_write=False)
        device.submit(clock, 0, PAGE, is_write=False)
        counters = plan.injector_for("nvme0").counters()
        assert counters["errors"] == 1
        assert counters["latency"] == 1
        assert plan.total_faults() == 2


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        policy = RetryPolicy()
        assert policy.backoff_cycles(0) == policy.base_backoff_cycles
        assert policy.backoff_cycles(1) == policy.base_backoff_cycles * policy.multiplier
        assert (
            policy.backoff_cycles(2)
            == policy.base_backoff_cycles * policy.multiplier**2
        )

    def test_retry_recovers_and_charges_backoff(self):
        METRICS.enable()
        device, _ = _nvme_with({0: FAULT_ERROR})
        io = KernelFaultIO(device)
        clock = CycleClock()
        data = io.read(clock, 0, PAGE, "io")
        assert data == bytes(PAGE)
        assert clock.breakdown.get("io.retry_backoff") == pytest.approx(
            DEFAULT_RETRY_POLICY.backoff_cycles(0)
        )
        assert METRICS.counter("fault.retries").value == 1

    def test_giveup_escalates_to_permanent_error(self):
        METRICS.enable()
        attempts = DEFAULT_RETRY_POLICY.max_attempts
        device, _ = _nvme_with({i: FAULT_ERROR for i in range(attempts)})
        io = KernelFaultIO(device)
        with pytest.raises(DeviceError) as excinfo:
            io.read(CycleClock(), 0, PAGE, "io")
        assert not isinstance(excinfo.value, TransientDeviceError)
        assert METRICS.counter("fault.giveups").value == 1
        assert METRICS.counter("fault.retries").value == attempts - 1

    @pytest.mark.parametrize("engine_kind", MMIO_ENGINE_KINDS)
    def test_fill_giveup_releases_its_frames(self, engine_kind):
        """A page fill whose read gives up leaves no frame or lock behind.

        A 32-page cache on NVMe over a 64-page file holding byte p+1 in
        page p (written, msynced, dropped).  The read of page 5 fails on
        every attempt, so the load raises; afterwards every frame is free
        or resident, nothing stays locked, and a retried load of page 5
        reads its bytes instead of an unfilled frame.
        """
        attempts = DEFAULT_RETRY_POLICY.max_attempts
        stack, thread, mapping = _giveup_stack(engine_kind, {})
        fill_read = stack.device.faults.op_index
        stack, thread, mapping = _giveup_stack(
            engine_kind, {fill_read + i: FAULT_ERROR for i in range(attempts)}
        )
        with pytest.raises(DeviceError) as excinfo:
            mapping.load(thread, 5 * PAGE, 8)
        assert not isinstance(excinfo.value, TransientDeviceError)
        assert stack.device.faults.errors_injected == attempts
        check_frames(stack)
        assert mapping.load(thread, 5 * PAGE, 8) == b"\x06" * 8
        check_frames(stack)

    def test_torn_write_is_retried_to_full_write(self):
        """A torn write retried lands the complete payload."""
        device, _ = _nvme_with({0: FAULT_TORN})
        io = KernelFaultIO(device)
        clock = CycleClock()
        data = b"\xab" * PAGE
        io.write(clock, 0, data, "io")
        assert device.store.read(0, PAGE) == data

    def test_custom_policy_attempt_count(self):
        device, _ = _nvme_with({i: FAULT_ERROR for i in range(10)})
        clock = CycleClock()
        policy = RetryPolicy(max_attempts=2)
        calls = []

        def attempt():
            calls.append(1)
            return device.submit(clock, 0, PAGE, is_write=False)

        with pytest.raises(DeviceError):
            with_retries(clock, attempt, "io", policy)
        assert len(calls) == 2

    def test_retry_cycle_totals_deterministic(self):
        """Same seed + plan => identical cycle totals across two runs."""
        totals = []
        for _ in range(2):
            plan = FaultPlan(42, FaultSpec(error_rate=0.2, latency_rate=0.2))
            with plan_installed(plan):
                device = NvmeDevice(capacity_bytes=4 * units.MIB)
            io = KernelFaultIO(device)
            clock = CycleClock()
            for index in range(50):
                io.write(clock, (index % 16) * PAGE, bytes(PAGE), "io")
            totals.append(clock.now)
        assert totals[0] == totals[1]
