"""kmmap: Kreon's custom in-kernel mmio path (paper Sections 5 and 7.2).

kmmap fixes the Linux mmap pathologies that hurt key-value stores — it
uses a lazy writeback strategy, a custom eviction policy, and a CoW-aware
msync — but it remains *in the kernel*:

* every fault still pays the full ring 3 -> ring 0 trap (1287 cycles);
* device I/O goes through the kernel block layer (pmem: non-SIMD copy;
  NVMe: interrupt-driven completion);
* there is no per-application customization and no SPDK/DAX bypass.

This is exactly the contrast Figure 9 draws: with Kreon on top, Aquila
wins modestly on throughput (device-bound on NVMe) but clearly on average
and especially tail latency.

Implementation: the engine shares Aquila's scalable cache structures
(Kreon/FastMap pioneered the separate clean/dirty trees that Aquila
adopted, Section 7.2) but swaps the execution domain, the I/O path, and
uses coarser synchronous eviction/writeback batches — the source of its
tail-latency stalls.
"""

from __future__ import annotations

from repro.common import constants
from repro.devices.block import BlockDevice
from repro.devices.io_engines import KernelFaultIO
from repro.hw.machine import Machine
from repro.hw.vmx import ExecutionDomain, VMXCostModel
from repro.mmio.aquila import AquilaEngine
from repro.obs import TRACER


class KmmapEngine(AquilaEngine):
    """Kreon's kmmap: Aquila-like cache structures, kernel-resident."""

    name = "kmmap"

    #: kmmap evicts with coarser batches than Aquila; the longer synchronous
    #: stalls are what Figure 9's tail-latency gap comes from.
    EVICTION_BATCH_MULTIPLIER = 4

    def __init__(
        self,
        machine: Machine,
        cache_pages: int,
        device: BlockDevice,
        eviction_batch: int = constants.EVICTION_BATCH_PAGES,
        shootdown_batch: int = constants.TLB_SHOOTDOWN_BATCH,
        **kwargs,
    ) -> None:
        super().__init__(
            machine,
            cache_pages,
            io_path=KernelFaultIO(device),
            eviction_batch=eviction_batch * self.EVICTION_BATCH_MULTIPLIER,
            shootdown_batch=shootdown_batch,
            **kwargs,
        )
        # Replace the execution-domain pieces: kmmap is kernel code serving
        # a ring 3 application.
        self.vmx = VMXCostModel(ExecutionDomain.ROOT_RING3)
        self._shootdowns = machine.make_shootdown_controller("linux")

    def _charge_range_update(self, thread) -> None:
        # mmap-class calls are ordinary syscalls into the kmmap module.
        self.vmx.syscall(thread.clock, "syscall.mmap")

    def _advise_cost(self) -> float:
        return constants.SYSCALL_CYCLES

    def msync(self, thread, mapping) -> int:
        """CoW-timestamp msync: a syscall, then the shared flush logic."""
        with TRACER.span("msync.syscall", thread.clock):
            self.vmx.syscall(thread.clock, "syscall.msync")
        return super().msync(thread, mapping)
