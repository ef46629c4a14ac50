"""Structural invariants of an mmio stack, checked between operations.

The conformance tier compares end states across executor modes, which
cannot see a leak that every mode makes alike.  These checks can: they
hold for any stack at an operation boundary, whatever ran before.
"""

from __future__ import annotations

from typing import List

from repro.common.errors import SimulationError


def _free_frames(cache) -> List[int]:
    """Every frame on the cache's free list(s), duplicates kept."""
    freelist = getattr(cache, "freelist", None)
    if freelist is None:                 # Linux kernel page cache
        return list(cache._free)
    frames: List[int] = []
    for queue in freelist._core_queues + freelist._node_queues:
        frames.extend(queue)
    return frames


def check_frames(stack) -> None:
    """Raise :class:`SimulationError` unless the cache's frames are conserved.

    For the mmio cache of ``stack`` (Aquila, kmmap or Linux): free frames
    plus resident pages equal ``capacity_pages``, no frame is both free
    and resident, and no resident page is still ``locked`` (PG_locked is
    only held inside a fault).  Call it between operations.
    """
    cache = stack.engine.cache
    free = _free_frames(cache)
    resident = list(cache._pages.values())
    problems = []
    if len(free) + len(resident) != cache.capacity_pages:
        problems.append(
            f"{len(free)} free + {len(resident)} resident frames != "
            f"capacity {cache.capacity_pages}"
        )
    both = set(free) & {page.frame for page in resident}
    if both:
        problems.append(f"frames both free and resident: {sorted(both)[:8]}")
    locked = [page.key for page in resident if page.locked]
    if locked:
        problems.append(f"resident pages left locked: {sorted(locked)[:8]}")
    if problems:
        raise SimulationError("frame invariant violated: " + "; ".join(problems))


def check_mappings(stack) -> None:
    """Raise :class:`SimulationError` unless PTEs, cache, LRU and TLBs agree.

    For the mmio engine of ``stack`` (Aquila, kmmap or Linux):

    * every PTE maps a resident page's frame, and that page's
      ``mapped_vpns`` holds the PTE's vpn;
    * every vpn in a resident page's ``mapped_vpns`` has a PTE to that
      page's frame;
    * the cache's LRU keys are exactly its resident keys;
    * every TLB entry has a PTE (a shootdown never leaves a stale one).

    Call it between operations.
    """
    engine = stack.engine
    cache = engine.cache
    ptes = engine.page_table._entries
    by_frame = {page.frame: page for page in cache._pages.values()}
    problems = []
    for vpn, pte in ptes.items():
        page = by_frame.get(pte.frame)
        if page is None:
            problems.append(f"PTE {vpn} maps non-resident frame {pte.frame}")
        elif vpn not in page.mapped_vpns:
            problems.append(f"PTE {vpn} missing from page {page.key}'s mapped_vpns")
    for page in cache._pages.values():
        for vpn in page.mapped_vpns:
            pte = ptes.get(vpn)
            if pte is None or pte.frame != page.frame:
                problems.append(f"page {page.key} maps vpn {vpn} without its PTE")
    lru = set(cache.lru._order)
    resident = set(cache._pages)
    if lru != resident:
        problems.append(
            f"LRU/resident keys differ: {sorted(lru - resident)[:4]} only on the "
            f"LRU, {sorted(resident - lru)[:4]} only resident"
        )
    for core, tlb in enumerate(engine.machine.tlbs):
        stale = [vpn for vpn in tlb._entries if vpn not in ptes]
        if stale:
            problems.append(f"TLB {core} holds vpns without a PTE: {sorted(stale)[:8]}")
    if problems:
        raise SimulationError("mapping invariant violated: " + "; ".join(problems[:8]))
