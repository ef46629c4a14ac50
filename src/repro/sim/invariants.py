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
