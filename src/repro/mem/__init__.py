"""Memory-management data structures: frames, freelists, LRU, trees."""

from repro.mem.frames import FramePool
from repro.mem.freelist import TwoLevelFreelist
from repro.mem.hashtable import LockFreeHashTable
from repro.mem.lru import ApproxLRU
from repro.mem.rbtree import RBTree

__all__ = [
    "FramePool",
    "TwoLevelFreelist",
    "LockFreeHashTable",
    "ApproxLRU",
    "RBTree",
]
