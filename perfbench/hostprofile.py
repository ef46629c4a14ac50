"""Fold a cProfile run into host-time shares per ``repro.<package>``.

Self time of every function defined under ``src/repro/<package>/`` counts
toward that package.  Self time of everything else — C builtins, numpy,
the standard library — counts toward whichever package called it, split
by how much of that function's time each caller accounts for, and walked
up the call graph until a ``repro`` frame is reached.  Time that reaches
no ``repro`` frame (the benchmark's own code, the profiler's root) counts
as ``other``, as does time in ``repro`` packages outside :data:`PACKAGES`.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Tuple

#: The simulator layers the benchmark reports host-time shares for.
PACKAGES = (
    "sim",
    "mmio",
    "cache",
    "mem",
    "hw",
    "devices",
    "kv",
    "workloads",
    "obs",
    "fault",
)

#: Every share name :func:`fold_shares` returns.
SHARE_NAMES = PACKAGES + ("other",)

FuncKey = Tuple[str, int, str]


def package_of(filename: str) -> str:
    """``repro.<package>`` owning ``filename``; '' if not under ``repro``."""
    parts = os.path.normpath(filename).split(os.sep)
    if "repro" not in parts:
        return ""
    index = len(parts) - 1 - parts[::-1].index("repro")
    if index + 2 >= len(parts):      # a module directly under repro/
        return "other"
    package = parts[index + 1]
    return package if package in PACKAGES else "other"


def fold_shares(stats: pstats.Stats) -> Dict[str, float]:
    """Share of total self time per name in :data:`SHARE_NAMES`."""
    table = stats.stats
    owners: Dict[FuncKey, Dict[str, float]] = {}

    def owner(func: FuncKey, visiting: frozenset) -> Dict[str, float]:
        """Fractions of ``func``'s self time owed to each package."""
        if func in owners:
            return owners[func]
        package = package_of(func[0])
        if package:
            result = {package: 1.0}
        else:
            callers = table[func][4] if func in table else {}
            weights = {
                caller: timing[2]
                for caller, timing in callers.items()
                if caller not in visiting
            }
            total = sum(weights.values())
            if total <= 0.0:
                result = {"other": 1.0}
            else:
                result = {}
                inner = visiting | {func}
                for caller, weight in weights.items():
                    for name, part in owner(caller, inner).items():
                        result[name] = result.get(name, 0.0) + part * weight / total
        if not visiting:
            owners[func] = result
        return result

    seconds = dict.fromkeys(SHARE_NAMES, 0.0)
    for func, (_cc, _nc, self_time, _cum, _callers) in table.items():
        for name, part in owner(func, frozenset()).items():
            seconds[name] += self_time * part
    total = sum(seconds.values()) or 1.0
    return {name: value / total for name, value in seconds.items()}
