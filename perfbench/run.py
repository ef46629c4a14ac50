"""Benchmark the simulator's host time on one workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload mmap-miss --seed 1 --seconds 20 --trace 0

Workloads: ``mmap-miss``, ``mmap-hit``, ``kv-ycsb-a`` (see README.md in
this directory).  ``--trace 0`` prints the end-to-end metrics
(``setup_s``, ``sim_ops_per_s``, ``peak_rss_mb``); ``--trace 1`` prints
the per-layer metrics, including one cProfile run per engine.  Each
metric is printed as ``name value unit`` and the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` runs the same code on tiny shapes.

Exit codes: 0 on a complete run (even if outputs were wrong: ``correct``
says so), 2 when the simulator sources are missing or arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, for tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness

    shapes = harness.SMOKE_SHAPES if args.smoke else harness.SHAPES
    if args.workload not in shapes:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    report = harness.measure(
        args.workload, args.seed, args.seconds, bool(args.trace), shapes=shapes
    )
    for failure in report.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} rounds={report.rounds}")
    for name, (value, unit) in sorted(report.metrics.items()):
        print(f"{name} {value!r} {unit}")
    for name, value in sorted(report.uncalibrated.items()):
        print(f"# uncalibrated {name} {value!r}")
    print(f"ops_failed_frac {report.failed / report.attempted!r} ratio")
    print(
        json.dumps(
            {
                "correct": report.failed == 0,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(report.metrics.items())
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
