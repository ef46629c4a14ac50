"""Tests of the host-time benchmark, on its tiny smoke shapes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import harness  # noqa: E402
import hostprofile  # noqa: E402

WORKLOADS = tuple(harness.SMOKE_SHAPES)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics that are host times; every other one is a
#: deterministic function of the seed.
HOST_TIME_PREFIXES = ("mmio.us_per_op.", "host_share.", "obs.trace_overhead")


def smoke(workload, trace=False, seed=1, references=None):
    return harness.measure(
        workload,
        seed,
        seconds=0.0,
        trace=trace,
        shapes=harness.SMOKE_SHAPES,
        references=references,
        calibration_s=0.0,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.SHAPES)
    assert set(harness.SHAPES) == set(harness.SMOKE_SHAPES)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload):
    plain = smoke(workload)
    assert plain.failed == 0, plain.failures
    assert plain.attempted == plain.rounds * len(
        harness.SMOKE_SHAPES[workload].engines
    ) * harness.SMOKE_SHAPES[workload].ops
    assert set(plain.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in plain.metrics.values())

    traced = smoke(workload, trace=True)
    assert traced.failed == 0, traced.failures
    assert set(traced.metrics) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"] + SPEC["end_to_end"]}
    for name, (_, unit) in {**plain.metrics, **traced.metrics}.items():
        assert unit == units[name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_digests_repeat_and_follow_the_seed(workload):
    shape = harness.SMOKE_SHAPES[workload]
    first = harness.run_round(shape, 11, 0.0)
    second = harness.run_round(shape, 11, 0.0)
    other = harness.run_round(shape, 12, 0.0)
    for a, b, c in zip(first.records, second.records, other.records):
        assert a.error is None and b.error is None and c.error is None
        assert a.digest == b.digest
        assert a.counts == b.counts
        assert a.makespan_cycles == b.makespan_cycles
        assert a.digest != c.digest

    one = smoke(workload, trace=True, seed=11)
    two = smoke(workload, trace=True, seed=11)
    deterministic = [n for n in one.metrics if not n.startswith(HOST_TIME_PREFIXES)]
    assert len(deterministic) == 56
    for name in deterministic:
        assert one.metrics[name] == two.metrics[name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_fails_exactly_that_engine(workload):
    shape = harness.SMOKE_SHAPES[workload]
    references = {
        record.engine: record.digest
        for record in harness.run_round(shape, 1, 0.0, reference=True).records
    }
    target = shape.engines[0]
    references[target] = "0" * 64
    report = smoke(workload, references=references)
    assert report.failed == report.rounds * shape.ops
    assert all(line.split()[2] == f"{target}:" for line in report.failures)


def test_package_of_folds_by_repro_package():
    assert hostprofile.package_of("/x/src/repro/sim/executor.py") == "sim"
    assert hostprofile.package_of("/x/src/repro/bench/setups.py") == "other"
    assert hostprofile.package_of("/x/src/repro/__init__.py") == "other"
    assert hostprofile.package_of("/usr/lib/python3/random.py") == ""
    assert hostprofile.package_of("~") == ""


def _run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_cli_prints_one_json_result_line():
    done = _run_cli(
        ROOT, "--workload", "kv-ycsb-a", "--seed", "2", "--seconds", "0",
        "--trace", "0", "--smoke",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "sim_ops_per_s", "peak_rss_mb"}


def test_cli_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run_cli(
        tmp_path, "--workload", "mmap-miss", "--seed", "1", "--seconds", "1",
        "--trace", "0",
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
