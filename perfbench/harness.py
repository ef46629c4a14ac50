"""Host-time benchmark of the simulator: workload shapes, jobs and rounds.

A *job* is one engine's share of a workload: build a fresh stack
(set-up), retire a fixed set of simulated operations through the public
entry points (``run_microbench`` or ``YCSBDriver`` over ``Executor``),
then digest the end state.  A *round* runs one job per engine of the
workload.  :func:`measure` repeats rounds for a host-time budget, checks
every job's reads and digest, and folds the timings and counts into the
metrics ``run.py`` prints.

Every time here is host time, calibrated by :class:`CalibratedTimer`,
unless its name says *cycles*, which are simulated.  Simulated outcomes
are deterministic functions of the seed; only host times vary between
runs.
"""

from __future__ import annotations

import gc
import math
import pstats
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench.setups import (
    make_aquila_stack,
    make_kmmap_stack,
    make_linux_stack,
    make_rocksdb,
)
from repro.common import units
from repro.mmio.files import BackingFile
from repro.obs.profiling import profile_call
from repro.sim.conformance import MODE_COUNTERS, hash_digest, mmio_state_digest
from repro.sim.executor import Executor, SimThread
from repro.workloads.microbench import MicrobenchConfig, run_microbench
from repro.workloads.ycsb import YCSBConfig, YCSBDriver, make_value

import hostprofile

#: Engine names as metrics spell them; ``explicit`` is RocksDB's direct-I/O
#: mode (pread + user-space block cache).
ENGINES = ("aquila", "kmmap", "linux", "explicit")

MMAP_MAKERS = {
    "aquila": make_aquila_stack,
    "kmmap": make_kmmap_stack,
    "linux": make_linux_stack,
}

#: RocksDB mode behind each engine name.
KV_MODES = {"explicit": "direct", "linux": "mmap", "aquila": "aquila"}

#: Mode counters compared between the traced and the untraced run.
TRACE_CHECKED_COUNTERS = ("ff_hits", "ff_faults", "hit_runs")


@dataclass(frozen=True)
class MmapShape:
    """Microbenchmark over one shared file (Figure 10 shape)."""

    threads: int
    cache_pages: int
    dataset_pages: int
    accesses_per_thread: int
    touch_once: bool
    engines: Tuple[str, ...] = ("aquila", "kmmap", "linux")

    @property
    def ops(self) -> int:
        """Simulated operations one job retires."""
        return self.threads * self.accesses_per_thread


@dataclass(frozen=True)
class KvShape:
    """RocksDB YCSB-A over uniform keys with 1 KB values (Figure 5 shape)."""

    threads: int
    cache_pages: int
    record_count: int
    ops_per_thread: int
    engines: Tuple[str, ...] = ("explicit", "linux", "aquila")

    @property
    def ops(self) -> int:
        """Simulated operations one job retires."""
        return self.threads * self.ops_per_thread


#: Full-size shapes, run by default.
SHAPES = {
    "mmap-miss": MmapShape(
        threads=16,
        cache_pages=1024,
        dataset_pages=1024 * 100 // 8,
        accesses_per_thread=1024,
        touch_once=False,
    ),
    "mmap-hit": MmapShape(
        threads=16,
        cache_pages=2048,
        dataset_pages=2048,
        accesses_per_thread=65536,
        touch_once=True,
    ),
    "kv-ycsb-a": KvShape(
        threads=4,
        cache_pages=256,
        record_count=2048,
        ops_per_thread=1250,
    ),
}

#: The same workloads shrunk so all three run in seconds (``--smoke``).
SMOKE_SHAPES = {
    "mmap-miss": MmapShape(
        threads=16,
        cache_pages=64,
        dataset_pages=64 * 100 // 8,
        accesses_per_thread=32,
        touch_once=False,
    ),
    "mmap-hit": MmapShape(
        threads=16,
        cache_pages=128,
        dataset_pages=128,
        accesses_per_thread=512,
        touch_once=True,
    ),
    "kv-ycsb-a": KvShape(
        threads=4,
        cache_pages=32,
        record_count=256,
        ops_per_thread=40,
    ),
}


def _reset_ids() -> None:
    """Restart thread and file ids so equal inputs give equal digests."""
    SimThread.reset_ids()
    BackingFile.reset_ids()


class MmapJob:
    """One engine running the shared-file microbenchmark."""

    def __init__(self, shape: MmapShape, engine: str, seed: int) -> None:
        self.shape = shape
        self.engine_name = engine
        self.seed = seed
        self.stack = None
        self.file = None
        self.result = None

    def setup(self) -> None:
        """Build the machine, device, engine and the shared file."""
        _reset_ids()
        dataset_bytes = self.shape.dataset_pages * units.PAGE_SIZE
        self.stack = MMAP_MAKERS[self.engine_name](
            "pmem",
            self.shape.cache_pages,
            capacity_bytes=max(512 * units.MIB, 2 * dataset_bytes),
        )
        self.file = self.stack.allocator.create("shared", dataset_bytes)

    def run(self, reference: bool = False) -> None:
        """Retire the accesses; ``reference`` runs the unbatched per-op path."""
        config = MicrobenchConfig(
            num_threads=self.shape.threads,
            accesses_per_thread=self.shape.accesses_per_thread,
            touch_once=self.shape.touch_once,
            shared_file=True,
            seed=self.seed,
            batched=not reference,
            fastforward=not reference,
        )
        self.result = run_microbench(self.stack.engine, self.file, config)

    def reads_ok(self) -> bool:
        """Microbenchmark loads return no values to check."""
        return True

    def digest(self) -> str:
        """Hash of the full conformance state digest."""
        return hash_digest(mmio_state_digest(self.stack, self.result))

    def kv_counts(self) -> Tuple[int, int]:
        """No key-value store: zero flushes and compactions."""
        return 0, 0

    def start_cycles(self) -> float:
        """Simulated time at which the timed phase begins."""
        return 0.0


class CheckedStore:
    """Forwards to a store and counts reads that miss the last write.

    The YCSB driver only ever writes ``make_value(i)`` under key ``i``, so
    the value last written for a key is known without bookkeeping.
    """

    def __init__(self, store, value_bytes: int) -> None:
        self.store = store
        self.value_bytes = value_bytes
        self.wrong_reads = 0

    def get(self, thread, key: bytes):
        value = self.store.get(thread, key)
        if value is not None and value != make_value(int(key[-18:]), self.value_bytes):
            self.wrong_reads += 1
        return value

    def put(self, thread, key: bytes, value: bytes) -> None:
        self.store.put(thread, key, value)


class KvJob:
    """One RocksDB mode running YCSB-A on the per-op executor."""

    def __init__(self, shape: KvShape, engine: str, seed: int) -> None:
        self.shape = shape
        self.engine_name = engine
        self.seed = seed
        self.db = None
        self.stack = None
        self.store = None
        self.driver = None
        self.loaded_at = 0.0
        self.result = None

    def setup(self) -> None:
        """Build the store, load every record, flush and compact."""
        _reset_ids()
        self.db, self.stack = make_rocksdb(
            KV_MODES[self.engine_name],
            cache_pages=self.shape.cache_pages,
            capacity_bytes=1 << 30,
        )
        config = YCSBConfig(
            workload="A",
            record_count=self.shape.record_count,
            operation_count=self.shape.ops,
            distribution="uniform",
            seed=self.seed,
            threads=self.shape.threads,
        )
        self.store = CheckedStore(self.db, config.value_bytes)
        self.driver = YCSBDriver(self.store, config)
        loader = SimThread(core=0)
        self.driver.load(loader)
        self.db.flush(loader)
        self.db.compact_all(loader)
        self.loaded_at = loader.clock.now

    def run(self, reference: bool = False) -> None:
        """Run the operations; this executor is always the per-op reference."""
        executor = Executor()
        threads = []
        num_hw_threads = self.stack.machine.topology.num_hw_threads
        for index in range(self.shape.threads):
            thread = SimThread(core=index % num_hw_threads)
            thread.clock.now = self.loaded_at
            threads.append(thread)
            executor.add(thread, self.driver.run_workload(thread, self.shape.ops_per_thread))
        self.stack.machine.apply_smt_penalty(threads)
        self.result = executor.run()

    def reads_ok(self) -> bool:
        """Every read found its key and returned the value last written."""
        return self.driver.stats.not_found == 0 and self.store.wrong_reads == 0

    def digest(self) -> str:
        """Hash of the engine state, thread clocks and store counters."""
        if self.engine_name == "explicit":
            engine, device = self.stack.engine, self.stack.device
            state = {
                "threads": [
                    (t.clock.now, t.ops_completed, tuple(t.latencies.samples()))
                    for t in self.result.threads
                ],
                "engine": (engine.reads, engine.writes),
                "cache": (engine.cache.hits, engine.cache.misses, engine.cache.evictions),
                "device": (device.bytes_read, device.bytes_written),
            }
        else:
            state = mmio_state_digest(self.stack, self.result)
        state["db"] = self.db.stats()
        state["ycsb"] = vars(self.driver.stats)
        return hash_digest(state)

    def kv_counts(self) -> Tuple[int, int]:
        """Memtable flushes and compactions so far."""
        stats = self.db.stats()
        return stats["flushes"], stats["compactions"]

    def start_cycles(self) -> float:
        """Simulated time at which the timed phase begins."""
        return self.loaded_at


def make_job(shape, engine: str, seed: int):
    """The job class matching ``shape``."""
    if isinstance(shape, KvShape):
        return KvJob(shape, engine, seed)
    return MmapJob(shape, engine, seed)


def layer_counts(job) -> Dict[str, float]:
    """Cumulative layer counters of a job's stack, read from its objects."""
    engine = job.stack.engine
    cache = engine.cache
    # Engines keep their shootdown controller private; its counters are public.
    shootdowns = getattr(engine, "_shootdowns", None)
    flushes, compactions = job.kv_counts()
    counts = {
        "faults": getattr(engine, "faults", 0),
        "evictions": cache.evictions,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "tlb_misses": sum(tlb.misses for tlb in job.stack.machine.tlbs),
        "shootdowns": shootdowns.shootdowns if shootdowns is not None else 0,
        "ipis_sent": shootdowns.ipis_sent if shootdowns is not None else 0,
        "bytes_read": job.stack.device.bytes_read,
        "bytes_written": job.stack.device.bytes_written,
        "flushes": flushes,
        "compactions": compactions,
    }
    for name in MODE_COUNTERS - {"fastforward"}:
        counts[name] = getattr(engine, name, 0)
    return counts


#: Seconds one :func:`calibration_loop` takes on an uncontended core of
#: the machine the first figures in README.md come from.
NOMINAL_LOOP_S = 0.0069

#: How long each calibration between two timed phases lasts.
CALIBRATION_S = 0.2

#: Rounds run even when ``--seconds`` is shorter, so medians have a middle.
MIN_ROUNDS = 3


def calibration_loop() -> None:
    """A fixed piece of interpreter-bound work: dict and integer operations."""
    table: Dict[int, int] = {}
    for i in range(50_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i


def loop_seconds(seconds: float) -> float:
    """Mean host seconds per :func:`calibration_loop` over ``seconds``."""
    loops = 0
    started = time.perf_counter()
    while True:
        calibration_loop()
        loops += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            return elapsed / loops


class CalibratedTimer:
    """Times consecutive phases in calibrated host seconds.

    Co-tenants of the host slow this process by up to 2x for seconds at a
    time.  A calibration (:func:`loop_seconds`) runs before the first
    phase and after each one, and a phase's wall time is scaled by
    ``NOMINAL_LOOP_S`` over the mean of its two calibrations: about the
    seconds it would take on an uncontended core.  ``raw`` keeps the
    wall times as measured.  ``calibration_s=0`` turns calibration off.
    """

    def __init__(self, calibration_s: float) -> None:
        self.calibration_s = calibration_s
        self.raw: List[float] = []
        self._last = self._calibrate()

    def _calibrate(self) -> float:
        if self.calibration_s <= 0.0:
            return NOMINAL_LOOP_S
        return loop_seconds(self.calibration_s)

    def time(self, fn, *args) -> float:
        """Run ``fn(*args)`` and return its calibrated host seconds."""
        started = time.perf_counter()
        fn(*args)
        elapsed = time.perf_counter() - started
        before, self._last = self._last, self._calibrate()
        self.raw.append(elapsed)
        return elapsed * NOMINAL_LOOP_S * 2.0 / (before + self._last)


@dataclass
class JobRecord:
    """What one job left behind: run time, digest, counts and any error."""

    engine: str
    ops: int
    run_s: float = 0.0
    digest: Optional[str] = None
    reads_ok: bool = False
    error: Optional[str] = None
    counts: Dict[str, float] = field(default_factory=dict)
    makespan_cycles: float = 0.0
    shares: Dict[str, float] = field(default_factory=dict)


@dataclass
class Round:
    """One job per engine.  Times are calibrated host seconds."""

    records: List[JobRecord]
    setup_s: float
    raw_setup_s: float
    raw_run_s: float


def _guarded(record: JobRecord, fn, *args) -> None:
    """Call ``fn``; an exception fails the job instead of the benchmark."""
    if record.error is not None:
        return
    try:
        fn(*args)
    except Exception as exc:   # the job's ops count as failed
        record.error = repr(exc)


def _run(job, record: JobRecord, reference: bool, profile: bool) -> None:
    """Run one set-up job, keeping its counters and profile shares."""
    before = layer_counts(job)
    gc.collect()
    if profile:
        _, profiler = profile_call(job.run)
        record.shares = hostprofile.fold_shares(pstats.Stats(profiler))
    else:
        job.run(reference)
    after = layer_counts(job)
    record.counts = {name: after[name] - before[name] for name in after}
    record.makespan_cycles = job.result.makespan_cycles - job.start_cycles()


def _check(job, record: JobRecord) -> None:
    record.reads_ok = job.reads_ok()
    record.digest = job.digest()


def _setup_all(jobs, records: List[JobRecord]) -> None:
    for job, record in zip(jobs, records):
        _guarded(record, job.setup)


def run_round(
    shape,
    seed: int,
    calibration_s: float,
    reference: bool = False,
    profile: bool = False,
    rss: Optional[List[float]] = None,
) -> Round:
    """Set up every engine's job, run each, then digest and check them.

    ``reference`` runs the per-op reference path, ``profile`` runs under
    cProfile, and ``rss`` receives the peak RSS (MiB) reached before the
    digests.
    """
    jobs = [make_job(shape, engine, seed) for engine in shape.engines]
    records = [JobRecord(engine, shape.ops) for engine in shape.engines]
    timer = CalibratedTimer(calibration_s)
    setup_s = timer.time(_setup_all, jobs, records)
    for job, record in zip(jobs, records):
        record.run_s = timer.time(_guarded, record, _run, job, record, reference, profile)
    if rss is not None:
        rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    for job, record in zip(jobs, records):
        _guarded(record, _check, job, record)
    return Round(records, setup_s, timer.raw[0], sum(timer.raw[1:]))


def reference_digests(shape, seed: int) -> Dict[str, Optional[str]]:
    """Each engine's digest from the unbatched per-op reference run."""
    return {
        record.engine: record.digest
        for record in run_round(shape, seed, 0.0, reference=True).records
    }


def job_failed(record: JobRecord, reference: Optional[str]) -> bool:
    """A job fails on an exception, a wrong read or a digest mismatch."""
    return (
        record.error is not None
        or not record.reads_ok
        or reference is None
        or record.digest != reference
    )


@dataclass
class Report:
    """The outcome of one benchmark invocation."""

    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    rounds: int
    failures: List[str]
    #: End-to-end host times as measured, before calibration (medians).
    uncalibrated: Dict[str, float] = field(default_factory=dict)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def median_run_s(rounds: List[Round], index: int) -> float:
    """Median calibrated run time of engine ``index`` over all rounds."""
    times = [r.records[index].run_s for r in rounds if r.records[index].error is None]
    return statistics.median(times) if times else math.inf


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    shapes: Optional[Dict] = None,
    references: Optional[Dict[str, str]] = None,
    calibration_s: float = CALIBRATION_S,
) -> Report:
    """Run rounds of ``workload`` for ``seconds`` and fold them into metrics.

    Mmap jobs are checked against the unbatched reference run, made after
    the timed rounds; key-value jobs, which already run on the per-op
    executor, against the first round.  ``references`` overrides both
    (the smoke tests prove failure accounting with it).  With ``trace``
    the metrics are the per-layer ones, plus one cProfile round.
    """
    shape = (shapes or SHAPES)[workload]
    rounds: List[Round] = []
    rss: List[float] = []
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - started < seconds:
        rounds.append(run_round(shape, seed, calibration_s, rss=None if rounds else rss))
    if references is None and isinstance(shape, KvShape):
        references = {record.engine: record.digest for record in rounds[0].records}
    elif references is None:
        references = reference_digests(shape, seed)
    checked = list(enumerate(rounds))
    if trace:
        traced = run_round(shape, seed, calibration_s, profile=True)
        checked.append(("traced", traced))

    attempted = failed = 0
    failures = []
    for number, checked_round in checked:
        for record in checked_round.records:
            attempted += record.ops
            if job_failed(record, references.get(record.engine)):
                failed += record.ops
                failures.append(
                    f"round {number} {record.engine}: error={record.error} "
                    f"reads_ok={record.reads_ok} digest={record.digest} "
                    f"reference={references.get(record.engine)}"
                )

    medians = [median_run_s(rounds, index) for index in range(len(shape.engines))]
    if not trace:
        metrics = {
            "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
            "sim_ops_per_s": (shape.ops * len(shape.engines) / sum(medians), "1/s"),
            "peak_rss_mb": (rss[0], "MiB"),
        }
        uncalibrated = {
            "setup_s": statistics.median(r.raw_setup_s for r in rounds),
            "sim_ops_per_s": shape.ops * len(shape.engines)
            / statistics.median(r.raw_run_s for r in rounds),
        }
        return Report(attempted, failed, metrics, len(rounds), failures, uncalibrated)

    metrics = layer_metrics(shape, rounds[0], traced, medians)
    for untraced, profiled in zip(rounds[0].records, traced.records):
        same = profiled.digest == untraced.digest and all(
            untraced.counts.get(name) == profiled.counts.get(name)
            for name in TRACE_CHECKED_COUNTERS
        )
        if not same and not job_failed(profiled, references.get(profiled.engine)):
            failed += profiled.ops
            failures.append(f"traced {profiled.engine}: differs from the untraced run")
    traced_s = sum(record.run_s for record in traced.records)
    metrics["obs.trace_overhead"] = (traced_s / sum(medians) - 1.0, "ratio")
    return Report(attempted, failed, metrics, len(rounds), failures)


def layer_metrics(
    shape, first: Round, traced: Round, medians: List[float]
) -> Dict[str, Tuple[float, str]]:
    """Per-engine host µs per op and shares, counts and useful-outcome ratios.

    Counts come from the first round and shares from the profiled one.
    Engines a workload does not run report 0 for every name.
    """
    metrics: Dict[str, Tuple[float, str]] = {}
    for engine in ENGINES:
        count: Counter = Counter()
        shares: Dict[str, float] = {}
        us_per_op = makespan = 0.0
        ops = 0
        if engine in shape.engines:
            index = shape.engines.index(engine)
            count.update(first.records[index].counts)
            shares = traced.records[index].shares
            us_per_op = medians[index] / shape.ops * 1e6
            makespan = first.records[index].makespan_cycles
            ops = shape.ops
        for package in hostprofile.SHARE_NAMES:
            metrics[f"host_share.{package}.{engine}"] = (shares.get(package, 0.0), "share")
        metrics[f"mmio.us_per_op.{engine}"] = (us_per_op, "us")
        metrics[f"mmio.faults.{engine}"] = (count["faults"], "count")
        metrics[f"cache.evictions.{engine}"] = (count["evictions"], "count")
        metrics[f"cache.hit_ratio.{engine}"] = (
            _ratio(count["cache_hits"], count["cache_hits"] + count["cache_misses"]),
            "ratio",
        )
        metrics[f"hw.tlb_misses.{engine}"] = (count["tlb_misses"], "count")
        metrics[f"hw.shootdowns.{engine}"] = (count["shootdowns"], "count")
        metrics[f"hw.ipis_sent.{engine}"] = (count["ipis_sent"], "count")
        metrics[f"devices.bytes_read.{engine}"] = (count["bytes_read"], "B")
        metrics[f"devices.bytes_written.{engine}"] = (count["bytes_written"], "B")
        metrics[f"sim.makespan_cycles.{engine}"] = (makespan, "cycles")
        metrics[f"kv.flushes.{engine}"] = (count["flushes"], "count")
        metrics[f"kv.compactions.{engine}"] = (count["compactions"], "count")
        metrics[f"sim.ff_hit_share.{engine}"] = (_ratio(count["ff_hits"], ops), "ratio")
        metrics[f"sim.batched_hit_share.{engine}"] = (
            _ratio(count["batched_hits"], ops),
            "ratio",
        )
        metrics[f"mmio.fused_fault_share.{engine}"] = (
            _ratio(count["ff_faults"], count["faults"]),
            "ratio",
        )
    return metrics
