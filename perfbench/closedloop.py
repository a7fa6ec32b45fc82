"""The closed loop: set up ByteCard, then run an operation schedule.

One client waits for each query before sending the next one.  A read goes
SQL text -> ``bind_sql`` -> ``Optimizer.plan`` -> ``Executor.execute``; the
optimizer and executor always get the generator's bound query, so a query
whose SQL text fails to re-bind is counted as a bind failure but keeps its
place in the latency sample.  A write is one ingest event (``apply_ingest``
plus an ingestion signal) or one synchronous targeted retrain plus
``ByteCard.refresh()``.  Truth is computed outside the timed regions.

An untraced run builds ByteCard :data:`SETUP_BUILDS` times on the t0
catalog, all before the first read: set-up time is the median of the
builds and the last one serves the run.

Peak memory leaves out input generation and the discarded builds: the
resident-set high-water mark is reset before the serving build, and again
at the start of each of :data:`PEAK_SLICES` equal slices of the schedule.
A deadline fallback can pick a plan with a much larger intermediate once
in a run, so the reported peak is the larger of the serving build's peak
and the median of the slices' peaks.
"""

from __future__ import annotations

import contextlib
import ctypes
import ctypes.util
import gc
import re
import resource
import time
from dataclasses import dataclass, field

from repro.core.bytecard import ByteCard
from repro.core.modelforge import IngestionSignal
from repro.engine import EngineConfig, EngineSession
from repro.errors import ReproError
from repro.sql import bind_sql
from repro.stream import apply_ingest
from repro.workloads import true_count

from perfbench.inputs import Inputs, Read
from perfbench.spans import (
    LearnedPlanner,
    TracedPlanner,
    TracedService,
    Tracer,
    traced_build_stages,
)


#: timed ``ByteCard.build`` calls of an untraced run (the traced run builds
#: once, with a span per set-up stage)
SETUP_BUILDS = 2

#: schedule slices whose resident-set peaks are measured separately
PEAK_SLICES = 5


@dataclass(frozen=True)
class WorkloadShape:
    #: plan through ``ByteCard.serve()`` instead of straight through the
    #: learned strategy
    served: bool
    #: ``EngineConfig(enable_feedback=True)``: joins take the executor's
    #: stepwise path and actuals pair with served estimates
    feedback: bool


SHAPES = {
    "stats-direct": WorkloadShape(served=False, feedback=False),
    "aeolus-ingest": WorkloadShape(served=True, feedback=True),
}


@dataclass
class ReadSample:
    name: str
    truth: int
    bind_error: str | None = None
    error: str | None = None
    wrong: bool = False
    bind_s: float = 0.0
    plan_s: float = 0.0
    exec_s: float = 0.0
    total_s: float = 0.0
    estimate: float | None = None
    result_rows: int | None = None
    cost: float = 0.0
    blocks: int = 0
    resizes: int = 0
    #: GROUP BY only: pre-sized vs resize-free hash capacity, as a q-error
    presize_qerror: float | None = None
    presize_waste: int = 0
    rows_scanned: int = 0
    decision_timings: dict = field(default_factory=dict)
    stage_timings: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)


@dataclass
class WriteSample:
    index: int
    kind: str  # "ingest" or "retrain"
    seconds: float = 0.0
    error: str | None = None
    action: str = ""
    rows: int = 0
    tables_retrained: int = 0
    #: seconds per stage: append / delete / retrain / refresh
    stages: dict = field(default_factory=dict)


@dataclass
class RunResult:
    setup_s: list[float]
    reads: list[ReadSample]
    probes: list[ReadSample]
    writes: list[WriteSample]
    #: closed-loop time from the first to the last read, truth excluded
    read_window_s: float
    counters: dict[str, float]
    service_delta: dict[str, float]
    tracer: Tracer | None
    #: resident-set peak of the serving build, in MiB
    setup_peak_mb: float
    #: resident-set peak of each schedule slice, in MiB
    slice_peaks_mb: list[float]
    #: False when the peak could not be reset and covers the whole process
    peak_rss_reset: bool


def _no_span(name, trace=None):
    return contextlib.nullcontext()


def final_estimate(plan) -> float | None:
    """The plan's estimate of the query's COUNT: the last join step's
    intermediate size, or the single table's surviving rows."""
    if plan.query.joins:
        return plan.join_step_estimates[-1] if plan.join_step_estimates else None
    return plan.estimated_table_rows.get(plan.query.tables[0])


def timed_build(bundle, tracer: Tracer | None = None) -> tuple[ByteCard, float]:
    """One ``ByteCard.build``; with a tracer, a span per set-up stage."""
    gc.collect()
    stages = traced_build_stages(tracer) if tracer is not None else contextlib.nullcontext()
    with stages:
        start = time.perf_counter()
        bytecard = ByteCard.build(bundle)
        seconds = time.perf_counter() - start
    gc.collect()
    return bytecard, seconds


def _malloc_trim():
    """glibc's ``malloc_trim``, or None on another C library."""
    try:
        return ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, AttributeError):
        return None


_MALLOC_TRIM = _malloc_trim()


def reset_peak_rss() -> bool:
    """Reset the kernel's resident-set high-water mark to the current RSS
    (Linux only); False when it cannot be reset.

    Freed heap memory is first handed back to the kernel: glibc keeps it
    resident after a large transient allocation, which would otherwise
    carry one query's peak into every later measurement.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """The resident-set high-water mark, in MiB."""
    try:
        with open("/proc/self/status") as handle:
            match = re.search(r"VmHWM:\s+(\d+) kB", handle.read())
    except OSError:
        match = None
    if match is not None:
        return int(match.group(1)) / 1024.0
    # ru_maxrss is in KiB on Linux and cannot be reset
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def counter_totals(registry) -> dict[str, float]:
    """Every counter of the registry, summed over its labels."""
    totals: dict[str, float] = {}
    for metric in registry.metrics():
        if getattr(metric, "kind", None) == "counter":
            totals[metric.name] = totals.get(metric.name, 0.0) + metric.value
    return totals


_SERVICE_FIELDS = (
    "requests", "cache_hits", "cache_misses", "cache_invalidations", "batches",
    "batched_requests", "timeouts", "errors", "rejected", "fallbacks",
)


class ClosedLoop:
    """Runs one :class:`Inputs` schedule against a freshly built ByteCard."""

    def __init__(self, inputs: Inputs, trace: bool):
        self.inputs = inputs
        self.shape = SHAPES[inputs.workload]
        self.tracer = Tracer() if trace else None
        self.catalog = inputs.bundle.catalog
        self._truth_cache: dict[str, int] = {}

    # -- set-up ---------------------------------------------------------
    def _session(self, bytecard: ByteCard, service) -> EngineSession:
        """The client's session; in a traced run its estimate calls are
        wrapped in spans."""
        config = EngineConfig(enable_feedback=self.shape.feedback)
        traced = self.tracer is not None
        if self.shape.served:
            target = TracedService(service, self.tracer) if traced else service
            return EngineSession(self.catalog, service=target, config=config)
        strategy = TracedPlanner(bytecard, self.tracer) if traced else LearnedPlanner(bytecard)
        return EngineSession(
            self.catalog, strategy=strategy, config=config, registry=bytecard.metrics()
        )

    def _set_up(self) -> tuple[ByteCard, list[float], bool, float]:
        """The timed builds; returns the last instance, every build's
        seconds, whether the memory peak was reset before the last and the
        peak the last one reached."""
        setup_s = []
        builds = 1 if self.tracer is not None else SETUP_BUILDS
        for _ in range(builds - 1):
            setup_s.append(timed_build(self.inputs.bundle)[1])
        # Input generation and the discarded builds are done; collect them
        # so that the peak counts only the serving instance and the run.
        gc.collect()
        reset = reset_peak_rss()
        bytecard, seconds = timed_build(self.inputs.bundle, self.tracer)
        setup_s.append(seconds)
        return bytecard, setup_s, reset, peak_rss_mb()

    def run(self) -> RunResult:
        bytecard, setup_s, peak_reset, setup_peak = self._set_up()
        self.bytecard = bytecard
        service = None
        if self.shape.served:
            if self.shape.feedback:
                bytecard.enable_feedback()
            service = bytecard.serve()
        try:
            session = self._session(bytecard, service)
            registry = bytecard.metrics()
            before = counter_totals(registry)
            stats_before = service.stats() if service is not None else None
            gc.collect()
            reads, probes, writes, window, slice_peaks = self._run_schedule(session)
            counters = {
                name: value - before.get(name, 0.0)
                for name, value in counter_totals(registry).items()
            }
            service_delta = {}
            if service is not None:
                stats_after = service.stats()
                service_delta = {
                    f: getattr(stats_after, f) - getattr(stats_before, f)
                    for f in _SERVICE_FIELDS
                }
        finally:
            if service is not None:
                service.close()
        return RunResult(
            setup_s, reads, probes, writes, window, counters, service_delta, self.tracer,
            setup_peak, slice_peaks, peak_reset,
        )

    # -- the closed loop ------------------------------------------------
    def _run_schedule(self, session):
        reads: list[ReadSample] = []
        probes: list[ReadSample] = []
        writes: list[WriteSample] = []
        schedule = self.inputs.schedule
        self._cuts = [len(schedule) * k // PEAK_SLICES for k in range(1, PEAK_SLICES + 1)]
        self._slice_peaks: list[float] = []
        elapsed = 0.0
        window = 0.0
        reset_peak_rss()
        for i, (op, payload) in enumerate(schedule):
            self._cross_cuts(i)
            if op in ("read", "probe"):
                sample = self._read(session, i, payload)
                (reads if op == "read" else probes).append(sample)
                if op == "read":
                    elapsed += sample.total_s
                    window = elapsed
            elif op == "ingest":
                writes.append(self._ingest(i, payload))
                self._truth_cache.clear()
                elapsed += writes[-1].seconds
            elif op == "retrain":
                writes.append(self._retrain(i))
                elapsed += writes[-1].seconds
            else:
                raise ValueError(f"unknown operation {op!r}")
        self._slice_peaks.append(peak_rss_mb())
        return reads, probes, writes, window, self._slice_peaks

    def _cross_cuts(self, index: int) -> None:
        """Close every peak-memory slice that ends at or before ``index``:
        record its peak and reset the high-water mark for the next."""
        while index >= self._cuts[len(self._slice_peaks)]:
            self._slice_peaks.append(peak_rss_mb())
            reset_peak_rss()

    def _truth(self, read: Read) -> int:
        if read.truth is not None:
            return read.truth
        key = read.query.name
        if key not in self._truth_cache:
            self._truth_cache[key] = true_count(self.catalog, read.query)
        return self._truth_cache[key]

    def _read(self, session: EngineSession, index: int, read: Read) -> ReadSample:
        truth = self._truth(read)
        span = self._span()
        sample = ReadSample(read.query.name, truth)
        try:
            start = time.perf_counter()
            with span("query", index):
                with span("sql.bind"):
                    try:
                        bind_sql(read.sql, self.catalog)
                    except ReproError as exc:
                        sample.bind_error = f"{type(exc).__name__}: {exc}"
                bound = time.perf_counter()
                with span("optimizer.plan"):
                    plan = session.optimizer.plan(read.query)
                planned = time.perf_counter()
                with span("executor.execute"):
                    result = session.executor.execute(plan)
                end = time.perf_counter()
        except Exception as exc:  # one failed query must not end the run
            sample.error = f"{type(exc).__name__}: {exc}"
            return sample
        sample.bind_s = bound - start
        sample.plan_s = planned - bound
        sample.exec_s = end - planned
        sample.total_s = end - start
        sample.estimate = final_estimate(plan)
        sample.result_rows = result.result_rows
        sample.wrong = result.result_rows != truth
        sample.cost = result.total_cost
        sample.blocks = result.blocks_read
        sample.resizes = result.resize_count
        sample.rows_scanned = result.rows_scanned
        agg = result.aggregation
        if agg is not None:
            # The table rounds its initial capacity up to a power of two;
            # resizes end at exactly the resize-free capacity, and waste is
            # what a pre-size allocated beyond it.
            allocated = 1 << max(0, agg.initial_capacity - 1).bit_length()
            needed = agg.final_capacity - agg.presize_waste
            sample.presize_qerror = max(allocated / needed, needed / allocated)
            sample.presize_waste = agg.presize_waste
        sample.decision_timings = plan.decision_timings
        sample.stage_timings = result.stage_timings
        sample.provenance = plan.decision_provenance
        return sample

    def _span(self):
        return self.tracer.span if self.tracer is not None else _no_span

    def _ingest(self, index: int, event) -> WriteSample:
        span = self._span()
        sample = WriteSample(index, "ingest", action=event.action)
        try:
            start = time.perf_counter()
            with span("write", index):
                with span(f"storage.{event.action}"):
                    summary = apply_ingest(self.catalog, event)
                applied = time.perf_counter()
                self.bytecard.forge_service.ingest_signal(IngestionSignal(event.table))
            end = time.perf_counter()
        except Exception as exc:  # counted as a failed write
            sample.error = f"{type(exc).__name__}: {exc}"
            return sample
        sample.seconds = end - start
        sample.rows = int(summary["rows"])
        sample.stages[event.action] = applied - start
        return sample

    def _retrain(self, index: int) -> WriteSample:
        span = self._span()
        sample = WriteSample(index, "retrain")
        forge = self.bytecard.forge_service
        try:
            start = time.perf_counter()
            with span("write", index):
                with span("lifecycle.retrain"):
                    infos = forge.train_count_models(
                        self.inputs.bundle, tables=sorted(forge.dirty_tables())
                    )
                trained = time.perf_counter()
                with span("lifecycle.refresh"):
                    self.bytecard.refresh()
            end = time.perf_counter()
        except Exception as exc:  # counted as a failed write
            sample.error = f"{type(exc).__name__}: {exc}"
            return sample
        sample.seconds = end - start
        sample.tables_retrained = len(infos)
        sample.stages = {"retrain": trained - start, "refresh": end - trained}
        return sample
