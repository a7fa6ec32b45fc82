"""Metric definitions and their computation from one run's samples.

End-to-end metrics come from the untraced run (``--trace 0``); per-layer
metrics from the traced run (``--trace 1``), where every read and write is
traced.  The tracing overhead is the calibrated cost of one span times the
spans a traced query opens.
"""

from __future__ import annotations

import math
import statistics

from repro.metrics.quantiles import quantile

from perfbench.spans import span_cost_s

#: name -> unit; BENCHMARK.json lists exactly these
END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "throughput_qps": "1/s",
    "write_p50_ms": "ms",
    "write_tail_ms": "ms",
    "qerror_gmean": "ratio",
    "qerror_tail": "ratio",
    "cost_units_mean": "units",
    "blocks_read_mean": "count",
    "presize_qerror_gmean": "ratio",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    # sql
    "sql.bind_us_p50": "us",
    "sql.bind_failed": "count",
    # optimizer
    "optimizer.plan_ms_p50": "ms",
    "optimizer.plan_ms_tail": "ms",
    "optimizer.selectivity_ms_mean": "ms",
    "optimizer.join_order_ms_mean": "ms",
    "optimizer.column_order_ms_mean": "ms",
    "optimizer.group_ndv_ms_mean": "ms",
    # estimators (through the serving tier on the served workloads)
    "estimate.selectivity_us_p50": "us",
    "estimate.count_us_p50": "us",
    "estimate.ndv_us_p50": "us",
    "estimate.selectivity_us_tail": "us",
    "estimate.count_us_tail": "us",
    "estimate.ndv_us_tail": "us",
    "estimate.calls_per_query": "count",
    "estimate.direct_frac": "ratio",
    "estimate.cache_frac": "ratio",
    "estimate.model_frac": "ratio",
    "estimate.batch_frac": "ratio",
    "estimate.fallback_frac": "ratio",
    "estimate.detail_error_frac": "ratio",
    "bn.passes_executed_mean": "count",
    "bn.passes_saved_mean": "count",
    "bn.evidence_hit_rate": "ratio",
    # serving
    "serve.cache_hit_rate": "ratio",
    "serve.plan_cache_hit_rate": "ratio",
    "serve.batch_size_mean": "count",
    "serve.degraded_frac": "ratio",
    "serve.timeouts": "count",
    "serve.rejected": "count",
    "serve.cache_invalidations": "count",
    # executor
    "exec.ms_p50": "ms",
    "exec.ms_tail": "ms",
    "exec.scan_ms_mean": "ms",
    "exec.join_ms_mean": "ms",
    "exec.join_ms_tail": "ms",
    "exec.aggregate_ms_mean": "ms",
    "exec.rows_scanned_mean": "count",
    "exec.resizes_mean": "count",
    "exec.presize_waste_slots_mean": "count",
    "exec.partitions_pruned_frac": "ratio",
    # storage
    "storage.append_ms_p50": "ms",
    "storage.delete_ms_p50": "ms",
    "storage.rows_appended": "count",
    "storage.rows_deleted": "count",
    # core lifecycle
    "lifecycle.retrain_ms_p50": "ms",
    "lifecycle.refresh_ms_p50": "ms",
    "lifecycle.tables_retrained": "count",
    "setup.train_bn_s": "s",
    "setup.train_rbx_s": "s",
    "setup.load_s": "s",
    "setup.monitor_s": "s",
    # feedback
    "feedback.records_per_query": "count",
    # self time per traced read / per write, by layer
    "self.harness_ms_mean": "ms",
    "self.sql_ms_mean": "ms",
    "self.optimizer_ms_mean": "ms",
    "self.estimate_ms_mean": "ms",
    "self.executor_ms_mean": "ms",
    "self.storage_ms_mean": "ms",
    "self.lifecycle_ms_mean": "ms",
    # the tracing itself
    "trace.overhead_ms": "ms",
    "trace.spans": "count",
}

#: per layer: its metrics, and the end-to-end metric (on which workload) a
#: change to that layer should move
LAYER_MAP = (
    ("sql", "sql.*", "ok_frac on every workload"),
    ("optimizer", "optimizer.*", "query_p50_ms on stats-direct"),
    ("estimators", "estimate.* bn.*", "query_p50_ms on stats-direct"),
    ("serving", "serve.*", "query_p50_ms, query_tail_ms on aeolus-ingest"),
    ("executor", "exec.*",
     "query_tail_ms, throughput_qps on stats-direct; presize_qerror_gmean on aeolus-ingest"),
    ("storage", "storage.*", "write_p50_ms on aeolus-ingest"),
    ("core lifecycle", "lifecycle.* setup.*",
     "write_tail_ms on aeolus-ingest; setup_s on every workload"),
    ("feedback", "feedback.*", "query_p50_ms on aeolus-ingest"),
)

#: percentiles tried for a "tail", highest first, in tenths of a percent;
#: capped at p99 so that a longer run puts more samples beyond the tail
#: instead of moving it further out
_TAIL_PERMILLE = (990, 980, 970, 950, 900, 850, 800, 750, 700, 660, 600, 500)


def tail_percentile(n: int) -> float:
    """The highest candidate percentile, p99 at most, with at least ten
    samples beyond it (the median when there are fewer than twenty)."""
    for permille in _TAIL_PERMILLE:
        if n * (1000 - permille) >= 10 * 1000:
            return permille / 10
    return 50.0


def p50(values) -> float:
    return quantile(values, 0.5) if len(values) else 0.0


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the tail of ``values``."""
    if not len(values):
        return 0.0, 0.0
    pct = tail_percentile(len(values))
    return quantile(values, pct / 100.0), pct


def mean(values) -> float:
    return statistics.fmean(values) if len(values) else 0.0


def gmean(values) -> float:
    """Geometric mean: q-errors are ratios, and one clamped outlier must
    not swamp the mean.  Unlike a median, it does not jump between two
    clusters of repeated queries when the arrival order changes."""
    return statistics.geometric_mean(values) if len(values) else 0.0


def qerror(estimate: float, actual: float) -> float:
    est, act = max(estimate, 1.0), max(float(actual), 1.0)
    return max(est / act, act / est)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tally:
    """Operation counts and failures of one run, plus what failed and why."""

    def __init__(self, run):
        queries = run.reads + run.probes
        self.reads = [s for s in run.reads if s.error is None]
        self.attempted = len(queries) + len(run.writes)
        self.bind_failed = sum(1 for s in queries if s.bind_error)
        #: distinct (query name, error) pairs, for the report
        self.bind_failures = sorted({(s.name, s.bind_error) for s in queries if s.bind_error})
        self.errors = [(s.name, s.error) for s in queries if s.error]
        self.errors += [(f"{w.kind}#{w.index}", w.error) for w in run.writes if w.error]
        self.wrong = [(s.name, s.result_rows, s.truth) for s in queries if s.wrong]
        self.failed = sum(1 for s in queries if s.bind_error or s.error or s.wrong)
        self.failed += sum(1 for w in run.writes if w.error)

    @property
    def correct(self) -> bool:
        """No wrong result and no exception; bind failures are counted in
        ``failed`` but the generator's query still executed correctly."""
        return not self.wrong and not self.errors


def end_to_end(run, tally: Tally) -> tuple[dict[str, float], dict[str, str]]:
    """The end-to-end metrics and, for tails, which percentile they are."""
    reads = tally.reads
    latencies = [s.total_s * 1e3 for s in reads]
    write_ms = [w.seconds * 1e3 for w in run.writes if w.error is None]
    qerrors = [qerror(s.estimate, s.result_rows) for s in reads if _finite(s.estimate)]
    q_tail, q_pct = tail(latencies)
    w_tail, w_pct = tail(write_ms)
    e_tail, e_pct = tail(qerrors)
    values = {
        "setup_s": statistics.median(run.setup_s),
        "query_p50_ms": p50(latencies),
        "query_tail_ms": q_tail,
        "throughput_qps": _ratio(len(reads), run.read_window_s),
        "write_p50_ms": p50(write_ms),
        "write_tail_ms": w_tail,
        "qerror_gmean": gmean(qerrors),
        "qerror_tail": e_tail,
        "cost_units_mean": mean([s.cost for s in reads]),
        "blocks_read_mean": mean([s.blocks for s in reads]),
        "presize_qerror_gmean": gmean(
            [s.presize_qerror for s in reads if s.presize_qerror is not None]
        ),
        "ok_frac": 1.0 - _ratio(tally.failed, tally.attempted),
        "peak_rss_mb": max(run.setup_peak_mb, statistics.median(run.slice_peaks_mb)),
    }
    notes = {
        "query_tail_ms": _tail_note(q_pct, len(latencies)),
        "write_tail_ms": _tail_note(w_pct, len(write_ms)),
        "qerror_tail": _tail_note(e_pct, len(qerrors)),
        "setup_s": f"median of {len(run.setup_s)} builds",
        "qerror_gmean": f"{len(qerrors)} finite plan estimates",
        "peak_rss_mb": (
            f"serving build {run.setup_peak_mb:.1f} MB; median of "
            f"{len(run.slice_peaks_mb)} schedule slices "
            f"{statistics.median(run.slice_peaks_mb):.1f} MB, max "
            f"{max(run.slice_peaks_mb):.1f} MB"
            if run.peak_rss_reset
            else "whole process, input generation included: the peak cannot be reset"
        ),
    }
    return values, notes


def _tail_note(pct: float, n: int) -> str:
    beyond = int(n * (1.0 - pct / 100.0))
    return f"p{pct:g} of {n} samples, {beyond} beyond it"


def _finite(value) -> bool:
    return value is not None and math.isfinite(value)


def per_layer(run, tally: Tally) -> tuple[dict[str, float], dict[str, str]]:
    tracer = run.tracer
    reads = tally.reads
    # counters cover every executed query, the post-write probes included
    n_queries = len(reads) + sum(1 for s in run.probes if s.error is None)
    c = run.counters
    svc = run.service_delta

    def decision_mean(kind: str) -> float:
        return mean([
            sum(v for k, v in s.decision_timings.items() if k.split(":", 1)[0] == kind) * 1e3
            for s in reads
        ])

    def stage(kind: str) -> list[float]:
        return [s.stage_timings.get(kind, 0.0) * 1e3 for s in reads]

    spans = tracer.spans
    by_name: dict[str, list[float]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span.seconds)
    est = {k: [v * 1e6 for v in by_name.get(f"estimate.{k}", [])]
           for k in ("selectivity", "count", "ndv")}
    est_calls = sum(len(v) for v in est.values())

    sources: dict[str, int] = {}
    for s in reads:
        for decision in s.provenance.values():
            for source, count in decision.items():
                if source.startswith("bn_pass"):
                    continue
                key = "fallback" if source.startswith("fallback") else source
                sources[key] = sources.get(key, 0) + count
    consulted = sum(sources.values())

    self_s = tracer.self_seconds()
    # "query" and "write" are the benchmark's own root spans
    layer_self: dict[str, float] = {}
    for span in spans:
        layer_self[span.layer] = layer_self.get(span.layer, 0.0) + self_s[span.span_id]
    queries_traced = len(by_name.get("query", [])) or 1
    writes_traced = len(by_name.get("write", [])) or 1
    query_traces = {span.trace for span in spans if span.name == "query"}
    spans_per_query = sum(1 for span in spans if span.trace in query_traces) / queries_traced
    span_cost = span_cost_s()

    appends = [w for w in run.writes if w.action == "append" and w.error is None]
    deletes = [w for w in run.writes if w.action == "delete" and w.error is None]
    retrains = [w for w in run.writes if w.kind == "retrain" and w.error is None]
    exec_ms = [s.exec_s * 1e3 for s in reads]
    plan_ms = [s.plan_s * 1e3 for s in reads]
    join_ms = stage("join")
    setup = {name: sum(by_name.get(f"setup.{name}", [])) for name in
             ("train_bn", "train_rbx", "load", "monitor")}

    values = {
        "sql.bind_us_p50": p50([s.bind_s * 1e6 for s in reads]),
        "sql.bind_failed": float(tally.bind_failed),
        "optimizer.plan_ms_p50": p50(plan_ms),
        "optimizer.plan_ms_tail": tail(plan_ms)[0],
        "optimizer.selectivity_ms_mean": decision_mean("selectivity"),
        "optimizer.join_order_ms_mean": decision_mean("join_order"),
        "optimizer.column_order_ms_mean": decision_mean("column_order"),
        "optimizer.group_ndv_ms_mean": decision_mean("group_ndv"),
        "estimate.selectivity_us_p50": p50(est["selectivity"]),
        "estimate.count_us_p50": p50(est["count"]),
        "estimate.ndv_us_p50": p50(est["ndv"]),
        "estimate.selectivity_us_tail": tail(est["selectivity"])[0],
        "estimate.count_us_tail": tail(est["count"])[0],
        "estimate.ndv_us_tail": tail(est["ndv"])[0],
        "estimate.calls_per_query": _ratio(est_calls, queries_traced),
        "estimate.direct_frac": _ratio(sources.get("direct", 0), consulted),
        "estimate.cache_frac": _ratio(sources.get("cache", 0), consulted),
        "estimate.model_frac": _ratio(sources.get("model", 0), consulted),
        "estimate.batch_frac": _ratio(svc.get("batched_requests", 0), svc.get("requests", 0)),
        "estimate.fallback_frac": _ratio(sources.get("fallback", 0), consulted),
        "estimate.detail_error_frac": _ratio(sources.get("detail_error", 0), consulted),
        "bn.passes_executed_mean": _ratio(c.get("bn_passes_total", 0.0), n_queries),
        "bn.passes_saved_mean": _ratio(c.get("bn_passes_saved_total", 0.0), n_queries),
        "bn.evidence_hit_rate": _ratio(
            c.get("evidence_cache_hits_total", 0.0),
            c.get("evidence_cache_hits_total", 0.0) + c.get("evidence_cache_misses_total", 0.0),
        ),
        "serve.cache_hit_rate": _ratio(
            svc.get("cache_hits", 0), svc.get("cache_hits", 0) + svc.get("cache_misses", 0)
        ),
        "serve.plan_cache_hit_rate": _ratio(
            c.get("plan_cache_hits_total", 0.0),
            c.get("plan_cache_hits_total", 0.0) + c.get("plan_cache_misses_total", 0.0),
        ),
        "serve.batch_size_mean": _ratio(svc.get("batched_requests", 0), svc.get("batches", 0)),
        "serve.degraded_frac": _ratio(svc.get("fallbacks", 0), svc.get("requests", 0)),
        "serve.timeouts": float(svc.get("timeouts", 0)),
        "serve.rejected": float(svc.get("rejected", 0)),
        "serve.cache_invalidations": float(svc.get("cache_invalidations", 0)),
        "exec.ms_p50": p50(exec_ms),
        "exec.ms_tail": tail(exec_ms)[0],
        "exec.scan_ms_mean": mean(stage("scan")),
        "exec.join_ms_mean": mean(join_ms),
        "exec.join_ms_tail": tail(join_ms)[0],
        "exec.aggregate_ms_mean": mean(stage("aggregate")),
        "exec.rows_scanned_mean": mean([s.rows_scanned for s in reads]),
        "exec.resizes_mean": mean([s.resizes for s in reads]),
        "exec.presize_waste_slots_mean": mean(
            [s.presize_waste for s in reads if s.presize_qerror is not None]
        ),
        "exec.partitions_pruned_frac": _ratio(
            c.get("engine_partitions_pruned_total", 0.0),
            c.get("engine_partitions_pruned_total", 0.0)
            + c.get("engine_partitions_scanned_total", 0.0),
        ),
        "storage.append_ms_p50": p50([w.stages["append"] * 1e3 for w in appends]),
        "storage.delete_ms_p50": p50([w.stages["delete"] * 1e3 for w in deletes]),
        "storage.rows_appended": float(sum(w.rows for w in appends)),
        "storage.rows_deleted": float(sum(w.rows for w in deletes)),
        "lifecycle.retrain_ms_p50": p50([w.stages["retrain"] * 1e3 for w in retrains]),
        "lifecycle.refresh_ms_p50": p50([w.stages["refresh"] * 1e3 for w in retrains]),
        "lifecycle.tables_retrained": float(sum(w.tables_retrained for w in retrains)),
        "setup.train_bn_s": setup["train_bn"],
        "setup.train_rbx_s": setup["train_rbx"],
        "setup.load_s": setup["load"],
        "setup.monitor_s": setup["monitor"],
        "feedback.records_per_query": _ratio(c.get("feedback_records_total", 0.0), n_queries),
        "self.harness_ms_mean": layer_self.get("query", 0.0) * 1e3 / queries_traced,
        "self.sql_ms_mean": layer_self.get("sql", 0.0) * 1e3 / queries_traced,
        "self.optimizer_ms_mean": layer_self.get("optimizer", 0.0) * 1e3 / queries_traced,
        "self.estimate_ms_mean": layer_self.get("estimate", 0.0) * 1e3 / queries_traced,
        "self.executor_ms_mean": layer_self.get("executor", 0.0) * 1e3 / queries_traced,
        "self.storage_ms_mean": layer_self.get("storage", 0.0) * 1e3 / writes_traced,
        "self.lifecycle_ms_mean": layer_self.get("lifecycle", 0.0) * 1e3 / writes_traced,
        "trace.overhead_ms": spans_per_query * span_cost * 1e3,
        "trace.spans": float(len(spans)),
    }
    notes = {
        "trace.overhead_ms": (
            f"per query: {spans_per_query:.1f} spans x {span_cost * 1e6:.2f} us "
            f"calibrated cost of one span"
        ),
        "self.harness_ms_mean": "query span time outside sql/optimizer/executor spans",
    }
    return values, notes
