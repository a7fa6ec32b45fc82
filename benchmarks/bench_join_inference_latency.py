"""Join-estimation inference passes and latency on the compiled BN kernel.

Measures what shared-belief inference plans and batched kernel sweeps buy
on a join-heavy STATS workload.

* **Pass accounting** -- every query runs once through
  :meth:`FactorJoinEstimator.estimate_count` with a
  :class:`PlanDistributionCache` installed.  ``PassStats.requested``
  counts the BN passes a naive walk would run (one per consumer call
  site: join-key distribution, local selectivity, every inclusion-
  exclusion term); ``PassStats.executed`` counts the kernel sweeps that
  actually ran.  The aggregate ratio must clear the 3x bar, and a second,
  warm-cache pass must return bit-identical estimates.
* **Batch sweep** -- the workload runs through
  :meth:`FactorJoinEstimator.estimate_join_batch` at B in BATCH_SIZES.
  Every B must agree with the B=1 results to fp noise (rtol 1e-9: wider
  GEMMs may block differently in BLAS), folding must leave executed passes
  under requested ones, and per-query P99 at B >= 16 must be below P99
  at B=1 -- batching onto one sweep per table has to pay off.

The JSON report lands in ``benchmarks/results/join_inference_latency.json``.
Set ``JOIN_BENCH_SMOKE=1`` for a reduced configuration suitable for CI.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from conftest import RESULTS_DIR, record_table, render_grid

from repro.datasets import make_stats
from repro.estimators.factorjoin import FactorJoinEstimator, PassStats
from repro.obs import MetricsRegistry
from repro.serving import PlanDistributionCache
from repro.workloads.generator import WorkloadSpec, generate_workload

SMOKE = os.environ.get("JOIN_BENCH_SMOKE", "") not in ("", "0")
SCALE = 0.2 if SMOKE else 0.5
NUM_QUERIES = 40 if SMOKE else 120
ROUNDS = 2 if SMOKE else 3
MIN_PASS_RATIO = 3.0
BATCH_SIZES = (1, 4, 16, 64)


@pytest.fixture(scope="module")
def lab():
    """STATS bundle, join-heavy COUNT workload, trained estimator."""
    bundle = make_stats(scale=SCALE)
    spec = WorkloadSpec(
        name="join-inference-bench",
        num_queries=NUM_QUERIES,
        min_tables=3,
        max_tables=5,
        max_predicates=4,
        aggregation_fraction=0.0,
        or_group_fraction=0.3,
        num_ndv_queries=0,
        seed=61,
    )
    workload = generate_workload(bundle, spec)
    queries = [q for q in workload.queries if len(q.tables) >= 2]
    assert len(queries) >= NUM_QUERIES // 2
    registry = MetricsRegistry()
    estimator = FactorJoinEstimator.train(
        bundle.catalog,
        bundle.filter_columns,
        sample_rows=20_000,
        metrics=registry,
    )
    return bundle, queries, estimator, registry


def _timed(fn, queries):
    """Best-of-ROUNDS per-query latencies; returns (seconds array, results)."""
    best = np.full(len(queries), np.inf)
    results = [0.0] * len(queries)
    for _ in range(ROUNDS):
        for index, query in enumerate(queries):
            start = time.perf_counter()
            value = fn(query)
            elapsed = time.perf_counter() - start
            if elapsed < best[index]:
                best[index] = elapsed
            results[index] = value
    return best, results


def test_join_inference_latency(lab):
    _bundle, queries, estimator, registry = lab

    # -- one cold pass over the workload for pass counting ---------------
    cache = PlanDistributionCache(registry=registry)
    estimator.install_plan_cache(cache)
    totals = PassStats()
    cold_estimates = []
    for query in queries:
        cold_estimates.append(estimator.estimate_count(query))
        stats = estimator.last_pass_stats
        totals.requested += stats.requested
        totals.executed += stats.executed
    saved = int(registry.get("bn_passes_saved_total").value)

    # -- steady-state latency (warm plan-artifact cache) -----------------
    warm_times, warm_estimates = _timed(estimator.estimate_count, queries)
    estimator.install_plan_cache(None)

    # Cached artifacts must serve bit-identical estimates.
    assert warm_estimates == cold_estimates

    assert totals.executed > 0
    assert saved > 0, "bn_passes_saved_total never incremented"
    pass_ratio = totals.requested / totals.executed
    assert pass_ratio >= MIN_PASS_RATIO, (
        f"BN passes dropped only {pass_ratio:.2f}x "
        f"({totals.requested} requested vs {totals.executed} executed)"
    )

    warm_p50, warm_p99 = np.percentile(warm_times, [50, 99])
    report = {
        "smoke": SMOKE,
        "scale": SCALE,
        "num_queries": len(queries),
        "rounds": ROUNDS,
        "passes": {
            "requested": totals.requested,
            "executed": totals.executed,
            "requested_per_query": totals.requested / len(queries),
            "executed_per_query": totals.executed / len(queries),
        },
        "warm": {
            "p50_ms": warm_p50 * 1e3,
            "p99_ms": warm_p99 * 1e3,
            "total_s": float(warm_times.sum()),
            "plan_cache_hits": cache.hits,
            "plan_cache_misses": cache.misses,
        },
        "pass_ratio": pass_ratio,
        "bn_passes_saved_total": saved,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "join_inference_latency.json").write_text(
        json.dumps(report, indent=2)
    )

    rows = [
        [
            "requested (naive walk)",
            str(totals.requested),
            f"{totals.requested / len(queries):.2f}",
        ],
        [
            "executed (kernel)",
            str(totals.executed),
            f"{totals.executed / len(queries):.2f}",
        ],
    ]
    record_table(
        "join_inference_latency",
        render_grid(
            f"Join inference: {pass_ratio:.1f}x fewer BN passes "
            f"({len(queries)} queries; warm p50 {warm_p50 * 1e3:.3f} ms, "
            f"p99 {warm_p99 * 1e3:.3f} ms)",
            ["passes", "bn passes", "passes/query"],
            rows,
        ),
    )


# ----------------------------------------------------------------------
# Batch sweep
# ----------------------------------------------------------------------
def _batched(queries, size):
    """Full batches of ``size`` (at least one batch, possibly short)."""
    full = [
        queries[i : i + size]
        for i in range(0, len(queries) - size + 1, size)
    ]
    return full or [list(queries)]


def _timed_batches(estimator, batches):
    """Best-of-ROUNDS per-query (batch-amortised) latency per batch."""
    best = np.full(len(batches), np.inf)
    for _ in range(ROUNDS):
        for index, batch in enumerate(batches):
            start = time.perf_counter()
            estimator.estimate_join_batch(batch)
            elapsed = (time.perf_counter() - start) / len(batch)
            if elapsed < best[index]:
                best[index] = elapsed
    return best


def test_kernel_batch_sweep(lab):
    """Batched kernel inference across batch sizes.

    For each batch size B the whole workload runs through
    :meth:`estimate_join_batch`; the sweep records per-query P50/P99 and
    the P99 speedup over B=1.  Estimates at every B must match the B=1
    estimates to fp noise, and the kernel's pass folding must show up in
    the accounting.
    """
    _bundle, queries, estimator, _registry = lab
    kernel = FactorJoinEstimator(
        estimator.catalog, estimator.models, estimator.bucketizer
    )

    sweep = {}
    requested = executed = 0
    single: list[float] = []
    for size in BATCH_SIZES:
        batches = _batched(queries, size)
        # Untimed parity pass: checks agreement with B=1, warms the kernel
        # plans and the evidence cache, and accumulates pass accounting.
        # Batches are consecutive from the start, so ``values`` lines up
        # with a prefix of the workload.
        values: list[float] = []
        for batch in batches:
            values.extend(kernel.estimate_join_batch(batch))
            stats = kernel.last_pass_stats
            requested += stats.requested
            executed += stats.executed
        if size == 1:
            single = values
        else:
            np.testing.assert_allclose(
                values, single[: len(values)], rtol=1e-9, atol=0.0
            )

        p50, p99 = np.percentile(_timed_batches(kernel, batches), [50, 99])
        sweep[str(size)] = {
            "num_batches": len(batches),
            "p50_ms": p50 * 1e3,
            "p99_ms": p99 * 1e3,
        }
    for entry in sweep.values():
        entry["p99_speedup_vs_single"] = sweep["1"]["p99_ms"] / entry["p99_ms"]

    # Folding scopes and OR-terms into one kernel invocation per table must
    # leave executed passes well under the naive request count.
    assert executed > 0
    assert executed < requested, (
        f"kernel folded nothing: {executed} executed vs {requested} requested"
    )

    for size in BATCH_SIZES:
        entry = sweep[str(size)]
        if size >= 16:
            assert entry["p99_ms"] < sweep["1"]["p99_ms"], (
                f"batching did not pay off at B={size}: {entry} "
                f"vs B=1 {sweep['1']}"
            )

    report_path = RESULTS_DIR / "join_inference_latency.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else {}
    report["batch_sweep"] = {
        "batch_sizes": list(BATCH_SIZES),
        "pass_accounting": {"requested": requested, "executed": executed},
        "per_batch": sweep,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    report_path.write_text(json.dumps(report, indent=2))

    rows = [
        [
            str(size),
            f"{sweep[str(size)]['p50_ms']:.3f}",
            f"{sweep[str(size)]['p99_ms']:.3f}",
            f"{sweep[str(size)]['p99_speedup_vs_single']:.2f}x",
        ]
        for size in BATCH_SIZES
    ]
    record_table(
        "kernel_batch_sweep",
        render_grid(
            "Kernel batch sweep (per-query latency, parity with B=1 to fp "
            f"noise, {executed}/{requested} passes executed)",
            ["B", "p50 ms", "p99 ms", "p99 vs B=1"],
            rows,
        ),
    )
