"""Seeded inputs of the benchmark workloads.

Everything here is input generation: it is not timed, and it depends only
on the workload name, ``--seed`` and ``--seconds``, never on how fast the
program runs.

The queries are a fixed benchmark set, as in the paper: the repository's
STATS-Hybrid and AEOLUS-Online generators at their default seeds over the
synthetic STATS and AEOLUS bundles at scale 0.3, and the drift writes are
compiled at a fixed seed too.  ``--seed`` draws the
order in which the queries arrive.  So every seed measures the same work,
the plan-quality metrics are exact rather than sampled, and two commits
run on one seed see the same stream.

``--seconds`` sizes the work instead of cutting it off: a run executes
``QUERIES_PER_SECOND[workload] * seconds`` queries, a rate measured on a
2-core x86 box so that a run of the unchanged program takes about
``--seconds``, and ``WRITE_BATCHES_PER_SECOND * seconds`` append batches
per drift recipe, so the share of writes does not depend on ``--seconds``.
Fixed work keeps every percentile over the same sample count on both
commits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets import make_aeolus, make_stats
from repro.datasets.base import DatasetBundle
from repro.sql import CardQuery
from repro.stream import DriftRecipe, IngestEvent, IngestProcess
from repro.utils.rng import derive_rng
from repro.workloads import aeolus_online, stats_hybrid

WORKLOADS = ("stats-direct", "aeolus-ingest")

#: the ROADMAP baseline size of every dataset
DATASET_SCALE = 0.3

#: queries per measured second (see the module docstring)
QUERIES_PER_SECOND = {"stats-direct": 110, "aeolus-ingest": 70}

#: unique queries behind aeolus-ingest's repeated stream; small enough that
#: the working set fits the serving tier's estimate cache (4096) and plan
#: cache (1024)
POOL_SIZE = 60

#: Zipf exponent of the repeat schedule; pool query ``i`` has rank ``i + 1``
ZIPF_EXPONENT = 1.0

#: one synchronous targeted retrain + refresh after every this many events
RETRAIN_EVERY = 2

#: append batches per drift recipe and measured second; with three append
#: recipes and one delete, a 20-second run makes 106 ingest events and 53
#: retrains, enough writes that the tail percentile falls well inside the
#: retrains and the median inside the ingest events
WRITE_BATCHES_PER_SECOND = 1.75

#: seed the drift appends sample their rows with
INGEST_SEED = 29

#: pool queries re-executed against live truth after a trailing write phase
PROBES_AFTER_WRITES = 12

_DATASETS = {
    "stats-direct": (make_stats, stats_hybrid),
    "aeolus-ingest": (make_aeolus, aeolus_online),
}

# (table, column, kind, magnitude, fresh primary-key columns) per dataset;
# each dataset also gets one delete of its lowest 5% on the first recipe's
# column.
_RECIPES = {
    "stats-direct": (
        ("votes", "BountyAmount", "shift", 1.0, ("Id",)),
        ("comments", "Score", "skew", 2.0, ("Id",)),
        ("posts", "ViewCount", "ndv", 4.0, ("Id",)),
    ),
    "aeolus-ingest": (
        ("impressions", "cost_millis", "shift", 1.0, ("imp_id",)),
        ("clicks", "dwell_bucket", "skew", 2.0, ("click_id",)),
        ("conversions", "value_millis", "ndv", 4.0, ("conv_id",)),
    ),
}


@dataclass(frozen=True)
class Read:
    """One query of the stream: the SQL text a client sends, the generator's
    bound query it stands for, and its truth when the catalog is static."""

    sql: str
    query: CardQuery
    #: exact COUNT on the t0 catalog, or None when writes may have moved it
    truth: int | None


@dataclass
class Inputs:
    workload: str
    bundle: DatasetBundle
    #: ordered operations: ("read", Read), ("ingest", IngestEvent),
    #: ("retrain", None) or ("probe", Read).  Probes are re-checks after a
    #: trailing write phase, verified but not part of the latency sample.
    schedule: list[tuple[str, object]]


def make_inputs(workload: str, seed: int, seconds: int) -> Inputs:
    """The deterministic operation schedule of one run."""
    if workload not in _DATASETS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    make_bundle, make_workload = _DATASETS[workload]
    bundle = make_bundle(scale=DATASET_SCALE)
    count = max(20, int(QUERIES_PER_SECOND[workload] * seconds))
    rng = derive_rng(seed, workload, "order")
    # stats-direct reads a static catalog: its writes come after its reads
    static = workload == "stats-direct"
    if static:
        generated = make_workload(bundle, num_queries=count)
        pool = _unique(generated.queries)
        stream = [pool[i] for i in rng.permutation(len(pool))]
    else:
        generated = make_workload(bundle, num_queries=POOL_SIZE)
        pool = _unique(generated.queries)
        stream = [pool[i] for i in repeat_schedule(len(pool), count, rng)]
    reads: list[tuple[str, object]] = [
        ("read", Read(q.to_sql(), q, generated.true_counts[q.name] if static else None))
        for q in stream
    ]
    batches = max(2, round(WRITE_BATCHES_PER_SECOND * seconds))
    writes = _writes(ingest_events(workload, bundle, batches))
    if static:
        # Read-only sessions first; the same write path then runs as a
        # trailing load, followed by live-truth probes of the pool.
        schedule = reads + writes
        schedule += [
            ("probe", Read(q.to_sql(), q, None))
            for q in pool[:PROBES_AFTER_WRITES]
        ]
    else:
        # Writes spread evenly through the query stream.
        gap = len(reads) / (len(writes) + 1)
        schedule = []
        w = 0
        for i, read in enumerate(reads):
            while w < len(writes) and (w + 1) * gap <= i:
                schedule.append(writes[w])
                w += 1
            schedule.append(read)
        schedule += writes[w:]
    return Inputs(workload, bundle, schedule)


def repeat_schedule(pool_size: int, length: int, rng: np.random.Generator) -> list[int]:
    """Pool indices of a Zipf-repeated stream in ``rng``'s order.

    Pool query ``i`` is the ``i+1``-th hottest and appears its Zipf share of
    ``length`` times (largest remainders round), so only the order of the
    repeats depends on the seed.
    """
    ranks = np.arange(1, pool_size + 1, dtype=np.float64)
    share = ranks**-ZIPF_EXPONENT
    share = share / share.sum() * length
    counts = np.floor(share).astype(int)
    remainder_order = np.argsort(-(share - counts), kind="stable")
    counts[remainder_order[: length - counts.sum()]] += 1
    stream = np.repeat(np.arange(pool_size), counts)
    return [int(i) for i in rng.permutation(stream)]


def ingest_events(
    workload: str, bundle: DatasetBundle, batches: int
) -> tuple[IngestEvent, ...]:
    """Drift events compiled against the t0 catalog: ``batches`` appends
    per recipe, and one delete."""
    specs = _RECIPES[workload]
    recipes = [
        DriftRecipe(
            table, column, kind,
            at_s=float(i),
            fraction=0.3,
            batches=batches,
            spread_s=float(batches),
            magnitude=magnitude,
            fresh_columns=fresh,
        )
        for i, (table, column, kind, magnitude, fresh) in enumerate(specs)
    ]
    table, column = specs[0][:2]
    recipes.append(
        DriftRecipe(table, column, "delete", at_s=batches / 2, fraction=0.05)
    )
    return IngestProcess(bundle.catalog, recipes, seed=INGEST_SEED).events()


def _writes(events) -> list[tuple[str, object]]:
    ops: list[tuple[str, object]] = []
    for i, event in enumerate(events, start=1):
        ops.append(("ingest", event))
        if i % RETRAIN_EVERY == 0 or i == len(events):
            ops.append(("retrain", None))
    return ops


def _unique(queries: list[CardQuery]) -> list[CardQuery]:
    """Drop repeats of an identical query body (names differ, bodies may not)."""
    seen: set[str] = set()
    unique = []
    for query in queries:
        text = query.to_sql()
        if text not in seen:
            seen.add(text)
            unique.append(query)
    return unique
