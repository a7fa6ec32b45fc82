"""Hash-join execution over scanned row sets.

Joins are executed along the optimizer's chosen order: each step joins one
new table into the accumulated intermediate result (arrays of row indices,
one per joined table -- classic late-materialized join representation).
Intermediate tuple counts are accumulated for the CPU cost model; an
explicit cap guards against runaway materialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExecutionError
from repro.sql.query import CardQuery, JoinCondition
from repro.storage.catalog import Catalog


@dataclass
class JoinExecution:
    """Result of executing a join tree."""

    #: row indices per table, parallel arrays (one row per result tuple)
    tuples: dict[str, np.ndarray]
    #: intermediate result sizes after each join step (cost-model input)
    intermediate_sizes: list[int] = field(default_factory=list)
    #: rows hashed + probed across all steps
    build_rows: int = 0
    probe_rows: int = 0

    @property
    def result_rows(self) -> int:
        if not self.tuples:
            return 0
        return int(next(iter(self.tuples.values())).size)


def hash_join_tree(
    catalog: Catalog,
    query: CardQuery,
    scanned: dict[str, np.ndarray],
    join_order: list[JoinCondition],
    max_intermediate_rows: int = 30_000_000,
) -> JoinExecution:
    """Execute the query's joins in the given order.

    ``scanned`` maps each table to its surviving row indices; ``join_order``
    must be a linearization where every condition connects a new table to
    the already-joined prefix (the optimizer guarantees this).
    """
    if not query.joins:
        table = query.tables[0]
        return JoinExecution(tuples={table: scanned[table]})
    if len(join_order) != len(query.joins):
        raise ExecutionError(
            f"join order has {len(join_order)} steps for {len(query.joins)} joins"
        )

    first = join_order[0]
    start_table = first.left_table
    execution = JoinExecution(tuples={start_table: scanned[start_table]})

    for join in join_order:
        hash_join_step(catalog, execution, join, scanned, max_intermediate_rows)
    return execution


def hash_join_step(
    catalog: Catalog,
    execution: JoinExecution,
    join: JoinCondition,
    scanned: dict[str, np.ndarray],
    max_intermediate_rows: int = 30_000_000,
) -> int:
    """Join one new table into the accumulated execution, **in place**.

    The single-step building block of :func:`hash_join_tree`, exposed so
    the executor can drive joins step by step -- observing each step's
    actual intermediate cardinality (runtime feedback) and re-ranking the
    remaining order when an actual deviates wildly from its estimate
    (adaptive replanning).  Returns the step's output row count.
    """
    joined_tables = set(execution.tuples)
    left, right = join.tables()
    if left in joined_tables and right not in joined_tables:
        new_table = right
    elif right in joined_tables and left not in joined_tables:
        new_table = left
    else:
        raise ExecutionError(
            f"join order step {join} does not extend the joined prefix"
        )
    old_table = left if new_table == right else right

    old_keys = catalog.table(old_table).column(join.side_for(old_table)).values[
        execution.tuples[old_table]
    ]
    new_rows = scanned[new_table]
    new_keys = catalog.table(new_table).column(join.side_for(new_table)).values[
        new_rows
    ]

    # Build on the new table's rows, probe with the intermediate.
    order = np.argsort(new_keys, kind="stable")
    sorted_rows = new_rows[order]
    sorted_keys = new_keys[order]
    lo = np.searchsorted(sorted_keys, old_keys, side="left")
    hi = np.searchsorted(sorted_keys, old_keys, side="right")
    counts = hi - lo
    out_rows = int(counts.sum())
    if out_rows > max_intermediate_rows:
        raise ExecutionError(
            f"intermediate join result of {out_rows} rows exceeds the "
            f"cap of {max_intermediate_rows}"
        )
    repeat_index = np.repeat(np.arange(old_keys.size), counts)
    # Output slot j of probe row i (whose matches start at output offset
    # starts[i]) takes sorted build row lo[i] + (j - starts[i]).
    starts = np.cumsum(counts) - counts
    take = np.arange(out_rows, dtype=np.int64) + np.repeat(lo - starts, counts)

    execution.tuples = {
        table: rows[repeat_index] for table, rows in execution.tuples.items()
    }
    execution.tuples[new_table] = sorted_rows[take]
    execution.build_rows += int(new_rows.size)
    execution.probe_rows += int(old_keys.size)
    execution.intermediate_sizes.append(out_rows)
    return out_rows
