"""Single-table COUNT estimation with per-table tree BNs.

Wraps one :class:`TreeBayesNet` per table behind the :class:`CountEstimator`
interface.  OR-groups are handled the way the paper describes: "ByteCard
uses the inclusion-exclusion principle to transform OR-ed queries to AND-ed
formats before calculating selectivities".
"""

from __future__ import annotations

import threading
import time
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from repro.errors import EstimationError
from repro.estimators.base import CountEstimator
from repro.estimators.bn.kernels import EvidenceCache, KernelPlan
from repro.estimators.bn.model import TreeBayesNet, fit_tree_bn
from repro.obs.metrics import MetricsRegistry
from repro.sql.query import CardQuery, TablePredicate
from repro.storage.catalog import Catalog


class BNCountEstimator(CountEstimator):
    """Per-table tree-BN COUNT estimator (single-table queries only)."""

    name = "bn"

    def __init__(
        self,
        models: dict[str, TreeBayesNet],
        evidence_cache: EvidenceCache | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.models = dict(models)
        self.evidence_cache = evidence_cache
        #: receives ``bn_kernel_*`` counters and kernel build times
        self.metrics = metrics if metrics is not None else MetricsRegistry(enabled=False)
        self._kernel_plans: dict[str, KernelPlan] = {}
        self._kernel_lock = threading.Lock()

    @classmethod
    def train(
        cls,
        catalog: Catalog,
        columns_per_table: dict[str, list[str]],
        max_bins: int = 64,
        sample_rows: int | None = None,
    ) -> "BNCountEstimator":
        """Train one BN per table over the given column selections."""
        models = {
            table: fit_tree_bn(
                catalog.table(table),
                columns,
                max_bins=max_bins,
                sample_rows=sample_rows,
            )
            for table, columns in columns_per_table.items()
        }
        return cls(models)

    def model_for(self, table: str) -> TreeBayesNet:
        try:
            return self.models[table]
        except KeyError:
            raise EstimationError(f"no BN model for table {table!r}") from None

    def kernel_plan_for(self, table: str) -> KernelPlan:
        """The table's compiled kernel plan.

        Compiled once per table per estimator; build time lands in the
        ``bn_kernel_build_seconds`` histogram.
        """
        plan = self._kernel_plans.get(table)
        if plan is None:
            with self._kernel_lock:
                plan = self._kernel_plans.get(table)
                if plan is None:
                    start = time.perf_counter()
                    plan = KernelPlan(self.model_for(table).init_context())
                    self.metrics.histogram("bn_kernel_build_seconds").observe(
                        time.perf_counter() - start
                    )
                    self._kernel_plans[table] = plan
        return plan

    def count_kernel_run(self, columns: int) -> None:
        """Account one kernel invocation covering ``columns`` columns."""
        if self.metrics.enabled:
            self.metrics.counter("bn_kernel_batches_total").inc()
            self.metrics.counter("bn_kernel_queries_total").inc(columns)

    def evidence_packs(
        self,
        model: TreeBayesNet,
        plan: KernelPlan,
        predicate_lists: Sequence[Sequence[TablePredicate]],
    ) -> list[np.ndarray]:
        """Kernel evidence packs, column ``b`` holding ``predicate_lists[b]``.

        Bin-mask vectors come from the evidence cache when one is installed.
        """
        cache = self.evidence_cache
        packs = plan.ones_packs(len(predicate_lists))
        for b, predicates in enumerate(predicate_lists):
            for pred in predicates:
                if pred.table != model.table_name:
                    raise EstimationError(
                        f"predicate on {pred.table!r} given to BN of "
                        f"{model.table_name!r}"
                    )
                index = model.column_index(pred.column)
                discretizer = model.discretizers[pred.column]
                vector = (
                    cache.vector(discretizer, pred)
                    if cache is not None
                    else discretizer.evidence(pred)
                )
                plan.apply_evidence(packs, index, b, vector)
        return packs

    # ------------------------------------------------------------------
    def table_selectivity(self, query: CardQuery, table: str) -> float:
        """Selectivity of all predicates (incl. OR-groups) on ``table``.

        Every conjunctive term is one kernel sweep at batch size 1 -- never
        folded into a wider one, whose BLAS blocking could move low bits --
        so the result is bitwise one :meth:`TreeBayesNet.selectivity` per
        inclusion-exclusion term.
        """
        model = self.model_for(table)
        base = [p for p in query.predicates if p.table == table]
        groups = table_or_groups(query, table)
        plan = self.kernel_plan_for(table)

        def term(predicates: list[TablePredicate]) -> float:
            if not predicates:
                return 1.0  # TreeBayesNet.selectivity's no-pass shortcut
            packs = self.evidence_packs(model, plan, [predicates])
            self.count_kernel_run(1)
            return float(plan.selectivities_packs(packs)[0])

        return _selectivity_with_or_groups(base, groups, term)

    def selectivity(self, query: CardQuery) -> float:
        if not query.is_single_table():
            raise EstimationError(
                "BNCountEstimator handles single tables; use FactorJoin for joins"
            )
        return self.table_selectivity(query, query.tables[0])

    def estimate_count(self, query: CardQuery) -> float:
        if not query.is_single_table():
            raise EstimationError(
                "BNCountEstimator handles single tables; use FactorJoin for joins"
            )
        table = query.tables[0]
        return self.table_selectivity(query, table) * self.model_for(table).total_rows

    def estimate_count_batch(
        self, table: str, queries: list[CardQuery]
    ) -> list[float]:
        """Estimate a batch of single-table COUNT queries on one table.

        All plain conjunctive queries share one :class:`KernelPlan` upward
        sweep fed from the evidence cache (bitwise identical to
        :meth:`BNInferenceContext.selectivity_batch` on the same evidence);
        queries carrying OR-groups take the per-term inclusion-exclusion
        path of :meth:`estimate_count`.  Results align with the input
        order.
        """
        model = self.model_for(table)
        results: list[float | None] = [None] * len(queries)
        plain_indexes: list[int] = []
        plain_predicates: list[list[TablePredicate]] = []
        for i, query in enumerate(queries):
            if not query.is_single_table() or query.tables[0] != table:
                raise EstimationError(
                    f"batch for table {table!r} received query on "
                    f"{query.tables!r}"
                )
            if query.or_groups:
                results[i] = self.estimate_count(query)
            else:
                plain_indexes.append(i)
                plain_predicates.append(list(query.predicates))
        if plain_indexes:
            rows = self._rows_batch(model, plain_predicates)
            for i, estimate in zip(plain_indexes, rows):
                results[i] = float(estimate)
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def _rows_batch(
        self, model: TreeBayesNet, predicate_lists: list[list[TablePredicate]]
    ):
        plan = self.kernel_plan_for(model.table_name)
        packs = self.evidence_packs(model, plan, predicate_lists)
        self.count_kernel_run(len(predicate_lists))
        return plan.selectivities_packs(packs) * model.total_rows

    def estimation_overhead(self, query: CardQuery) -> float:
        # One tree message pass: linear in nodes, tiny constants.
        model = self.model_for(query.tables[0])
        return 0.03 + 0.005 * len(model.columns)

    @property
    def nbytes(self) -> int:
        return sum(model.nbytes for model in self.models.values())


def table_or_groups(
    query: CardQuery, table: str
) -> list[list[TablePredicate]]:
    """``table``'s OR-groups, validating that no group spans tables."""
    for group in query.or_groups:
        tables_in_group = {p.table for p in group}
        if table in tables_in_group and tables_in_group != {table}:
            raise EstimationError(
                "OR-groups spanning multiple tables are not supported"
            )
    return [
        [p for p in group if p.table == table]
        for group in query.or_groups
        if any(p.table == table for p in group)
    ]


def _selectivity_with_or_groups(
    base: list[TablePredicate],
    groups: list[list[TablePredicate]],
    selectivity_fn: Callable[[list[TablePredicate]], float],
) -> float:
    """Inclusion-exclusion over OR-groups, evaluated by the BN.

    ``P(base AND (g1a OR g1b) AND ...)`` expands into signed conjunctive
    terms; each conjunctive term is one ``selectivity_fn`` call (one BN
    sweep).  The expansion is exponential in the number of OR-groups, which
    is fine for the 1-2 groups real queries carry (the paper applies the
    same transform).

    Shared-belief inference plans pass a memoizing ``selectivity_fn`` so
    each distinct conjunctive term is inferred at most once per plan, while
    the expansion structure (term order, per-level clipping) stays the same.
    """
    if not groups:
        return selectivity_fn(base)
    total = 0.0
    first, rest = groups[0], groups[1:]
    # Inclusion-exclusion over the members of the first group, recursing
    # into the remaining groups.
    for size in range(1, len(first) + 1):
        sign = (-1.0) ** (size + 1)
        for subset in combinations(first, size):
            total += sign * _selectivity_with_or_groups(
                base + list(subset), rest, selectivity_fn
            )
    return float(min(max(total, 0.0), 1.0))


def or_expansion_term_predicates(
    base: list[TablePredicate],
    groups: list[list[TablePredicate]],
) -> list[tuple[TablePredicate, ...]]:
    """Every conjunctive term :func:`_selectivity_with_or_groups` evaluates.

    Mirrors the expansion recursion exactly -- same subset enumeration,
    same ``base + subset`` concatenation order -- so the returned tuples
    are the memo keys ``TableInferencePlan.term_selectivity`` will look up.
    This is what lets the fused inference kernel pre-seed every term of a
    scope in the same batched pass that fills its beliefs.
    """
    terms: list[tuple[TablePredicate, ...]] = []

    def recurse(
        acc: list[TablePredicate], rest: list[list[TablePredicate]]
    ) -> None:
        if not rest:
            terms.append(tuple(acc))
            return
        first, tail = rest[0], rest[1:]
        for size in range(1, len(first) + 1):
            for subset in combinations(first, size):
                recurse(acc + list(subset), tail)

    if groups:
        recurse(list(base), list(groups))
    return terms


def or_expansion_terms(groups: list[list[TablePredicate]]) -> int:
    """Conjunctive terms (BN passes) the inclusion-exclusion expansion costs.

    One per non-empty member subset of each group, multiplied across groups;
    zero when there are no groups (the AND-only pass is counted separately).
    """
    if not groups:
        return 0
    terms = 1
    for group in groups:
        terms *= (1 << len(group)) - 1
    return terms
