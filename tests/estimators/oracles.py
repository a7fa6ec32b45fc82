"""Slow reference estimators the compiled BN path is checked against.

:class:`NaiveFactorJoin` answers COUNT queries the way FactorJoin did
before shared-belief plans and compiled kernels: every consumer call site
of the factor-graph walk runs its own scalar BN pass --
:meth:`TreeBayesNet.distribution` (one :meth:`BNInferenceContext.beliefs`)
per join-key distribution, :meth:`TreeBayesNet.selectivity` per local
selectivity and per inclusion-exclusion term -- and nothing is shared,
memoized or cached.  It drives the estimator's own walk through
:class:`_CallSitePlans`, a stand-in for ``QueryInferencePlans`` that
answers every call afresh, and it counts the scalar passes it runs, so
pass-accounting tests can hold ``PassStats.requested`` against what the
naive walk really ran.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import EstimationError
from repro.estimators.base import CountEstimator
from repro.estimators.bn.estimator import (
    _selectivity_with_or_groups,
    table_or_groups,
)
from repro.estimators.bn.model import TreeBayesNet
from repro.estimators.factorjoin import FactorJoinEstimator
from repro.estimators.jointree import build_join_tree
from repro.sql.query import CardQuery, JoinCondition, TablePredicate


class _CallSitePlan:
    """One table's scope, inferred afresh at every call site."""

    def __init__(
        self,
        oracle: "NaiveFactorJoin",
        model: TreeBayesNet,
        base: list[TablePredicate],
        or_groups: list[list[TablePredicate]],
    ):
        self.oracle = oracle
        self.model = model
        self.base = base
        self.or_groups = or_groups

    def _selectivity(self, predicates: list[TablePredicate]) -> float:
        return self.oracle.scalar_selectivity(self.model, predicates)

    def distribution(self, column: str) -> np.ndarray:
        self.oracle.passes += 1
        return self.model.distribution(column, self.base)

    def table_selectivity(self) -> float:
        return _selectivity_with_or_groups(
            self.base, self.or_groups, self._selectivity
        )

    def or_factor(self) -> float:
        """Correction factor for OR-groups on the table.

        The bucket distribution is computed under the AND predicates only;
        OR-groups scale it by their conditional selectivity (assumed
        independent of the join key's bucket).
        """
        if not self.or_groups:
            return 1.0
        with_groups = self.table_selectivity()
        without_groups = self._selectivity(self.base)
        if without_groups <= 0.0:
            return 0.0
        return with_groups / without_groups


class _CallSitePlans:
    """``QueryInferencePlans`` without sharing: no scope or subtree memo."""

    def __init__(self, oracle: "NaiveFactorJoin", query: CardQuery):
        self.oracle = oracle
        self.query = query

    def plan_for(self, table: str) -> _CallSitePlan:
        return _CallSitePlan(
            self.oracle,
            self.oracle.fj.model_for(table),
            [p for p in self.query.predicates if p.table == table],
            table_or_groups(self.query, table),
        )

    def subtree_weights(
        self,
        table: str,
        parent_join: JoinCondition,
        compute: Callable[[], np.ndarray],
    ) -> np.ndarray:
        return compute()


class NaiveFactorJoin(CountEstimator):
    """FactorJoin estimates from scalar BN passes, one per call site.

    Wraps a trained :class:`FactorJoinEstimator` (sharing its models,
    bucketizer and mode) and never touches its kernels or caches.
    ``passes`` counts every scalar BN pass run so far.
    """

    name = "bytecard-naive"

    def __init__(self, fj: FactorJoinEstimator):
        self.fj = fj
        self.passes = 0

    def scalar_selectivity(
        self, model: TreeBayesNet, predicates: list[TablePredicate]
    ) -> float:
        if predicates:  # TreeBayesNet.selectivity([]) runs no pass
            self.passes += 1
        return model.selectivity(predicates)

    def table_selectivity(self, query: CardQuery, table: str) -> float:
        """``table``'s selectivity (incl. OR-groups): one
        :meth:`TreeBayesNet.selectivity` per conjunctive term."""
        return _CallSitePlans(self, query).plan_for(table).table_selectivity()

    def selectivity(self, query: CardQuery) -> float:
        if not query.is_single_table():
            raise EstimationError("selectivity() is defined for single tables")
        return self.table_selectivity(query, query.tables[0])

    def estimate_count(self, query: CardQuery) -> float:
        if query.is_single_table():
            table = query.tables[0]
            return (
                self.table_selectivity(query, table)
                * self.fj.model_for(table).total_rows
            )
        tree = build_join_tree(query)
        total = self.fj._root_estimate(
            tree, query.tables[0], _CallSitePlans(self, query)
        )
        return float(max(total, 0.0))

    def pass_count(self, query: CardQuery) -> int:
        """Scalar BN passes :meth:`estimate_count` runs for ``query``."""
        before = self.passes
        self.estimate_count(query)
        return self.passes - before

    def estimation_overhead(self, query: CardQuery) -> float:
        return self.fj.estimation_overhead(query)
