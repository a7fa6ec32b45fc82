"""Shared-belief inference plans: bit-identity and pass accounting.

The core invariant: the shared-plan join path must return estimates
**bit-identical** to the naive one-scalar-pass-per-call-site walk (the
:class:`NaiveFactorJoin` oracle), on every query shape the workload
generator emits (chains, stars, multi-key joins, OR groups).  Alongside
identity, the tests pin the pass accounting -- one executed BN pass per
(table, predicates) scope, requested counts matching the scalar passes the
oracle runs -- and the batch path's shared-artifact reuse.
"""

import numpy as np
import pytest

from repro.estimators.factorjoin import (
    FactorJoinEstimator,
    PassStats,
    PlanArtifactSource,
    QueryInferencePlans,
)
from repro.obs import MetricsRegistry
from repro.sql.query import (
    CardQuery,
    JoinCondition,
    PredicateOp,
    TablePredicate,
)
from repro.workloads.generator import WorkloadSpec, generate_workload
from tests.estimators.oracles import NaiveFactorJoin


@pytest.fixture(scope="module")
def registry():
    return MetricsRegistry()


@pytest.fixture(scope="module")
def stats_fj(stats, registry):
    return FactorJoinEstimator.train(
        stats.catalog, stats.filter_columns, metrics=registry
    )


@pytest.fixture(scope="module")
def naive(stats_fj):
    return NaiveFactorJoin(stats_fj)


@pytest.fixture(scope="module")
def join_workload(stats):
    spec = WorkloadSpec(
        name="plan-identity",
        num_queries=30,
        min_tables=2,
        max_tables=5,
        max_predicates=4,
        aggregation_fraction=0.0,
        or_group_fraction=0.4,
        num_ndv_queries=0,
        seed=29,
    )
    return [
        q for q in generate_workload(stats, spec).queries if len(q.tables) >= 2
    ]


def _chain_query(**overrides) -> CardQuery:
    base = dict(
        tables=("users", "posts", "comments"),
        joins=(
            JoinCondition("users", "Id", "posts", "OwnerUserId"),
            JoinCondition("posts", "Id", "comments", "PostId"),
        ),
        predicates=(
            TablePredicate("users", "Reputation", PredicateOp.GE, 10.0),
            TablePredicate("posts", "Score", PredicateOp.LE, 40.0),
            TablePredicate("comments", "Score", PredicateOp.GE, 1.0),
        ),
    )
    base.update(overrides)
    return CardQuery(**base)


def _multikey_query() -> CardQuery:
    """comments joins users and posts through *different* join keys."""
    return CardQuery(
        tables=("comments", "users", "posts"),
        joins=(
            JoinCondition("users", "Id", "comments", "UserId"),
            JoinCondition("posts", "Id", "comments", "PostId"),
        ),
        predicates=(
            TablePredicate("users", "Reputation", PredicateOp.GE, 25.0),
            TablePredicate("comments", "Score", PredicateOp.GE, 2.0),
        ),
    )


def _or_query() -> CardQuery:
    return _chain_query(
        or_groups=(
            (
                TablePredicate("posts", "ViewCount", PredicateOp.GE, 500.0),
                TablePredicate("posts", "AnswerCount", PredicateOp.GE, 3.0),
            ),
        ),
    )


class TestBitIdentity:
    def test_generated_workload(self, stats_fj, naive, join_workload):
        assert join_workload  # the generator must yield join queries
        for query in join_workload:
            assert stats_fj.estimate_count(query) == (
                naive.estimate_count(query)
            ), query.name

    @pytest.mark.parametrize(
        "query_fn", [_chain_query, _multikey_query, _or_query]
    )
    def test_query_shapes(self, stats_fj, naive, query_fn):
        query = query_fn()
        assert stats_fj.estimate_count(query) == naive.estimate_count(query)

    def test_predicate_free_join(self, stats_fj, naive):
        query = _chain_query(predicates=())
        assert stats_fj.estimate_count(query) == naive.estimate_count(query)


class TestPassAccounting:
    def test_chain_runs_one_pass_per_table(self, stats_fj):
        stats_fj.estimate_count(_chain_query())
        recorded = stats_fj.last_pass_stats
        assert recorded is not None
        assert recorded.executed == 3  # one beliefs() per (table, predicates)
        assert recorded.requested > recorded.executed
        assert recorded.saved == recorded.requested - recorded.executed

    def test_requested_matches_naive_count(self, stats_fj, naive, join_workload):
        for query in join_workload:
            naive_passes = naive.pass_count(query)
            stats_fj.estimate_count(query)
            recorded = stats_fj.last_pass_stats
            assert recorded.requested == naive_passes, query.name
            assert recorded.executed <= naive_passes

    def test_or_groups_expand_requests_not_passes(self, stats_fj):
        stats_fj.estimate_count(_or_query())
        recorded = stats_fj.last_pass_stats
        # One belief pass per table scope (3) plus one per *distinct*
        # inclusion-exclusion term of the posts OR group (3); the repeated
        # expansions at other call sites hit the memo.
        assert recorded.executed == 6
        assert recorded.requested > recorded.executed + 3

    def test_single_table_clears_stats(self, stats_fj):
        stats_fj.estimate_count(_chain_query())
        assert stats_fj.last_pass_stats is not None
        stats_fj.estimate_count(
            CardQuery(
                tables=("users",),
                predicates=(
                    TablePredicate("users", "Views", PredicateOp.GE, 3.0),
                ),
            )
        )
        assert stats_fj.last_pass_stats is None

    def test_metrics_counters_advance(self, stats_fj, registry):
        before_total = registry.get("bn_passes_total").value
        before_saved = registry.get("bn_passes_saved_total").value
        stats_fj.estimate_count(_chain_query())
        assert registry.get("bn_passes_total").value == before_total + 3
        assert registry.get("bn_passes_saved_total").value > before_saved

    def test_saved_never_negative(self):
        stats = PassStats(requested=1, executed=5)
        assert stats.saved == 0
        snap = stats.snapshot()
        assert (snap.requested, snap.executed) == (1, 5)


class TestSubtreeMemoization:
    def test_compute_called_once_per_key(self, stats_fj):
        query = _chain_query()
        plans = QueryInferencePlans(stats_fj.model_for, query)
        join = query.joins[1]
        calls = []

        def compute():
            calls.append(1)
            return np.ones(4)

        first = plans.subtree_weights("comments", join, compute)
        second = plans.subtree_weights("comments", join, compute)
        assert len(calls) == 1
        assert first is second


class TestJoinBatch:
    def test_batch_matches_sequential(self, stats_fj, naive, join_workload):
        queries = join_workload[:8]
        sequential = [naive.estimate_count(q) for q in queries]
        batched = stats_fj.estimate_join_batch(queries)
        # The batched path may prime beliefs through a (bins, B) matmul,
        # whose reduction order differs from the vector path -- allclose,
        # not bitwise, is the contract here.
        np.testing.assert_allclose(batched, sequential, rtol=1e-9)

    def test_batch_executes_fewer_passes(self, stats_fj, naive, join_workload):
        queries = join_workload[:8]
        naive_passes = sum(naive.pass_count(q) for q in queries)
        stats_fj.estimate_join_batch(queries)
        recorded = stats_fj.last_pass_stats
        assert recorded.requested == naive_passes
        assert recorded.executed < naive_passes

    def test_mixed_batch_handles_single_table(self, stats_fj, naive):
        single = CardQuery(
            tables=("users",),
            predicates=(TablePredicate("users", "Views", PredicateOp.GE, 2.0),),
        )
        join = _chain_query()
        batched = stats_fj.estimate_join_batch([single, join])
        assert batched[0] == stats_fj.estimate_count(single)
        assert batched[1] == naive.estimate_count(join)

    def test_empty_batch(self, stats_fj):
        assert stats_fj.estimate_join_batch([]) == []

    def test_shared_source_reuses_scopes_across_queries(self, stats_fj):
        query = _chain_query()
        source = PlanArtifactSource()
        stats = PassStats()
        for _ in range(2):
            plans = QueryInferencePlans(
                stats_fj.model_for, query, source=source, stats=stats
            )
            stats_fj._estimate_join(query, plans)
        assert stats.executed == 3  # second query hits the shared artifacts


class TestEstimationOverhead:
    def test_scales_with_tables_and_or_terms(self, stats_fj):
        chain = _chain_query()
        assert stats_fj.estimation_overhead(chain) > 0.0
        assert stats_fj.estimation_overhead(_or_query()) > (
            stats_fj.estimation_overhead(chain)
        )

    def test_single_table_cheaper_than_join(self, stats_fj):
        single = CardQuery(
            tables=("users",),
            predicates=(TablePredicate("users", "Views", PredicateOp.GE, 2.0),),
        )
        assert stats_fj.estimation_overhead(single) < (
            stats_fj.estimation_overhead(_chain_query())
        )
