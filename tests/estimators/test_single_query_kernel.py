"""Single-query estimates on the flat kernel at batch size 1.

``FactorJoinEstimator.estimate_count`` (joins) and ``selectivity`` /
``estimate_count`` (single tables) run every BN sweep through the table's
compiled :class:`KernelPlan` with cached evidence, one evidence column per
invocation.  Width 1 reproduces the scalar sweeps bit for bit, so every
estimate the optimizer asks for must equal the scalar oracle
(:class:`NaiveFactorJoin`: one ``TreeBayesNet`` pass per call site, one
``TreeBayesNet.selectivity`` per inclusion-exclusion term) exactly, and
every plan must come out the same as when planned on the oracle.
"""

import sys
import threading

import pytest

from repro.engine.optimizer import Optimizer
from repro.estimators.factorjoin import FactorJoinEstimator
from repro.obs import MetricsRegistry
from repro.serving import PlanDistributionCache
from repro.sql.query import CardQuery, JoinCondition, PredicateOp, TablePredicate
from repro.workloads.generator import WorkloadSpec, generate_workload
from tests.estimators.oracles import NaiveFactorJoin

DATASETS = ("stats", "imdb", "aeolus")


@pytest.fixture(scope="module")
def trained(request):
    """One trained FactorJoin per dataset (shared models)."""
    out = {}
    for name in DATASETS:
        bundle = request.getfixturevalue(name)
        if name == "imdb":
            out[name] = (bundle, request.getfixturevalue("imdb_factorjoin"))
        else:
            out[name] = (
                bundle,
                FactorJoinEstimator.train(bundle.catalog, bundle.filter_columns),
            )
    return out


def _estimator(fj, metrics=None):
    return FactorJoinEstimator(
        fj.catalog, fj.models, fj.bucketizer, metrics=metrics
    )


class _Recording:
    """Wraps an estimator's single-query entry points, keeping every query
    the optimizer asks about."""

    def __init__(self, estimator):
        self.queries: list[CardQuery] = []
        for name in ("estimate_count", "selectivity"):
            inner = getattr(estimator, name)

            def call(query, inner=inner):
                self.queries.append(query)
                return inner(query)

            setattr(estimator, name, call)


def _workload(bundle):
    spec = WorkloadSpec(
        name="kernel-b1",
        num_queries=40,
        min_tables=1,
        max_tables=4,
        max_predicates=4,
        or_group_fraction=0.5,
        num_ndv_queries=0,
        seed=61,
    )
    return generate_workload(bundle, spec).queries


@pytest.fixture(scope="module")
def optimizer_queries(trained):
    """Every estimate request the optimizer makes while planning each
    dataset's workload: single-table scopes (plain, OR-grouped and
    unfiltered) and connected join subsets."""
    out = {}
    for name, (bundle, fj) in trained.items():
        estimator = _estimator(fj)
        recorder = _Recording(estimator)
        optimizer = Optimizer(estimator, None, catalog=bundle.catalog)
        for query in _workload(bundle):
            optimizer.plan(query)
        out[name] = recorder.queries
    return out


def _model_tables(fj, query):
    return all(table in fj.models for table in query.tables)


@pytest.mark.parametrize("dataset", DATASETS)
class TestBitIdentityWithScalarOracle:
    def test_optimizer_requests_cover_the_shapes(self, dataset, optimizer_queries):
        queries = optimizer_queries[dataset]
        single = [q for q in queries if q.is_single_table()]
        joins = [q for q in queries if not q.is_single_table()]
        assert single and joins
        assert any(q.or_groups for q in queries)
        assert any(not q.predicates and not q.or_groups for q in single) or any(
            {p.table for p in q.predicates} != set(q.tables) for q in joins
        )

    def test_join_estimates_equal_unshared(self, dataset, trained, optimizer_queries):
        _bundle, fj = trained[dataset]
        estimator, naive = _estimator(fj), NaiveFactorJoin(fj)
        checked = 0
        for query in optimizer_queries[dataset]:
            if query.is_single_table() or not _model_tables(fj, query):
                continue
            assert estimator.estimate_count(query) == (
                naive.estimate_count(query)
            ), query
            checked += 1
        assert checked

    def test_single_table_estimates_equal_scalar(
        self, dataset, trained, optimizer_queries
    ):
        _bundle, fj = trained[dataset]
        estimator, naive = _estimator(fj), NaiveFactorJoin(fj)
        checked = 0
        for query in optimizer_queries[dataset]:
            if not query.is_single_table() or not _model_tables(fj, query):
                continue
            table = query.tables[0]
            model = fj.models[table]
            scalar = naive.table_selectivity(query, table)
            assert estimator.selectivity(query) == scalar, query
            assert estimator.estimate_count(query) == (
                scalar * model.total_rows
            ), query
            assert naive.estimate_count(query) == scalar * model.total_rows
            if not query.or_groups:
                predicates = [p for p in query.predicates if p.table == table]
                assert estimator.selectivity(query) == model.selectivity(predicates)
            checked += 1
        assert checked

    def test_kernel_off_path_agrees(self, dataset, trained, optimizer_queries):
        # With the serving tier's cross-query plan cache installed, scopes
        # primed by earlier requests are served to later ones; every answer
        # must still be the oracle's.
        _bundle, fj = trained[dataset]
        on, naive = _estimator(fj), NaiveFactorJoin(fj)
        on.install_plan_cache(PlanDistributionCache())
        for query in optimizer_queries[dataset]:
            if not _model_tables(fj, query):
                continue
            assert on.estimate_count(query) == naive.estimate_count(query), query
            if query.is_single_table():
                assert on.selectivity(query) == naive.selectivity(query), query

    def test_plans_unchanged(self, dataset, trained):
        bundle, fj = trained[dataset]
        on = Optimizer(_estimator(fj), None, catalog=bundle.catalog)
        off = Optimizer(NaiveFactorJoin(fj), None, catalog=bundle.catalog)
        for query in _workload(bundle):
            a, b = on.plan(query), off.plan(query)
            assert a.join_order == b.join_order, query.name
            assert a.readers == b.readers, query.name
            assert a.column_orders == b.column_orders, query.name
            assert a.table_selectivities == b.table_selectivities, query.name
            assert a.join_step_estimates == b.join_step_estimates, query.name


def _chain(**overrides):
    base = dict(
        tables=("users", "posts", "comments"),
        joins=(
            JoinCondition("users", "Id", "posts", "OwnerUserId"),
            JoinCondition("posts", "Id", "comments", "PostId"),
        ),
        predicates=(
            TablePredicate("users", "Reputation", PredicateOp.GE, 10.0),
            TablePredicate("posts", "Score", PredicateOp.LE, 40.0),
        ),
        or_groups=(
            (
                TablePredicate("posts", "ViewCount", PredicateOp.GE, 500.0),
                TablePredicate("posts", "AnswerCount", PredicateOp.GE, 3.0),
            ),
        ),
    )
    base.update(overrides)
    return CardQuery(**base)


class TestRouting:
    def test_single_queries_run_on_the_kernel(self, trained):
        _bundle, fj = trained["stats"]
        registry = MetricsRegistry()
        estimator = _estimator(fj, metrics=registry)
        batches = registry.get("bn_kernel_batches_total")
        before = batches.value
        estimator.estimate_count(_chain())
        # users + posts scopes, comments (unfiltered) from the prior pass,
        # and three OR-expansion terms of posts: one width-1 run each.
        assert batches.value - before == 6
        assert set(estimator._kernel_plans) == {"users", "posts", "comments"}
        single = CardQuery(
            tables=("posts",),
            predicates=(TablePredicate("posts", "Score", PredicateOp.GE, 2.0),),
        )
        before = batches.value
        estimator.selectivity(single)
        assert batches.value - before == 1
        hits = estimator.evidence_cache.hits
        estimator.selectivity(single)
        assert estimator.evidence_cache.hits > hits

    def test_pass_accounting_matches_the_scalar_path(self, trained):
        _bundle, fj = trained["stats"]
        on = _estimator(fj)
        query = _chain()
        on.estimate_count(query)
        # One pass per scope (users, posts, unfiltered comments) plus one
        # per distinct term of the posts OR group; requests are what the
        # naive walk runs.
        assert on.last_pass_stats.requested == (
            NaiveFactorJoin(fj).pass_count(query)
        )
        assert on.last_pass_stats.executed == 6
        # comments' prior pass is the only one the kernel route shares.
        on.estimate_count(query)
        assert on.last_pass_stats.executed == 5

    def test_unfiltered_single_table_short_circuits(self, trained):
        _bundle, fj = trained["stats"]
        estimator = _estimator(fj)
        query = CardQuery(tables=("users",))
        assert estimator.selectivity(query) == 1.0
        assert estimator.estimate_count(query) == fj.models["users"].total_rows

    def test_concurrent_estimates_match_sequential(self, trained, optimizer_queries):
        # Threads share the compiled kernel plans, the prior cache and the
        # evidence cache; every thread must still see the oracle's values.
        _bundle, fj = trained["stats"]
        estimator = _estimator(fj)
        queries = [
            q for q in optimizer_queries["stats"] if _model_tables(fj, q)
        ][:120]
        naive = NaiveFactorJoin(fj)
        expected = [naive.estimate_count(q) for q in queries]
        results: dict[int, list[float]] = {}

        def worker(slot):
            results[slot] = [estimator.estimate_count(q) for q in queries]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for slot in range(4):
            assert results[slot] == expected
