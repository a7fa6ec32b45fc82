"""Fused BN inference kernels: bit-identity, evidence cache, accounting.

The core invariant: a :class:`KernelPlan` sweep -- any batch width, any
tree shape, colliding CPD shapes included -- must be **bitwise** identical
to ``BNInferenceContext.beliefs`` / ``beliefs_batch`` /
``selectivity_batch`` on the same evidence.  Around that core, these tests
pin the evidence cache's generation semantics (including invalidation
through a real ``ModelLoader.refresh()`` and a miss racing a bump), the
lone-scope / OR-term folding accounting against the naive scalar oracle,
and the retired ``REPRO_BN_KERNEL`` switch.
"""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.estimators.bn.discretize import Discretizer
from repro.estimators.bn.inference import BNInferenceContext
from repro.estimators.bn.kernels import (
    BACKEND_ENV,
    EvidenceCache,
    KernelPlan,
    resolve_backend,
)
from repro.estimators.factorjoin import (
    FactorJoinEstimator,
    PlanArtifactSource,
    QueryInferencePlans,
)
from repro.obs import MetricsRegistry, export_json
from repro.sql.query import (
    CardQuery,
    JoinCondition,
    PredicateOp,
    TablePredicate,
)
from repro.workloads.generator import WorkloadSpec, generate_workload
from tests.estimators.oracles import NaiveFactorJoin


# ----------------------------------------------------------------------
# Random-tree scaffolding
# ----------------------------------------------------------------------
def _random_context(rng, n, bin_low=2, bin_high=40):
    """A random rooted tree BN with data-free CPDs."""
    bins = [int(rng.integers(bin_low, bin_high)) for _ in range(n)]
    parents = [-1] + [int(rng.integers(0, i)) for i in range(1, n)]
    cpds = []
    for i in range(n):
        if parents[i] < 0:
            p = rng.random(bins[i]) + 0.01
            cpds.append(p / p.sum())
        else:
            m = rng.random((bins[parents[i]], bins[i])) + 0.01
            cpds.append(m / m.sum(axis=1, keepdims=True))
    return BNInferenceContext.from_structure(np.asarray(parents), cpds)


def _random_evidence(rng, context, batch):
    return [
        np.clip(rng.random((context.bin_count(i), batch)), 0.05, 1.0)
        for i in range(context.num_nodes)
    ]


def _star_chain_context(bins_list):
    """Node 0 fans out to 1..k, then a chain hangs off node 1 (ragged)."""
    n = len(bins_list)
    parents = [-1] + [0] * min(3, n - 1) + [1] * max(0, n - 4)
    parents = parents[:n]
    cpds = []
    rng = np.random.default_rng(5)
    for i in range(n):
        if parents[i] < 0:
            p = rng.random(bins_list[i]) + 0.01
            cpds.append(p / p.sum())
        else:
            m = rng.random((bins_list[parents[i]], bins_list[i])) + 0.01
            cpds.append(m / m.sum(axis=1, keepdims=True))
    return BNInferenceContext.from_structure(np.asarray(parents), cpds)


def _has_shape_collision(context):
    """True when two non-root CPDs share a shape."""
    shapes = [
        context.cpds[node].shape
        for node in range(context.num_nodes)
        if node != context.root
    ]
    return len(set(shapes)) < len(shapes)


# ----------------------------------------------------------------------
# The retired backend switch
# ----------------------------------------------------------------------
class TestResolveBackend:
    @pytest.mark.parametrize("alias", ["", "numpy", "on", "1", "default"])
    def test_numpy_aliases(self, alias):
        assert resolve_backend(alias) == "numpy"

    @pytest.mark.parametrize("alias", ["off", "0", "none", "disabled", "OFF"])
    def test_off_aliases(self, alias):
        # ``off`` names no path any more; asking for it must fail loudly
        # rather than silently run the kernel.
        with pytest.raises(ValueError, match="removed"):
            resolve_backend(alias)

    def test_unknown_backend_raises(self):
        for value in ("cuda", "numba"):
            with pytest.raises(ValueError, match="removed"):
                resolve_backend(value)

    def test_environment_variable_consulted(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "off")
        with pytest.raises(ValueError):
            resolve_backend()
        monkeypatch.delenv(BACKEND_ENV)
        assert resolve_backend() == "numpy"


# ----------------------------------------------------------------------
# Kernel bit-identity (the tentpole property)
# ----------------------------------------------------------------------
class TestKernelBitIdentity:
    def test_random_trees_bitwise_vs_beliefs_batch(self):
        rng = np.random.default_rng(7)
        collisions = 0
        for trial in range(60):
            n = int(rng.integers(1, 12))
            # Narrow bin ranges force colliding CPD shapes; wide ranges
            # make every shape unique.  Both run the same per-node sweep.
            context = (
                _random_context(rng, n)
                if trial % 2
                else _random_context(rng, n, 3, 6)
            )
            collisions += _has_shape_collision(context)
            plan = KernelPlan(context)
            for batch in (1, 2, 7, 16):
                evidence = _random_evidence(rng, context, batch)
                ref_beliefs, ref_probs = context.beliefs_batch(evidence)
                run = plan.run([e.copy() for e in evidence])
                for node in range(n):
                    assert np.array_equal(
                        ref_beliefs[node], run.beliefs_matrix(node)
                    ), (trial, batch, node)
                assert np.array_equal(ref_probs, run.probabilities)
        assert collisions  # colliding shapes exercised

    def test_batch_of_one_bitwise_vs_scalar_beliefs(self):
        rng = np.random.default_rng(13)
        for trial in range(40):
            context = _random_context(rng, int(rng.integers(1, 10)))
            plan = KernelPlan(context)
            evidence = _random_evidence(rng, context, 1)
            scalar_beliefs, scalar_prob = context.beliefs(
                [e[:, 0] for e in evidence]
            )
            run = plan.run(evidence)
            for node in range(context.num_nodes):
                assert np.array_equal(
                    scalar_beliefs[node], run.beliefs_matrix(node)[:, 0]
                )
            assert scalar_prob == run.probability(0)

    def test_ragged_star_chain_tree(self):
        context = _star_chain_context([4, 7, 4, 4, 9, 3, 9])
        plan = KernelPlan(context)
        rng = np.random.default_rng(3)
        for batch in (1, 6):
            evidence = _random_evidence(rng, context, batch)
            ref_beliefs, ref_probs = context.beliefs_batch(evidence)
            run = plan.run([e.copy() for e in evidence])
            for node in range(context.num_nodes):
                assert np.array_equal(
                    ref_beliefs[node], run.beliefs_matrix(node)
                )
            assert np.array_equal(ref_probs, run.probabilities)

    def test_selectivities_bitwise_vs_selectivity_batch(self):
        rng = np.random.default_rng(31)
        for trial in range(30):
            context = _random_context(rng, int(rng.integers(1, 10)))
            plan = KernelPlan(context)
            batch = int(rng.integers(1, 9))
            evidence = _random_evidence(rng, context, batch)
            reference = context.selectivity_batch(evidence)
            packs = plan.ones_packs(batch)
            for node in range(context.num_nodes):
                for column in range(batch):
                    plan.apply_evidence(
                        packs, node, column, evidence[node][:, column]
                    )
            assert np.array_equal(
                reference, plan.selectivities_packs(packs)
            ), trial

    def test_scope_beliefs_columns_match_matrices(self):
        rng = np.random.default_rng(41)
        context = _random_context(rng, 6)
        plan = KernelPlan(context)
        evidence = _random_evidence(rng, context, 4)
        run = plan.run(evidence)
        for column in range(4):
            vectors = run.scope_beliefs(column)
            for node, vector in enumerate(vectors):
                assert np.array_equal(
                    vector, run.beliefs_matrix(node)[:, column]
                )
                assert not vector.flags.writeable

    def test_empty_batch_rejected(self):
        context = _random_context(np.random.default_rng(2), 3)
        with pytest.raises(ModelError):
            KernelPlan(context).ones_packs(0)


# ----------------------------------------------------------------------
# Evidence cache semantics
# ----------------------------------------------------------------------
def _discretizer(values, max_bins=8):
    return Discretizer(np.asarray(values, dtype=np.float64), max_bins=max_bins)


def _pred(table="t", column="c", op=PredicateOp.LE, value=3.0):
    return TablePredicate(table, column, op, value)


class TestEvidenceCache:
    def test_hit_miss_counting_and_bitwise_vectors(self):
        registry = MetricsRegistry()
        cache = EvidenceCache(registry=registry)
        disc = _discretizer(np.arange(100))
        pred = _pred()
        first = cache.vector(disc, pred)
        assert np.array_equal(first, disc.evidence(pred))
        second = cache.vector(disc, pred)
        assert second is first  # the very same immutable array
        assert (cache.hits, cache.misses) == (1, 1)
        counters = export_json(registry)["counters"]
        assert counters["evidence_cache_hits_total"] == 1
        assert counters["evidence_cache_misses_total"] == 1
        assert counters["evidence_cache_invalidations_total"] == 0

    def test_vectors_are_read_only(self):
        cache = EvidenceCache()
        vector = cache.vector(_discretizer(np.arange(50)), _pred())
        with pytest.raises(ValueError):
            vector[0] = 9.0

    def test_bump_tables_invalidates_only_that_table(self):
        cache = EvidenceCache()
        disc = _discretizer(np.arange(100))
        pred_t = _pred(table="t")
        pred_u = _pred(table="u")
        cache.vector(disc, pred_t)
        cache.vector(disc, pred_u)
        cache.bump_tables(["t"])
        cache.vector(disc, pred_t)
        cache.vector(disc, pred_u)
        assert cache.invalidations == 1
        assert cache.misses == 3  # t twice, u once
        assert cache.hits == 1  # u's second lookup

    def test_bump_all_invalidates_everything(self):
        cache = EvidenceCache()
        disc = _discretizer(np.arange(100))
        preds = [_pred(table=name) for name in ("a", "b")]
        for pred in preds:
            cache.vector(disc, pred)
        cache.bump_all()
        for pred in preds:
            cache.vector(disc, pred)
        assert cache.invalidations == 2 and cache.hits == 0

    def test_stale_on_bin_count_mismatch(self):
        cache = EvidenceCache()
        pred = _pred()
        cache.vector(_discretizer(np.arange(100), max_bins=8), pred)
        # Same predicate, refreshed model with a different grid: the cached
        # vector's length no longer matches and must not be served.
        refreshed = _discretizer(np.arange(100), max_bins=4)
        vector = cache.vector(refreshed, pred)
        assert vector.size == refreshed.num_bins
        assert cache.invalidations == 1

    def test_lru_eviction(self):
        cache = EvidenceCache(max_entries=2)
        disc = _discretizer(np.arange(100))
        a, b, c = (_pred(value=float(v)) for v in (1.0, 2.0, 5.0))
        cache.vector(disc, a)
        cache.vector(disc, b)
        cache.vector(disc, a)  # refresh a's recency
        cache.vector(disc, c)  # evicts b
        assert cache.evictions == 1 and len(cache) == 2
        cache.vector(disc, a)
        assert cache.hits == 2  # a still resident
        cache.vector(disc, b)
        assert cache.misses == 4  # b was the evictee

    def test_miss_racing_a_bump_is_not_stored(self):
        # A miss still running on the old model while a refresh bumps the
        # table must not be cached under the new generation: the next
        # lookup (on the new model) has to compute its own vector.
        cache = EvidenceCache()
        pred = _pred()

        class _Disc:
            num_bins = 3

            def __init__(self, vector, on_evidence=None):
                self._vector = np.asarray(vector, dtype=np.float64)
                self._on_evidence = on_evidence

            def evidence(self, _pred):
                if self._on_evidence is not None:
                    self._on_evidence()
                return self._vector

        old = _Disc([1.0, 0.0, 0.0], lambda: cache.bump_tables([pred.table]))
        new = _Disc([0.0, 1.0, 1.0])
        assert np.array_equal(cache.vector(old, pred), [1.0, 0.0, 0.0])
        assert np.array_equal(cache.vector(new, pred), [0.0, 1.0, 1.0])
        assert np.array_equal(cache.vector(new, pred), [0.0, 1.0, 1.0])
        assert (cache.misses, cache.hits) == (2, 1)


# ----------------------------------------------------------------------
# Estimator integration: join batches, folding, accounting, metrics
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trained(stats):
    return FactorJoinEstimator.train(
        stats.catalog, stats.filter_columns, sample_rows=20_000
    )


@pytest.fixture(scope="module")
def kernel_registry():
    return MetricsRegistry()


@pytest.fixture(scope="module")
def fj_kernel(trained, kernel_registry):
    return FactorJoinEstimator(
        trained.catalog,
        trained.models,
        trained.bucketizer,
        metrics=kernel_registry,
    )


@pytest.fixture(scope="module")
def naive(trained):
    return NaiveFactorJoin(trained)


@pytest.fixture(scope="module")
def join_batch(stats):
    spec = WorkloadSpec(
        name="kernel-parity",
        num_queries=48,
        min_tables=2,
        max_tables=5,
        max_predicates=4,
        aggregation_fraction=0.0,
        or_group_fraction=0.35,
        num_ndv_queries=0,
        seed=47,
    )
    return [
        q for q in generate_workload(stats, spec).queries if len(q.tables) >= 2
    ]


def _chain_query(reputation, score):
    return CardQuery(
        tables=("users", "posts", "comments"),
        joins=(
            JoinCondition("users", "Id", "posts", "OwnerUserId"),
            JoinCondition("posts", "Id", "comments", "PostId"),
        ),
        predicates=(
            TablePredicate("users", "Reputation", PredicateOp.GE, reputation),
            TablePredicate("posts", "Score", PredicateOp.LE, score),
            TablePredicate("comments", "Score", PredicateOp.GE, 1.0),
        ),
    )


def _stacked_evidence(model, predicate_lists):
    """Per-node ``(bins, B)`` evidence, column ``b`` for
    ``predicate_lists[b]`` -- the oracle sweeps' batched input."""
    evidence = [model.evidence_for(predicates) for predicates in predicate_lists]
    return [
        np.column_stack([ev[node] for ev in evidence])
        for node in range(len(model.columns))
    ]


class TestEstimatorIntegration:
    def test_join_batch_matches_plans_path(self, fj_kernel, naive, join_batch):
        assert join_batch
        kernel_results = fj_kernel.estimate_join_batch(join_batch)
        naive_results = [naive.estimate_count(q) for q in join_batch]
        # Kernel invocations fold scopes, OR-terms and priors into wider
        # GEMMs, whose BLAS blocking may move low bits against the scalar
        # passes of the naive walk; values agree to fp noise.
        np.testing.assert_allclose(
            kernel_results, naive_results, rtol=1e-9, atol=0.0
        )

    def test_join_batch_bitwise_when_widths_match(self, fj_kernel, trained):
        # Every table carries filtered scopes and no OR groups, so each
        # table is primed by one sweep over its distinct scopes (two for
        # users and posts, one shared comments scope).  Filling the scopes
        # from BNInferenceContext.beliefs_batch on the same evidence
        # instead must give *bitwise* the same estimates.
        batch = [_chain_query(10.0, 40.0), _chain_query(25.0, 15.0)]
        source = PlanArtifactSource()
        all_plans = [
            QueryInferencePlans(trained.model_for, q, source=source)
            for q in batch
        ]
        for table in batch[0].tables:
            model = trained.models[table]
            scopes = list(
                {
                    id(plan.artifacts): plan
                    for plan in (plans.plan_for(table) for plans in all_plans)
                }.values()
            )
            beliefs, probabilities = model.init_context().beliefs_batch(
                _stacked_evidence(model, [plan.base for plan in scopes])
            )
            for column, plan in enumerate(scopes):
                plan.artifacts.probability = float(probabilities[column])
                plan.artifacts.beliefs = [
                    np.ascontiguousarray(matrix[:, column]) for matrix in beliefs
                ]
        expected = [
            trained._estimate_join(q, plans) for q, plans in zip(batch, all_plans)
        ]
        assert fj_kernel.estimate_join_batch(batch) == expected

    def test_single_query_join_matches_batch_of_one(self, fj_kernel, join_batch):
        for query in join_batch[:6]:
            (batched,) = fj_kernel.estimate_join_batch([query])
            assert batched == pytest.approx(
                fj_kernel.estimate_count(query), rel=1e-9
            )

    def test_single_table_batch_bitwise(self, fj_kernel, trained):
        queries = [
            CardQuery(
                tables=("posts",),
                predicates=(
                    TablePredicate("posts", "Score", PredicateOp.GE, float(v)),
                ),
            )
            for v in range(-2, 8)
        ]
        model = trained.models["posts"]
        stacked = _stacked_evidence(model, [list(q.predicates) for q in queries])
        expected = (
            model.init_context().selectivity_batch(stacked) * model.total_rows
        )
        assert fj_kernel.estimate_count_batch("posts", queries) == list(expected)

    def test_lone_scopes_and_terms_fold_into_one_pass(self, fj_kernel, naive):
        query = _chain_query(10.0, 40.0)
        query = CardQuery(
            tables=query.tables,
            joins=query.joins,
            predicates=query.predicates,
            or_groups=(
                (
                    TablePredicate("posts", "ViewCount", PredicateOp.GE, 500.0),
                    TablePredicate("posts", "AnswerCount", PredicateOp.GE, 3.0),
                ),
            ),
        )
        fj_kernel.estimate_join_batch([query])
        kernel_stats = fj_kernel.last_pass_stats
        # One kernel invocation per table, OR terms folded: 3 executed
        # passes, with everything else the naive walk runs accounted as
        # saved.  Unfolded, the three scopes and the three distinct terms
        # of the posts OR group would each be their own pass.
        assert kernel_stats.executed == len(query.tables)
        assert kernel_stats.requested == naive.pass_count(query)
        assert kernel_stats.saved == kernel_stats.requested - 3
        assert kernel_stats.executed < len(query.tables) + 3

    def test_unfiltered_scope_served_from_prior_cache(self, trained):
        fj = FactorJoinEstimator(
            trained.catalog, trained.models, trained.bucketizer
        )
        query = CardQuery(
            tables=("users", "posts"),
            joins=(JoinCondition("users", "Id", "posts", "OwnerUserId"),),
            predicates=(
                TablePredicate("posts", "Score", PredicateOp.GE, 5.0),
            ),
        )
        first = fj.estimate_join_batch([query])
        assert "users" in fj._prior_beliefs
        # First batch: one kernel pass for posts, one prior pass for users.
        assert fj.last_pass_stats.executed == 2
        second = fj.estimate_join_batch([query])
        assert first == second
        # Later batches reuse the cached prior; only posts runs again.
        assert fj.last_pass_stats.executed == 1

    def test_kernel_metrics_exported(self, fj_kernel, kernel_registry):
        exported = export_json(kernel_registry)
        counters = exported["counters"]
        assert counters["bn_kernel_batches_total"] > 0
        assert (
            counters["bn_kernel_queries_total"]
            >= counters["bn_kernel_batches_total"]
        )
        assert "bn_kernel_build_seconds" in exported["histograms"]
        assert counters["evidence_cache_misses_total"] > 0

    def test_kernel_plans_shared_with_bn_batch_path(self, fj_kernel):
        assert fj_kernel._bn._kernel_plans is fj_kernel._kernel_plans


# ----------------------------------------------------------------------
# ByteCard wiring: loader-refresh invalidation, micro-batch knobs
# ----------------------------------------------------------------------
class TestByteCardWiring:
    @pytest.fixture(scope="class")
    def bytecard(self, aeolus):
        from repro.core import ByteCard

        card = ByteCard(aeolus)
        card.forge_service.train_count_models(aeolus)
        card.refresh()
        return card

    def test_refresh_invalidates_evidence_cache(self, bytecard, aeolus):
        cache = bytecard.evidence_cache
        table = next(iter(bytecard._factorjoin.models))
        model = bytecard._factorjoin.models[table]
        column = model.columns[0]
        pred = TablePredicate(table, column, PredicateOp.GE, 0.0)
        disc = model.discretizers[column]
        cache.vector(disc, pred)
        assert cache.vector(disc, pred) is not None
        hits_before = cache.hits
        invalidations_before = cache.invalidations
        # Republish + loader refresh: the changed BN bumps its table.
        bytecard.forge_service.train_count_models(aeolus)
        bytecard.refresh()
        cache.vector(disc, pred)
        assert cache.invalidations > invalidations_before
        assert cache.hits == hits_before
        # The rebuilt FactorJoin shares the facade-owned cache instance.
        assert bytecard._factorjoin.evidence_cache is cache

    def test_serve_micro_batch_knobs(self, bytecard):
        with bytecard.serve(max_batch_size=32, batch_wait_ms=2.5) as service:
            assert service.config.max_batch_size == 32
            assert service.config.batch_wait_ms == 2.5

    def test_serve_defaults_documented_values(self, bytecard):
        with bytecard.serve() as service:
            assert service.config.max_batch_size == 16
            assert service.config.batch_wait_ms == 1.0

    def test_batching_config_preserves_other_fields(self, bytecard):
        from repro.serving import ServingConfig

        config = ServingConfig(deadline_ms=None, num_workers=3)
        updated = bytecard._batching_config(config, 64, None)
        assert updated.max_batch_size == 64
        assert updated.num_workers == 3
        assert updated.batch_wait_ms == config.batch_wait_ms
        assert bytecard._batching_config(config, None, None) is config
