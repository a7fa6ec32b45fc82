"""Tests for workload generation and statistics."""

import pytest

from repro.sql.query import AggKind
from repro.workloads import (
    WorkloadSpec,
    compute_statistics,
    generate_workload,
    true_count,
)


class TestGeneratedQueries:
    def test_query_count(self, imdb_workload):
        assert len(imdb_workload.queries) == 25

    def test_tables_within_spec(self, imdb_workload):
        for q in imdb_workload.queries:
            assert 2 <= q.num_joined_tables() <= 5

    def test_acyclic_join_graphs(self, imdb_workload):
        for q in imdb_workload.queries:
            assert len(q.joins) == len(q.tables) - 1

    def test_every_query_has_predicates(self, imdb_workload):
        for q in imdb_workload.queries:
            assert q.predicates

    def test_true_counts_positive(self, imdb, imdb_workload):
        for q in imdb_workload.queries:
            assert imdb_workload.true_counts[q.name] > 0
            assert imdb_workload.true_counts[q.name] == true_count(imdb.catalog, q)

    def test_ndv_queries_are_count_distinct(self, imdb_workload):
        assert imdb_workload.ndv_queries
        for q in imdb_workload.ndv_queries:
            assert q.agg.kind is AggKind.COUNT_DISTINCT
            assert q.is_single_table()
            assert q.predicates  # NDV tests always carry filters

    def test_deterministic_given_seed(self, imdb):
        from repro.workloads import job_hybrid

        a = job_hybrid(imdb, num_queries=10, seed=3)
        b = job_hybrid(imdb, num_queries=10, seed=3)
        assert [q.to_sql() for q in a.queries] == [q.to_sql() for q in b.queries]

    def test_queries_bindable_via_sql(self, imdb, stats, aeolus):
        """Every generated query round-trips through the SQL frontend.

        STATS has a ``tags.Count`` column: a qualified column whose name is
        a keyword must still bind.
        """
        from repro.sql import bind_sql
        from repro.workloads import aeolus_online, job_hybrid, stats_hybrid

        for bundle, make_workload in (
            (imdb, job_hybrid),
            (stats, stats_hybrid),
            (aeolus, aeolus_online),
        ):
            workload = make_workload(bundle, num_queries=40, seed=77)
            for q in workload.queries + list(workload.ndv_queries):
                rebound = bind_sql(q.to_sql(), bundle.catalog)
                assert set(rebound.tables) == set(q.tables), q.to_sql()
                assert set(j.normalized() for j in rebound.joins) == set(
                    j.normalized() for j in q.joins
                )
                assert set(rebound.predicates) == set(q.predicates), q.to_sql()
                assert {frozenset(g) for g in rebound.or_groups} == {
                    frozenset(g) for g in q.or_groups
                }
                assert rebound.agg == q.agg
                assert tuple(rebound.group_by) == tuple(q.group_by)


class TestSpecKnobs:
    def test_single_table_allowed(self, imdb):
        spec = WorkloadSpec(
            name="single",
            num_queries=5,
            min_tables=1,
            max_tables=1,
            num_ndv_queries=0,
            seed=12,
        )
        workload = generate_workload(imdb, spec)
        assert all(q.is_single_table() for q in workload.queries)

    def test_aggregation_fraction_zero(self, imdb):
        spec = WorkloadSpec(
            name="no-agg",
            num_queries=8,
            aggregation_fraction=0.0,
            num_ndv_queries=0,
            seed=13,
        )
        workload = generate_workload(imdb, spec)
        assert all(not q.group_by for q in workload.queries)

    def test_cardinality_cap_respected(self, imdb):
        spec = WorkloadSpec(
            name="capped",
            num_queries=8,
            max_true_cardinality=10_000,
            num_ndv_queries=0,
            seed=14,
        )
        workload = generate_workload(imdb, spec)
        assert all(v <= 10_000 for v in workload.true_counts.values())


class TestStatistics:
    def test_table5_rows(self, imdb, imdb_workload):
        stats = compute_statistics(imdb.catalog, imdb_workload)
        assert stats.num_queries == len(imdb_workload.queries)
        assert stats.min_joined_tables >= 2
        assert stats.max_joined_tables <= 5
        assert stats.min_true_cardinality >= 1
        assert stats.num_join_templates >= 1
        labels = [label for label, _v in stats.as_rows()]
        assert "# of join templates" in labels
        assert "range of true cardinality" in labels

    def test_max_hit_counts_consistent(self, imdb, imdb_workload):
        stats = compute_statistics(imdb.catalog, imdb_workload)
        hits = sum(
            1
            for q in imdb_workload.queries
            if q.num_joined_tables() == stats.max_joined_tables
        )
        assert stats.queries_at_max_tables == hits

    def test_empty_workload_rejected(self, imdb):
        from repro.workloads.generator import Workload

        with pytest.raises(ValueError):
            compute_statistics(imdb.catalog, Workload(name="empty"))
