"""Tests for column discretization and evidence vectors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EstimationError
from repro.estimators.bn import Discretizer
from repro.sql.query import PredicateOp, TablePredicate


def _pred(op, value):
    return TablePredicate("t", "c", op, value)


class TestBinning:
    def test_low_cardinality_is_exact(self):
        disc = Discretizer(np.array([1, 2, 5, 5, 9]), max_bins=64)
        assert disc.exact
        assert disc.num_bins == 4

    def test_high_cardinality_uses_equi_height(self):
        disc = Discretizer(np.arange(10_000, dtype=np.float64), max_bins=64)
        assert not disc.exact
        assert disc.num_bins <= 64

    def test_explicit_edges(self):
        edges = np.array([0.0, 10.0, 20.0])
        disc = Discretizer(np.arange(20, dtype=np.float64), edges=edges)
        assert disc.num_bins == 2
        assert np.array_equal(disc.bin_of(np.array([5.0, 15.0])), [0, 1])

    def test_empty_column_rejected(self):
        with pytest.raises(EstimationError):
            Discretizer(np.array([]))

    def test_bin_counts_sum_to_rows(self):
        values = np.random.default_rng(0).integers(0, 1000, 5000)
        disc = Discretizer(values, max_bins=32)
        assert disc.bin_counts.sum() == 5000

    def test_out_of_range_values_clamped(self):
        disc = Discretizer(np.arange(100, dtype=np.float64), max_bins=8)
        bins = disc.bin_of(np.array([-50.0, 500.0]))
        assert bins[0] == 0
        assert bins[1] == disc.num_bins - 1


class TestExactEvidence:
    @pytest.fixture()
    def disc(self):
        return Discretizer(np.array([1, 3, 3, 7, 7, 7]), max_bins=64)

    def test_eq_hits_one_bin(self, disc):
        vec = disc.evidence(_pred(PredicateOp.EQ, 3.0))
        assert vec.sum() == 1.0
        assert vec[disc.bin_of(np.array([3.0]))[0]] == 1.0

    def test_eq_missing_value_is_zero(self, disc):
        assert disc.evidence(_pred(PredicateOp.EQ, 4.0)).sum() == 0.0

    def test_range_exact(self, disc):
        vec = disc.evidence(_pred(PredicateOp.LE, 3.0))
        assert list(vec) == [1.0, 1.0, 0.0]

    def test_gt_excludes_boundary(self, disc):
        vec = disc.evidence(_pred(PredicateOp.GT, 3.0))
        assert list(vec) == [0.0, 0.0, 1.0]

    def test_in(self, disc):
        vec = disc.evidence(_pred(PredicateOp.IN, (1.0, 7.0)))
        assert list(vec) == [1.0, 0.0, 1.0]

    def test_ne(self, disc):
        vec = disc.evidence(_pred(PredicateOp.NE, 3.0))
        assert list(vec) == [1.0, 0.0, 1.0]

    def test_between(self, disc):
        vec = disc.evidence(_pred(PredicateOp.BETWEEN, (2.0, 7.0)))
        assert list(vec) == [0.0, 1.0, 1.0]


class TestApproximateEvidence:
    @pytest.fixture()
    def disc(self):
        return Discretizer(np.arange(10_000, dtype=np.float64), max_bins=50)

    def test_evidence_within_unit_interval(self, disc):
        for op, value in [
            (PredicateOp.EQ, 777.0),
            (PredicateOp.LE, 5000.0),
            (PredicateOp.GE, 5000.0),
            (PredicateOp.BETWEEN, (100.0, 900.0)),
        ]:
            vec = disc.evidence(_pred(op, value))
            assert np.all(vec >= 0.0) and np.all(vec <= 1.0)

    def test_range_mass_close_to_truth(self, disc):
        vec = disc.evidence(_pred(PredicateOp.LE, 2499.5))
        mass = float(np.dot(vec, disc.bin_counts) / disc.total_rows)
        assert mass == pytest.approx(0.25, abs=0.02)

    def test_full_range_covers_all(self, disc):
        vec = disc.evidence(_pred(PredicateOp.LE, 9999.0))
        mass = float(np.dot(vec, disc.bin_counts) / disc.total_rows)
        assert mass == pytest.approx(1.0, abs=0.01)

    @given(lo=st.floats(0, 9999), hi=st.floats(0, 9999))
    @settings(max_examples=50, deadline=None)
    def test_between_mass_matches_truth(self, lo, hi):
        shared = _UNIFORM_DISC
        if lo > hi:
            lo, hi = hi, lo
        vec = shared.evidence(_pred(PredicateOp.BETWEEN, (lo, hi)))
        mass = float(np.dot(vec, shared.bin_counts))
        truth = min(np.floor(hi), 9999) - max(np.ceil(lo), 0) + 1
        # Within-bin uniformity: error bounded by two bin widths.
        assert abs(mass - truth) <= 2 * shared.total_rows / shared.num_bins + 2


class TestExtremeLiterals:
    """Literals far outside the edges give zero mass without a numpy
    warning, even next to the near-zero-width bin heavy duplicates make."""

    @pytest.fixture()
    def disc(self):
        values = np.concatenate([np.zeros(5000), np.arange(1000.0)])
        disc = Discretizer(values, max_bins=8)
        assert not disc.exact
        assert np.diff(disc.edges).min() < 1e-12  # a near-zero-width bin
        return disc

    @pytest.mark.parametrize(
        "op, value",
        [
            (PredicateOp.LT, -1e300),
            (PredicateOp.LE, -1e300),
            (PredicateOp.GT, 1e300),
            (PredicateOp.GE, 1e300),
            (PredicateOp.LT, -np.inf),
            (PredicateOp.LE, -np.inf),
            (PredicateOp.GT, np.inf),
            (PredicateOp.GE, np.inf),
            (PredicateOp.BETWEEN, (-1e300, -1e299)),
            (PredicateOp.BETWEEN, (1e299, 1e300)),
            (PredicateOp.BETWEEN, (-np.inf, -1e300)),
            (PredicateOp.BETWEEN, (1e300, np.inf)),
        ],
    )
    def test_out_of_range_literals_are_empty(self, disc, op, value):
        with np.errstate(all="raise"):
            vec = disc.evidence(_pred(op, value))
        assert np.all(vec == 0.0)


_UNIFORM_DISC = Discretizer(np.arange(10_000, dtype=np.float64), max_bins=50)
