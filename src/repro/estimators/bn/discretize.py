"""Column discretization for Bayesian-network training and inference.

Each modeled column is mapped to a small number of bins.  Low-cardinality
columns get one bin per distinct value (exact); high-cardinality columns get
equi-height bins with within-bin uniformity assumed.  Join-key columns are
discretized on *join-bucket boundaries* supplied by the Model Preprocessor,
so that the BN's marginals line up exactly with FactorJoin's buckets.

A predicate is translated into an *evidence vector*: the per-bin fraction of
rows (assumed uniform within the bin) that satisfy the predicate.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EstimationError
from repro.sql.query import PredicateOp, TablePredicate


class Discretizer:
    """Bin mapping for one column.

    Parameters
    ----------
    values:
        The column data the bins are fitted on.
    max_bins:
        Upper bound on the number of bins.
    edges:
        Optional explicit bin edges (used for join keys: the join-bucket
        boundaries).  When given, ``max_bins`` is ignored.
    """

    def __init__(
        self,
        values: np.ndarray,
        max_bins: int = 64,
        edges: np.ndarray | None = None,
    ):
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise EstimationError("cannot discretize an empty column")
        uniques = np.unique(values)
        if edges is not None:
            edges = np.unique(np.asarray(edges, dtype=np.float64))
            if edges.size < 2:
                raise EstimationError("explicit edges must define >= 1 bin")
            self.edges = edges
            self.exact = False
        elif uniques.size <= max_bins:
            # One bin per distinct value: edges midway between neighbours.
            if uniques.size == 1:
                self.edges = np.array([uniques[0], uniques[0] + 1.0])
            else:
                mids = (uniques[:-1] + uniques[1:]) / 2.0
                self.edges = np.concatenate(
                    [[uniques[0] - 0.5], mids, [uniques[-1] + 0.5]]
                )
            self.exact = True
        else:
            from repro.estimators.traditional.histogram import equi_height_edges

            self.edges = equi_height_edges(np.sort(values), max_bins)
            self.exact = False

        self.num_bins = self.edges.size - 1
        #: for exact discretizers, the single value each bin represents
        self.exact_values: np.ndarray | None = uniques.copy() if self.exact else None
        self.min_value = float(uniques[0])
        self.max_value = float(uniques[-1])
        bins = self.bin_of(values)
        counts = np.bincount(bins, minlength=self.num_bins).astype(np.float64)
        self.bin_counts = counts
        ndv = np.zeros(self.num_bins, dtype=np.float64)
        np.add.at(ndv, self.bin_of(uniques), 1.0)
        self.bin_ndv = np.maximum(ndv, 1.0)
        self.total_rows = int(values.size)

    # ------------------------------------------------------------------
    def bin_of(self, values: np.ndarray) -> np.ndarray:
        """Bin index of each value (values outside the range are clamped)."""
        index = np.searchsorted(self.edges, np.asarray(values, dtype=np.float64),
                                side="right") - 1
        return np.clip(index, 0, self.num_bins - 1).astype(np.int64)

    @property
    def nbytes(self) -> int:
        return int(
            self.edges.nbytes + self.bin_counts.nbytes + self.bin_ndv.nbytes
        )

    # ------------------------------------------------------------------
    # Evidence vectors
    # ------------------------------------------------------------------
    def evidence(self, pred: TablePredicate) -> np.ndarray:
        """Per-bin fraction of rows satisfying ``pred``."""
        op = pred.op
        if op is PredicateOp.EQ:
            return self._eq_evidence(float(pred.value))  # type: ignore[arg-type]
        if op is PredicateOp.NE:
            return 1.0 - self._eq_evidence(float(pred.value))  # type: ignore[arg-type]
        if op is PredicateOp.IN:
            total = np.zeros(self.num_bins)
            for v in pred.value:  # type: ignore[union-attr]
                total += self._eq_evidence(float(v))
            return np.minimum(total, 1.0)
        if op is PredicateOp.BETWEEN:
            low, high = pred.value  # type: ignore[misc]
            return self._range_evidence(float(low), float(high),
                                        low_open=False, high_open=False)
        if op is PredicateOp.LT:
            return self._range_evidence(-np.inf, float(pred.value),  # type: ignore[arg-type]
                                        low_open=False, high_open=True)
        if op is PredicateOp.LE:
            return self._range_evidence(-np.inf, float(pred.value),  # type: ignore[arg-type]
                                        low_open=False, high_open=False)
        if op is PredicateOp.GT:
            return self._range_evidence(float(pred.value), np.inf,  # type: ignore[arg-type]
                                        low_open=True, high_open=False)
        if op is PredicateOp.GE:
            return self._range_evidence(float(pred.value), np.inf,  # type: ignore[arg-type]
                                        low_open=False, high_open=False)
        raise EstimationError(f"unsupported predicate operator {op}")

    def _eq_evidence(self, value: float) -> np.ndarray:
        vec = np.zeros(self.num_bins)
        if value < self.min_value or value > self.max_value:
            return vec
        bucket = int(self.bin_of(np.array([value]))[0])
        if self.exact:
            # Exact bins map one distinct value each: match or nothing.
            assert self.exact_values is not None
            if value == self.exact_values[bucket]:
                vec[bucket] = 1.0
        else:
            vec[bucket] = 1.0 / self.bin_ndv[bucket]
        return vec

    def _range_evidence(
        self, low: float, high: float, low_open: bool, high_open: bool
    ) -> np.ndarray:
        vec = np.zeros(self.num_bins)
        if self.exact:
            # Exact bins: a value either satisfies the range or does not.
            assert self.exact_values is not None
            values = self.exact_values
            above = values > low if low_open else values >= low
            below = values < high if high_open else values <= high
            vec[above & below] = 1.0
            return vec
        eps = 1e-9
        effective_low = low + eps if low_open else low
        effective_high = high - eps if high_open else high
        for bucket in range(self.num_bins):
            b_lo = self.edges[bucket]
            b_hi = self.edges[bucket + 1]
            width = max(b_hi - b_lo, 1e-12)
            overlap = min(effective_high, b_hi) - max(effective_low, b_lo)
            # No overlap means no mass; dividing a huge negative overlap
            # (a literal like -1e300) by a tiny width would overflow.
            if overlap <= 0.0:
                fraction = 0.0
            else:
                fraction = max(0.0, min(1.0, overlap / width))
            # Include the closed right endpoint of the last bin.
            if (
                bucket == self.num_bins - 1
                and effective_high >= b_hi
                and effective_low <= b_hi
            ):
                fraction = min(1.0, fraction + 1.0 / self.bin_ndv[bucket])
            vec[bucket] = fraction
        return vec
