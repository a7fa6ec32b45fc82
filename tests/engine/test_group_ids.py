"""Aggregation group ids against their reference form.

``group_ids`` factorizes each GROUP BY key and numbers groups through one
1-D unique over a combined code; the reference is NumPy's row-wise
``np.unique(stacked, axis=1, return_inverse=True)``.  ``hash_aggregate``
then sizes its table from the group count; the reference inserts the
group-id stream key by key.
"""

import numpy as np
import pytest

from repro.engine import hash_aggregate
from repro.engine.aggregation import group_ids
from repro.engine.hash_table import SimulatedHashTable
from repro.sql.query import AggKind, AggSpec, CardQuery, JoinCondition
from repro.storage import Catalog, Table


def _reference(stacked):
    uniques, inverse = np.unique(stacked, axis=1, return_inverse=True)
    return uniques, inverse.reshape(-1)


def _assert_bitwise(actual, expected):
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


class TestGroupIds:
    @pytest.mark.parametrize("keys", [1, 2, 3, 4])
    @pytest.mark.parametrize("domain", [1, 3, 1_000, 1 << 40])
    @pytest.mark.parametrize("rows", [1, 7, 5_000])
    def test_matches_rowwise_unique(self, keys, domain, rows):
        rng = np.random.default_rng(keys * 7919 + rows)
        stacked = rng.integers(-domain, domain, size=(keys, rows)).astype(np.int64)
        _assert_bitwise(group_ids(stacked), _reference(stacked))

    def test_wide_codes_redensify_instead_of_overflowing(self):
        # Five keys with up to 20k distinct values each: the mixed-radix
        # code would reach 20k ** 5 = 3.2e21 > 2 ** 63, so it must be
        # re-densified between folds; repeated rows still collapse.
        rng = np.random.default_rng(3)
        stacked = rng.integers(0, 1 << 62, size=(5, 20_000)).astype(np.int64)
        stacked[:, 10_000:12_000] = stacked[:, :2_000]
        stacked[2, ::2] = stacked[2, 0]
        _assert_bitwise(group_ids(stacked), _reference(stacked))

    def test_extreme_values(self):
        info = np.iinfo(np.int64)
        stacked = np.array(
            [[info.min, info.max, 0, info.max], [info.max, info.min, 0, info.min]],
            dtype=np.int64,
        )
        _assert_bitwise(group_ids(stacked), _reference(stacked))


@pytest.fixture(scope="module")
def agg_catalog():
    rng = np.random.default_rng(17)
    catalog = Catalog()
    catalog.register(
        Table.from_arrays(
            "dim",
            {"id": np.arange(300), "grp": rng.integers(-5, 40, 300)},
        )
    )
    catalog.register(
        Table.from_arrays(
            "fact",
            {
                "dim_id": rng.integers(0, 300, 20_000),
                "val": rng.integers(0, 2_000, 20_000),
                "w": rng.integers(0, 9, 20_000),
            },
        )
    )
    return catalog


class TestHashAggregateUnchanged:
    """End to end: groups, key order, values and resize accounting equal
    what the row-wise unique plus a per-key stream insert produce."""

    @pytest.mark.parametrize(
        "group_by",
        [
            (("dim", "grp"),),
            (("dim", "grp"), ("fact", "w")),
            (("fact", "val"), ("dim", "grp"), ("fact", "w")),
        ],
    )
    @pytest.mark.parametrize("ndv", [None, 5.0, 1e6])
    def test_matches_reference(self, agg_catalog, group_by, ndv):
        query = CardQuery(
            tables=("dim", "fact"),
            joins=(JoinCondition("dim", "id", "fact", "dim_id"),),
            group_by=group_by,
            agg=AggSpec(AggKind.SUM, "fact", "val"),
        )
        fact_rows = np.arange(20_000)
        dim_rows = agg_catalog.table("fact").column("dim_id").values[fact_rows]
        tuples = {"dim": dim_rows, "fact": fact_rows}
        result = hash_aggregate(agg_catalog, query, tuples, ndv)

        stacked = np.stack(
            [
                agg_catalog.table(t).column(c).values[tuples[t]].astype(np.int64)
                for t, c in group_by
            ]
        )
        uniques, inverse = _reference(stacked)
        initial = 256 if ndv is None else max(1, int(np.ceil(ndv / 0.5)))
        table = SimulatedHashTable(initial_capacity=initial, load_factor=0.5)
        table.insert_stream(inverse)
        target = agg_catalog.table("fact").column("val").values.astype(np.float64)
        sums = np.zeros(uniques.shape[1])
        np.add.at(sums, inverse, target[fact_rows])

        np.testing.assert_array_equal(result.group_keys, uniques)
        assert result.group_keys.dtype == uniques.dtype
        assert result.groups == uniques.shape[1] == table.distinct
        assert result.resize_count == table.resize_count
        assert result.moved_entries == table.moved_entries
        assert result.final_capacity == table.capacity
        np.testing.assert_array_equal(result.values, sums)
