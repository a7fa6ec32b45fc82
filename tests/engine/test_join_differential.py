"""Differential tests: the vectorized hash join against a nested-loop oracle.

``hash_join_step`` gathers every probe row's matches with one
``arange + repeat`` over the sorted build side.  The oracle below walks the
probe rows in order and, for each, the build rows in scan order -- the
order a stable sort keeps equal keys in -- so the two must agree on every
output tuple and its position, on the intermediate sizes, and on the
build/probe row counters, through both join paths: ``hash_join_tree`` and the
executor's step-by-step feedback path.
"""

import numpy as np
import pytest

from repro.engine import EngineConfig, Executor, hash_join_tree
from repro.engine.join import JoinExecution, hash_join_step
from repro.engine.optimizer import PhysicalPlan
from repro.errors import ExecutionError
from repro.sql.query import CardQuery, JoinCondition
from repro.storage import Catalog, Table


def nested_loop_join(catalog, query, scanned, join_order) -> JoinExecution:
    """Reference join: plain Python loops, one comparison per row pair."""
    if not query.joins:
        table = query.tables[0]
        return JoinExecution(tuples={table: scanned[table]})
    start = join_order[0].left_table
    tuples = {start: [int(r) for r in scanned[start]]}
    sizes, build_rows, probe_rows = [], 0, 0
    for join in join_order:
        left, right = join.tables()
        new = right if left in tuples else left
        old = left if new == right else right
        old_keys = catalog.table(old).column(join.side_for(old)).values
        new_keys = catalog.table(new).column(join.side_for(new)).values
        out = {table: [] for table in tuples}
        out[new] = []
        width = len(tuples[old])
        for i in range(width):
            key = old_keys[tuples[old][i]]
            for row in scanned[new]:
                if new_keys[row] == key:
                    for table in tuples:
                        out[table].append(tuples[table][i])
                    out[new].append(int(row))
        build_rows += len(scanned[new])
        probe_rows += width
        tuples = out
        sizes.append(len(out[new]))
    return JoinExecution(
        tuples={t: np.asarray(rows, dtype=np.int64) for t, rows in tuples.items()},
        intermediate_sizes=sizes,
        build_rows=build_rows,
        probe_rows=probe_rows,
    )


def _catalog(rng, sizes, key_domain):
    """Tables ``t0..tk`` with two join-key columns drawn from a small
    domain, so duplicate keys and misses are both common."""
    catalog = Catalog()
    for i, rows in enumerate(sizes):
        catalog.register(
            Table.from_arrays(
                f"t{i}",
                {
                    "a": rng.integers(0, key_domain, rows),
                    "b": rng.integers(0, key_domain, rows),
                },
            )
        )
    return catalog


def _chain(n):
    tables = tuple(f"t{i}" for i in range(n))
    joins = tuple(
        JoinCondition(f"t{i}", "b", f"t{i + 1}", "a") for i in range(n - 1)
    )
    return CardQuery(tables=tables, joins=joins)


def _star(n):
    tables = tuple(f"t{i}" for i in range(n))
    joins = tuple(JoinCondition("t0", "a", f"t{i}", "a") for i in range(1, n))
    return CardQuery(tables=tables, joins=joins)


def _scanned(rng, catalog, query, keep=0.7):
    scanned = {}
    for table in query.tables:
        rows = len(catalog.table(table))
        scanned[table] = np.flatnonzero(rng.random(rows) < keep).astype(np.int64)
    return scanned


def _stepwise(catalog, query, scanned, order):
    """The executor's step-by-step join path (feedback / adaptive replanning)."""
    executor = Executor(catalog, config=EngineConfig(adaptive_replan_factor=1e9))
    plan = PhysicalPlan(query=query, join_order=list(order))
    execution, replans = executor._execute_joins_stepwise(
        query, plan, scanned, capture=False
    )
    assert replans == 0
    return execution


def _assert_same(actual: JoinExecution, expected: JoinExecution):
    assert set(actual.tuples) == set(expected.tuples)
    for table, rows in expected.tuples.items():
        got = actual.tuples[table]
        assert got.shape == rows.shape, table
        np.testing.assert_array_equal(got, rows, err_msg=table)
    assert actual.intermediate_sizes == expected.intermediate_sizes
    assert actual.build_rows == expected.build_rows
    assert actual.probe_rows == expected.probe_rows
    assert actual.result_rows == expected.result_rows


JOIN_PATHS = {
    "tree": lambda c, q, s, o: hash_join_tree(c, q, s, o),
    "stepwise": _stepwise,
}


@pytest.mark.parametrize("join_path", sorted(JOIN_PATHS))
class TestAgainstNestedLoop:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shape", [_chain, _star])
    def test_random_multi_step_trees(self, join_path, seed, shape):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 3  # two to four tables
        catalog = _catalog(rng, rng.integers(1, 40, n), key_domain=6)
        query = shape(n)
        scanned = _scanned(rng, catalog, query)
        order = list(query.joins)
        expected = nested_loop_join(catalog, query, scanned, order)
        _assert_same(JOIN_PATHS[join_path](catalog, query, scanned, order), expected)

    def test_reversed_order_probes_from_the_other_side(self, join_path):
        rng = np.random.default_rng(11)
        catalog = _catalog(rng, [25, 30, 20], key_domain=5)
        query = _chain(3)
        scanned = _scanned(rng, catalog, query)
        # Start at t1: the first step builds on t2, the second on t0.
        order = [
            JoinCondition("t1", "b", "t2", "a"),
            JoinCondition("t1", "a", "t0", "b"),
        ]
        expected = nested_loop_join(catalog, query, scanned, order)
        _assert_same(JOIN_PATHS[join_path](catalog, query, scanned, order), expected)

    def test_duplicate_keys_on_both_sides(self, join_path):
        catalog = Catalog()
        catalog.register(Table.from_arrays("t0", {"a": [1, 1, 2], "b": [3, 3, 3]}))
        catalog.register(
            Table.from_arrays("t1", {"a": [3, 9, 3, 3], "b": [0, 0, 0, 0]})
        )
        query = _chain(2)
        scanned = {"t0": np.arange(3), "t1": np.arange(4)}
        order = list(query.joins)
        expected = nested_loop_join(catalog, query, scanned, order)
        assert expected.result_rows == 9
        _assert_same(JOIN_PATHS[join_path](catalog, query, scanned, order), expected)

    @pytest.mark.parametrize("empty", ["t0", "t1"])
    def test_empty_side(self, join_path, empty):
        rng = np.random.default_rng(3)
        catalog = _catalog(rng, [10, 12], key_domain=4)
        query = _chain(2)
        scanned = _scanned(rng, catalog, query, keep=1.0)
        scanned[empty] = np.empty(0, dtype=np.int64)
        order = list(query.joins)
        expected = nested_loop_join(catalog, query, scanned, order)
        assert expected.result_rows == 0
        _assert_same(JOIN_PATHS[join_path](catalog, query, scanned, order), expected)

    def test_all_probe_rows_miss(self, join_path):
        catalog = Catalog()
        catalog.register(Table.from_arrays("t0", {"a": [0, 1], "b": [5, 6]}))
        catalog.register(Table.from_arrays("t1", {"a": [7, 8, 9], "b": [0, 0, 0]}))
        query = _chain(2)
        scanned = {"t0": np.arange(2), "t1": np.arange(3)}
        order = list(query.joins)
        expected = nested_loop_join(catalog, query, scanned, order)
        assert expected.intermediate_sizes == [0]
        _assert_same(JOIN_PATHS[join_path](catalog, query, scanned, order), expected)

    def test_single_row_each_side(self, join_path):
        catalog = Catalog()
        catalog.register(Table.from_arrays("t0", {"a": [4], "b": [2]}))
        catalog.register(Table.from_arrays("t1", {"a": [2], "b": [4]}))
        query = _chain(2)
        scanned = {"t0": np.arange(1), "t1": np.arange(1)}
        order = list(query.joins)
        expected = nested_loop_join(catalog, query, scanned, order)
        assert expected.result_rows == 1
        _assert_same(JOIN_PATHS[join_path](catalog, query, scanned, order), expected)

    def test_miss_mid_tree_empties_later_steps(self, join_path):
        catalog = Catalog()
        catalog.register(Table.from_arrays("t0", {"a": [1, 2], "b": [1, 2]}))
        catalog.register(Table.from_arrays("t1", {"a": [1, 2], "b": [5, 5]}))
        catalog.register(Table.from_arrays("t2", {"a": [6, 7], "b": [0, 0]}))
        query = _chain(3)
        scanned = {t: np.arange(2) for t in query.tables}
        order = list(query.joins)
        expected = nested_loop_join(catalog, query, scanned, order)
        assert expected.intermediate_sizes == [2, 0]
        _assert_same(JOIN_PATHS[join_path](catalog, query, scanned, order), expected)


class TestIntermediateCap:
    def _setup(self):
        catalog = Catalog()
        catalog.register(Table.from_arrays("t0", {"a": [0] * 5, "b": [1] * 5}))
        catalog.register(Table.from_arrays("t1", {"a": [1] * 6, "b": [0] * 6}))
        query = _chain(2)
        scanned = {"t0": np.arange(5), "t1": np.arange(6)}
        return catalog, query, scanned

    def test_tree_raises_past_the_cap(self):
        catalog, query, scanned = self._setup()
        with pytest.raises(ExecutionError, match="exceeds"):
            hash_join_tree(
                catalog, query, scanned, list(query.joins), max_intermediate_rows=29
            )
        # Exactly at the cap is allowed.
        execution = hash_join_tree(
            catalog, query, scanned, list(query.joins), max_intermediate_rows=30
        )
        assert execution.result_rows == 30

    def test_step_raises_past_the_cap(self):
        catalog, query, scanned = self._setup()
        execution = JoinExecution(tuples={"t0": scanned["t0"]})
        with pytest.raises(ExecutionError, match="exceeds"):
            hash_join_step(
                catalog, execution, query.joins[0], scanned, max_intermediate_rows=29
            )
        # A refused step leaves the accumulated execution untouched.
        assert execution.intermediate_sizes == []
        np.testing.assert_array_equal(execution.tuples["t0"], scanned["t0"])

    def test_executor_stepwise_raises_past_the_cap(self):
        catalog, query, scanned = self._setup()
        executor = Executor(
            catalog,
            config=EngineConfig(adaptive_replan_factor=1e9, max_intermediate_rows=29),
        )
        plan = PhysicalPlan(query=query, join_order=list(query.joins))
        with pytest.raises(ExecutionError, match="exceeds"):
            executor._execute_joins_stepwise(query, plan, scanned, capture=False)
