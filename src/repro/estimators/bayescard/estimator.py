"""BayesCard: fanout-augmented Bayesian networks.

Training denormalizes the join schema into each table: for every join edge
touching table ``T`` a *fan-out column* is appended (per-row count of
matching rows on the other side) and the Chow-Liu BN is learned over
filter columns plus all fan-out columns.  Join-size inference multiplies
expected fan-outs down the query's join tree::

    |Q| = |root| * E_root[ 1(filters) * prod_children fanout_child * F(child) ]

with each expectation read off the table's BN, and child factors computed
over the child's *unconditioned* row distribution -- the approximation
(matched rows look like average rows) responsible for BayesCard's
documented join-size underestimation under fan-out skew.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EstimationError
from repro.estimators.base import CountEstimator
from repro.estimators.bn.estimator import _selectivity_with_or_groups
from repro.estimators.bn.model import TreeBayesNet, fit_tree_bn
from repro.estimators.jointree import JoinTree, build_join_tree
from repro.sql.query import CardQuery, JoinCondition
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.table import Table


def _fanout_column_name(edge: JoinCondition, table: str) -> str:
    other, other_col = (
        (edge.right_table, edge.right_column)
        if table == edge.left_table
        else (edge.left_table, edge.left_column)
    )
    return f"__fanout__{other}__{other_col}"


def _fanout_values(
    own_keys: np.ndarray, other_keys: np.ndarray
) -> np.ndarray:
    """Per-row match counts of ``own_keys`` against ``other_keys``."""
    uniques, counts = np.unique(other_keys, return_counts=True)
    positions = np.searchsorted(uniques, own_keys)
    positions = np.clip(positions, 0, max(0, uniques.size - 1))
    matched = uniques.size > 0
    if not matched:
        return np.zeros(own_keys.size, dtype=np.int64)
    hit = uniques[positions] == own_keys
    return np.where(hit, counts[positions], 0).astype(np.int64)


class BayesCardEstimator(CountEstimator):
    """Per-table fanout-augmented BNs with expectation-based join inference.

    Two-way joins covered by a denormalized edge BN are answered from it
    directly; deeper joins compose expected fan-outs down the join tree.
    """

    name = "bayescard"

    def __init__(
        self,
        catalog: Catalog,
        models: dict[str, TreeBayesNet],
        fanout_columns: dict[tuple[str, JoinCondition], str],
        fanout_means: dict[tuple[str, str], np.ndarray],
        edge_models: dict[frozenset[str], tuple[TreeBayesNet, int]] | None = None,
    ):
        self.catalog = catalog
        self.models = models
        self._fanout_columns = fanout_columns
        self._fanout_means = fanout_means
        #: denormalized per-join-edge BNs: frozenset{A, B} -> (model, rows)
        self.edge_models = edge_models or {}

    # ------------------------------------------------------------------
    def model_for(self, table: str) -> TreeBayesNet:
        try:
            return self.models[table]
        except KeyError:
            raise EstimationError(f"no BayesCard model for table {table!r}") from None

    def _local_selectivity(self, query: CardQuery, table: str) -> float:
        model = self.model_for(table)
        base = [p for p in query.predicates if p.table == table]
        groups = [
            [p for p in group if p.table == table]
            for group in query.or_groups
            if any(p.table == table for p in group)
        ]
        return _selectivity_with_or_groups(base, groups, model.selectivity)

    def _expected_fanout(
        self, query: CardQuery, table: str, edge: JoinCondition
    ) -> float:
        """``E[fanout_edge * 1(filters on table)]`` from the table's BN."""
        column = self._fanout_columns.get((table, edge.normalized()))
        if column is None:
            raise EstimationError(
                f"table {table!r} has no fan-out column for edge {edge}"
            )
        model = self.model_for(table)
        predicates = [p for p in query.predicates if p.table == table]
        distribution = model.distribution(column, predicates)
        means = self._fanout_means[(table, column)]
        return float(np.dot(distribution, means))

    # ------------------------------------------------------------------
    def selectivity(self, query: CardQuery) -> float:
        if not query.is_single_table():
            raise EstimationError("selectivity() is defined for single tables")
        return self._local_selectivity(query, query.tables[0])

    def estimate_count(self, query: CardQuery) -> float:
        if query.is_single_table():
            table = query.tables[0]
            rows = len(self.catalog.table(table))
            return self._local_selectivity(query, table) * rows
        if len(query.tables) == 2 and not query.or_groups:
            edge_estimate = self._edge_estimate(query)
            if edge_estimate is not None:
                return edge_estimate
        tree = build_join_tree(query)
        root = query.tables[0]
        rows = len(self.catalog.table(root))
        return max(0.0, rows * self._subtree_factor(query, tree, root))

    def _edge_estimate(self, query: CardQuery) -> float | None:
        """Answer a two-way join from its denormalized BN, if trained."""
        from repro.sql.query import TablePredicate

        entry = self.edge_models.get(frozenset(query.tables))
        if entry is None:
            return None
        model, join_rows = entry
        translated = []
        for pred in query.predicates:
            column = f"{pred.table}__{pred.column}"
            if column not in model.columns:
                return None  # predicate outside the denormalized scope
            translated.append(
                TablePredicate(model.table_name, column, pred.op, pred.value)
            )
        return model.selectivity(translated) * join_rows

    def _subtree_factor(
        self, query: CardQuery, tree: JoinTree, table: str
    ) -> float:
        """Expected joined tuples contributed per row of ``table``."""
        selectivity = self._local_selectivity(query, table)
        factor = selectivity
        for child, join in tree[table]:
            expected = self._expected_fanout(query, table, join)
            conditional = expected / selectivity if selectivity > 0.0 else 0.0
            # Matched child rows are assumed average child rows: the child's
            # factor is evaluated over its unconditioned row distribution.
            factor *= conditional * self._subtree_factor(query, tree, child)
        return factor

    def estimation_overhead(self, query: CardQuery) -> float:
        return 0.04 * len(query.tables) + 0.02 * len(query.joins)

    @property
    def nbytes(self) -> int:
        total = sum(model.nbytes for model in self.models.values())
        total += sum(int(m.nbytes) for m in self._fanout_means.values())
        total += sum(model.nbytes for model, _rows in self.edge_models.values())
        return total


def train_bayescard(
    catalog: Catalog,
    filter_columns: dict[str, list[str]],
    max_bins: int = 64,
    sample_rows: int | None = None,
    denormalized_sample_rows: int = 120_000,
    train_edge_models: bool = True,
) -> BayesCardEstimator:
    """Train BayesCard: denormalize fan-outs + join edges, fit BNs.

    The per-edge denormalized BNs are the expensive part -- every join edge
    is materialized (sampled at ``denormalized_sample_rows``) and modeled
    over the union of both sides' filter columns, which is what makes
    BayesCard's Table 3 training time and model size exceed ByteCard's.
    """
    models: dict[str, TreeBayesNet] = {}
    fanout_columns: dict[tuple[str, JoinCondition], str] = {}
    fanout_means: dict[tuple[str, str], np.ndarray] = {}

    for table_name in catalog.table_names():
        base_columns = filter_columns.get(table_name, [])
        table = catalog.table(table_name)
        extra: list[Column] = []
        extra_names: list[str] = []
        for edge in catalog.join_schema.edges_for(table_name):
            condition = JoinCondition(
                edge.left_table, edge.left_column, edge.right_table, edge.right_column
            ).normalized()
            own_column = condition.side_for(table_name)
            other_table, other_column = (
                (condition.right_table, condition.right_column)
                if table_name == condition.left_table
                else (condition.left_table, condition.left_column)
            )
            fanout = _fanout_values(
                table.column(own_column).values,
                catalog.table(other_table).column(other_column).values,
            )
            name = _fanout_column_name(condition, table_name)
            extra.append(Column.from_ints(name, fanout))
            extra_names.append(name)
            fanout_columns[(table_name, condition)] = name
        if not base_columns and not extra_names:
            continue
        augmented = Table(
            table_name,
            [table.column(c) for c in table.column_names()] + extra,
            block_size=table.block_size,
        )
        modeled = list(dict.fromkeys(base_columns + extra_names))
        model = fit_tree_bn(
            augmented, modeled, max_bins=max_bins, sample_rows=sample_rows
        )
        models[table_name] = model
        # Per-bin means of each fan-out column, for expectation queries.
        for name, column in zip(extra_names, extra):
            disc = model.discretizers[name]
            bins = disc.bin_of(column.values)
            sums = np.zeros(disc.num_bins)
            np.add.at(sums, bins, column.values.astype(np.float64))
            counts = np.maximum(
                np.bincount(bins, minlength=disc.num_bins).astype(np.float64), 1.0
            )
            fanout_means[(table_name, name)] = sums / counts

    edge_models: dict[frozenset[str], tuple[TreeBayesNet, int]] = {}
    if train_edge_models:
        edge_models = _train_edge_models(
            catalog, filter_columns, max_bins, denormalized_sample_rows
        )
    return BayesCardEstimator(
        catalog, models, fanout_columns, fanout_means, edge_models
    )


def _train_edge_models(
    catalog: Catalog,
    filter_columns: dict[str, list[str]],
    max_bins: int,
    denormalized_sample_rows: int,
) -> dict[frozenset[str], tuple[TreeBayesNet, int]]:
    """One BN per join edge over the (sampled) denormalized relation."""
    from repro.estimators.deepdb.estimator import _denormalize
    from repro.utils.rng import derive_rng

    rng = derive_rng(17, "bayescard-denorm")
    edge_models: dict[frozenset[str], tuple[TreeBayesNet, int]] = {}
    for edge in catalog.join_schema:
        left = catalog.table(edge.left_table)
        right = catalog.table(edge.right_table)
        left_cols = filter_columns.get(edge.left_table, [])
        right_cols = filter_columns.get(edge.right_table, [])
        if not left_cols and not right_cols:
            continue
        data, join_rows = _denormalize(
            left.column(edge.left_column).values,
            right.column(edge.right_column).values,
            np.stack(
                [left.column(c).values.astype(np.float64) for c in left_cols],
                axis=1,
            )
            if left_cols
            else np.empty((len(left), 0)),
            np.stack(
                [right.column(c).values.astype(np.float64) for c in right_cols],
                axis=1,
            )
            if right_cols
            else np.empty((len(right), 0)),
            cap=denormalized_sample_rows,
            rng=rng,
        )
        if data.shape[0] == 0:
            continue
        names = [f"{edge.left_table}__{c}" for c in left_cols] + [
            f"{edge.right_table}__{c}" for c in right_cols
        ]
        edge_table = Table.from_arrays(
            f"edge__{edge.left_table}__{edge.right_table}",
            {name: data[:, i] for i, name in enumerate(names)},
        )
        model = fit_tree_bn(edge_table, names, max_bins=max_bins)
        edge_models[frozenset((edge.left_table, edge.right_table))] = (
            model,
            join_rows,
        )
    return edge_models
