"""Variable-elimination (sum-product) inference over an immutable context.

:class:`BNInferenceContext` is the reproduction of the paper's
``initContext`` output for the single-table model: the tree with its CPDs is
flattened into topologically-indexed, read-only arrays ("Root
Identification" and "CPD Indexing" in Section 5.1), after which
``selectivity``/``beliefs`` perform no allocation-shared mutation and can be
called concurrently from many query threads without locking.

Inference is the standard two-pass sum-product on a tree:

* upward pass (leaves to root): each node sends
  ``m_i(p) = sum_c P(c | p) * e_i(c) * prod_j m_j(c)`` to its parent;
* downward pass (root to leaves) for per-node beliefs
  ``b_i(c) = P(i = c, evidence)``.

The probability of the evidence -- the query's selectivity -- is the root's
belief total.

Both passes also come in batched form (``selectivity_batch`` /
``beliefs_batch``): evidence vectors become ``(bins, B)`` matrices, one
column per query, and the tree messages become matrix products.  The
downward pass combines sibling messages with prefix/suffix running
products, keeping it linear in the number of children.

Estimators run the compiled :class:`~repro.estimators.bn.kernels.KernelPlan`
sweep; these readable sweeps are the reference it is tested against
bitwise.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ModelError


class BNInferenceContext:
    """Frozen, topologically-indexed tree BN ready for lock-free inference."""

    def __init__(
        self,
        order: np.ndarray,
        parents: np.ndarray,
        children: tuple[tuple[int, ...], ...],
        cpds: tuple[np.ndarray, ...],
    ):
        self.order = order
        self.parents = parents
        self.children = children
        self.cpds = cpds
        self.num_nodes = parents.size
        self.root = int(order[0])
        for array in (self.order, self.parents, *self.cpds):
            array.setflags(write=False)

    # ------------------------------------------------------------------
    @classmethod
    def from_structure(
        cls, parents: np.ndarray, cpds: Sequence[np.ndarray]
    ) -> "BNInferenceContext":
        """Build the context: root identification + topological CPD indexing."""
        parents = np.asarray(parents, dtype=np.int64)
        d = parents.size
        if len(cpds) != d:
            raise ModelError(f"{d} nodes but {len(cpds)} CPDs")
        roots = np.flatnonzero(parents < 0)
        if roots.size != 1:
            raise ModelError(f"tree must have exactly one root, found {roots.size}")
        children_lists: list[list[int]] = [[] for _ in range(d)]
        for node in range(d):
            parent = int(parents[node])
            if parent >= 0:
                if not 0 <= parent < d:
                    raise ModelError(f"node {node} has out-of-range parent {parent}")
                children_lists[parent].append(node)
        # Topological order by BFS from the root; also validates acyclicity.
        order: list[int] = [int(roots[0])]
        cursor = 0
        while cursor < len(order):
            order.extend(children_lists[order[cursor]])
            cursor += 1
        if len(order) != d:
            raise ModelError("structure is cyclic or disconnected")
        frozen_cpds = tuple(np.ascontiguousarray(c, dtype=np.float64) for c in cpds)
        for node in range(d):
            parent = int(parents[node])
            cpd = frozen_cpds[node]
            if parent < 0 and cpd.ndim != 1:
                raise ModelError("root CPD must be 1-D")
            if parent >= 0 and cpd.ndim != 2:
                raise ModelError(f"node {node} CPD must be 2-D")
        return cls(
            order=np.asarray(order, dtype=np.int64),
            parents=parents.copy(),
            children=tuple(tuple(c) for c in children_lists),
            cpds=frozen_cpds,
        )

    # ------------------------------------------------------------------
    def bin_count(self, node: int) -> int:
        cpd = self.cpds[node]
        return int(cpd.shape[-1])

    @property
    def nbytes(self) -> int:
        return int(sum(c.nbytes for c in self.cpds))

    def _check_evidence(self, evidence: Sequence[np.ndarray]) -> None:
        if len(evidence) != self.num_nodes:
            raise ModelError(
                f"expected {self.num_nodes} evidence vectors, got {len(evidence)}"
            )
        for node, vec in enumerate(evidence):
            if vec.shape != (self.bin_count(node),):
                raise ModelError(
                    f"evidence for node {node} has shape {vec.shape}, "
                    f"expected ({self.bin_count(node)},)"
                )

    def _check_evidence_batch(self, evidence: Sequence[np.ndarray]) -> int:
        if len(evidence) != self.num_nodes:
            raise ModelError(
                f"expected {self.num_nodes} evidence matrices, got {len(evidence)}"
            )
        batch = evidence[0].shape[1] if evidence else 0
        for node, mat in enumerate(evidence):
            if mat.ndim != 2 or mat.shape != (self.bin_count(node), batch):
                raise ModelError(
                    f"evidence for node {node} has shape {mat.shape}, "
                    f"expected ({self.bin_count(node)}, {batch})"
                )
        return batch

    # ------------------------------------------------------------------
    def _sweep_up(
        self, evidence: Sequence[np.ndarray]
    ) -> tuple[list[np.ndarray | None], list[np.ndarray]]:
        """Upward messages and combined local factors, leaves-first.

        ``up[i]`` is node ``i``'s message over the *parent's* bins (``None``
        for the root); ``local[i]`` is ``e_i * prod_j m_j`` over ``i``'s own
        bins.  Childless nodes alias their (float64) evidence directly --
        nothing downstream writes into a local factor, so the copy the old
        implementation made per node is pure overhead.  Works unchanged on
        ``(bins,)`` vectors and ``(bins, B)`` batch matrices.
        """
        up: list[np.ndarray | None] = [None] * self.num_nodes
        local: list[np.ndarray] = [np.empty(0)] * self.num_nodes
        for node in self.order[::-1]:
            node = int(node)
            vec = evidence[node]
            combined: np.ndarray | None = None
            for child in self.children[node]:
                message = up[child]
                assert message is not None
                if combined is None:
                    combined = vec * message
                else:
                    combined *= message
            if combined is None:
                combined = (
                    vec if vec.dtype == np.float64 else vec.astype(np.float64)
                )
            local[node] = combined
            parent = int(self.parents[node])
            if parent >= 0:
                up[node] = self.cpds[node] @ combined
        return up, local

    def _sweep_down(
        self,
        up: list[np.ndarray | None],
        local: list[np.ndarray],
        evidence: Sequence[np.ndarray],
        batched: bool,
    ) -> list[np.ndarray]:
        """Per-node beliefs from the root-to-leaves pass.

        Sibling messages are combined with prefix/suffix running products,
        so a node with ``k`` children costs ``O(k)`` vector multiplies
        instead of the ``O(k^2)`` of the naive all-but-one loop.
        """
        down: list[np.ndarray] = [np.empty(0)] * self.num_nodes
        beliefs: list[np.ndarray] = [np.empty(0)] * self.num_nodes
        root_cpd = self.cpds[self.root]
        down[self.root] = root_cpd[:, None] if batched else root_cpd
        beliefs[self.root] = down[self.root] * local[self.root]
        for node in self.order:
            node = int(node)
            kids = self.children[node]
            if not kids:
                continue
            # Everything at the node except each child's own message.
            base = down[node] * evidence[node]
            messages = [up[child] for child in kids]
            prefixes: list[np.ndarray | None] = [None] * len(kids)
            acc: np.ndarray | None = None
            for i, message in enumerate(messages):
                prefixes[i] = acc
                assert message is not None
                acc = message if acc is None else acc * message
            suffix: np.ndarray | None = None
            for i in range(len(kids) - 1, -1, -1):
                context_vec = base
                if prefixes[i] is not None:
                    context_vec = context_vec * prefixes[i]
                if suffix is not None:
                    context_vec = context_vec * suffix
                child = kids[i]
                if batched:
                    down[child] = self.cpds[child].T @ context_vec
                else:
                    down[child] = context_vec @ self.cpds[child]
                beliefs[child] = down[child] * local[child]
                message = messages[i]
                assert message is not None
                suffix = message if suffix is None else message * suffix
        return beliefs

    # ------------------------------------------------------------------
    def selectivity(self, evidence: Sequence[np.ndarray]) -> float:
        """P(evidence): the fraction of rows satisfying all evidence."""
        self._check_evidence(evidence)
        _up, local = self._sweep_up(evidence)
        root_belief = self.cpds[self.root] * local[self.root]
        return float(np.clip(root_belief.sum(), 0.0, 1.0))

    def selectivity_batch(self, evidence: Sequence[np.ndarray]) -> np.ndarray:
        """P(evidence) for a whole batch of queries in one upward pass.

        ``evidence[i]`` has shape ``(bins_i, B)``: one evidence column per
        query in the batch.  The sum-product messages become matrix products
        (``cpds[node] @ local`` maps ``(bins, B)`` to ``(parent_bins, B)``),
        so the per-query Python/dispatch overhead of variable elimination is
        paid once for the batch.  Returns a ``(B,)`` selectivity vector.
        """
        self._check_evidence_batch(evidence)
        _up, local = self._sweep_up(evidence)
        root_belief = self.cpds[self.root][:, None] * local[self.root]
        return np.clip(root_belief.sum(axis=0), 0.0, 1.0)

    def beliefs(
        self, evidence: Sequence[np.ndarray]
    ) -> tuple[list[np.ndarray], float]:
        """Joint vectors ``b_i(c) = P(i = c, evidence)`` plus P(evidence)."""
        self._check_evidence(evidence)
        up, local = self._sweep_up(evidence)
        beliefs = self._sweep_down(up, local, evidence, batched=False)
        probability = float(np.clip(beliefs[self.root].sum(), 0.0, 1.0))
        return beliefs, probability

    def beliefs_batch(
        self, evidence: Sequence[np.ndarray]
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Per-node joint matrices plus the P(evidence) vector for a batch.

        ``evidence[i]`` has shape ``(bins_i, B)``; the result's ``i``-th
        entry has the same shape, column ``b`` holding what
        :meth:`beliefs` would return for query ``b`` alone.  One batched
        two-pass sum-product replaces ``B`` scalar ones -- the join-query
        analogue of :meth:`selectivity_batch`.
        """
        self._check_evidence_batch(evidence)
        up, local = self._sweep_up(evidence)
        beliefs = self._sweep_down(up, local, evidence, batched=True)
        probabilities = np.clip(beliefs[self.root].sum(axis=0), 0.0, 1.0)
        return beliefs, probabilities

    def marginal_with_evidence(
        self, node: int, evidence: Sequence[np.ndarray]
    ) -> np.ndarray:
        """``P(node = c, evidence)`` for every bin ``c`` of ``node``."""
        beliefs, _probability = self.beliefs(evidence)
        return beliefs[node]
