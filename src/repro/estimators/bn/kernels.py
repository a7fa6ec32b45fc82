"""Compiled BN inference: the per-node sum-product sweep every estimate runs.

:class:`BNInferenceContext` is the readable two-pass sum-product over
``(bins, B)`` evidence matrices; it stays as the reference the kernel is
tested against.  :class:`KernelPlan` compiles a model's tree once -- the
paper's ``initContext``: root identification and CPD indexing -- into a
per-node schedule taken straight from the context's order, parents,
children and CPDs, so each sweep is a flat run of precompiled 2-D ops:

* upward (leaves first): one ``cpd @ local`` GEMM per non-root node; a
  parent's first child message allocates ``evidence * message`` and later
  messages multiply in place, in child order;
* downward (root first): one ``cpd.T @ context`` GEMM per child, with the
  sibling prefix/suffix products chained as plain multiplies -- a lone
  child reuses its parent's context as is.

Every op consumes the same IEEE operands in the same order as
:meth:`BNInferenceContext.beliefs_batch` (commuted only where IEEE
multiplication commutes bitwise; ``cpd.T`` is a transpose *view*, as a
contiguous copy changes BLAS kernel selection), so :meth:`KernelPlan.run`
is bit-identical to it at every batch width and on every tree shape.
Property tests pin this.

Evidence assembly is fed by :class:`EvidenceCache`: a generation-stamped
``predicate -> bin-mask vector`` cache so repeated query templates skip the
per-predicate Python bin loops of :meth:`Discretizer.evidence`.  Model
refreshes bump the owning table's generation exactly like the serving
tier's estimate/plan caches.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ModelError
from repro.estimators.bn.discretize import Discretizer
from repro.estimators.bn.inference import BNInferenceContext
from repro.obs.metrics import MetricsRegistry
from repro.sql.query import TablePredicate

#: environment variable older scripts still report (see :func:`resolve_backend`)
BACKEND_ENV = "REPRO_BN_KERNEL"


def resolve_backend(mode: str | None = None) -> str:
    """The BN kernel backend: always ``"numpy"``.

    The per-node NumPy kernel is the only BN inference path; nothing in the
    package reads ``REPRO_BN_KERNEL`` any more.  This function remains for
    scripts that still report the variable: unset or a NumPy alias yields
    ``"numpy"``, any other value (``off``, another backend, ...) raises.
    """
    raw = mode if mode is not None else os.environ.get(BACKEND_ENV, "")
    if raw.strip().lower() in ("", "numpy", "on", "1", "default"):
        return "numpy"
    raise ValueError(
        f"{BACKEND_ENV}={raw!r} is not supported: the 'off' plans path and "
        "the alternative backends were removed, the NumPy kernel is the "
        "only BN inference path"
    )


class KernelRun:
    """Results of one kernel invocation: per-node beliefs + P(evidence)."""

    def __init__(self, beliefs: list[np.ndarray], probabilities: np.ndarray):
        self._beliefs = beliefs
        #: ``(B,)`` clipped root-belief totals -- one selectivity per column
        self.probabilities = probabilities
        self._transposed: dict[int, np.ndarray] = {}

    def beliefs_matrix(self, node: int) -> np.ndarray:
        """``(bins, B)`` belief matrix of one node."""
        return self._beliefs[node]

    def probability(self, column: int) -> float:
        return float(self.probabilities[column])

    def scope_beliefs(self, column: int) -> list[np.ndarray]:
        """Per-node contiguous belief columns for one evidence column.

        Each node's ``(bins, B)`` matrix is transposed into a contiguous
        ``(B, bins)`` buffer once per run (cached), after which every
        column's vector is a zero-copy contiguous row view -- the same
        float values ``np.ascontiguousarray(matrix[:, column])`` would
        copy, without the per-scope copies.
        """
        out: list[np.ndarray] = []
        for node, matrix in enumerate(self._beliefs):
            buf = self._transposed.get(node)
            if buf is None:
                buf = np.ascontiguousarray(matrix.T)
                buf.setflags(write=False)
                self._transposed[node] = buf
            out.append(buf[column])
        return out


class KernelPlan:
    """A model's tree compiled for per-node sum-product sweeps.

    Compile once per (model, process); :meth:`run` / :meth:`run_packs` are
    then lock-free and may be called concurrently from many threads.
    Evidence "packs" are per-node ``(bins, B)`` matrices indexed by node.
    """

    def __init__(self, context: BNInferenceContext):
        self.context = context
        self.num_nodes = context.num_nodes
        self.root = context.root
        self.bins = [context.bin_count(node) for node in range(self.num_nodes)]
        order = [int(node) for node in context.order]
        #: leaves first: (node, children, CPD -- None at the root)
        self._up = [
            (
                node,
                context.children[node],
                None if node == self.root else context.cpds[node],
            )
            for node in reversed(order)
        ]
        #: root first, inner nodes only: (node, children, children's CPD.T
        #: views -- a contiguous copy would change the BLAS kernel)
        self._down = [
            (node, kids, [context.cpds[kid].T for kid in kids])
            for node in order
            if (kids := context.children[node])
        ]
        #: ``(C, 1)`` root CPD column; broadcasts over the batch downward
        self.root_cpd_col = context.cpds[self.root][:, None]

    # ------------------------------------------------------------------
    def ones_packs(self, batch: int) -> list[np.ndarray]:
        """Fresh all-ones evidence packs for a ``batch``-column invocation."""
        if batch < 1:
            raise ModelError("kernel batch must be >= 1")
        return [np.ones((bins, batch)) for bins in self.bins]

    @staticmethod
    def apply_evidence(
        packs: list[np.ndarray],
        node: int,
        column: int,
        vector: np.ndarray,
    ) -> None:
        """Multiply one predicate's bin-mask into one evidence column."""
        packs[node][:, column] *= vector

    # ------------------------------------------------------------------
    def run(self, evidence: Sequence[np.ndarray]) -> KernelRun:
        """Batched beliefs from per-node ``(bins, B)`` evidence matrices.

        Same contract as :meth:`BNInferenceContext.beliefs_batch`.
        """
        batch = self.context._check_evidence_batch(evidence)
        if batch < 1:
            raise ModelError("kernel batch must be >= 1")
        return self.run_packs(
            [np.asarray(matrix, dtype=np.float64) for matrix in evidence]
        )

    def _sweep_up(self, ev: list[np.ndarray]):
        """Upward sweep: per-node local factors and messages to parents."""
        # Leaves alias the evidence; a parent's first message allocates
        # the ``evidence * message`` product fresh.
        local: list[np.ndarray] = list(ev)
        msgs: list[np.ndarray | None] = [None] * self.num_nodes
        for node, kids, cpd in self._up:
            if kids:
                acc = ev[node] * msgs[kids[0]]
                for kid in kids[1:]:
                    acc *= msgs[kid]
                local[node] = acc
            if cpd is not None:
                msgs[node] = cpd @ local[node]
        return local, msgs

    def selectivities_packs(self, ev_packs: list[np.ndarray]) -> np.ndarray:
        """``(B,)`` evidence probabilities from the upward sweep alone.

        Bitwise identical to :meth:`BNInferenceContext.selectivity_batch`
        on the same evidence -- the single-table COUNT path needs no
        per-node beliefs, so the downward sweep is skipped.
        """
        local, _msgs = self._sweep_up(ev_packs)
        root_belief = self.root_cpd_col * local[self.root]
        return np.clip(root_belief.sum(axis=0), 0.0, 1.0)

    def run_packs(self, ev: list[np.ndarray]) -> KernelRun:
        """The two-pass sweep over pre-assembled evidence packs.

        ``ev`` is consumed read-only, so callers may reuse packs (belief
        matrices of childless nodes may alias them).
        """
        local, msgs = self._sweep_up(ev)
        down: list[np.ndarray | None] = [None] * self.num_nodes
        beliefs: list[np.ndarray] = [np.empty(0)] * self.num_nodes
        root = self.root
        down[root] = self.root_cpd_col  # (C, 1) broadcasts over the batch
        beliefs[root] = down[root] * local[root]
        for node, kids, cpds_t in self._down:
            base = down[node] * ev[node]
            m = len(kids)
            if m == 1:
                kid = kids[0]
                down[kid] = cpds_t[0] @ base
                beliefs[kid] = down[kid] * local[kid]
                continue
            # suffixes[r] = msgs[k_{m-1}] * ... * msgs[k_{r+1}]
            suffixes: list[np.ndarray | None] = [None] * m
            acc: np.ndarray | None = None
            for r in range(m - 1, 0, -1):
                mk = msgs[kids[r]]
                acc = mk if acc is None else acc * mk
                suffixes[r - 1] = acc
            prefix: np.ndarray | None = None
            for r, kid in enumerate(kids):
                context = base if prefix is None else base * prefix
                suffix = suffixes[r]
                if suffix is not None:
                    context = context * suffix
                mk = msgs[kid]
                prefix = mk if prefix is None else prefix * mk
                down[kid] = cpds_t[r] @ context
                beliefs[kid] = down[kid] * local[kid]

        probabilities = np.clip(beliefs[root].sum(axis=0), 0.0, 1.0)
        return KernelRun(beliefs, probabilities)


# ----------------------------------------------------------------------
# Compiled evidence
# ----------------------------------------------------------------------
#: (global_generation, table_generation) at insert time
_Stamp = tuple[int, int]


class EvidenceCache:
    """Generation-stamped ``predicate -> bin-mask vector`` LRU cache.

    :meth:`Discretizer.evidence` walks bins in a Python loop per predicate
    per query; for the repeated templates that dominate real workloads the
    resulting vectors are identical every time.  This cache keys them by
    the (frozen, hashable) :class:`TablePredicate` itself and invalidates
    like the serving tier's estimate/plan caches: a model refresh bumps the
    owning table's generation and lookups lazily drop stale entries.  The
    cached vectors are read-only so every consumer multiplies from the same
    immutable mask.

    Hit/miss/invalidation counts are mirrored into a
    :class:`~repro.obs.metrics.MetricsRegistry` as
    ``evidence_cache_hits_total`` / ``evidence_cache_misses_total`` /
    ``evidence_cache_invalidations_total``.
    """

    def __init__(
        self,
        max_entries: int = 8192,
        registry: MetricsRegistry | None = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.registry = (
            registry if registry is not None else MetricsRegistry(enabled=False)
        )
        self._lock = threading.Lock()
        self._entries: OrderedDict[TablePredicate, tuple[np.ndarray, _Stamp]] = (
            OrderedDict()
        )
        self._table_generation: dict[str, int] = {}
        self._global_generation = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        # Pre-register so exports show the series at zero from the start.
        self._hits_counter = self.registry.counter("evidence_cache_hits_total")
        self._misses_counter = self.registry.counter("evidence_cache_misses_total")
        self._invalidations_counter = self.registry.counter(
            "evidence_cache_invalidations_total"
        )

    # -- generations ---------------------------------------------------
    def bump_tables(self, tables: Iterable[str]) -> None:
        """Invalidate (lazily) every predicate vector on any of ``tables``."""
        with self._lock:
            for table in tables:
                self._table_generation[table] = (
                    self._table_generation.get(table, 0) + 1
                )

    def bump_all(self) -> None:
        """Invalidate (lazily) every cached vector."""
        with self._lock:
            self._global_generation += 1

    def _stamp(self, table: str) -> _Stamp:
        return (self._global_generation, self._table_generation.get(table, 0))

    # ------------------------------------------------------------------
    def vector(self, discretizer: Discretizer, pred: TablePredicate) -> np.ndarray:
        """The (read-only) bin-mask vector of one predicate.

        The discretizer is only consulted on a miss; its output is
        deterministic, so a current-generation hit is bitwise identical to
        a fresh :meth:`Discretizer.evidence` call.  A cached vector whose
        length no longer matches the discretizer (a refresh raced the bump)
        is treated as stale.  A miss is stamped *before* the discretizer
        runs and stored only if no bump landed meanwhile: a miss still
        running on a pre-refresh model must not be served to the new one.
        """
        table = pred.table
        with self._lock:
            stamp = self._stamp(table)
            entry = self._entries.get(pred)
            if entry is not None:
                vec, entry_stamp = entry
                if entry_stamp == stamp and vec.size == discretizer.num_bins:
                    self._entries.move_to_end(pred)
                    self.hits += 1
                    self._hits_counter.inc()
                    return vec
                del self._entries[pred]
                self.invalidations += 1
                self._invalidations_counter.inc()
        vec = np.ascontiguousarray(discretizer.evidence(pred), dtype=np.float64)
        vec.setflags(write=False)
        with self._lock:
            self.misses += 1
            self._misses_counter.inc()
            if self._stamp(table) == stamp:
                self._entries[pred] = (vec, stamp)
                self._entries.move_to_end(pred)
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.evictions += 1
        return vec

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
