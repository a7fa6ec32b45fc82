"""The micro-batcher: one inference pass for concurrent same-table requests.

Single-table COUNT estimates against the same BN repeat the identical
variable-elimination setup (evidence construction, topological message
scheduling); :class:`MicroBatcher` groups requests that arrive within a
small window and answers them with **one** batched sum-product pass
(one :class:`~repro.estimators.bn.kernels.KernelPlan` upward sweep over
the batch's stacked evidence), amortizing that setup the way the paper's
Inference Engine amortizes ``initContext``.

Leader/follower protocol: the first request for a batch key becomes the
batch leader; it waits until the batch fills (``max_batch_size``) or the
window expires (``max_wait_ms``), then drains the whole queue and executes
it in ``max_batch_size`` chunks.  Followers block on their own item until
the leader delivers a value (or the batch's exception).

Batches are grouped by ``key_fn(query)``: the default keys on the query's
single table (the original same-table protocol), and the serving tier
passes a key function that also groups *join* queries sharing a table set,
so their shared-belief plans are primed by batched BN passes (see
:meth:`FactorJoinEstimator.estimate_join_batch`).
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.errors import EstimationError
from repro.sql.query import CardQuery

#: ``batch_fn(key, queries) -> list[float]`` aligned with the input order
BatchFn = Callable[[str, list[CardQuery]], list[float]]


def default_batch_key(query: CardQuery) -> str:
    """The original same-table grouping: the query's (single) first table."""
    return query.tables[0]


class _Item:
    __slots__ = ("query", "value", "error", "done")

    def __init__(self, query: CardQuery):
        self.query = query
        self.value: float | None = None
        self.error: BaseException | None = None
        self.done = threading.Event()

    def deliver(self, value: float) -> None:
        self.value = value
        self.done.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.done.set()

    def result(self) -> float:
        self.done.wait()
        if self.error is not None:
            raise self.error
        assert self.value is not None
        return self.value


class MicroBatcher:
    """Groups concurrent COUNT requests sharing a batch key into passes."""

    def __init__(
        self,
        batch_fn: BatchFn,
        max_batch_size: int = 16,
        max_wait_ms: float = 1.0,
        on_batch: Callable[[int], None] | None = None,
        key_fn: Callable[[CardQuery], str] | None = None,
    ):
        """``on_batch(occupancy)`` is invoked once per executed chunk."""
        self.batch_fn = batch_fn
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_ms / 1000.0
        self.on_batch = on_batch
        self.key_fn = key_fn if key_fn is not None else default_batch_key
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pending: dict[str, list[_Item]] = {}
        self._closed = False

    # ------------------------------------------------------------------
    def estimate(self, query: CardQuery) -> float:
        """Blocking estimate through the batcher (call from worker threads)."""
        key = self.key_fn(query)
        item = _Item(query)
        with self._cond:
            if self._closed:
                raise EstimationError("micro-batcher is closed")
            queue = self._pending.setdefault(key, [])
            queue.append(item)
            is_leader = len(queue) == 1
            if not is_leader and len(queue) >= self.max_batch_size:
                # The batch is full -- wake the leader early.
                self._cond.notify_all()
        if is_leader:
            self._lead(key)
        return item.result()

    def _lead(self, key: str) -> None:
        """Wait out the batching window, then drain and execute the queue."""
        deadline = time.monotonic() + self.max_wait_s
        with self._cond:
            while (
                not self._closed
                and len(self._pending.get(key, ())) < self.max_batch_size
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            batch = self._pending.pop(key, [])
        # Execute in chunks; late arrivals drained with the batch still ride
        # along (bounded by the worker pool, so this cannot grow unbounded).
        for start in range(0, len(batch), self.max_batch_size):
            chunk = batch[start : start + self.max_batch_size]
            try:
                values = self.batch_fn(key, [i.query for i in chunk])
                if len(values) != len(chunk):
                    raise RuntimeError(
                        f"batch_fn returned {len(values)} values for a "
                        f"chunk of {len(chunk)}"
                    )
            except BaseException as exc:
                for i in chunk:
                    i.fail(exc)
                continue
            if self.on_batch is not None:
                self.on_batch(len(chunk))
            for i, value in zip(chunk, values):
                i.deliver(float(value))

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Fail every queued request and refuse new ones.

        Called *after* the worker pool drained (so normally nothing is
        queued); when a drain timed out, this is what unblocks followers
        still waiting on a batch a hung leader will never execute.
        """
        with self._cond:
            self._closed = True
            stranded = [
                item for queue in self._pending.values() for item in queue
            ]
            self._pending.clear()
            self._cond.notify_all()
        error = EstimationError("micro-batcher closed with requests queued")
        for item in stranded:
            item.fail(error)

    def pending_count(self, key: str | None = None) -> int:
        with self._lock:
            if key is not None:
                return len(self._pending.get(key, ()))
            return sum(len(q) for q in self._pending.values())
