"""In-memory spans recorded by the benchmark around public calls.

Nothing here reaches inside ``src/``: spans are opened around the calls the
benchmark makes (bind, plan, execute, ingest, retrain, refresh), around
estimate calls by wrapping the strategy or service handed to
``EngineSession``, and around the set-up stages by wrapping the public
methods ``ByteCard.build`` calls for the duration of one traced build.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.core.bytecard import ByteCard
from repro.core.modelforge import ModelForgeService
from repro.estimators.base import NdvEstimator
from repro.estimators.strategy import LearnedStrategy


@dataclass(frozen=True)
class Span:
    #: the root span's trace id; None outside any traced operation
    trace: int | None
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans; each thread keeps its own stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, trace: int | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if trace is None:
            trace = parent[1] if parent else None
        span_id = next(self._ids)
        stack.append((span_id, trace))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(trace, span_id, parent[0] if parent else None, name, start, end)
            )

    def self_seconds(self) -> dict[int, float]:
        """Span id -> its duration minus the time its child spans cover.

        Children of one span run on the span's own thread, one after the
        other, so their durations add without overlap.
        """
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + span.seconds
        return {s.span_id: s.seconds - child_time.get(s.span_id, 0.0) for s in self.spans}


def _call() -> None:
    return None


def _traced_call(tracer: Tracer) -> None:
    with tracer.span("calibrate"):
        return _call()


def span_cost_s(loops: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to the call it wraps.

    Times ``loops`` calls through a span-opening wrapper, as
    :class:`TracedPlanner` and :class:`TracedService` make them, against
    ``loops`` bare calls, each inside an open parent span; the best of
    ``repeats`` rounds of each, so that a slow moment of the host counts
    in neither.
    """
    tracer = Tracer()
    plain, traced = [], []
    with tracer.span("calibrate.parent"):
        for _ in range(repeats):
            tracer.spans.clear()
            start = time.perf_counter()
            for _ in range(loops):
                _call()
            plain.append(time.perf_counter() - start)
            start = time.perf_counter()
            for _ in range(loops):
                _traced_call(tracer)
            traced.append(time.perf_counter() - start)
    return (min(traced) - min(plain)) / loops


class LearnedPlanner(LearnedStrategy, NdvEstimator):
    """The learned strategy with ByteCard's NDV path, so that planning
    straight through the strategy also sizes GROUP BY hash tables."""

    def estimate_ndv(self, query):
        return self.estimator.estimate_ndv(query)

    def group_ndv(self, query):
        return self.estimator.group_ndv(query)


class TracedPlanner(LearnedPlanner):
    """:class:`LearnedPlanner` with a span around every estimate call."""

    def __init__(self, estimator, tracer: Tracer):
        super().__init__(estimator)
        self.tracer = tracer

    def selectivity_detail(self, query):
        with self.tracer.span("estimate.selectivity"):
            return super().selectivity_detail(query)

    def estimate_count_detail(self, query):
        with self.tracer.span("estimate.count"):
            return super().estimate_count_detail(query)

    def group_ndv(self, query):
        with self.tracer.span("estimate.ndv"):
            return super().group_ndv(query)


class TracedService:
    """An ``EstimationService`` stand-in with a span around every estimate
    call the optimizer makes; everything else passes through."""

    def __init__(self, service, tracer: Tracer):
        self._service = service
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._service, name)

    def selectivity_detail(self, query):
        with self._tracer.span("estimate.selectivity"):
            return self._service.selectivity_detail(query)

    def estimate_count_detail(self, query):
        with self._tracer.span("estimate.count"):
            return self._service.estimate_count_detail(query)

    def estimate_ndv(self, query):
        with self._tracer.span("estimate.ndv"):
            return self._service.estimate_ndv(query)

    def group_ndv(self, query):
        with self._tracer.span("estimate.ndv"):
            return self._service.group_ndv(query)


#: the public calls ``ByteCard.build`` makes, and the set-up stage each is
_BUILD_STAGES = (
    (ModelForgeService, "train_count_models", "setup.train_bn"),
    (ModelForgeService, "train_rbx_universal", "setup.train_rbx"),
    (ByteCard, "refresh", "setup.load"),
    (ByteCard, "run_monitor", "setup.monitor"),
)


@contextmanager
def traced_build_stages(tracer: Tracer):
    """Record a span per set-up stage while ``ByteCard.build`` runs."""
    originals = [(cls, attr, getattr(cls, attr)) for cls, attr, _ in _BUILD_STAGES]

    def wrap(fn, name):
        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
        return traced

    for (cls, attr, fn), (_, _, name) in zip(originals, _BUILD_STAGES):
        setattr(cls, attr, wrap(fn, name))
    try:
        yield
    finally:
        for cls, attr, fn in originals:
            setattr(cls, attr, fn)
