"""Spans around the calls into each layer's public entry points.

The program is not instrumented: :class:`Tracer` replaces each entry point,
at the name its caller resolves, with a wrapper that records a span, and puts
the originals back on :meth:`Tracer.uninstall`.  Spans stay in memory with a
parent link and are written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.core.pipeline
import repro.service.session
from repro.cutting import CutReconstructor
from repro.engine import ParallelEngine
from repro.engine.requests import request_key
from repro.service import EvaluationSession
from repro.service.incremental import IncrementalReconstructor


@dataclass
class Span:
    span_id: int
    name: str
    parent: Optional[int]
    request: Optional[str]
    start: float
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _engine_counts(before: Any, after: Any) -> Dict[str, Any]:
    delta = after.since(before)
    return {
        "batches": delta.batches,
        "requests": delta.requests,
        "dedup_hits": delta.dedup_hits,
        "cache_hits": delta.cache_hits,
        "unique_executions": delta.unique_executions,
    }


#: (owner, attribute, span name).  Functions are patched in the module whose
#: caller looks them up at call time; methods are patched on their class.
#: ``ParallelEngine.run_batch`` delegates to ``run_batch_timed``, so patching
#: the latter times both.
ENTRY_POINTS: Tuple[Tuple[Any, str, str], ...] = (
    (EvaluationSession, "prepare", "service.prepare"),
    (EvaluationSession, "step", "service.step"),
    (EvaluationSession, "finish", "service.finish"),
    (IncrementalReconstructor, "fold", "service.fold"),
    (repro.core.pipeline, "cut_circuit", "core.cut"),
    (CutReconstructor, "enumerate_probability_requests", "cutting.enumerate"),
    (CutReconstructor, "enumerate_expectation_requests", "cutting.enumerate"),
    (repro.service.session, "optimize_overhead_weights", "cutting.optimize"),
    (CutReconstructor, "reconstruct_probabilities", "cutting.contract"),
    (CutReconstructor, "reconstruct_expectation", "cutting.contract"),
    (ParallelEngine, "run_batch_timed", "engine.execute"),
    (repro.service.session, "allocate_shots", "engine.allocate"),
)


class Tracer:
    """Records nested spans while installed; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.request: Optional[str] = None
        self._stack: List[Span] = []
        self._originals: List[Tuple[Any, str, Any]] = []
        self._batches: List[Tuple[Span, List[Any]]] = []

    def start_request(self, label: str) -> None:
        """Tag the spans that follow with the request they belong to."""
        self.request = label

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), name, parent, self.request, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, original: Callable) -> Callable:
        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            engine = args[0] if name == "engine.execute" else None
            before = engine.stats if engine is not None else None
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if name == "cutting.enumerate":
                # Counted in uninstall(): fingerprinting here would do work
                # that the engine otherwise does inside its execute span.
                self._batches.append((span, result))
            elif engine is not None:
                span.attrs.update(_engine_counts(before, engine.stats))
            return result

        return traced

    def install(self) -> None:
        for owner, attribute, name in ENTRY_POINTS:
            original = owner.__dict__[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original))

    def uninstall(self) -> None:
        """Restore the entry points and count the enumerated batches."""
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()
        for span, batch in self._batches:
            span.attrs["requests"] = len(batch)
            span.attrs["unique"] = len({request_key(variant) for variant in batch})
        self._batches.clear()

    # ------------------------------------------------------------------ queries
    def _has_ancestor(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def outermost(self, name: str) -> List[Span]:
        """Spans called ``name`` not nested in another span of the same name."""
        return [s for s in self.spans if s.name == name and not self._has_ancestor(s, name)]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.outermost(name))

    def count(self, name: str) -> int:
        return len(self.outermost(name))

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in self.outermost(name))

    def self_times(self) -> Dict[str, float]:
        """Per span name, summed duration minus the time child spans cover.

        Self times are disjoint, so over all names they add up to the time
        spent inside outermost spans.
        """
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = span.duration - covered.get(span.span_id, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def pilot_seconds(self) -> float:
        """Execute spans whose parent is an allocate span: the variance pilot."""
        allocate = {s.span_id for s in self.spans if s.name == "engine.allocate"}
        return sum(s.duration for s in self.spans if s.name == "engine.execute" and s.parent in allocate)

    def as_records(self) -> List[Dict[str, Any]]:
        return [asdict(span) for span in self.spans]
