"""In-memory span recording around calls into the program's layers.

The benchmark does not change the program: a traced phase patches the
public methods of each layer's classes (and a few module functions) with
thin wrappers that record a span per call, and restores them when the
phase ends.  A span is ``(name, start, end, parent, request, rows)``;
``parent`` is the index of the enclosing span on the same thread, and
``request`` is the request id of the root span it descends from.
``rows`` is the leading dimension of the first array argument (the probe
or frame count the call worked on).

A span name is ``<layer>.<what>``.  A layer's *exclusive* time is the sum,
over its spans, of the span's duration minus the durations of its direct
children, so nested calls inside one layer are not counted twice and time
spent in another layer's child call is charged to that layer.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

_clock = time.perf_counter


def _rows_of(args) -> Optional[int]:
    for value in args:
        if isinstance(value, np.ndarray):
            return int(value.shape[0]) if value.ndim else 1
    return None


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._request_ids = itertools.count()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, rows: Optional[int] = None) -> int:
        """Start a span; a root span opens a new request id, a nested one
        inherits its parent's."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        request = self.spans[parent][4] if parent is not None else next(self._request_ids)
        record = [name, _clock(), None, parent, request, rows]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, rows: Optional[int] = None):
        index = self.open(name, rows=rows)
        try:
            yield index
        finally:
            self.close(index)

    def add(self, name: str, start: float, end: float, rows: Optional[int] = None) -> None:
        """Record a root span measured elsewhere (e.g. from callback stamps)."""
        with self._lock:
            self.spans.append([name, start, end, None, next(self._request_ids), rows])

    # ------------------------------------------------------------------
    def finished(self) -> List[list]:
        return [span for span in self.spans if span[2] is not None]

    def durations(self, name: str) -> np.ndarray:
        return np.array(
            [s[2] - s[1] for s in self.finished() if s[0] == name], dtype=np.float64
        )

    def rows(self, name: str) -> int:
        return int(sum(s[5] or 0 for s in self.finished() if s[0] == name))

    def count(self, name: str) -> int:
        return sum(1 for s in self.finished() if s[0] == name)

    def exclusive(self) -> Dict[str, float]:
        """Exclusive seconds per span name."""
        spans = self.spans
        child_time = defaultdict(float)
        for span in spans:
            if span[2] is not None and span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        totals: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(spans):
            if span[2] is not None:
                totals[span[0]] += span[2] - span[1] - child_time[index]
        return dict(totals)

    def child_cover(self, root: str) -> Tuple[float, float]:
        """(total duration of ``root`` spans, time covered by their children)."""
        spans = self.spans
        roots = {i for i, s in enumerate(spans) if s[0] == root and s[2] is not None}
        total = sum(spans[i][2] - spans[i][1] for i in roots)
        covered = sum(
            s[2] - s[1] for s in spans if s[3] in roots and s[2] is not None
        )
        return total, covered

    def dump(self, path, extra: Optional[dict] = None) -> None:
        payload = {
            "fields": ["name", "start", "end", "parent", "request", "rows"],
            "spans": self.finished(),
        }
        if extra:
            payload.update(extra)
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _wrap(tracer: Tracer, func: Callable, name) -> Callable:
    namer = name if callable(name) else (lambda args, kwargs: name)

    @functools.wraps(func)
    def traced(*args, **kwargs):
        index = tracer.open(namer(args, kwargs), rows=_rows_of(args))
        try:
            return func(*args, **kwargs)
        finally:
            tracer.close(index)

    return traced


@contextlib.contextmanager
def patched(tracer: Tracer, targets: Iterable[Tuple[object, str, object]]):
    """Wrap ``owner.attr`` with a span recorder for the duration of the block.

    ``owner`` is a class or a module; for a class the attribute is patched
    on the class of its MRO that defines it, so subclasses that inherit it
    are traced too.  ``name`` is a span name or ``(args, kwargs) -> name``.
    """
    saved = []
    try:
        for owner, attr, name in targets:
            if isinstance(owner, type):
                owner = next(k for k in owner.__mro__ if attr in vars(k))
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def program_targets() -> List[Tuple[object, str, object]]:
    """The layer boundaries of the program that every traced phase patches."""
    from repro.bdd.patterns import PatternSet
    from repro.monitors import perturbation
    from repro.monitors.base import ActivationMonitor
    from repro.nn.network import Sequential
    from repro.runtime.codec import PatternCodec, WordCodec
    from repro.runtime.engine import BatchScoringEngine
    from repro.runtime.kernels import resolve_matcher_backend
    from repro.runtime.matcher import PackedMatcher

    kernel_class = type(resolve_matcher_backend(None))

    def bound_name(args, kwargs):
        spec = args[3] if len(args) > 3 else kwargs["spec"]
        return f"symbolic.{spec.method}"

    targets = [
        (Sequential, "activations", "nn.forward"),
        (Sequential, "forward_to", "nn.forward"),
        (BatchScoringEngine, "score_batch", "engine.score_batch"),
        (perturbation, "collect_bound_arrays", bound_name),
        (ActivationMonitor, "warn_batch_from_layer", "monitors.warn"),
        (ActivationMonitor, "features_from_layer", "monitors.slice"),
        (PatternCodec, "codes", "codec.codes"),
        (PatternCodec, "bound_codes", "codec.bound"),
        (PatternCodec, "ternary_planes", "codec.bound"),
        (WordCodec, "pack_codes", "codec.pack"),
        (PatternSet, "add_patterns", "bdd.insert"),
        (PatternSet, "add_ternary_patterns", "bdd.insert"),
        (PatternSet, "add_range_patterns", "bdd.insert"),
        (PatternSet, "contains_batch", "bdd.contains"),
        (PackedMatcher, "add_exact_packed", "matcher.insert"),
        (PackedMatcher, "add_ternary", "matcher.insert"),
        (PackedMatcher, "add_code_ranges", "matcher.insert"),
        (PackedMatcher, "contains_packed", "matcher.contains"),
    ]
    # A back-end that overrides ``match`` wholesale (the fused compiled
    # kernel) never calls the per-pass methods; its passes then read 0.
    targets += [
        (kernel_class, "match_exact", "matcher.exact"),
        (kernel_class, "match_ternary", "matcher.ternary"),
        (kernel_class, "match_ranges", "matcher.range"),
    ]
    return targets
