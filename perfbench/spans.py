"""Per-layer attribution from outside the program.

The benchmark never edits ``src/``: it times a layer by temporarily
replacing that layer's public entry point (a method on a class or a
function in a module namespace) with a wrapper that records a span
around the original call, and puts the original back afterwards.

A span has a name, a start and end time, the index of the span that
was open when it began (its parent) and the batch id it ran in. A
layer's *self time* is its spans' durations minus the time covered by
their child spans, so nested layers are never counted twice and the
self times of all spans add up to the time covered by root spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    batch: int = 0
    #: Summed duration of the direct children, filled as they close.
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class SpanRecorder:
    """In-memory span store plus per-layer counters for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.batch = 0
        self._stack: List[int] = []

    def call(self, name: str, fn: Callable, args, kwargs, observe=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        A call made while a span of the same name is already innermost
        (a wrapped override calling its wrapped base through
        ``super()``) runs without a span of its own, so the layer's
        time and call count are taken once.
        """
        if self._stack and self.spans[self._stack[-1]].name == name:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self.clock(), parent=parent, batch=self.batch)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_time += span.duration
        self.calls[name] += 1
        if observe is not None:
            for key, value in observe(result, args).items():
                self.counts[key] += value
        return result

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.self_time
        return dict(totals)

    def inclusive_times(self) -> Dict[str, float]:
        """Summed duration per span name (children included)."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.duration
        return dict(totals)

    def chrome_trace(self, origin: float = 0.0) -> Dict[str, Any]:
        """The spans as Chrome ``trace_event`` JSON (complete events)."""
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"batch": span.batch, "parent": span.parent, "id": index},
            }
            for index, span in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path, origin: float = 0.0) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(origin), handle)


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: ``owner.attr`` recorded as span ``name``.

    ``observe(result, args)`` returns counters to add after each call.
    """

    name: str
    owner: Any
    attr: str
    observe: Optional[Callable[[Any, tuple], Dict[str, float]]] = None


def defining_classes(classes: Iterable[type], attr: str) -> List[type]:
    """Every class in the MROs of ``classes`` whose own body defines ``attr``.

    Wrapping each of them (rather than only the concrete classes) keeps
    overrides that call their base through ``super()`` attributed, and
    never adds an attribute to a class that did not have one.
    """
    seen: List[type] = []
    for cls in classes:
        for klass in cls.__mro__:
            if attr in vars(klass) and klass not in seen:
                seen.append(klass)
    return seen


class Instrumentation:
    """Context manager that installs span wrappers and restores originals."""

    def __init__(self, recorder: SpanRecorder, targets: Sequence[Target]) -> None:
        self.recorder = recorder
        self.targets = list(targets)
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> SpanRecorder:
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self.restore()
            raise
        return self.recorder

    def __exit__(self, *exc) -> None:
        self.restore()

    def _install(self, target: Target) -> None:
        owner, attr = target.owner, target.attr
        original = vars(owner).get(attr, _MISSING)
        if original is _MISSING:
            raise AttributeError(f"{owner!r} defines no {attr!r} of its own")
        recorder, name, observe = self.recorder, target.name, target.observe

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return recorder.call(name, original, args, kwargs, observe)

        wrapper.__perfbench_wrapped__ = True
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def is_wrapped(owner: Any, attr: str) -> bool:
    """True while ``owner.attr`` is a span wrapper installed by this module."""
    return bool(getattr(vars(owner).get(attr), "__perfbench_wrapped__", False))
