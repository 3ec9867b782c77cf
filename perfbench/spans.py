"""In-memory span tracer that wraps functions where their callers look them up.

A span keeps its name, start, end, parent and replication id. Spans stay in
memory until the run ends and are aggregated then. Nothing here imports
corrpool: the caller passes the objects whose attributes it wants traced.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field

COUNT_SPAN = "trace.count"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    replication: int | None = None
    iteration: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals; empty ones are ignored."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = covered_length(
            (max(spans[c].start, span.start), min(spans[c].end, span.end)) for c in children[i]
        )
        out.append(span.duration - covered)
    return out


class Tracer:
    """Records spans from the wrappers it installs; restore() removes them.

    A wrapper created with starts_replication opens a new replication id that
    later spans share, until a wrapper created with ends_replication returns.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.iteration = 0
        self._stack: list[int] = []
        self._replication: int | None = None
        self._next_replication = 0
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str, starts_replication: bool = False) -> int:
        if starts_replication:
            self._replication = self._next_replication
            self._next_replication += 1
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, self.clock(), parent=parent, replication=self._replication,
                 iteration=self.iteration)
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int, ends_replication: bool = False):
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        if ends_replication:
            self._replication = None

    def wrap(self, owner, attr: str, name: str, count=None,
             starts_replication: bool = False, ends_replication: bool = False):
        """Replace owner.attr by a wrapper that records a span named `name`.

        count(args, kwargs, result) returns attributes stored on the span; its
        own cost is recorded as a COUNT_SPAN sibling so that no layer's self
        time includes it.
        """
        original = getattr(owner, attr)
        tracer = self
        self._patched.append((owner, attr, inspect.getattr_static(owner, attr)))

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.begin(name, starts_replication)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index, ends_replication)
            if count is not None:
                counting = tracer.begin(COUNT_SPAN)
                try:
                    tracer.spans[index].attrs = count(args, kwargs, result)
                finally:
                    tracer.end(counting)
            return result

        setattr(owner, attr, traced)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
