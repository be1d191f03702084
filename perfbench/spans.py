"""In-memory spans, self-time arithmetic and the percentile rule.

A span records one call into a layer: name, start, end, the span that
caused it and the request it belongs to.  Spans stay in memory until
the run ends.  A span's *self time* is its duration minus the part of
its interval that its child spans cover; summed over a tree, self
times add up to the root span's duration.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class Span:
    """One timed call into a layer."""

    span_id: int
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    request: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        """The layer a span belongs to: its name up to the first dot."""
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread.

    The parent of a new span is the innermost open span on the same
    thread.  A span opened on a thread with no open span (a server
    worker thread) can name its parent explicitly; see
    :meth:`expect` and :meth:`claim`, which join a client-side request
    span to the server-side work it caused by a content key.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._expected: dict[object, Span] = {}

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def suspended(self) -> bool:
        """True while this thread runs under :meth:`suspend`."""
        return getattr(self._local, "suspended", False)

    @contextlib.contextmanager
    def suspend(self) -> Iterator[None]:
        """Record nothing on this thread (the benchmark's own checks)."""
        previous = self.suspended
        self._local.suspended = True
        try:
            yield
        finally:
            self._local.suspended = previous

    def current(self) -> Span | None:
        """The innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def adopt(self, parent: Span | None) -> Iterator[None]:
        """Open spans on this thread under ``parent``, a span that a
        thread handing work to this one has open."""
        stack = self._stack()
        if parent is not None:
            stack.append(parent)
        try:
            yield
        finally:
            if parent is not None:
                stack.pop()

    def expect(self, key: object, span: Span) -> None:
        """Announce that work keyed by ``key`` belongs under ``span``."""
        with self._lock:
            self._expected[key] = span

    def claim(self, key: object) -> Span | None:
        """The span announced for ``key`` (once), or ``None``."""
        with self._lock:
            return self._expected.pop(key, None)

    @contextlib.contextmanager
    def span(
        self, name: str, *, parent: Span | None = None, **attrs: object
    ) -> Iterator[Span]:
        """Time the ``with`` body as a span named ``name``.

        An exception escaping the body is recorded as the span's
        ``error`` attribute and re-raised.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        record = Span(
            span_id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            parent=parent.span_id if parent is not None else None,
            request=parent.request if parent is not None else None,
            attrs=dict(attrs),
        )
        if record.request is None:
            record.request = record.span_id
        stack.append(record)
        try:
            yield record
        except BaseException as exc:
            record.attrs["error"] = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for lo, hi in sorted(intervals):
        if cur_end is None or lo > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = lo, hi
        else:
            cur_end = max(cur_end, hi)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children are clipped to their parent's interval, so a child that
    outlives its parent (or overlaps a sibling) is never subtracted
    twice.
    """
    by_id = {s.span_id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is None:
            continue
        lo, hi = max(s.start, parent.start), min(s.end, parent.end)
        if hi > lo:
            children.setdefault(parent.span_id, []).append((lo, hi))
    return {
        s.span_id: s.duration - _covered(children.get(s.span_id, []))
        for s in spans
    }


def roots(spans: list[Span]) -> list[Span]:
    """Spans whose parent is not among ``spans``."""
    ids = {s.span_id for s in spans}
    return [s for s in spans if s.parent not in ids]


def ancestors(span: Span, by_id: dict[int, Span]) -> Iterator[Span]:
    """The chain of spans above ``span``, innermost first."""
    parent = by_id.get(span.parent) if span.parent is not None else None
    while parent is not None:
        yield parent
        parent = by_id.get(parent.parent) if parent.parent is not None else None


# -- percentiles --------------------------------------------------------

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def nearest_rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples."""
    return max(1, math.ceil(q / 100.0 * n))


def percentile(samples: list[float], q: float) -> float | None:
    """Percentile ``q`` by nearest rank, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    n = len(samples)
    if n == 0:
        return None
    rank = nearest_rank(n, q)
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def tail_percentile(
    samples: list[float], candidates: tuple[float, ...] = (99.9, 99.0, 90.0)
) -> tuple[float, float] | None:
    """The highest reportable percentile among ``candidates`` as
    ``(q, value)``, or ``None`` when none is reportable."""
    for q in candidates:
        value = percentile(samples, q)
        if value is not None:
            return q, value
    return None
