"""Request tracing: trace context, spans, and the in-process ring buffer.

A trace context is two 64-bit hex ids — ``trace_id`` names the whole
request tree, ``span_id`` names one operation within it — plus the
parent span's id.  The context rides the JSON-lines wire as
*non-semantic* fields: ``fragalign/job.py`` registers ``trace_id``
and ``span_id`` with every participation flag off, so the
knob-propagation analyzer proves they can never enter a cache key,
ring key, or batch group key.  Tracing therefore cannot split batches
or poison cache identity — it only annotates.

Spans land in a bounded :class:`TraceBuffer` (a ring: old spans are
dropped, never blocks, drop count exposed) and are drained via the
``trace`` request op.  Id entropy lives only in this module — the
analyzer's determinism rule bans entropy sources from every
key-making code path, and ``obs/`` is deliberately outside its scan
scope.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import deque

__all__ = [
    "TraceContext",
    "Span",
    "TraceBuffer",
    "Tracer",
    "new_trace_context",
    "child_context",
    "leaf_entry",
]

# Ids need exactly one property: uniqueness across every process that
# can contribute spans to one trace.  A random per-process prefix
# (one urandom read at import) plus a process-local counter gives
# that without a syscall per id — span recording sits on the request
# hot path, where os.urandom's ~0.5µs apiece was the single largest
# tracing cost.
_PROCESS = os.urandom(6).hex()
_counter = itertools.count(1)  # thread-safe: one CPython bytecode per next()


def _new_id() -> str:
    return "%s-%x" % (_PROCESS, next(_counter))


class TraceContext:
    """The triple carried on the wire; immutable by convention, tiny.

    A plain ``__slots__`` class rather than a frozen dataclass: these
    are built per request and per span on the hot path, and frozen
    dataclass construction costs ~2.5x more.
    """

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(
        self, trace_id: str, span_id: str, parent_id: str | None = None
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceContext(trace_id={self.trace_id!r}, "
            f"span_id={self.span_id!r}, parent_id={self.parent_id!r})"
        )

    def child(self) -> "TraceContext":
        """A fresh span under this one, in the same trace."""
        return TraceContext(self.trace_id, _new_id(), self.span_id)


def new_trace_context() -> TraceContext:
    # The root context reuses the trace id as its span id: the root is
    # never recorded as a span itself (children just parent under it),
    # so a second id would only buy a second id-generation on every
    # traced request.
    root = _new_id()
    return TraceContext(trace_id=root, span_id=root, parent_id=None)


def child_context(
    trace_id: str | None, parent_span_id: str | None
) -> TraceContext | None:
    """Context for work done *on behalf of* an incoming traced request.

    Returns ``None`` when the request carries no trace — the universal
    "tracing off" signal throughout the stack (every span-recording
    site is a no-op on a ``None`` context).
    """
    if not trace_id:
        return None
    return TraceContext(trace_id=trace_id, span_id=_new_id(), parent_id=parent_span_id)


class Span:
    """One timed operation inside a trace.

    ``start_s`` is wall-clock (``time.time``) so spans from different
    processes order sensibly in one tree.  Like :class:`TraceContext`
    this is a ``__slots__`` class, not a dataclass: one is built per
    recorded span on the hot path.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start_s",
        "duration_s",
        "tags",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        name: str,
        start_s: float,
        duration_s: float,
        tags: dict | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_s = start_s
        self.duration_s = duration_s
        self.tags = {} if tags is None else tags

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return all(
            getattr(self, slot) == getattr(other, slot) for slot in self.__slots__
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{s}={getattr(self, s)!r}" for s in self.__slots__)
        return f"Span({fields})"

    def to_dict(self) -> dict:
        out = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
        }
        if self.tags:
            out["tags"] = self.tags
        return out

    @staticmethod
    def from_dict(obj: dict) -> "Span":
        return Span(
            trace_id=obj["trace_id"],
            span_id=obj["span_id"],
            parent_id=obj.get("parent_id"),
            name=obj["name"],
            start_s=obj["start_s"],
            duration_s=obj["duration_s"],
            tags=obj.get("tags", {}),
        )


# A "leaf entry" is the deferred form of a span that nothing else will
# ever reference: (trace_id, parent_id, name, start_s, duration_s,
# tags-or-None).  Recording one costs a tuple and a deque append — the
# Span object and its fresh span id are only materialised when the
# buffer is read, off the request hot path.  Only spans whose id is
# never a parent (the per-stage leaves) may use this form; spans other
# spans parent under (``record_raw`` sites) carry their ctx-assigned
# id eagerly.
def leaf_entry(
    ctx: TraceContext,
    name: str,
    start_s: float,
    duration_s: float,
    tags: dict | None = None,
) -> tuple:
    """A deferred child-of-``ctx`` span for :meth:`TraceBuffer.extend`.
    Takes ownership of ``tags``."""
    return (ctx.trace_id, ctx.span_id, name, start_s, duration_s, tags)


def _materialize(entry) -> Span:
    if type(entry) is tuple:
        return Span(entry[0], _new_id(), entry[1], entry[2], entry[3], entry[4], entry[5])
    return entry


class TraceBuffer:
    """Bounded ring of finished spans, shared across threads.

    ``append`` never blocks and never grows past ``maxlen`` — the
    oldest spans fall off and ``dropped`` counts them, so a busy
    server pays O(1) per span and bounded memory total.  Entries may
    be :class:`Span` objects or deferred :func:`leaf_entry` tuples;
    readers only ever see ``Span`` (tuples are materialised at drain).
    """

    def __init__(self, maxlen: int = 4096) -> None:
        self._lock = threading.Lock()
        self._spans: deque = deque(maxlen=maxlen)
        self._appended = 0
        self._drained = 0
        self.maxlen = maxlen

    def append(self, entry) -> None:
        with self._lock:
            self._appended += 1
            self._spans.append(entry)

    def extend(self, entries: list) -> None:
        """Append a request's worth of entries in one call — the hot
        path pays one lock acquisition per request, not per span."""
        with self._lock:
            self._appended += len(entries)
            self._spans.extend(entries)

    @property
    def dropped(self) -> int:
        """Spans the ring has silently lost to overflow: everything
        appended that was neither drained out nor is still buffered."""
        with self._lock:
            return max(0, self._appended - self._drained - len(self._spans))

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def drain(self, trace_id: str | None = None) -> list[Span]:
        """Remove and return buffered spans.

        With ``trace_id``, only that trace's spans are removed — other
        traces stay buffered for their own drains.
        """
        with self._lock:
            spans = [_materialize(e) for e in self._spans]
            self._spans.clear()
            if trace_id is None:
                out = spans
            else:
                out = [s for s in spans if s.trace_id == trace_id]
                self._spans.extend(s for s in spans if s.trace_id != trace_id)
            self._drained += len(out)
            return out


class Tracer:
    """Record spans against a buffer: a request's deferred leaves in one
    call, and the spans other spans parent under as themselves."""

    def __init__(self, buffer: TraceBuffer | None = None) -> None:
        self.buffer = buffer if buffer is not None else TraceBuffer()

    def extend(self, entries: list) -> None:
        """Buffer a batch of :func:`leaf_entry` tuples / :class:`Span`
        objects in one call (the per-request hot path)."""
        if entries:
            self.buffer.extend(entries)

    def record_raw(
        self,
        ctx: TraceContext,
        name: str,
        start_wall: float,
        duration_s: float,
        tags: dict,
    ) -> None:
        """Record a span *as* ``ctx`` (not under it).  Takes ownership
        of ``tags``: pass a dict the caller will not mutate again."""
        self.buffer.append(
            Span(
                ctx.trace_id,
                ctx.span_id,
                ctx.parent_id,
                name,
                start_wall,
                duration_s,
                tags,
            )
        )


def span_tree(spans: list[Span]) -> dict[str | None, list[Span]]:
    """Index spans by parent_id for tree walks in tests and CLI output."""
    by_parent: dict[str | None, list[Span]] = {}
    for span in sorted(spans, key=lambda s: s.start_s):
        by_parent.setdefault(span.parent_id, []).append(span)
    return by_parent
