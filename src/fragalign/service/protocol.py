"""The ``fragalign.service`` wire protocol: JSON lines over a stream.

Every request and response is one UTF-8 JSON object on one
``\\n``-terminated line.  Responses may arrive **out of order** (the
server answers cache hits immediately while batched misses are still
computing), so every request carries a client-chosen ``id`` that the
server echoes back.  An ``id`` must be a string, a finite number or
null: anything else (a NaN, an infinity, a list, an object, a
boolean) could not be echoed as JSON, so the request is refused with
``INVALID_ARGUMENT`` and the refusal carries ``"id": null``.

Requests::

    {"id": 1, "op": "score", "a": "ACGT", "b": "AGGT"}
    {"id": 2, "op": "align", "a": "ACGT", "b": "AGGT"}
    {"id": 3, "op": "score", "a": "ACGT", "b": "AGGT", "mode": "overlap"}
    {"id": 4, "op": "align", "a": "ACGT", "b": "AGGT", "mode": "banded", "band": 8}
    {"id": 5, "op": "score", "a": "ACGT", "b": "AGGT",
              "gap_open": -4, "gap_extend": -1}
    {"id": 6, "op": "align", "a": "ACGT", "b": "AGGT", "memory": "linear"}
    {"id": 7, "op": "stats"}     # service counters / latency / cache
    {"id": 8, "op": "ping"}
    {"id": 9, "op": "shutdown"}  # answered, then the server stops
    {"id": 10, "op": "metrics"}  # Prometheus text exposition (string)
    {"id": 11, "op": "trace", "trace_id": "..."}  # drain buffered spans
    {"id": 12, "op": "slo"}      # SLO burn-rate evaluation (fragalign.obs.slo)

``mode`` selects the alignment mode per request (``global``,
``local``, ``overlap`` or ``banded``); omitted, the server's
configured default applies.  ``band`` is the banded half-width —
required for ``mode="banded"`` unless the server was started with a
default band, and it must satisfy ``band >= abs(len(a) - len(b))``
(validated before the request joins a batch, so one bad request can
never poison a batch of good ones).

``gap_open``/``gap_extend`` switch the request to affine (Gotoh) gap
costs — both together, both non-positive; omitted, the server's
configured defaults apply (linear gaps unless the server was started
with affine defaults).  ``memory`` (align requests only) selects the
traceback strategy: ``"auto"``, ``"tensor"`` or ``"linear"`` — it
never changes the result (the linear walker returns byte-identical
alignments), so it is *not* part of the result-cache key, but
``memory="linear"`` with banded mode or affine gaps is rejected
before batching.

``backend`` (pair ops) selects the engine backend for the request
(``numpy``, ``native``, ``naive``); omitted, the server's configured
backend applies.  Backends are parity-tested to
return identical scores, so the field is *not* part of the
result-cache or routing keys — but it is part of the batch group key,
because one engine batch dispatches to one backend.  Unknown names are
rejected before the request joins a batch.

``trace_id``/``span_id`` are the **non-semantic** trace-context
fields (:mod:`fragalign.obs.trace`): any request may carry them, the
server records per-stage spans under the given trace with the
caller's ``span_id`` as parent, and the ``trace`` op drains the span
ring buffer (optionally filtered to one ``trace_id``).  They are
registered in :mod:`fragalign.job` with every participation flag off —
tracing can never split a batch or enter a cache/routing key.

``deadline_ms`` (pair ops) is the request's **remaining end-to-end
budget** in milliseconds — relative, gRPC-style, so it survives hops
without synchronized clocks.  The server converts it to an absolute
monotonic deadline on receipt, rejects already-expired work before it
joins a batch (error code ``DEADLINE_EXCEEDED``), and the batcher drops
a queued job once every waiter's deadline has passed.  Like
the trace fields it is registered with every participation flag off:
a deadline can never split a batch or enter a cache/routing key.

The knob fields of a pair request are parsed into one
:class:`~fragalign.job.JobSpec`, which validates them (finite,
non-positive gaps; known modes; a non-negative integer band).  Any
field that is neither ``id``/``op``/``a``/``b`` nor registered in
:mod:`fragalign.job` is refused by name — a misspelled knob is never
silently dropped.

Error responses may carry a machine-readable ``code``
(``INVALID_ARGUMENT`` for every request refused at parse or knob
resolution, ``DEADLINE_EXCEEDED``, ``OVERLOADED``); clients raise the
matching typed exception (:func:`service_error_from`) so retry policy
is an ``isinstance`` check against the :mod:`fragalign.util.errors`
taxonomy, never a string match.

Responses::

    {"id": 1, "ok": true, "result": 2.0, "cached": false}
    {"id": 2, "ok": true, "result": {"score": 2.0, "pairs": [[0, 0], ...],
                                     "a_interval": [0, 4], "b_interval": [0, 4]}}
    {"id": 9, "ok": false, "error": "unknown op 'frobnicate'"}

``cached`` is only present on ``score``/``align`` responses and says
whether the result came from the server's LRU result cache (which
keeps an align answer as its JSON text, :class:`EncodedJSON`).  Lines are
capped at :data:`MAX_LINE` bytes (both sides configure their stream
reader with it), which bounds sequence length to roughly half a
megabyte per request.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass
from typing import Any

from fragalign.align.pairwise import Alignment
from fragalign.job import FIELDS, PAIR_OPS, JobSpec
from fragalign.util.errors import (
    DeadlineExceeded,
    FragalignError,
    InvalidArgument,
    Overloaded,
)

__all__ = [
    "MAX_LINE",
    "OPS",
    "PAIR_OPS",
    "ProtocolError",
    "ServiceError",
    "DeadlineExceededError",
    "InvalidArgumentError",
    "OverloadedError",
    "service_error_from",
    "Outbox",
    "Request",
    "checked_id",
    "parse_request",
    "encode_line",
    "decode_line",
    "ok_response",
    "error_response",
    "alignment_to_dict",
    "alignment_from_dict",
    "alignment_json",
    "EncodedJSON",
]

MAX_LINE = 1 << 20  # 1 MiB per protocol line (reader buffer limit)

OPS = ("score", "align", "stats", "metrics", "trace", "slo", "ping", "shutdown")
# Every key a request object may carry: the structure plus the registry.
_ALLOWED = frozenset(("id", "op", "a", "b", *FIELDS))


class ProtocolError(InvalidArgument):
    """A malformed protocol line or request object (``INVALID_ARGUMENT``)."""


class ServiceError(FragalignError):
    """The server answered ``ok: false`` (raised client-side).

    ``code`` carries the machine-readable error code when the server
    sent one (``INVALID_ARGUMENT``, ``DEADLINE_EXCEEDED``,
    ``OVERLOADED``) — clients and the router branch on the *exception
    type*, never on the message text.
    """

    def __init__(self, message: str, code: str | None = None) -> None:
        super().__init__(message)
        self.code = code


class InvalidArgumentError(ServiceError, InvalidArgument):
    """Server-reported ``INVALID_ARGUMENT`` — the request itself was
    refused, so no replica would serve it: non-retryable."""


class DeadlineExceededError(ServiceError, DeadlineExceeded):
    """Server-reported ``DEADLINE_EXCEEDED`` — non-retryable."""


class OverloadedError(ServiceError, Overloaded):
    """Server-reported ``OVERLOADED`` shed — retryable on another replica."""


# Wire error code -> client-side exception class.  The typed classes
# multiply inherit from the fragalign.util.errors taxonomy so retry
# policy is an isinstance check against RetryableError/NonRetryableError.
ERROR_CODES: dict[str, type[ServiceError]] = {
    "INVALID_ARGUMENT": InvalidArgumentError,
    "DEADLINE_EXCEEDED": DeadlineExceededError,
    "OVERLOADED": OverloadedError,
}


def service_error_from(response: dict) -> ServiceError:
    """Typed client-side exception for an ``ok: false`` response."""
    message = response.get("error", "unknown service error")
    code = response.get("code")
    cls = ERROR_CODES.get(code, ServiceError) if isinstance(code, str) else ServiceError
    return cls(message, code=code if isinstance(code, str) else None)


@dataclass(frozen=True)
class Request:
    """One validated request: an op plus (for pair ops) the sequences
    and the :class:`~fragalign.job.JobSpec` of the knobs it set —
    unset knobs stay ``None`` for the server to fill from its
    defaults."""

    id: Any
    op: str
    a: str = ""
    b: str = ""
    spec: JobSpec | None = None
    trace_id: str | None = None  # non-semantic: tracing only annotates
    span_id: str | None = None  # caller's span — the server span's parent
    deadline_ms: float | None = None  # remaining budget (non-semantic)


_ENCODER = json.JSONEncoder(separators=(",", ":"))  # json.dumps's, built once


class EncodedJSON(str):
    """Compact JSON text, which :func:`encode_line` writes in place, unquoted."""

    __slots__ = ()


def encode_line(obj: dict) -> bytes:
    """Serialize one protocol object to a compact JSON line; an :class:`EncodedJSON`
    ``result`` is written in place, giving the line its decoded value would."""
    if type(obj.get("result")) is not EncodedJSON:
        return _ENCODER.encode(obj).encode() + b"\n"
    fields = ",".join(
        f"{_ENCODER.encode(k)}:{v if type(v) is EncodedJSON else _ENCODER.encode(v)}"
        for k, v in obj.items()
    )
    return f"{{{fields}}}\n".encode()


class Outbox:
    """One connection's write side: lines queued during one event-loop
    iteration leave together in a single ``transport.write``.

    :meth:`send` only appends; the first line of an iteration schedules
    :meth:`flush` with ``call_soon``, so a burst of responses (or
    pipelined requests) costs one ``send`` syscall, not one per line,
    and no sender ever waits.  Backpressure is the outbox's own job: a
    flush that leaves bytes buffered in the transport starts one
    :meth:`_watch` for the connection, which waits on ``drain()``
    bounded by ``drain_timeout`` and aborts a peer that stays wedged
    past it.
    """

    def __init__(self, writer: asyncio.StreamWriter, drain_timeout: float) -> None:
        self._writer = writer
        self._drain_timeout = drain_timeout
        self._transport = writer.transport
        self._loop = asyncio.get_running_loop()
        self._lines: list[bytes] = []
        self._draining: asyncio.Task | None = None  # the running _watch

    def send(self, line: bytes) -> None:
        """Queue ``line`` for this iteration's flush."""
        if not self._lines:
            self._loop.call_soon(self.flush)
        self._lines.append(line)

    def flush(self) -> None:
        """Write every queued line now (a closing transport drops them)."""
        if not self._lines:
            return
        data = b"".join(self._lines)
        self._lines.clear()
        if self._transport.is_closing():
            return
        self._transport.write(data)
        if self._draining is None and self._transport.get_write_buffer_size():
            self._draining = self._loop.create_task(self._watch())

    async def _watch(self) -> None:
        try:
            # Bounded: a peer that stops reading must not pin this
            # connection (and its buffered bytes) forever.
            await asyncio.wait_for(self._writer.drain(), timeout=self._drain_timeout)
        except asyncio.TimeoutError:
            self._transport.abort()  # wedged peer: drop the connection
        except (ConnectionError, OSError):
            pass  # already gone
        finally:
            self._draining = None

    def close(self) -> None:
        """Flush what is queued, then close the stream.  A running
        drain wait is left to finish: buffered bytes still reach a
        reading peer, and a wedged one is still aborted."""
        self.flush()
        self._writer.close()


def decode_line(line: bytes | str) -> dict:
    """Parse one protocol line; raise :class:`ProtocolError` if broken."""
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"invalid JSON line: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(f"protocol line must be a JSON object, got {type(obj).__name__}")
    return obj


def checked_id(obj: dict) -> str | int | float | None:
    """The request's ``id`` if it can be echoed as JSON: a string, a
    finite number or null.  Anything else raises :class:`ProtocolError`."""
    rid = obj.get("id")
    if (
        rid is None
        or type(rid) in (str, int)  # not bool: true/false are no ids
        or (type(rid) is float and math.isfinite(rid))
    ):
        return rid
    raise ProtocolError(f"id must be a string, a finite number or null, got {rid!r}")


def parse_request(obj: dict) -> Request:
    """Validate a decoded request object."""
    rid = checked_id(obj)
    op = obj.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {OPS})")
    if not _ALLOWED.issuperset(obj):
        unknown = sorted(obj.keys() - _ALLOWED)
        raise ProtocolError(f"unknown request field {unknown[0]!r}")
    # Trace context is accepted on *every* op: pair ops propagate it,
    # and the trace op uses trace_id as its drain filter.
    trace_id, span_id = obj.get("trace_id"), obj.get("span_id")
    if trace_id is not None and not isinstance(trace_id, str):
        raise ProtocolError(f"trace_id must be a string, got {trace_id!r}")
    if span_id is not None and not isinstance(span_id, str):
        raise ProtocolError(f"span_id must be a string, got {span_id!r}")
    if op not in PAIR_OPS:
        return Request(id=rid, op=op, trace_id=trace_id, span_id=span_id)
    a, b = obj.get("a"), obj.get("b")
    if not isinstance(a, str) or not isinstance(b, str):
        raise ProtocolError(f"op {op!r} needs string fields 'a' and 'b'")
    deadline_ms = obj.get("deadline_ms")
    if deadline_ms is not None:
        if (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
            or not math.isfinite(deadline_ms)
            or deadline_ms <= 0
        ):
            raise ProtocolError(
                f"deadline_ms must be a positive finite number, got {deadline_ms!r}"
            )
        deadline_ms = float(deadline_ms)
    try:
        spec = JobSpec.from_fields(obj, op)
    except InvalidArgument as exc:
        raise ProtocolError(str(exc)) from None
    return Request(rid, op, a, b, spec, trace_id, span_id, deadline_ms)


def ok_response(request_id: Any, result: Any, cached: bool | None = None,
                degraded: bool | None = None) -> dict:
    obj: dict = {"id": request_id, "ok": True, "result": result}
    if cached is not None:
        obj["cached"] = cached
    if degraded:
        obj["degraded"] = True
    return obj


def error_response(request_id: Any, message: str, code: str | None = None) -> dict:
    obj: dict = {"id": request_id, "ok": False, "error": message}
    if code is not None:
        obj["code"] = code
    return obj


def alignment_to_dict(aln: Alignment) -> dict:
    """JSON-able form of an :class:`Alignment` (plain ints/floats)."""
    return {
        "score": float(aln.score),
        "pairs": [[int(i), int(j)] for i, j in aln.pairs],
        "a_interval": [int(aln.a_interval[0]), int(aln.a_interval[1])],
        "b_interval": [int(aln.b_interval[0]), int(aln.b_interval[1])],
    }


def alignment_json(aln: Alignment) -> EncodedJSON:
    """:func:`alignment_to_dict`'s form as compact JSON text, as the server
    answers and caches align: a tenth of the memory its dict of lists holds."""
    return EncodedJSON(_ENCODER.encode(alignment_to_dict(aln)))


def alignment_from_dict(obj: dict) -> Alignment:
    """Rebuild an :class:`Alignment` from its wire form."""
    return Alignment(
        score=float(obj["score"]),
        pairs=tuple((int(i), int(j)) for i, j in obj["pairs"]),
        a_interval=(int(obj["a_interval"][0]), int(obj["a_interval"][1])),
        b_interval=(int(obj["b_interval"][0]), int(obj["b_interval"][1])),
    )
