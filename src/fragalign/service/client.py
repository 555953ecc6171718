"""Client library for the alignment service (async and sync).

:class:`AsyncAlignmentClient` speaks the JSON-lines protocol over one
connection and **pipelines**: many requests can be in flight at once,
and a reader task routes each response back to its awaiting caller by
``id``.  Firing requests concurrently from one client is exactly what
lets the server's micro-batcher fill batches; requests issued in one
loop iteration leave in one write (:class:`~fragalign.service.protocol.Outbox`).

:class:`AlignmentClient` is the blocking wrapper: it runs a private
event loop on a background thread and exposes plain methods, plus
``score_many``/``align_many`` batch helpers that fan out with a
concurrency bound.

The pair verbs take the job knobs of :mod:`fragalign.job` as keywords
(``client.score(a, b, mode="local")``) and send them as wire fields,
so the server is their one validator: a knob the op does not take, or
a misspelled one, is an
:class:`~fragalign.service.protocol.InvalidArgumentError` naming the
field.  :meth:`AsyncAlignmentClient.request` returns the raw response,
whose ``cached`` flag tells whether the server answered from its
result cache; ``score`` and ``align`` return just the result.
"""

from __future__ import annotations

import asyncio
import functools
import threading
from typing import Any, Sequence

from fragalign.align.pairwise import Alignment
from fragalign.obs.trace import TraceContext
from fragalign.service.protocol import (
    MAX_LINE,
    Outbox,
    alignment_from_dict,
    decode_line,
    encode_line,
    service_error_from,
)

__all__ = ["AsyncAlignmentClient", "AlignmentClient", "LoopThread"]


class LoopThread:
    """A private event loop on a daemon thread: the bridge a blocking
    facade runs its coroutines through."""

    def __init__(self, name: str) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever, name=name, daemon=True)
        self._thread.start()

    def call(self, coro):
        """Run ``coro`` on the loop; block until its result."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def close(self, last=None) -> None:
        """Run the coroutine ``last`` (if any), then stop the loop, join
        the thread (bounded) and close the loop, even if ``last`` raises."""
        try:
            if last is not None:
                self.call(last)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5)
            self._loop.close()


class AsyncAlignmentClient:
    """One pipelined connection to a running alignment service."""

    # Bound on a request-write drain: a server that stops reading for
    # this long is treated as a connection failure (the connection is
    # aborted, failing every pending request), not waited on.
    WRITE_TIMEOUT = 30.0

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        # Requests issued in one loop iteration share one write.
        self._outbox = Outbox(writer, self.WRITE_TIMEOUT)
        self._waiting: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._conn_error: Exception | None = None
        self.degraded_responses = 0  # answers flagged degraded by the server
        self._reader_task = asyncio.create_task(self._read_responses())

    @classmethod
    async def connect(
        cls, host: str = "127.0.0.1", port: int = 8765,
        connect_timeout: float = 10.0,
    ) -> "AsyncAlignmentClient":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port, limit=MAX_LINE),
            timeout=connect_timeout,
        )
        return cls(reader, writer)

    @property
    def closed(self) -> bool:
        """True once the connection is unusable (reader task finished:
        server closed the stream, or :meth:`close` ran)."""
        return self._reader_task.done()

    # -- response routing ---------------------------------------------

    async def _read_responses(self) -> None:
        error: Exception = ConnectionError("connection closed by server")
        try:
            while True:
                # io-timeout: response arrival is unbounded by design; per-request bounds live in the router
                line = await self._reader.readline()
                if not line:
                    break
                obj = decode_line(line)
                fut = self._waiting.pop(obj.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(obj)
        except Exception as exc:  # feed the failure to every waiter
            error = exc
        finally:
            # Runs even when the task is *cancelled* (close() racing
            # in-flight requests): every waiter must be released, or a
            # request sharing this client would hang forever.  The
            # stored error also makes requests issued after the close
            # fail fast instead of writing into a dead socket.
            self._conn_error = error
            for fut in self._waiting.values():
                if not fut.done():
                    fut.set_exception(error)
            self._waiting.clear()

    async def _request(self, op: str, **fields: Any) -> dict:
        if self._reader_task.done():
            # The connection is gone (server closed mid-stream, or we
            # closed): surface a clean error instead of writing into a
            # dead socket and awaiting a response nobody will route.
            raise self._conn_error or ConnectionError("client connection closed")
        rid = self._next_id
        self._next_id += 1
        payload = {k: v for k, v in fields.items() if v is not None}
        line = encode_line({"id": rid, "op": op, **payload})
        fut = asyncio.get_running_loop().create_future()
        self._waiting[rid] = fut
        self._outbox.send(line)
        try:
            response = await fut
        except BaseException:
            # Any exit — a lost connection, cancellation of a timed-out
            # or abandoned attempt — must clear the slot and observe the
            # future: a connection error set later on an unobserved
            # future would warn "exception was never retrieved" at GC.
            self._waiting.pop(rid, None)
            if fut.done() and not fut.cancelled():
                fut.exception()
            else:
                fut.cancel()
            raise
        if not response.get("ok"):
            raise service_error_from(response)
        if response.get("degraded"):
            self.degraded_responses += 1
        return response

    # -- operations ---------------------------------------------------
    # The pair verbs send their knob keywords as given (None = server
    # default) and the server validates them; see
    # fragalign.service.protocol for the wire fields.  `trace` is a
    # TraceContext whose trace_id/span_id ride along as non-semantic
    # fields — the server's span tree parents under it.

    async def request(
        self,
        op: str,
        a: str,
        b: str,
        *,
        trace: TraceContext | None = None,
        deadline_ms: float | None = None,
        **knobs: Any,
    ) -> dict:
        """One pair request; the raw response, whose ``cached`` flag
        tells whether the server answered from its cache."""
        if trace is not None:
            knobs["trace_id"], knobs["span_id"] = trace.trace_id, trace.span_id
        return await self._request(op, a=a, b=b, deadline_ms=deadline_ms, **knobs)

    async def score(self, a: str, b: str, **kwargs: Any) -> float:
        """One pair's score; ``kwargs`` as for :meth:`request`."""
        return float((await self.request("score", a, b, **kwargs))["result"])

    async def align(self, a: str, b: str, **kwargs: Any) -> Alignment:
        """One pair's alignment; ``kwargs`` as for :meth:`request`."""
        return alignment_from_dict((await self.request("align", a, b, **kwargs))["result"])

    async def stats(self) -> dict:
        return (await self._request("stats"))["result"]

    async def metrics(self) -> str:
        """The server's Prometheus text exposition (``metrics`` op)."""
        return (await self._request("metrics"))["result"]

    async def slo(self) -> dict:
        """The server's SLO burn-rate evaluation (``slo`` op)."""
        return (await self._request("slo"))["result"]

    async def trace_spans(self, trace_id: str | None = None) -> dict:
        """Drain the server's span ring buffer (``trace`` op).

        With ``trace_id``, only that trace's spans are drained (others
        stay buffered).  Returns ``{"spans": [...], "dropped": n}``.
        """
        return (await self._request("trace", trace_id=trace_id))["result"]

    async def ping(self) -> bool:
        return (await self._request("ping"))["result"] == "pong"

    async def shutdown(self) -> None:
        """Ask the server to stop (it answers, then winds down)."""
        await self._request("shutdown")

    # -- lifecycle ----------------------------------------------------

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()  # requests still queued have no waiter left
        # The close waiter is retrieved via a done-callback rather than
        # only by the await below: if this coroutine is cancelled (or
        # times out) before a broken peer's flush error lands on the
        # waiter, the un-retrieved exception would warn at GC.
        waiter = asyncio.ensure_future(self._writer.wait_closed())
        waiter.add_done_callback(
            lambda t: None if t.cancelled() else t.exception()
        )
        try:
            # Bounded: closing must never hang on a wedged peer.
            await asyncio.wait_for(asyncio.shield(waiter), timeout=5.0)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass

    async def __aenter__(self) -> "AsyncAlignmentClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()


def _blocking(method):
    """``method`` of :class:`AsyncAlignmentClient` as a blocking
    :class:`AlignmentClient` method with the same signature, run on the
    client's loop under its reconnect policy."""

    @functools.wraps(method)
    def call(self, *args, **kwargs):
        return self._with_retry(lambda: method(self._client, *args, **kwargs))

    return call


class AlignmentClient:
    """Blocking facade over :class:`AsyncAlignmentClient`.

    Runs its own event loop on a daemon thread, so it works from plain
    synchronous code (scripts, the CLI) while still pipelining batch
    calls::

        with AlignmentClient(port=8765) as client:
            s = client.score("ACGT", "AGGT")
            scores = client.score_many(pairs, concurrency=64)

    ``reconnect=True`` opts into transparent recovery from connection
    loss: an operation that fails with a connection-level error
    reconnects (capped exponential backoff, ``reconnect_attempts``
    tries) and retries.  The default stays **fail-fast** — a dead
    connection raises a clean :class:`ConnectionError` — so failover
    logic layered on top (the cluster router, the failover drills)
    keeps seeing failures immediately.  Retried batch operations are
    replayed whole; the server's result cache and in-flight dedup make
    the replayed prefix cheap.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        reconnect: bool = False,
        reconnect_attempts: int = 5,
        reconnect_base_delay: float = 0.05,
        reconnect_max_delay: float = 2.0,
    ) -> None:
        self._host = host
        self._port = port
        self._reconnect = reconnect
        self._reconnect_attempts = reconnect_attempts
        self._reconnect_base_delay = reconnect_base_delay
        self._reconnect_max_delay = reconnect_max_delay
        self.reconnects = 0  # successful transparent reconnections
        self._bridge = LoopThread("fragalign-client")
        try:
            self._client: AsyncAlignmentClient = self._bridge.call(
                AsyncAlignmentClient.connect(host, port)
            )
        except BaseException:
            # Connect failed: release the loop thread before re-raising.
            self._bridge.close()
            raise

    @property
    def degraded_responses(self) -> int:
        """Answers the server flagged degraded (resets on reconnect)."""
        return self._client.degraded_responses

    def _with_retry(self, make_coro):
        """Run ``make_coro()`` on the loop; on connection loss, either
        fail fast (default) or reconnect with capped exponential
        backoff and retry the whole operation."""
        import time

        attempts = 0
        delay = self._reconnect_base_delay
        while True:
            try:
                return self._bridge.call(make_coro())
            except (ConnectionError, OSError):
                if not self._reconnect or attempts >= self._reconnect_attempts:
                    raise
                attempts += 1
                time.sleep(delay)
                delay = min(delay * 2, self._reconnect_max_delay)
                try:
                    fresh = self._bridge.call(
                        AsyncAlignmentClient.connect(self._host, self._port)
                    )
                except (ConnectionError, OSError):
                    continue  # server still down; next attempt backs off more
                old, self._client = self._client, fresh
                self.reconnects += 1
                try:
                    self._bridge.call(old.close())
                except Exception:
                    pass

    # -- operations ---------------------------------------------------
    # Every async verb, blocking, with the async method's signature.

    request = _blocking(AsyncAlignmentClient.request)
    score = _blocking(AsyncAlignmentClient.score)
    align = _blocking(AsyncAlignmentClient.align)
    stats = _blocking(AsyncAlignmentClient.stats)
    metrics = _blocking(AsyncAlignmentClient.metrics)
    slo = _blocking(AsyncAlignmentClient.slo)
    trace_spans = _blocking(AsyncAlignmentClient.trace_spans)
    ping = _blocking(AsyncAlignmentClient.ping)
    shutdown = _blocking(AsyncAlignmentClient.shutdown)

    def _map(
        self,
        op_name: str,
        pairs: Sequence[tuple[str, str]],
        concurrency: int,
        trace_ctxs: Sequence[TraceContext] | None = None,
        **kwargs,
    ):
        async def fan_out():
            semaphore = asyncio.Semaphore(max(1, concurrency))
            op = getattr(self._client, op_name)

            async def one(k, pair):
                async with semaphore:
                    ctx = trace_ctxs[k] if trace_ctxs is not None else None
                    return await op(*pair, trace=ctx, **kwargs)

            return await asyncio.gather(*(one(k, p) for k, p in enumerate(pairs)))

        return self._with_retry(fan_out)

    def score_many(
        self,
        pairs: Sequence[tuple[str, str]],
        concurrency: int = 32,
        *,
        trace_ctxs: Sequence[TraceContext] | None = None,
        **kwargs: Any,
    ) -> list[float]:
        """Scores for all pairs, pipelined ``concurrency`` at a time.

        ``trace_ctxs`` (optional, one per pair) sends each request
        under its own trace context; ``deadline_ms`` and the knobs
        apply to every request, as for :meth:`request`.
        """
        return self._map("score", pairs, concurrency, trace_ctxs, **kwargs)

    def align_many(
        self,
        pairs: Sequence[tuple[str, str]],
        concurrency: int = 32,
        *,
        trace_ctxs: Sequence[TraceContext] | None = None,
        **kwargs: Any,
    ) -> list[Alignment]:
        """Alignments for all pairs, pipelined ``concurrency`` at a time
        (keywords as for :meth:`score_many`)."""
        return self._map("align", pairs, concurrency, trace_ctxs, **kwargs)

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        self._bridge.close(self._client.close())

    def __enter__(self) -> "AlignmentClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
