"""The asyncio JSON-lines alignment server.

Request flow for ``score``/``align``::

    line → parse (JobSpec) → resolve against the engine defaults
         → result cache (LRU, keyed on JobSpec.cache_key)
         → hit:  answer immediately (cached: true)
         → twin: its job, under the same key, is queued or computing
                 → MicroBatcher.submit shares it, free of admission
         → miss: admission → MicroBatcher.submit → batch on the engine
                 → the batcher caches the wire-form result → answer

Everything runs on one event loop; each connection reads lines and
spawns one task per request, so a single pipelined connection still
fills batches.  Responses go through the connection's
:class:`~fragalign.service.protocol.Outbox`: every response finished
in one loop iteration leaves in a single ``transport.write`` (they can
complete out of order — the protocol's ``id`` field exists for exactly
that).  No responder waits on the socket: only when a flush leaves
bytes buffered does the outbox wait on ``drain()``, once per
connection and bounded by :data:`DRAIN_TIMEOUT`; a client that stays
wedged past it is aborted.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import os
import sys
import time
from dataclasses import replace

from fragalign.align.scoring_matrices import SubstitutionModel
from fragalign.engine.facade import AlignmentEngine
from fragalign.job import KNOBS
from fragalign.obs.journal import JournalWriter, build_record
from fragalign.obs.kprof import KernelProfiler
from fragalign.obs.logs import get_logger
from fragalign.obs.metrics import MetricsRegistry, parse_exposition
from fragalign.obs.sampling import TailSampler
from fragalign.obs.slo import SLOEngine
from fragalign.obs.trace import (
    Span,
    Tracer,
    child_context,
    leaf_entry,
    new_trace_context,
)
from fragalign.service.batcher import MicroBatcher
from fragalign.service.config import DEGRADE_POLICIES, ServiceConfig
from fragalign.service.protocol import (
    MAX_LINE,
    Outbox,
    checked_id,
    decode_line,
    encode_line,
    error_response,
    ok_response,
    parse_request,
)
from fragalign.service.stats import ServiceStats
from fragalign.resilience.admission import AdmissionController, estimate_cost
from fragalign.resilience.deadline import deadline_from_budget_ms, expired
from fragalign.util.errors import DeadlineExceeded, InvalidArgument, Overloaded
from fragalign.util.lru import LRUCache

__all__ = [
    "AlignmentService",
    "model_fingerprint",
    "run_server",
    "write_port_file",
    "wait_for_port_file",
]

_log = get_logger("service")

#: Seconds a connection's pending responses may wait on a client that
#: stopped reading before the connection is aborted.
DRAIN_TIMEOUT = 30.0


def write_port_file(path: str, port: int) -> None:
    """Atomically publish the bound port: write a sibling tmp file,
    then ``os.replace`` it into place.

    Readers polling the path can therefore never observe a half-written
    file — they either see nothing (keep polling) or the complete port
    line.  This is what lets ``ClusterSupervisor`` and CI scripts spin
    on the file without a startup race.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(f"{port}\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def wait_for_port_file(
    path: str,
    timeout: float = 30.0,
    poll: float = 0.05,
    alive=None,
) -> int:
    """Poll ``path`` until a port appears (written by
    :func:`write_port_file`); return it as an int.

    ``alive`` is an optional zero-argument callable checked each poll
    (e.g. ``process.poll() is None``): when it goes false the wait
    aborts immediately instead of burning the whole timeout on a
    server that already died.

    The timeout is a **hard bound**: a non-positive or non-finite value
    is rejected outright, so no boot path can ever turn this poll into
    an unbounded wait (the supervisor's auto-heal loop depends on every
    respawn attempt terminating).
    """
    if not (isinstance(timeout, (int, float)) and math.isfinite(timeout) and timeout > 0):
        raise ValueError(f"timeout must be a positive finite number, got {timeout!r}")
    if not (isinstance(poll, (int, float)) and math.isfinite(poll) and poll > 0):
        raise ValueError(f"poll must be a positive finite number, got {poll!r}")
    deadline = time.monotonic() + timeout
    while True:
        try:
            with open(path) as fh:
                text = fh.read().strip()
            if text:
                return int(text)
        except (FileNotFoundError, ValueError):
            pass
        if alive is not None and not alive():
            raise RuntimeError(f"server exited before publishing its port to {path}")
        if time.monotonic() >= deadline:
            raise TimeoutError(f"no port appeared in {path} within {timeout:.1f}s")
        time.sleep(poll)


def model_fingerprint(model: SubstitutionModel) -> str:
    """A short stable digest of a substitution model's parameters.

    Part of every result-cache key, so results computed under one
    model can never satisfy a lookup under another.
    """
    digest = hashlib.sha1()
    digest.update(model.matrix.tobytes())
    digest.update(repr(float(model.gap)).encode())
    return digest.hexdigest()[:12]


class AlignmentService:
    """One server: engine + micro-batcher + result cache + stats.

    Lifecycle::

        service = AlignmentService(ServiceConfig(port=0))
        await service.start()          # binds; service.port is real now
        await service.wait_closed()    # until a shutdown request/stop()
        service.close()                # release engine + worker thread
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        engine: AlignmentEngine | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.engine = engine or AlignmentEngine(
            **{name: getattr(self.config, name) for name in KNOBS}
        )
        # One registry backs the stats snapshot, the Prometheus
        # exposition, and the kernel profiler — they cannot disagree.
        self.registry = MetricsRegistry()
        self.stats = ServiceStats(registry=self.registry)
        self.tracer = Tracer()
        self.profiler = KernelProfiler(self.registry)
        self.engine.profiler = self.profiler
        self.cache = LRUCache(self.config.cache_size)
        self._model_fp = model_fingerprint(self.engine.model)
        self.batcher = MicroBatcher(
            self.engine,
            max_batch=self.config.max_batch,
            stats=self.stats,
            tracer=self.tracer,
            cache=self.cache,
            model_fp=self._model_fp,
        )
        if self.config.degrade not in DEGRADE_POLICIES:
            raise ValueError(
                f"degrade must be one of {DEGRADE_POLICIES}, got {self.config.degrade!r}"
            )
        self.admission = AdmissionController(
            max_cells=self.config.max_inflight_cells,
            max_jobs=self.config.max_inflight_jobs,
            degrade_watermark=self.config.degrade_watermark,
        )
        self.sampler = (
            TailSampler(head_rate=self.config.trace_sample, registry=self.registry)
            if self.config.trace_sample is not None
            else None
        )
        self.slo_engine = SLOEngine.from_specs(self.config.slo or None)
        self.journal = JournalWriter(self.config.journal) if self.config.journal else None
        self._degraded = False  # degrade state last applied (_apply_degrade)
        self._server: asyncio.AbstractServer | None = None
        self._stopped: asyncio.Event | None = None
        self._connections: set[Outbox] = set()
        self._handlers: set[asyncio.Task] = set()
        self.port: int | None = None  # actual bound port, set by start()

    # -- metrics exposition -------------------------------------------

    def render_metrics(self) -> str:
        """The Prometheus text exposition served by the ``metrics`` op.

        Pull-model values (cache counters, uptime, trace-buffer drops)
        are copied into gauges at render time; everything push-model
        (requests, latency histogram, kernel profile) is already live
        in the registry.
        """
        cache = self.cache.stats()
        gauge = self.registry.gauge
        gauge("fragalign_cache_hits", "Result-cache hits.").set(cache["hits"])
        gauge("fragalign_cache_misses", "Result-cache misses.").set(cache["misses"])
        gauge("fragalign_cache_evictions", "Result-cache evictions.").set(
            cache["evictions"]
        )
        gauge("fragalign_cache_entries", "Result-cache entries resident.").set(
            cache["size"]
        )
        gauge(
            "fragalign_trace_spans_dropped",
            "Spans evicted from the trace ring buffer.",
        ).set(self.tracer.buffer.dropped)
        gauge("fragalign_uptime_seconds", "Seconds since server start.").set(
            time.monotonic() - self.stats.started
        )
        if self.journal is not None:
            gauge(
                "fragalign_journal_records", "Journal records written since start."
            ).set(self.journal.written)
        self.stats.set_inflight_cells(self.admission.inflight_cells)
        if self.sampler is not None:
            # Retention tallies batch on the hot path; flush them into
            # the exposition counters now (same pull-model pattern as
            # the cache and trace-drop gauges above).
            self.sampler.publish()
        # Feed the SLO engine a fresh (good, total) snapshot and publish
        # the burn-rate gauges into the same exposition being rendered.
        self._sample_slo()
        self.slo_engine.export_gauges(self.registry)
        return self.registry.render()

    def _sample_slo(self) -> None:
        self.slo_engine.sample(parse_exposition(self.registry.render()))

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        return f"{self.config.host}:{self.port}"

    def stop(self) -> None:
        """Stop accepting and release waiters (idempotent)."""
        if self._server is not None:
            self._server.close()
        if self._stopped is not None:
            self._stopped.set()

    async def wait_closed(self) -> None:
        assert self._stopped is not None, "start() first"
        await self._stopped.wait()
        # io-timeout: batcher drain awaits local engine compute, not a peer
        await self.batcher.drain()
        # Drop any connection still open (an idle client would block
        # shutdown forever), then wait for every handler to finish —
        # nothing may outlive the event loop.
        await asyncio.sleep(0)
        for outbox in list(self._connections):
            outbox.close()
        while self._handlers:
            await asyncio.gather(*list(self._handlers), return_exceptions=True)
        if self._server is not None:
            # io-timeout: completes as soon as close() (already called) lands
            await self._server.wait_closed()

    def close(self) -> None:
        """Release the batcher worker thread and the engine's backend."""
        self.batcher.close()
        self.engine.close()
        if self.journal is not None:
            self.journal.close()

    # -- connection handling ------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.observe_connection(+1)
        outbox = Outbox(writer, DRAIN_TIMEOUT)
        self._connections.add(outbox)
        handler = asyncio.current_task()
        if handler is not None:
            self._handlers.add(handler)
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    # io-timeout: idle clients legitimately hold connections open; shutdown closes them
                    line = await reader.readline()
                except (ConnectionError, ValueError):
                    # ValueError: a line over MAX_LINE (readline re-raises
                    # LimitOverrunError as ValueError).  Drop the connection.
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                # Stamped when the line arrives, not when the wait for it
                # began: an idle kept-alive connection is no read time.
                arrived = time.perf_counter()
                task = asyncio.create_task(self._serve_line(line, outbox, arrived))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            self.stats.observe_connection(-1)
            self._connections.discard(outbox)
            if handler is not None:
                self._handlers.discard(handler)
            # Plain close (no wait_closed): the handler must not outlive
            # the loop, and the transport flushes what's buffered anyway.
            outbox.close()

    async def _serve_line(
        self, line: bytes, outbox: Outbox, arrived: float
    ) -> None:
        t0 = time.perf_counter()
        # "server.read": the line's wait from arrival until this task
        # starts on it, attributed to its trace once the line is parsed.
        read_s = t0 - arrived
        request_id = None
        request = None
        ctx = None
        tlog: list | None = None
        server_sampled = False  # trace exists only by the tail sampler's grace
        jrec: dict | None = None  # journal disposition, filled by _dispatch
        try:
            obj = decode_line(line)
            request_id = checked_id(obj)  # a refused id is answered as null
            request = parse_request(obj)
            # The server-side span for this request: parented under the
            # caller's span, children are the per-stage spans below.
            ctx = child_context(request.trace_id, request.span_id)
            if (
                ctx is None
                and self.sampler is not None
                and request.op in ("score", "align")
            ):
                # Tail sampling: trace every pair request in full and
                # decide retention when the outcome is known.  Only
                # server-initiated traces are the sampler's to drop —
                # a client that sent a trace_id gets its trace kept.
                ctx = new_trace_context()
                server_sampled = True
            # Traced requests accumulate deferred span entries in a
            # plain list and buffer them in ONE call at response-write
            # time — per-span Tracer calls were the dominant tracing
            # cost at full sampling.
            if ctx is not None:
                tlog = []
                if request.op in ("score", "align"):
                    tlog.append(
                        leaf_entry(ctx, "server.read", time.time() - read_s, read_s)
                    )
            if self.journal is not None and request.op in ("score", "align"):
                jrec = {}
            # The wire deadline is a *relative* budget; pin it to an
            # absolute monotonic instant the moment the request is
            # parsed — every later stage (admission, batcher) spends
            # from this one deadline.
            deadline = deadline_from_budget_ms(request.deadline_ms)
            response = await self._dispatch(request, ctx, tlog, deadline, jrec)
        except InvalidArgument as exc:  # malformed line, refused knobs
            self.stats.observe_error(op=request.op if request is not None else None)
            response = error_response(request_id, str(exc), code="INVALID_ARGUMENT")
        except DeadlineExceeded as exc:
            self.stats.observe_error(op=request.op if request is not None else None)
            response = error_response(request_id, str(exc), code="DEADLINE_EXCEEDED")
        except Overloaded as exc:
            self.stats.observe_error(op=request.op if request is not None else None)
            response = error_response(request_id, str(exc), code="OVERLOADED")
        except Exception as exc:  # engine/backend failure: report, keep serving
            self.stats.observe_error(op=request.op if request is not None else None)
            response = error_response(request_id, f"{type(exc).__name__}: {exc}")
        duration = time.perf_counter() - t0
        # Retention is decided *before* the latency observation so the
        # kept trace id lands as the exemplar on the very bucket this
        # request fills — "p99 spiked" points at an actual trace.
        retained = ctx is not None
        if server_sampled:
            retained = self.sampler.decide(
                request.op, duration, bool(response.get("ok"))
            ).retain
        exemplar = ctx.trace_id if retained else None
        self.stats.observe_latency(
            duration,
            op=request.op if request is not None else None,
            exemplar=exemplar,
        )
        if request is not None and jrec is not None:
            self.journal.write(
                build_record(
                    request.op, request.a, request.b, jrec.get("knobs", {}),
                    ok=bool(response.get("ok")),
                    code=response.get("code"),
                    cached=jrec.get("cached"),
                    disposition=jrec.get("disposition"),
                    degraded=jrec.get("degraded"),
                    duration_s=duration,
                    deadline_ms=request.deadline_ms,
                    include_sequences=self.config.journal_sequences,
                )
            )
        write_start = time.perf_counter()
        outbox.send(encode_line(response))
        if ctx is not None and tlog is not None and retained:
            # Buffered *before* the outbox flushes (a later loop
            # iteration), so a trace drain fired on response receipt
            # always sees the full tree.
            now = time.time()
            write_s = time.perf_counter() - write_start
            tlog.append(leaf_entry(ctx, "server.write", now - write_s, write_s))
            tlog.append(
                Span(
                    ctx.trace_id, ctx.span_id, ctx.parent_id,
                    "server.request", now - duration, duration,
                    {"op": request.op if request is not None else None,
                     "ok": bool(response.get("ok"))},
                )
            )
            self.tracer.extend(tlog)
        # Sampled out: nothing to undo.  Every span for this request —
        # including the batcher's, routed through the tlog sink — only
        # ever lived in the per-request list, so dropping the trace is
        # just not extending the buffer.
        if request is not None and request.op == "shutdown":
            # Only after the answer is on the wire: stop accepting and
            # release wait_closed() to wind the service down.
            outbox.flush()
            self.stop()

    async def _dispatch(
        self, request, ctx=None, tlog=None, deadline=None, jrec=None
    ) -> dict:
        self.stats.observe_request(request.op)
        if request.op == "ping":
            return ok_response(request.id, "pong")
        if request.op == "slo":
            # Snapshot-then-evaluate: the op both feeds the engine's
            # burn-rate history and reads it back.
            self._sample_slo()
            return ok_response(request.id, {"slos": self.slo_engine.evaluate()})
        if request.op == "stats":
            return ok_response(
                request.id,
                self.stats.snapshot(
                    cache_stats=self.cache.stats(),
                    # Every knob default, so a router resolves jobs
                    # the way this server would.
                    engine=self.engine.defaults.wire(),
                    admission=self.admission.snapshot(),
                ),
            )
        if request.op == "metrics":
            return ok_response(request.id, self.render_metrics())
        if request.op == "trace":
            # Drain buffered spans — all of them, or one trace's (the
            # request's own trace_id doubles as the filter).
            spans = self.tracer.buffer.drain(request.trace_id)
            return ok_response(
                request.id,
                {
                    "spans": [span.to_dict() for span in spans],
                    "dropped": self.tracer.buffer.dropped,
                },
            )
        if request.op == "shutdown":
            return ok_response(request.id, "bye")  # _serve_line stops after
        # score / align: the request's knobs with the server's defaults
        # filled in, refused here (before any batch) when unservable, so
        # a bad request can only ever fail itself.
        spec = self.engine.resolve(request.spec, request.op)
        spec.check_pair(request.a, request.b)
        # Already-expired work is rejected before it can touch the
        # cache or join a batch: the caller has given up, so any cycles
        # spent on it are stolen from live requests.
        if expired(deadline):
            self.stats.observe_deadline_exceeded()
            raise DeadlineExceeded("deadline expired before the request was scheduled")
        self.stats.observe_mode(spec.mode)
        key = spec.cache_key(request.op, request.a, request.b, self._model_fp)
        cache_start = time.perf_counter()
        result = self.cache.get(key)
        if tlog is not None:
            cache_s = time.perf_counter() - cache_start
            tlog.append(
                leaf_entry(
                    ctx, "server.cache", time.time() - cache_s, cache_s,
                    {"hit": result is not None},
                )
            )
        if jrec is not None:
            jrec["knobs"] = spec.wire()
        if result is not None:
            if jrec is not None:
                jrec["cached"] = True
                jrec["disposition"] = "cache_hit"
            return ok_response(request.id, result, cached=True)
        if key in self.batcher:
            # A twin is queued or computing: share its job, free of
            # admission and degrade.
            if jrec is not None:
                jrec["cached"] = False
                jrec["disposition"] = "coalesced"
            value = await self.batcher.submit(
                request.op, request.a, request.b, spec,
                deadline=deadline, trace=ctx, sink=tlog,
            )
            return ok_response(request.id, value, cached=False)
        # Cost-aware admission: only genuinely new compute is charged —
        # cache hits and coalesced twins above ride for free.
        cost = estimate_cost(request.op, request.a, request.b, spec)
        try:
            self.admission.try_admit(cost)
        except Overloaded:
            self.stats.observe_shed()
            raise
        self._apply_degrade()
        if (
            self.admission.degraded
            and self.config.degrade == "score"
            and request.op == "align"
        ):
            # Degraded mode: answer align with the (exact) score and no
            # pairs.  The flagged response is never cached: only the
            # score job it rides on is, under its own score key.
            try:
                value = await self.batcher.submit(
                    "score", request.a, request.b, replace(spec, memory=None),
                    deadline=deadline,
                )
            finally:
                self.admission.release(cost)
                self._apply_degrade()
            self.stats.observe_degraded_response()
            if jrec is not None:
                jrec["cached"] = False
                jrec["disposition"] = "degraded"
                jrec["degraded"] = True
            result = {
                "score": value, "pairs": [],
                "a_interval": [0, 0], "b_interval": [0, 0],
            }
            return ok_response(request.id, result, cached=False, degraded=True)
        try:
            # tlog is the span sink: batcher spans join the request's
            # deferred log instead of the shared buffer, so a
            # sampled-out trace costs zero buffer traffic.
            value = await self.batcher.submit(
                request.op, request.a, request.b, spec,
                deadline=deadline, trace=ctx, sink=tlog,
            )
        finally:
            self.admission.release(cost)
            self._apply_degrade()
        if jrec is not None:
            jrec["cached"] = False
            jrec["disposition"] = "computed"
        return ok_response(request.id, value, cached=False)

    def _apply_degrade(self) -> None:
        """Publish the degraded-mode gauge: the admission controller's
        degrade state under a configured policy, set only when it
        flips."""
        degraded = self.admission.degraded and self.config.degrade != "none"
        if degraded != self._degraded:
            self._degraded = degraded
            self.stats.set_degraded_mode(degraded)


def run_server(config: ServiceConfig, port_file: str | None = None) -> int:
    """Blocking entrypoint for ``fragalign serve``.

    Binds, announces the address on stdout (and optionally writes the
    bound port to ``port_file`` for scripted callers), then serves
    until a ``shutdown`` request or Ctrl-C.  Returns a process exit
    code; both stop paths are clean exits.
    """

    async def _main() -> None:
        service = AlignmentService(config)
        await service.start()
        print(f"fragalign.service listening on {service.address}", flush=True)
        _log.info(
            "server started",
            extra={
                "port": service.port,
                "backend": config.backend,
                "mode": config.mode,
                "max_batch": config.max_batch,
            },
        )
        if port_file:
            write_port_file(port_file, service.port)
        try:
            # io-timeout: the serve-forever wait — runs until shutdown/Ctrl-C
            await service.wait_closed()
        finally:
            service.close()
            snap = service.stats.snapshot(cache_stats=service.cache.stats())
            print(
                "fragalign.service stopped: "
                f"{snap['requests']['total']} requests, "
                f"{snap['batches']['dispatched']} batches, "
                f"cache hit rate {snap['cache']['hit_rate']:.2f}",
                flush=True,
            )
            _log.info(
                "server stopped",
                extra={
                    "requests": snap["requests"]["total"],
                    "errors": snap["requests"]["errors"],
                    "batches": snap["batches"]["dispatched"],
                    "cache_hit_rate": snap["cache"]["hit_rate"],
                },
            )

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        print("fragalign.service interrupted", file=sys.stderr)
    return 0
