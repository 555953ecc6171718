"""The shard router: fan out batches over N service instances.

:class:`ShardRouter` fronts N running :mod:`fragalign.service`
servers.  Each request's knobs — the pair verbs' keywords, as on the
engine, or a ``request_many`` entry's fields — become one
:class:`~fragalign.job.JobSpec` (validated here, so a refused request
never leaves the router), keyed by
:meth:`~fragalign.job.JobSpec.ring_key` from the same fields as the
service result cache, hashed onto the consistent ring, and sent to the
owning shard over that shard's pipelined
:class:`~fragalign.service.client.AsyncAlignmentClient`.  Batch calls
(``score_many``/``align_many``) fire every request concurrently — the
per-shard groups each fill that shard's micro-batcher — and merge the
answers back **in request order**.

Failover: a connection-level failure (refused, reset, mid-stream
close, probe timeout) evicts the shard from the ring and retries the
request on the next distinct shard in ring order, up to
``max_attempts`` shards.  Server-side *answers* that are errors are
split by the :mod:`fragalign.util.errors` taxonomy: a **retryable**
answer (an ``OVERLOADED`` shed — the shard is healthy, just loaded)
retries on the next replica *without* evicting anything, while a
non-retryable answer (a band too narrow, an expired deadline) is
raised as-is — every replica would reject the same request the same
way.  Readmission is the health monitor's job
(:mod:`fragalign.cluster.health`) — except for breaker-tripped shards
(below), which readmit themselves.

Each shard additionally sits behind a :class:`CircuitBreaker`
(:mod:`fragalign.resilience.breaker`): consecutive connection-level
failures or timeouts trip it open, an open breaker excludes the shard
from candidate selection (fast-fail, no connection attempt), and
after ``breaker_recovery`` seconds the half-open breaker readmits the
shard for exactly one trial request — success closes it, failure
re-opens it.

Deadlines: pass ``deadline_ms`` and the router pins an absolute
monotonic deadline on entry, clamps every per-attempt timeout to the
remaining budget, forwards the *remaining* budget (relative,
gRPC-style) to the shard on each attempt, and gives up with
:class:`~fragalign.util.errors.DeadlineExceeded` instead of starting
a retry the budget can no longer cover.

Hedging (off by default): with ``hedge_delay`` set, a ``score``
request whose first attempt is still unanswered after that many
seconds fires a second copy at the next replica and takes whichever
answers first — scores are idempotent and cheap, so the duplicate
only costs one batch slot.  ``hedge_max_fraction`` caps hedges as a
fraction of routed requests so a slow cluster can't double its own
load.

The blocking :class:`ClusterClient` wrapper runs the router (plus an
optional health monitor) on a private event-loop thread
(:class:`~fragalign.service.client.LoopThread`), like
:class:`~fragalign.service.client.AlignmentClient`.

The operator-side calls (stats, metrics scrapes, trace collection,
shutdown) each run one op on every configured shard over a fresh,
bounded connection (:meth:`ShardRouter.probe_shard`), reporting an
unreachable shard instead of failing.
"""

from __future__ import annotations

import asyncio
import functools
import time
from collections import Counter
from typing import Any, Sequence

from fragalign.align.pairwise import Alignment
from fragalign.cluster.ring import HashRing
from fragalign.job import JobSpec, pair_job
from fragalign.obs.logs import get_logger
from fragalign.obs.metrics import MetricsRegistry, merge_expositions, parse_exposition
from fragalign.obs.slo import SLOEngine
from fragalign.obs.trace import TraceContext, Tracer
from fragalign.resilience.breaker import CLOSED, HALF_OPEN, STATE_CODES, CircuitBreaker
from fragalign.resilience.deadline import deadline_from_budget_ms, remaining_ms
from fragalign.service.client import AsyncAlignmentClient, LoopThread
from fragalign.service.protocol import ServiceError, alignment_from_dict
from fragalign.util.errors import (
    CircuitOpen,
    DeadlineExceeded,
    FragalignError,
    RetryableError,
)

__all__ = ["ClusterError", "ShardRouter", "ClusterClient"]

_MISS = object()  # sentinel: no attempt has produced a value yet

# Failures that mean "this shard, not this request": worth a retry on
# the next replica.  ServiceError is deliberately absent.
_SHARD_FAILURES = (ConnectionError, OSError, EOFError, asyncio.TimeoutError)

_log = get_logger("cluster")

_perf = time.perf_counter
_wall = time.time


class ClusterError(FragalignError):
    """No shard could serve a request (ring empty / all replicas failed)."""


class ShardRouter:
    """Health-aware consistent-hash router over N service shards.

    One shard is a valid cluster: the CLI drives a lone server through
    a one-shard router, so every verb has one code path.  The pair
    verbs (``score``, ``align``, ``score_many``, ``align_many`` and
    ``shard_for``) take the job knobs as keywords, as the engine's do:
    :meth:`JobSpec.of <fragalign.job.JobSpec.of>` refuses a misspelled
    one (``TypeError``) and ``memory`` on a score verb
    (:class:`~fragalign.util.errors.InvalidArgument`) before anything
    is sent; ``trace`` and ``deadline_ms`` are keyword-only.  A router
    has no fleet defaults of its own — a request's unset knobs route
    as the registry defaults (:data:`~fragalign.job.DEFAULTS`), so
    callers that want each routing key to equal the owning shard's
    cache key resolve their jobs first, e.g. against the ``engine``
    block of a shard's ``stats`` answer (``fragalign client`` does).

    Parameters
    ----------
    addresses:
        ``(host, port)`` per shard.  The shard's ring name is
        ``"host:port"``; each shard gets :class:`HashRing`'s default
        number of virtual nodes.
    max_attempts:
        Maximum number of *distinct* shards tried per request.
    request_timeout:
        Optional per-attempt budget in seconds, covering connection
        establishment *and* the round trip; a timeout counts as a
        shard failure and triggers failover.
    connect_timeout:
        Budget for opening a new shard connection even when
        ``request_timeout`` is unset — a black-holing host (dropped
        SYNs) must fail over, not hang the router for the OS TCP
        timeout.
    breaker_threshold / breaker_recovery:
        Consecutive connection-level failures (or timeouts) that trip
        a shard's circuit open, and the cool-off in seconds before the
        half-open breaker readmits the shard for one trial request.
    hedge_delay:
        Seconds to wait on a first ``score`` attempt before firing a
        duplicate at the next replica (``None`` disables hedging).
    hedge_max_fraction:
        Cap on hedges as a fraction of routed requests.

    A retry under a deadline starts only while the budget left exceeds
    the fastest failed attempt of the same request.
    """

    def __init__(
        self,
        addresses: Sequence[tuple[str, int]],
        max_attempts: int = 2,
        request_timeout: float | None = None,
        connect_timeout: float = 5.0,
        breaker_threshold: int = 3,
        breaker_recovery: float = 5.0,
        hedge_delay: float | None = None,
        hedge_max_fraction: float = 0.1,
    ) -> None:
        if not addresses:
            raise ValueError("at least one shard address is required")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.addresses: dict[str, tuple[str, int]] = {
            f"{host}:{port}": (host, port) for host, port in addresses
        }
        self.ring = HashRing(self.addresses)
        self.max_attempts = max_attempts
        self.request_timeout = request_timeout
        self.connect_timeout = connect_timeout
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if breaker_recovery <= 0:
            raise ValueError("breaker_recovery must be > 0")
        if hedge_delay is not None and hedge_delay < 0:
            raise ValueError("hedge_delay must be >= 0")
        if not 0 < hedge_max_fraction <= 1:
            raise ValueError("hedge_max_fraction must be in (0, 1]")
        self.breaker_threshold = breaker_threshold
        self.breaker_recovery = breaker_recovery
        self.hedge_delay = hedge_delay
        self.hedge_max_fraction = hedge_max_fraction
        self._breakers: dict[str, CircuitBreaker] = {}
        self._clients: dict[str, AsyncAlignmentClient] = {}
        self._connecting: dict[str, asyncio.Lock] = {}
        self._closing: set[asyncio.Task] = set()  # strong refs to close tasks
        self._orphans: list[AsyncAlignmentClient] = []  # dropped without a loop
        # Router-side spans (fan-out, per-attempt, failover) land here;
        # collect_trace() merges them with the shards' buffers.
        self.tracer = Tracer()
        # Cluster-level SLO engine: fed from the merged shard scrape on
        # each cluster_slo() call (lazily built so the targets can come
        # from the first caller).
        self._slo_engine: SLOEngine | None = None
        self._slo_specs: tuple | None = None
        # -- router-level counters (the cluster's own stats surface) --
        self.routed: Counter[str] = Counter()  # completed requests per shard
        self.retries = 0  # extra attempts made (failover hops)
        self.failovers = 0  # requests that succeeded on a non-first shard
        self.evictions = 0  # ring removals (reactive + health-driven)
        self.readmissions = 0  # ring re-additions (health-driven)
        self.failed_requests = 0  # requests that exhausted every replica
        self.shed_retries = 0  # OVERLOADED answers retried elsewhere
        self.hedges = 0  # duplicate attempts fired
        self.hedge_wins = 0  # requests won by the hedged copy
        self.deadline_gaveups = 0  # retries abandoned for lack of budget
        self.breaker_fast_fails = 0  # requests refused with every circuit open

    # -- membership / keying ------------------------------------------

    @property
    def configured_shards(self) -> list[str]:
        """Every shard this router knows about, live or not."""
        return sorted(self.addresses)

    @property
    def live_shards(self) -> list[str]:
        return self.ring.nodes

    def shard_for(self, op: str, a: str, b: str, **knobs) -> str:
        """The shard currently owning one request (tests, warm reports)."""
        return self.ring.node_for(JobSpec.of(op, **knobs).ring_key(op, a, b))

    def mark_shard_down(self, shard: str) -> None:
        """Evict a shard from the ring (idempotent); its keys fall to
        their ring successors until readmission."""
        if shard in self.ring:
            self.ring.remove_node(shard)
            self.evictions += 1
            _log.warning(
                "shard evicted",
                extra={"shard": shard, "live_shards": len(self.ring.nodes)},
            )
        self._drop_client(shard)

    def mark_shard_up(self, shard: str) -> None:
        """Readmit a configured shard (idempotent)."""
        if shard in self.addresses and shard not in self.ring:
            self.ring.add_node(shard)
            self.readmissions += 1
            _log.info(
                "shard readmitted",
                extra={"shard": shard, "live_shards": len(self.ring.nodes)},
            )

    # -- circuit breakers ---------------------------------------------

    def _breaker(self, shard: str) -> CircuitBreaker:
        breaker = self._breakers.get(shard)
        if breaker is None:
            breaker = self._breakers[shard] = CircuitBreaker(
                failure_threshold=self.breaker_threshold,
                recovery_time=self.breaker_recovery,
            )
        return breaker

    def _breaker_readmit(self) -> None:
        """Readmit evicted shards whose breaker has cooled into
        half-open; the next request routed there is the trial.  Only
        breaker-tripped shards come back this way — a shard evicted
        while its breaker stayed closed (a one-off hard death) is the
        health monitor's to readmit, so breaker recovery can never
        flip-flop a shard the monitor keeps finding dead."""
        for shard, breaker in self._breakers.items():
            if breaker.state == HALF_OPEN and shard not in self.ring:
                self.mark_shard_up(shard)

    def _drop_client(self, shard: str) -> None:
        client = self._clients.pop(shard, None)
        if client is None:
            return
        try:
            task = asyncio.get_running_loop().create_task(client.close())
            # The loop keeps only a weak reference to tasks: hold one
            # until the close completes or it could be GC'd mid-await.
            self._closing.add(task)
            task.add_done_callback(self._closing.discard)
        except RuntimeError:
            # No running loop (sync teardown): park the client so
            # close() can release its socket later.
            self._orphans.append(client)

    # -- connections --------------------------------------------------

    async def _client(self, shard: str) -> AsyncAlignmentClient:
        client = self._clients.get(shard)
        if client is not None and not client.closed:
            return client
        lock = self._connecting.setdefault(shard, asyncio.Lock())
        async with lock:
            client = self._clients.get(shard)
            if client is not None and not client.closed:
                return client
            host, port = self.addresses[shard]
            client = await asyncio.wait_for(
                AsyncAlignmentClient.connect(host, port),
                timeout=self.connect_timeout,
            )
            self._clients[shard] = client
            return client

    async def probe_shard(self, shard: str, op: str = "stats", *args) -> Any:
        """One ``op`` (an :class:`AsyncAlignmentClient` method: the
        health probe's ``stats``, or ``metrics``, ``trace_spans``,
        ``shutdown``) on one shard over a fresh connection, closed
        after.  Raises on any failure.  The whole round trip is bounded
        by ``connect_timeout`` — a wedged shard whose listen socket
        still accepts must fail, not hang the caller."""
        host, port = self.addresses[shard]

        async def call() -> Any:
            client = await AsyncAlignmentClient.connect(host, port)
            try:
                return await getattr(client, op)(*args)
            finally:
                await client.close()

        return await asyncio.wait_for(call(), timeout=self.connect_timeout)

    async def _each_shard(self, op: str, *args) -> tuple[dict, dict]:
        """:meth:`probe_shard` on every configured shard (evicted ones
        included) at once: ``({shard: value}, {shard: error})``.  An
        unreachable shard is reported, not raised, so a degraded
        cluster still answers."""
        values: dict[str, Any] = {}
        errors: dict[str, str] = {}

        async def one(shard: str) -> None:
            try:
                values[shard] = await self.probe_shard(shard, op, *args)
            except Exception as exc:
                errors[shard] = f"{type(exc).__name__}: {exc}"

        await asyncio.gather(*(one(s) for s in self.configured_shards))
        return values, errors

    # -- request path -------------------------------------------------

    async def _exchange(self, shard: str, request, ctx) -> dict:
        return await request(await self._client(shard), ctx)

    async def _attempt(
        self, shard: str, request, ctx, timeout: float | None
    ) -> tuple[dict | None, Exception | None]:
        """One copy of one attempt: ``(response, None)`` when the shard
        answered ok, ``(None, exc)`` when it failed.  Awaited inline, or
        as a task when a hedge may race it.  A cancelled copy reports an
        abandon to the shard's breaker — it may hold the half-open trial
        slot, which must never leak."""
        exchange = self._exchange(shard, request, ctx)
        if timeout is not None:
            # The budget covers connect + round trip: a black-holing
            # shard times out here and fails over like any other death.
            exchange = asyncio.wait_for(exchange, timeout=timeout)
        try:
            return await exchange, None
        except asyncio.CancelledError:
            self._breaker(shard).record_abandon()
            raise
        except Exception as exc:
            return None, exc

    async def _abandon(self, copies: dict) -> None:
        """Cancel attempt copies we no longer care about and reap them,
        so a losing hedge can never log "exception was never
        retrieved".  Its orphaned wire response (if one arrives) is
        dropped by the client's done-future check.  Each abandoned
        shard's breaker gets the cancellation reported: a cancelled
        request is neither success nor failure, but it may have been
        holding the half-open trial slot."""
        for copy, (t_shard, _ctx, _start) in copies.items():
            copy.cancel()
            self._breaker(t_shard).record_abandon()
        if copies:
            await asyncio.gather(*copies, return_exceptions=True)

    async def _wait(self, copies: dict, **kwargs) -> tuple[set, set]:
        """``asyncio.wait`` over racing attempt copies.  A caller that
        gives up meanwhile abandons them: no copy may keep a trial slot."""
        try:
            return await asyncio.wait(copies, **kwargs)
        except asyncio.CancelledError:
            await self._abandon(copies)
            raise

    def _hedge_allowed(self) -> bool:
        total = sum(self.routed.values()) + 1
        return self.hedges < max(1.0, self.hedge_max_fraction * total)

    async def _route(
        self, op: str, a: str, b: str, spec: JobSpec,
        deadline_ms: float | None = None, trace: TraceContext | None = None,
    ) -> dict:
        """Send one request to its owning shard, failing over along
        the ring; returns the winning shard's response.  Each attempt
        carries its own trace context (the shard parents under it) and
        the deadline budget still remaining when it launches."""
        key = spec.ring_key(op, a, b)
        wire = spec.wire()
        budget_ms: float | None = None  # re-read per attempt, as it launches

        def request(client: AsyncAlignmentClient, ctx):
            return client.request(op, a, b, trace=ctx, deadline_ms=budget_ms, **wire)

        deadline = deadline_from_budget_ms(deadline_ms)
        self._breaker_readmit()
        # Fan-out span for the whole routing decision; each attempt is
        # a child, so a failover reads as sibling attempt spans.
        route_ctx = trace.child() if trace is not None else None
        route_start = _perf()
        tried: set[str] = set()
        last_error: Exception | None = None
        blocked = False  # last candidate scan hit only open circuits
        cheapest: float | None = None  # fastest failed attempt: retry floor
        for attempt in range(self.max_attempts):
            if deadline is not None:
                # A first attempt runs on any positive budget; a retry
                # must clear the floor — no point starting an attempt
                # the budget provably can't cover.
                if deadline - time.monotonic() <= (cheapest or 0.0):
                    self.deadline_gaveups += 1
                    if route_ctx is not None:
                        self._finish_route(route_ctx, route_start, op, tried, False)
                    raise DeadlineExceeded(
                        f"deadline budget exhausted routing {op} request after "
                        f"{len(tried)} attempt(s) (last error: {last_error})"
                    )
            # Recompute candidates each attempt: evictions (ours or a
            # concurrent request's) reshape the ring under us.
            try:
                candidates = self.ring.nodes_for(key, len(self.addresses))
            except LookupError:
                break  # ring empty: nothing left to try
            blocked, shard = False, None
            for s in candidates:
                if s in tried:
                    continue
                if self._breaker(s).allow():
                    shard = s
                    break
                blocked = True
            if shard is None:
                break
            tried.add(shard)
            if attempt > 0:
                self.retries += 1
                _log.warning(
                    "failover retry",
                    extra={"op": op, "shard": shard, "attempt": attempt + 1,
                           "tried": sorted(tried)},
                )
            budget_ms = remaining_ms(deadline) if deadline is not None else None
            timeout = self.request_timeout
            if deadline is not None:
                rem = deadline - time.monotonic()
                timeout = rem if timeout is None else min(timeout, rem)
            attempt_ctx = route_ctx.child() if route_ctx is not None else None
            # Every copy of this attempt — the primary, plus (maybe) a
            # hedge — as a future of its (response, exc) outcome.
            # Value: (shard, trace ctx, start).
            copies: dict[asyncio.Future, tuple[str, Any, float]] = {}
            primary = (shard, attempt_ctx, _perf())
            if self.hedge_delay is not None and op == "score" and attempt == 0:
                # Only an attempt a hedge may race pays for a task
                # and an asyncio.wait.
                task = asyncio.ensure_future(
                    self._attempt(shard, request, attempt_ctx, timeout)
                )
                copies[task] = primary
                done, _ = await self._wait(copies, timeout=self.hedge_delay)
                if not done and self._hedge_allowed():
                    hedge_shard = next(
                        (s for s in candidates
                         if s not in tried and self._breaker(s).allow()),
                        None,
                    )
                    if hedge_shard is not None:
                        tried.add(hedge_shard)
                        self.hedges += 1
                        hedge_ctx = route_ctx.child() if route_ctx is not None else None
                        hedge = asyncio.ensure_future(
                            self._attempt(hedge_shard, request, hedge_ctx, timeout)
                        )
                        copies[hedge] = (hedge_shard, hedge_ctx, _perf())
            else:
                # Awaited inline; the outcome rides in an already
                # completed future, so both paths share the outcome
                # handling below.
                outcome = asyncio.get_running_loop().create_future()
                outcome.set_result(
                    await self._attempt(shard, request, attempt_ctx, timeout)
                )
                copies[outcome] = primary
            value, winner = _MISS, None
            while copies and value is _MISS:
                done = {copy for copy in copies if copy.done()}
                if not done:
                    done, _ = await self._wait(
                        copies, return_when=asyncio.FIRST_COMPLETED
                    )
                for copy in done:
                    t_shard, t_ctx, t_start = copies.pop(copy)
                    response, exc = await copy  # done: never suspends
                    if exc is None:
                        # Success closes (or re-arms) the breaker even
                        # when another copy already won — a half-open
                        # trial must never leak its slot.
                        self._breaker(t_shard).record_success()
                        if value is _MISS:
                            value, winner = response, t_shard
                            if route_ctx is not None:
                                self._finish_attempt(
                                    t_ctx, t_start, t_shard, attempt, "ok"
                                )
                        continue
                    elapsed = _perf() - t_start
                    cheapest = elapsed if cheapest is None else min(cheapest, elapsed)
                    if isinstance(exc, ServiceError) and isinstance(exc, RetryableError):
                        # The shard answered with a shed: healthy but
                        # loaded.  Retry elsewhere — no eviction, and
                        # the breaker sees a *success* (the circuit
                        # tracks connectivity, not load; a half-open
                        # trial answered promptly is a passing trial).
                        self._breaker(t_shard).record_success()
                        self.shed_retries += 1
                        last_error = exc
                        if route_ctx is not None:
                            self._finish_attempt(
                                t_ctx, t_start, t_shard, attempt, "shed"
                            )
                        continue
                    if isinstance(exc, ServiceError):
                        # The shard answered: the request itself is bad
                        # and every replica would reject it the same way.
                        # Circuit-wise that's a healthy shard.
                        self._breaker(t_shard).record_success()
                        await self._abandon(copies)
                        if route_ctx is not None:
                            self._finish_attempt(
                                t_ctx, t_start, t_shard, attempt, "rejected"
                            )
                            self._finish_route(
                                route_ctx, route_start, op, tried, False
                            )
                        raise exc
                    if isinstance(exc, _SHARD_FAILURES):
                        last_error = exc
                        if route_ctx is not None:
                            self._finish_attempt(
                                t_ctx, t_start, t_shard, attempt,
                                f"failed: {type(exc).__name__}",
                            )
                        self._breaker(t_shard).record_failure()
                        self.mark_shard_down(t_shard)
                        continue
                    # Unknown failure: not evidence about the shard —
                    # release any trial slot and surface it unchanged.
                    self._breaker(t_shard).record_abandon()
                    await self._abandon(copies)
                    raise exc
            if value is _MISS:
                continue  # every copy of this attempt failed
            await self._abandon(copies)
            self.routed[winner] += 1
            if attempt > 0:
                self.failovers += 1
            if winner != shard:
                self.hedge_wins += 1
            if route_ctx is not None:
                self._finish_route(
                    route_ctx, route_start, op, tried,
                    attempt > 0 or winner != shard,
                )
            return value
        self.failed_requests += 1
        _log.error(
            "request failed on every replica",
            extra={"op": op, "tried": sorted(tried), "error": str(last_error)},
        )
        if route_ctx is not None:
            self._finish_route(route_ctx, route_start, op, tried, False)
        if isinstance(last_error, ServiceError) and isinstance(last_error, RetryableError):
            # Every replica we reached shed the request: surface the
            # typed OVERLOADED answer so callers can back off.
            raise last_error
        if blocked:
            self.breaker_fast_fails += 1
            raise CircuitOpen(
                f"every untried replica's circuit is open for {op} request "
                f"(tried {sorted(tried) or 'none'})"
            )
        raise ClusterError(
            f"no shard could serve {op} request "
            f"(tried {sorted(tried) or 'none'}): {last_error}"
        )

    def _finish_attempt(
        self, ctx: TraceContext, started: float, shard: str, attempt: int,
        outcome: str,
    ) -> None:
        self.tracer.record_raw(
            ctx, "router.attempt", _wall() - (_perf() - started),
            _perf() - started,
            {"shard": shard, "attempt": attempt + 1, "outcome": outcome},
        )

    def _finish_route(
        self, ctx: TraceContext, started: float, op: str, tried: set,
        failover: bool,
    ) -> None:
        self.tracer.record_raw(
            ctx, "router.route", _wall() - (_perf() - started),
            _perf() - started,
            {"op": op, "attempts": len(tried), "failover": failover},
        )

    async def score(
        self, a: str, b: str, *, trace: TraceContext | None = None,
        deadline_ms: float | None = None, **knobs,
    ) -> float:
        spec = JobSpec.of("score", **knobs)
        return await self.request("score", a, b, spec, deadline_ms, trace)

    async def align(
        self, a: str, b: str, *, trace: TraceContext | None = None,
        deadline_ms: float | None = None, **knobs,
    ) -> Alignment:
        spec = JobSpec.of("align", **knobs)
        return await self.request("align", a, b, spec, deadline_ms, trace)

    async def request(
        self, op: str, a: str, b: str, spec: JobSpec,
        deadline_ms: float | None = None, trace: TraceContext | None = None,
    ) -> Any:
        """Route one pair job: its score (``op="score"``) or Alignment.
        ``memory`` and ``backend`` ride along as execution hints; only
        the spec's ring-key fields pick the shard."""
        result = (await self._route(op, a, b, spec, deadline_ms, trace))["result"]
        return float(result) if op == "score" else alignment_from_dict(result)

    async def request_many(
        self, entries: Sequence[dict], concurrency: int = 64
    ) -> list:
        """Fan a heterogeneous batch out across shards; results in
        request order.

        Each entry is ``{"op", "a", "b"}`` plus optional knob fields
        and ``"deadline_ms"`` — the keyset-file shape, and what the
        CLI's mixed workloads use.  An entry the wire would refuse (an
        unknown field or op, a bad knob, ``a`` or ``b`` not a string)
        fails the whole batch before any request is sent.
        ``asyncio.gather`` preserves argument order, so position ``i``
        of the returned list answers entry ``i`` — regardless of which
        shard served it, in what order shards answered, or whether
        failover rerouted it mid-flight.
        """
        jobs = [(*pair_job(e), e.get("deadline_ms")) for e in entries]
        return await self._fan_out(jobs, concurrency)

    async def _fan_out(self, jobs: Sequence[tuple], concurrency: int) -> list:
        semaphore = asyncio.Semaphore(max(1, concurrency))

        async def one(job: tuple):
            async with semaphore:
                return await self.request(*job)

        return list(await asyncio.gather(*(one(job) for job in jobs)))

    async def score_many(
        self, pairs: Sequence[tuple[str, str]], concurrency: int = 64, *,
        deadline_ms: float | None = None, **knobs,
    ) -> list[float]:
        spec = JobSpec.of("score", **knobs)
        return await self._fan_out(
            [("score", a, b, spec, deadline_ms) for a, b in pairs], concurrency
        )

    async def align_many(
        self, pairs: Sequence[tuple[str, str]], concurrency: int = 64, *,
        deadline_ms: float | None = None, **knobs,
    ) -> list[Alignment]:
        spec = JobSpec.of("align", **knobs)
        return await self._fan_out(
            [("align", a, b, spec, deadline_ms) for a, b in pairs], concurrency
        )

    # -- stats --------------------------------------------------------

    def router_stats(self) -> dict:
        return {
            "configured_shards": self.configured_shards,
            "live_shards": self.live_shards,
            "vnodes": self.ring.vnodes,
            "routed": dict(self.routed),
            "routed_total": sum(self.routed.values()),
            "retries": self.retries,
            "failovers": self.failovers,
            "evictions": self.evictions,
            "readmissions": self.readmissions,
            "failed_requests": self.failed_requests,
            "shed_retries": self.shed_retries,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "deadline_gaveups": self.deadline_gaveups,
            "breaker_fast_fails": self.breaker_fast_fails,
            "breaker_opens": sum(b.opens for b in self._breakers.values()),
            "breakers": {
                shard: self._breakers[shard].state if shard in self._breakers
                else CLOSED
                for shard in self.configured_shards
            },
        }

    async def cluster_stats(self) -> dict:
        """Aggregated cluster stats: per-shard snapshots (each probed
        over a fresh connection), router counters, and cross-shard
        aggregates (summed counters, pooled cache hit rate, worst-case
        latency quantiles)."""
        live_snaps, errors = await self._each_shard("stats")
        shards = {**live_snaps, **{s: {"error": e} for s, e in errors.items()}}
        live = list(live_snaps.values())
        agg: dict[str, Any] = {"shards_reporting": len(live)}
        if live:
            requests = sum(s["requests"]["total"] for s in live)
            errors = sum(s["requests"]["errors"] for s in live)
            by_mode: Counter[str] = Counter()
            for s in live:
                by_mode.update(s["requests"].get("by_mode", {}))
            hits = sum(s["cache"]["hits"] for s in live)
            misses = sum(s["cache"]["misses"] for s in live)
            dispatched = sum(s["batches"]["dispatched"] for s in live)
            pairs = sum(s["batches"]["pairs"] for s in live)
            agg.update(
                {
                    "requests_total": requests,
                    "errors": errors,
                    "requests_by_mode": dict(by_mode),
                    "cache": {
                        "hits": hits,
                        "misses": misses,
                        "size": sum(s["cache"]["size"] for s in live),
                        "maxsize": sum(s["cache"]["maxsize"] for s in live),
                        "hit_rate": round(hits / (hits + misses), 4)
                        if hits + misses
                        else 0.0,
                    },
                    "batches": {
                        "dispatched": dispatched,
                        "pairs": pairs,
                        "mean_size": round(pairs / dispatched, 2) if dispatched else 0.0,
                        "max_size": max(s["batches"]["max_size"] for s in live),
                    },
                    "latency_ms": {
                        "worst_p50": max(s["latency_ms"]["p50"] for s in live),
                        "worst_p95": max(s["latency_ms"]["p95"] for s in live),
                        "worst_p99": max(
                            s["latency_ms"].get("p99", 0.0) for s in live
                        ),
                    },
                }
            )
        return {"router": self.router_stats(), "aggregate": agg, "shards": shards}

    # -- observability ------------------------------------------------

    def render_router_metrics(self) -> str:
        """The router's own counters as a Prometheus exposition, so a
        cluster scrape carries routing health (retries, failovers,
        evictions) alongside the shards' request metrics."""
        registry = MetricsRegistry()
        routed = registry.counter(
            "fragalign_router_requests_total",
            "Requests completed per shard.", labels=("shard",),
        )
        for shard, count in self.routed.items():
            routed.inc(count, shard=shard)
        registry.counter(
            "fragalign_router_retries_total", "Failover attempts made."
        ).inc(self.retries)
        registry.counter(
            "fragalign_router_failovers_total",
            "Requests served by a non-first replica.",
        ).inc(self.failovers)
        registry.counter(
            "fragalign_router_evictions_total", "Shards evicted from the ring."
        ).inc(self.evictions)
        registry.counter(
            "fragalign_router_readmissions_total", "Shards readmitted to the ring."
        ).inc(self.readmissions)
        registry.counter(
            "fragalign_router_failed_requests_total",
            "Requests that exhausted every replica.",
        ).inc(self.failed_requests)
        registry.counter(
            "fragalign_router_shed_retries_total",
            "OVERLOADED answers retried on another replica.",
        ).inc(self.shed_retries)
        registry.counter(
            "fragalign_router_hedges_total", "Duplicate (hedged) attempts fired."
        ).inc(self.hedges)
        registry.counter(
            "fragalign_router_hedge_wins_total",
            "Requests won by the hedged copy.",
        ).inc(self.hedge_wins)
        registry.counter(
            "fragalign_router_deadline_gaveups_total",
            "Retries abandoned because the deadline budget ran out.",
        ).inc(self.deadline_gaveups)
        registry.counter(
            "fragalign_router_breaker_fast_fails_total",
            "Requests refused because every untried circuit was open.",
        ).inc(self.breaker_fast_fails)
        registry.counter(
            "fragalign_router_breaker_opens_total",
            "Circuit-breaker trips across all shards.",
        ).inc(sum(b.opens for b in self._breakers.values()))
        breaker_state = registry.gauge(
            "fragalign_router_breaker_state",
            "Circuit state per shard (0 closed, 1 half-open, 2 open).",
            labels=("shard",),
        )
        for shard in self.configured_shards:
            breaker = self._breakers.get(shard)
            state = breaker.state if breaker is not None else CLOSED
            breaker_state.set(STATE_CODES[state], shard=shard)
        registry.gauge(
            "fragalign_router_live_shards", "Shards currently on the ring."
        ).set(len(self.ring.nodes))
        return registry.render()

    async def cluster_metrics(self) -> dict:
        """Scrape every configured shard's exposition and merge them
        (plus the router's own counters) into one cluster-wide text.

        Returns ``{"merged": text, "shards": {shard: text | None},
        "errors": {shard: message}}`` — unreachable shards are reported,
        not fatal, so a degraded cluster still exposes metrics."""
        texts, errors = await self._each_shard("metrics")
        return {
            "merged": merge_expositions([*texts.values(), self.render_router_metrics()]),
            "shards": {shard: texts.get(shard) for shard in self.configured_shards},
            "errors": errors,
        }

    async def cluster_slo(self, specs: Sequence[str] | None = None) -> dict:
        """Cluster-level SLO evaluation over the merged shard scrape.

        The router holds its own :class:`~fragalign.obs.slo.SLOEngine`
        fed from :meth:`cluster_metrics` — per-op histograms and
        request/error counters sum across shards under merge, so the
        burn rates here are the *cluster's*, not any one shard's.
        ``specs`` (spec strings) configure the engine on first use; a
        different set later rebuilds it (history restarts).
        """
        specs_key = tuple(specs) if specs else None
        if self._slo_engine is None or (
            specs_key is not None and specs_key != self._slo_specs
        ):
            self._slo_engine = SLOEngine.from_specs(specs_key)
            self._slo_specs = specs_key
        report = await self.cluster_metrics()
        self._slo_engine.sample(parse_exposition(report["merged"]))
        return {
            "slos": self._slo_engine.evaluate(),
            "errors": report["errors"],
            "shards_reporting": sum(1 for t in report["shards"].values() if t),
        }

    async def collect_trace(self, trace_id: str) -> dict:
        """Assemble one request's full span tree: drain the router's
        local spans for ``trace_id`` and fan a ``trace`` op out to every
        configured shard (evicted shards included — the failed attempt's
        server-side spans live there).  Unreachable shards are skipped:
        a trace should degrade, not fail, when a shard is down."""
        spans = [s.to_dict() for s in self.tracer.buffer.drain(trace_id)]
        dropped = self.tracer.buffer.dropped
        replies, errors = await self._each_shard("trace_spans", trace_id)
        for reply in replies.values():
            spans.extend(reply.get("spans", ()))
            dropped += reply.get("dropped", 0)
        spans.sort(key=lambda s: (s.get("start_s", 0.0), s.get("span_id", "")))
        return {"trace_id": trace_id, "spans": spans, "dropped": dropped,
                "errors": errors}

    # -- lifecycle ----------------------------------------------------

    async def shutdown_shards(self) -> dict[str, bool]:
        """Send ``shutdown`` to every configured shard (live or not),
        concurrently and each bounded by ``connect_timeout`` so one
        black-holed host can't stall the teardown; return
        {shard: acknowledged}."""
        acked, _errors = await self._each_shard("shutdown")
        return {shard: shard in acked for shard in self.configured_shards}

    async def close(self) -> None:
        clients = list(self._clients.values()) + self._orphans
        self._clients, self._orphans = {}, []
        for client in clients:
            try:
                await client.close()
            except Exception:
                pass
        if self._closing:
            await asyncio.gather(*list(self._closing), return_exceptions=True)

    async def __aenter__(self) -> "ShardRouter":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()


def _blocking(method):
    """Coroutine ``method`` of :class:`ShardRouter` as a blocking
    :class:`ClusterClient` method with the same signature."""

    @functools.wraps(method)
    def call(self, *args, **kwargs):
        return self._bridge.call(method(self.router, *args, **kwargs))

    return call


class ClusterClient:
    """Blocking facade over :class:`ShardRouter` (+ optional health
    monitor), on a private event-loop thread — the cluster-tier twin of
    :class:`~fragalign.service.client.AlignmentClient`::

        with ClusterClient([("127.0.0.1", p) for p in ports]) as cluster:
            scores = cluster.score_many(pairs, concurrency=64)
            report = cluster.stats()

    It is also how every CLI verb talks to servers, a lone ``--port``
    server being a one-shard cluster.  Keep one client for as long as
    its readings must add up: :meth:`slo` burn rates are deltas
    between the samples its router has taken.
    """

    def __init__(
        self,
        addresses: Sequence[tuple[str, int]],
        max_attempts: int = 2,
        request_timeout: float | None = None,
        health_interval: float | None = None,
        breaker_threshold: int = 3,
        breaker_recovery: float = 5.0,
        hedge_delay: float | None = None,
        hedge_max_fraction: float = 0.1,
    ) -> None:
        self.router = ShardRouter(
            addresses,
            max_attempts=max_attempts,
            request_timeout=request_timeout,
            breaker_threshold=breaker_threshold,
            breaker_recovery=breaker_recovery,
            hedge_delay=hedge_delay,
            hedge_max_fraction=hedge_max_fraction,
        )
        self._monitor = None
        self._bridge = LoopThread("fragalign-cluster")
        try:
            if health_interval is not None:
                from fragalign.cluster.health import HealthMonitor

                self._monitor = HealthMonitor(self.router, interval=health_interval)
                self._bridge.call(self._start_monitor())
        except BaseException:
            # Construction failed after the loop thread started:
            # release it before re-raising or it leaks for the
            # process lifetime.
            self._bridge.close()
            raise

    async def _start_monitor(self) -> None:
        self._monitor.start()

    # -- operations ---------------------------------------------------
    # The router's verbs, blocking, with the router method's signature.

    score = _blocking(ShardRouter.score)
    align = _blocking(ShardRouter.align)
    score_many = _blocking(ShardRouter.score_many)
    align_many = _blocking(ShardRouter.align_many)
    request_many = _blocking(ShardRouter.request_many)

    def warm(self, entries, concurrency=32) -> dict:
        """Replay keyset entries into the owning shards; returns the
        warm report (see :func:`fragalign.cluster.warm.warm_router`)."""
        from fragalign.cluster.warm import warm_router

        return self._bridge.call(warm_router(self.router, entries, concurrency=concurrency))

    @functools.wraps(ShardRouter.shard_for)
    def shard_for(self, *args, **kwargs) -> str:
        return self.router.shard_for(*args, **kwargs)

    def stats(self) -> dict:
        report = self._bridge.call(self.router.cluster_stats())
        if self._monitor is not None:
            report["health"] = self._monitor.snapshot()
        return report

    def metrics(self) -> dict:
        """Scrape + merge every shard's Prometheus exposition (see
        :meth:`ShardRouter.cluster_metrics`)."""
        return self._bridge.call(self.router.cluster_metrics())

    def slo(self, specs: Sequence[str] | None = None) -> dict:
        """Cluster-merged SLO evaluation (see :meth:`ShardRouter.cluster_slo`)."""
        return self._bridge.call(self.router.cluster_slo(specs))

    def collect_trace(self, trace_id: str) -> dict:
        """Assemble one trace's spans from the router and every shard
        (see :meth:`ShardRouter.collect_trace`)."""
        return self._bridge.call(self.router.collect_trace(trace_id))

    def probe_round(self) -> dict:
        """Run one synchronous health-probe round (even when no
        periodic monitor is configured)."""
        if self._monitor is None:
            from fragalign.cluster.health import HealthMonitor

            self._monitor = HealthMonitor(self.router)
        return self._bridge.call(self._monitor.probe_round())

    def shutdown_shards(self) -> dict[str, bool]:
        return self._bridge.call(self.router.shutdown_shards())

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        async def teardown():
            if self._monitor is not None:
                await self._monitor.stop()
            await self.router.close()

        self._bridge.close(teardown())

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
