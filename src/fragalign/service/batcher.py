"""The micro-batcher: coalesce concurrent requests into engine batches.

Concurrent ``score``/``align`` submissions are queued for at most
``max_delay`` seconds (or until ``max_batch`` jobs are waiting — the
flush-by-size path), then dispatched as *one* ``score_many`` /
``align_many`` call on the engine, whose batch kernels amortize the
per-row Python sweep across the whole batch.  Results fan back out to
the awaiting tasks through per-job futures.

Identical in-flight jobs are deduplicated: N concurrent requests for
the same ``(op, a, b)`` share one future and cost one backend slot
(the ``coalesced`` stat counts the N-1 free riders).

Engine calls are CPU-bound, so they run on a dedicated single worker
thread: the event loop keeps accepting (and queueing) the *next* batch
while the current one computes — exactly the overlap that makes
micro-batching pay off under sustained load.  The single worker also
serializes engine access, so the engine's memoized prep needs no lock.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any

from fragalign.engine.facade import AlignmentEngine
from fragalign.job import JobSpec
from fragalign.obs.trace import TraceContext, Tracer
from fragalign.util.errors import DeadlineExceeded

__all__ = ["MicroBatcher"]

# One job: (dispatch-group key, a, b).  The group key is the spec's
# (op, group-key knobs) — one group is one engine batch call.
Key = tuple


def _key(op: str, a: str, b: str, spec: JobSpec) -> Key:
    return (spec.group_key(op), a, b)


class MicroBatcher:
    """Coalesce awaitable ``score``/``align`` jobs into batch calls.

    Parameters
    ----------
    engine:
        Any object with ``run(op, pairs, spec)`` (normally an
        :class:`AlignmentEngine`; tests substitute counting wrappers).
    max_batch:
        Flush as soon as this many distinct jobs are queued.
    max_delay:
        Flush at most this many seconds after the first queued job;
        ``<= 0`` flushes after every submission (per-request serving,
        the foil the benchmark measures against).
    stats:
        Optional :class:`~fragalign.service.stats.ServiceStats` feeder.
    """

    def __init__(
        self,
        engine: AlignmentEngine,
        max_batch: int = 64,
        max_delay: float = 0.002,
        stats=None,
        tracer: Tracer | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.engine = engine
        self.max_batch = max_batch
        self.max_delay = max_delay
        self._stats = stats
        self._tracer = tracer
        # Trace interest and deadlines ride side-channels (trace_job,
        # note_deadline), keyed like the job: neither is a batching knob.
        self._trace_interest: dict[
            Key, list[tuple[TraceContext, list | None, float]]
        ] = {}
        self._deadlines: dict[Key, float] = {}  # key -> absolute monotonic deadline
        # Degraded-mode widening: the server scales the flush window up
        # under load so batches amortize better (trading latency for
        # throughput).  Multiplies max_delay; 1.0 = no widening.
        self.delay_scale: float = 1.0
        self._pending: dict[Key, asyncio.Future] = {}  # queued and in-flight
        self._queue: list[tuple[Key, JobSpec]] = []  # queued, not yet dispatched
        self._timer: asyncio.TimerHandle | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="fragalign-batch"
        )

    # -- submission ---------------------------------------------------

    async def submit(self, op: str, a: str, b: str, spec: JobSpec) -> Any:
        """Queue one job; await its batched result.

        Returns a float for ``op="score"`` and an
        :class:`~fragalign.align.pairwise.Alignment` for ``op="align"``.
        One flush dispatches each distinct ``spec.group_key(op)`` as its
        own engine batch — in particular a batch never mixes backends.
        """
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        key = _key(op, a, b, spec)
        fut = self._pending.get(key)
        if fut is not None:
            # Identical job already queued or computing: share its future.
            if self._stats is not None:
                self._stats.observe_coalesced()
            return await fut
        fut = self._loop.create_future()
        self._pending[key] = fut
        self._queue.append((key, spec))
        # The flush window is the configured delay (widened under
        # degraded mode) clamped to the tightest registered deadline —
        # a job must not sit in the queue past its budget.
        delay = self.max_delay * self.delay_scale
        deadline = self._deadlines.get(key)
        if deadline is not None:
            # Clamp to *half* the remaining budget, not the deadline
            # itself: a timer that fires on the deadline hands
            # ``_run_batch`` an already-expired job, so a lone request
            # tighter than the flush window could never succeed.  Half
            # leaves the engine the other half to actually compute.
            delay = min(delay, (deadline - time.monotonic()) / 2.0)
        if len(self._queue) >= self.max_batch or delay <= 0:
            self.flush()
        elif self._timer is None or self._loop.time() + delay < self._timer.when():
            if self._timer is not None:
                self._timer.cancel()
            self._timer = self._loop.call_later(delay, self.flush)
        return await fut

    def trace_job(
        self,
        op: str,
        a: str,
        b: str,
        spec: JobSpec,
        ctx: TraceContext | None,
        sink: list | None = None,
    ) -> None:
        """Register trace interest for the job an imminent ``submit``
        with the same arguments will queue.  A side-channel, not a
        knob: the job's identity and batching are completely
        unaffected.  Interest is consumed — spans recorded under
        ``ctx`` — when the job's batch runs; a job that never reaches
        ``submit`` after an interest registration would leak it, so
        callers pair the two calls (the server does, right next to each
        other).

        ``sink``, when given, receives the deferred span entries
        instead of the shared trace buffer.  The batch resolves every
        job future *after* recording its spans, so by the time the
        submitter's await returns the sink is complete — the caller
        can then buffer or drop the whole trace atomically.  Without a
        sink the entries go straight to the tracer (standalone use).
        """
        if ctx is None or self._tracer is None:
            return
        self._trace_interest.setdefault(_key(op, a, b, spec), []).append(
            (ctx, sink, time.perf_counter())
        )

    def note_deadline(
        self, op: str, a: str, b: str, spec: JobSpec, deadline: float
    ) -> None:
        """Register an absolute monotonic deadline for the job an
        imminent ``submit`` with the same arguments will queue.  Same
        side-channel contract as :meth:`trace_job`: a deadline never
        changes the job's identity or batching; callers pair the call
        with ``submit``.  If coalesced jobs carry different deadlines,
        the tightest one governs the shared dispatch.
        """
        key = _key(op, a, b, spec)
        current = self._deadlines.get(key)
        self._deadlines[key] = deadline if current is None else min(current, deadline)

    def flush(self) -> None:
        """Dispatch everything queued right now as one batch."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._queue:
            return
        batch, self._queue = self._queue, []
        assert self._loop is not None
        self._loop.create_task(self._run_batch(batch))

    # -- dispatch -----------------------------------------------------

    async def _run_batch(self, jobs: list[tuple[Key, JobSpec]]) -> None:
        # Jobs whose deadline expired while queued are dropped before
        # the engine sees them: computing an answer nobody is waiting
        # for only steals worker time from live requests.
        now_mono = time.monotonic()
        live: list[tuple[Key, JobSpec]] = []
        for key, spec in jobs:
            key_deadline = self._deadlines.pop(key, None)
            if key_deadline is not None and now_mono >= key_deadline:
                self._trace_interest.pop(key, None)
                fut = self._pending.pop(key, None)
                if self._stats is not None:
                    self._stats.observe_deadline_exceeded()
                if fut is not None and not fut.done():
                    fut.set_exception(
                        DeadlineExceeded("deadline expired while queued for batch dispatch")
                    )
                continue
            live.append((key, spec))
        if not live:
            return
        keys = [key for key, _ in live]
        if self._stats is not None:
            self._stats.observe_batch(len(keys))
        # Consume trace interest up front: "batcher.wait" is the
        # coalesce delay (trace_job → dispatch), recorded even when the
        # engine call below fails.
        dispatched = time.perf_counter()
        interest = {
            key: self._trace_interest.pop(key)
            for key in keys
            if key in self._trace_interest
        }
        if self._tracer is not None and interest:
            now = time.time()
            n_keys = len(keys)
            shared: list = []
            for key, watchers in interest.items():
                # One tags dict per job, shared by its watchers — the
                # entries are read-only downstream (leaf_entry's "takes
                # ownership" contract), so aliasing is safe.
                tags = {"op": key[0][0], "batch": n_keys}
                for ctx, sink, enqueued in watchers:
                    wait = dispatched - enqueued
                    entry = (
                        ctx.trace_id, ctx.span_id, "batcher.wait",
                        now - wait, wait, tags,
                    )
                    (shared if sink is None else sink).append(entry)
            if shared:
                self._tracer.extend(shared)
        # One group per dispatch-group key, run with its first job's spec
        # (jobs sharing the key agree on every knob that executes).  An
        # engine error fails only the group whose call raised it.
        groups: dict[tuple, tuple[JobSpec, list[Key]]] = {}
        for key, spec in live:
            groups.setdefault(key[0], (spec, []))[1].append(key)
        for (op, *_), (spec, group) in groups.items():
            pairs = [key[1:] for key in group]
            call = partial(self.engine.run, op, pairs, spec)
            compute_start = time.perf_counter()
            try:
                values = await self._loop.run_in_executor(self._executor, call)
            except Exception as exc:
                for key in group:
                    fut = self._pending.pop(key, None)
                    if fut is not None and not fut.done():
                        fut.set_exception(exc)
                continue
            if self._tracer is not None and interest:
                compute_s = time.perf_counter() - compute_start
                start = time.time() - compute_s
                # Worker-thread engine call for this job's whole
                # dispatch group (queue + kernels); one shared tags
                # dict for the group — read-only downstream.
                tags = {"op": op, "group": len(group), "mode": spec.mode}
                shared = []
                for key in group:
                    for ctx, sink, _ in interest.get(key, ()):
                        entry = (
                            ctx.trace_id, ctx.span_id, "batcher.compute",
                            start, compute_s, tags,
                        )
                        (shared if sink is None else sink).append(entry)
                if shared:
                    self._tracer.extend(shared)
            if op == "score":
                values = [float(v) for v in values]
            for key, value in zip(group, values):
                fut = self._pending.pop(key, None)
                if fut is not None and not fut.done():
                    fut.set_result(value)

    # -- lifecycle ----------------------------------------------------

    async def drain(self) -> None:
        """Flush and wait for every in-flight job (shutdown path)."""
        self.flush()
        pending = list(self._pending.values())
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    def close(self) -> None:
        """Release the worker thread (does not close the engine)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._executor.shutdown(wait=True)
