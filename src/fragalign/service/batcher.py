"""The micro-batcher: coalesce concurrent requests into engine batches.

Concurrent ``score``/``align`` submissions are dispatched as *one*
``score_many`` / ``align_many`` call per dispatch group on the engine,
whose batch kernels amortize the per-row Python sweep across the whole
batch.  A dispatch group is every job of one op that agrees on the
knobs that change how a batch executes (``JobSpec.group_key``): modes
mix in a group, and each job runs with its own spec.  Results fan back
out through one future per waiter, in wire form: a score as a float,
an align answer as its JSON text
(:class:`~fragalign.service.protocol.EncodedJSON`), as the cache keeps it.

Batches follow the worker, not a clock: at most one batch is in
flight.  A job that arrives while the worker is idle goes out at the
end of the current loop tick, together with everything else submitted
in that tick.  Jobs that arrive while a batch computes go out together
as soon as it finishes, up to ``max_batch`` per batch.  An idle server
therefore answers a lone request without waiting, and under load a
batch grows by itself to what queued while the previous one ran.

Jobs are keyed by the result-cache key (``JobSpec.cache_key``): N
concurrent requests with one key share one job and cost one backend
slot (the ``coalesced`` stat counts the N-1 free riders).  A job's
result goes into the result cache before the job leaves the table, so
a twin request always finds either the job or its answer.

Engine calls are CPU-bound, so a group runs on a dedicated single
worker thread: the event loop keeps accepting (and queueing) the
*next* batch while the current one computes.  A group the engine calls
bounded (:meth:`AlignmentEngine.inline`: sub-millisecond native
scores) runs on the event loop instead, where it costs less than the
hop to the worker.  Each group is awaited before the next starts, so
engine access stays serialized and its memoized prep needs no lock.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from fragalign.engine.facade import AlignmentEngine
from fragalign.job import JobSpec, mode_label
from fragalign.obs.trace import TraceContext, Tracer
from fragalign.service.protocol import alignment_json
from fragalign.util.errors import DeadlineExceeded
from fragalign.util.lru import LRUCache

__all__ = ["MicroBatcher"]

# The wire form each op's engine result is answered and cached in.
_WIRE = {"score": float, "align": alignment_json}


class _Job:
    """One distinct job: its waiters' futures and what its dispatch reads."""

    __slots__ = ("key", "op", "pair", "spec", "waiters", "deadline", "watchers")

    def __init__(
        self, key: tuple, op: str, pair: tuple[str, str], spec: JobSpec,
        deadline: float | None,
    ) -> None:
        self.key = key  # the job's result-cache key
        self.op = op
        self.pair = pair
        # The first waiter's spec: twins may differ only in backend and
        # memory, which never change the result.
        self.spec = spec
        # One future per waiter: a cancelled one is that waiter's alone.
        self.waiters: list[asyncio.Future] = []
        # The loosest waiter's absolute monotonic deadline; None once
        # any waiter has none.
        self.deadline: float | None = deadline
        # One (context, span sink, submit time) per traced waiter.
        self.watchers: list[tuple[TraceContext, list | None, float]] = []

    def settle(self, value=None, exc: BaseException | None = None) -> None:
        """Answer every waiter still waiting; cancelled ones are skipped."""
        for waiter in self.waiters:
            if waiter.done():
                continue
            if exc is None:
                waiter.set_result(value)
            else:
                waiter.set_exception(exc)


class MicroBatcher:
    """Coalesce awaitable ``score``/``align`` jobs into batch calls.

    Parameters
    ----------
    engine:
        Any object with ``run(op, pairs, specs)``, one spec per pair,
        and ``inline(op, pairs, specs)``, that call as one of no
        arguments when it may run on the event loop, else ``None``
        (normally an :class:`AlignmentEngine`; tests substitute counting
        wrappers, and one whose ``run`` blocks or raises must answer
        ``None``).
    max_batch:
        The most distinct jobs one batch dispatches; ``1`` serves
        request by request (the foil the benchmark measures against).
    stats:
        Optional :class:`~fragalign.service.stats.ServiceStats` feeder.
    cache:
        The result cache each computed job's wire-form result is put
        in; none by default.
    model_fp:
        The engine model's fingerprint, the last field of every job's
        cache key (see :func:`~fragalign.service.server.model_fingerprint`).
    """

    def __init__(
        self,
        engine: AlignmentEngine,
        max_batch: int = 64,
        stats=None,
        tracer: Tracer | None = None,
        cache: LRUCache | None = None,
        model_fp: str = "",
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.engine = engine
        self.max_batch = max_batch
        self._stats = stats
        self._tracer = tracer
        self._cache = LRUCache(0) if cache is None else cache  # size 0 stores nothing
        self._model_fp = model_fp
        self._jobs: dict[tuple, _Job] = {}  # queued and in flight, by cache key
        self._queue: deque[_Job] = deque()  # queued, oldest first
        self._running: asyncio.Task | None = None  # the one batch in flight
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="fragalign-batch"
        )

    # -- submission ---------------------------------------------------

    def __contains__(self, key: tuple) -> bool:
        """Whether the job with this cache key is queued or computing."""
        return key in self._jobs

    async def submit(
        self,
        op: str,
        a: str,
        b: str,
        spec: JobSpec,
        *,
        deadline: float | None = None,
        trace: TraceContext | None = None,
        sink: list | None = None,
    ) -> float | str:
        """Queue one job; await its batched result in wire form: a
        float for ``op="score"``, the compact JSON text of the
        :func:`~fragalign.service.protocol.alignment_to_dict` form for
        ``op="align"`` (an :class:`~fragalign.service.protocol.EncodedJSON`).

        The job is keyed by ``spec.cache_key(op, a, b, model_fp)``, so
        specs differing only in ``backend`` or ``memory`` share one job,
        which runs with its first waiter's spec.  Each distinct
        ``spec.group_key(op)`` in a batch is its own engine call — in
        particular a call never mixes backends or gap models — and a
        call mixes modes, each job with its own.

        ``deadline`` (absolute, :func:`time.monotonic`) and ``trace``
        are not part of the job: identical submits share one job
        whatever they carry.  The job is dropped with
        :class:`DeadlineExceeded` at dispatch only when every waiter's
        deadline has passed; a waiter without one keeps it live.  A
        traced waiter gets ``batcher.wait`` and ``batcher.compute``
        spans under ``trace``, appended to ``sink`` when given (the
        caller then owns them) and to the tracer otherwise.  The
        spans are recorded before the waiters' futures resolve, so the
        sink is complete once this returns.
        """
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        key = spec.cache_key(op, a, b, self._model_fp)
        job = self._jobs.get(key)
        if job is None:
            job = _Job(key, op, (a, b), spec, deadline)
            self._jobs[key] = job
            self._queue.append(job)
            if self._running is None:
                self._start()
        else:
            # Identical job already queued or computing: share it.
            if self._stats is not None:
                self._stats.observe_coalesced()
            if job.deadline is not None:
                job.deadline = None if deadline is None else max(job.deadline, deadline)
        if trace is not None and self._tracer is not None:
            job.watchers.append((trace, sink, time.perf_counter()))
        # The waiter's own future: cancelling this wait cancels only
        # it, never the job its twins share.
        waiter = self._loop.create_future()
        job.waiters.append(waiter)
        return await waiter

    def _start(self) -> None:
        # A task's first step runs at the end of this loop tick, so the
        # batch takes every job submitted in the tick.
        assert self._loop is not None
        self._running = self._loop.create_task(self._run_batch())
        self._running.add_done_callback(self._finished)

    def _finished(self, task: asyncio.Task) -> None:
        # A done-callback, not the batch's last statement, so a batch
        # that raised cannot leave the batcher marked busy forever.
        self._running = None
        if self._queue:
            self._start()

    # -- dispatch -----------------------------------------------------

    def _take(self) -> list[_Job]:
        """Pop the next batch: up to ``max_batch`` live jobs, oldest
        first.  A job whose deadline passed while it queued is dropped
        here, when the worker is free to take it: computing an answer
        nobody is waiting for only steals worker time from live
        requests."""
        now = time.monotonic()
        batch: list[_Job] = []
        while self._queue and len(batch) < self.max_batch:
            job = self._queue.popleft()
            if job.deadline is None or now < job.deadline:
                batch.append(job)
                continue
            del self._jobs[job.key]
            if self._stats is not None:
                self._stats.observe_deadline_exceeded()
            job.settle(exc=DeadlineExceeded("deadline expired while queued for batch dispatch"))
        return batch

    async def _run_batch(self) -> None:
        batch = self._take()
        if not batch:
            return
        if self._stats is not None:
            self._stats.observe_batch(len(batch))
        traced = self._tracer is not None and any(job.watchers for job in batch)
        if traced:
            # "batcher.wait" is the queueing delay (submit → dispatch),
            # recorded even when the engine call below fails.
            dispatched = time.perf_counter()
            now = time.time()
            shared: list = []
            for job in batch:
                # One tags dict per job, shared by its watchers — the
                # entries are read-only downstream (leaf_entry's "takes
                # ownership" contract), so aliasing is safe.
                tags = {"op": job.op, "batch": len(batch)}
                for ctx, sink, enqueued in job.watchers:
                    wait = dispatched - enqueued
                    entry = (
                        ctx.trace_id, ctx.span_id, "batcher.wait",
                        now - wait, wait, tags,
                    )
                    (shared if sink is None else sink).append(entry)
            if shared:
                self._tracer.extend(shared)
        # One engine call per dispatch-group key, each job with its own
        # spec: jobs sharing the key differ at most in mode.  An engine
        # error fails only the group it hit.
        groups: dict[tuple, list[_Job]] = {}
        for job in batch:
            groups.setdefault(job.spec.group_key(job.op), []).append(job)
        for (op, *_), group in groups.items():
            pairs = [job.pair for job in group]
            specs = [job.spec for job in group]
            compute_start = time.perf_counter()
            try:
                call = self.engine.inline(op, pairs, specs)
                if call is not None:
                    # Bounded: cheaper here than the hop to the worker.
                    values = call()
                else:
                    values = await self._loop.run_in_executor(
                        self._executor, self.engine.run, op, pairs, specs
                    )
                values = list(map(_WIRE[op], values))
            except Exception as exc:
                for job in group:
                    del self._jobs[job.key]
                    job.settle(exc=exc)
                continue
            if traced:
                compute_s = time.perf_counter() - compute_start
                start = time.time() - compute_s
                # The engine call for this job's whole dispatch group
                # (inline, or worker queue + kernels); one shared tags
                # dict for the group — read-only downstream.
                tags = {"op": op, "group": len(group), "mode": mode_label(specs)}
                shared = []
                for job in group:
                    for ctx, sink, _ in job.watchers:
                        entry = (
                            ctx.trace_id, ctx.span_id, "batcher.compute",
                            start, compute_s, tags,
                        )
                        (shared if sink is None else sink).append(entry)
                if shared:
                    self._tracer.extend(shared)
            for job, value in zip(group, values):
                # Cached before the job leaves the table, with no await
                # in between: a twin finds the job or its answer.
                self._cache.put(job.key, value)
                del self._jobs[job.key]
                job.settle(value)

    # -- lifecycle ----------------------------------------------------

    async def drain(self) -> None:
        """Wait for every waiter of a queued or in-flight job (shutdown path)."""
        pending = [w for job in self._jobs.values() for w in job.waiters]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    def close(self) -> None:
        """Release the worker thread, if one started (does not close
        the engine)."""
        self._executor.shutdown(wait=True)
