"""The load generator: one process, asyncio tasks, no extra threads.

Two phase shapes drive a *target* — an
:class:`~fragalign.service.client.AsyncAlignmentClient` (one
connection) or a :class:`~fragalign.cluster.router.ShardRouter` (one
connection per shard); both expose ``score``/``align`` with the same
keyword knobs:

* :func:`closed_loop` — :data:`CONCURRENCY` callers that each send
  their next request when the previous one is answered;
* :func:`open_loop` — requests due at a fixed rate whatever the
  answers do, each timed from when it was due.

Every answer is kept in its :class:`Record` and checked after the
phase, outside its timing.  A traced phase gives every
``trace_every``-th request a trace context whose id the benchmark
chose, so the server's spans for it can be matched to the record.

The load process's cyclic garbage collector is paused for the length
of a timed phase (reference counting still frees memory): otherwise
collections over the records the benchmark keeps stall the client and
show up as server latency.
"""

from __future__ import annotations

import asyncio
import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count
from time import perf_counter
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

from fragalign.obs.trace import TraceContext

from perfbench.workloads import Request

__all__ = [
    "Record", "Phase", "closed_loop", "open_loop", "rates", "replay", "window_percentiles",
]

CONCURRENCY = 64
WINDOW_S = 0.5  # closed-loop sampling interval; the first window is ramp-up
STEAL_S = 0.05  # open-loop sampling interval of the host steal counter
STEAL_GUARD_S = 0.05  # how long a steal stall's backlog is assumed to last
STEAL_STALL_TICKS = 2  # stolen ticks within one interval that stall the client
WINDOW_REQUESTS = 1000  # open-loop requests per latency-percentile window


class Record(NamedTuple):
    req: Request
    trace_id: str | None
    due: float  # perf_counter time the request was due (closed loop: = sent)
    sent: float
    done: float
    value: Any  # float score / Alignment, or None on error
    error: str | None


@dataclass
class Phase:
    name: str
    start: float
    end: float  # every answer received
    records: list[Record]
    # (time, answers so far, counter) every sampling interval; the counter
    # is CPU seconds used (closed loop) or host steal ticks (open loop)
    samples: list[tuple[float, int, float]] = field(default_factory=list)

    def counted(self) -> tuple[float, int, float]:
        """Seconds, answers and CPU seconds over the phase after its
        first window (the 64 callers' ramp-up) when at least two windows
        follow it.  Whole batches complete at once, so a long span is
        steadier than any statistic over short windows."""
        first = 1 if len(self.samples) > 3 else 0
        (t0, n0, c0), (t1, n1, c1) = self.samples[first], self.samples[-1]
        return t1 - t0, n1 - n0, c1 - c0

    def rates(self) -> tuple[float, float]:
        """Answers per second and CPU milliseconds per answer over
        :meth:`counted`."""
        return rates(self.counted())

    def stolen_spans(self) -> list[tuple[float, float]]:
        """Sampling intervals in which the hypervisor stole at least
        :data:`STEAL_STALL_TICKS` clock ticks, each extended by
        :data:`STEAL_GUARD_S` for the backlog to drain."""
        return [
            (t0, t1 + STEAL_GUARD_S)
            for (t0, _, s0), (t1, _, s1) in zip(self.samples, self.samples[1:])
            if s1 - s0 >= STEAL_STALL_TICKS
        ]

    def latencies_ms(self) -> list[float]:
        """Due-to-answer latency of every open-loop request that was not
        in flight while the hypervisor stole CPU time from the host: on
        a shared host stolen time stalls every process at once and would
        otherwise decide the tail.  The choice never looks at the
        latencies.  Failures count as infinitely slow.  In due order."""
        spans = self.stolen_spans()
        kept = [
            r for r in self.records
            if not any(r.due <= hi and r.done >= lo for lo, hi in spans)
        ] or self.records
        kept.sort(key=lambda r: r.due)
        return [
            (r.done - r.due) * 1e3 if r.error is None else float("inf") for r in kept
        ]


def window_percentiles(latencies: list[float], qs: tuple[float, ...]) -> np.ndarray:
    """Each percentile in ``qs`` of ``latencies``, per window of
    :data:`WINDOW_REQUESTS` consecutive requests (a short last window
    joins the one before): one row per window.  The median over the rows
    is steadier than one percentile over all of them, since a burst of
    host noise then moves one window's tail, not the whole tail."""
    n = max(1, len(latencies) // WINDOW_REQUESTS)
    bounds = [len(latencies) * k // n for k in range(n + 1)]
    return np.array([
        np.percentile(latencies[lo:hi], qs) for lo, hi in zip(bounds, bounds[1:])
    ])


def rates(counted: tuple[float, int, float]) -> tuple[float, float]:
    """Answers per second and CPU milliseconds per answer from
    (seconds, answers, CPU seconds)."""
    seconds, answers, cpu = counted
    if answers <= 0:
        return 0.0, 0.0
    return answers / seconds, cpu * 1e3 / answers


@contextmanager
def _gc_paused():
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


async def _send(target, req: Request, ctx: TraceContext | None) -> tuple[Any, str | None]:
    call = target.score if req.op == "score" else target.align
    try:
        value = await call(
            req.a, req.b, mode=req.mode, gap_open=req.gap_open,
            gap_extend=req.gap_extend, trace=ctx,
        )
    except Exception as exc:  # the answer checker counts it as failed
        return None, f"{type(exc).__name__}: {exc}"
    return value, None


def _context(tag: str, i: int, trace_every: int) -> TraceContext | None:
    if not trace_every or i % trace_every:
        return None
    trace_id = f"perfbench-{tag}-{i}"
    return TraceContext(trace_id, trace_id)


async def closed_loop(
    target, feed: Iterator[Request], seconds: float, name: str,
    trace_every: int = 0, cpu: Callable[[], float] = lambda: 0.0,
) -> Phase:
    """``CONCURRENCY`` callers for ``seconds``; ``cpu`` returns the CPU
    seconds used so far by the processes whose cost the phase reports."""
    records: list[Record] = []
    samples: list[tuple[float, int, float]] = []
    numbers = count()
    answered = 0
    stop = float("inf")  # set when the phase starts

    async def caller() -> None:
        nonlocal answered
        while perf_counter() < stop:
            i = next(numbers)
            req = next(feed)
            ctx = _context(name, i, trace_every)
            sent = perf_counter()
            value, error = await _send(target, req, ctx)
            records.append(Record(
                req, ctx and ctx.trace_id, sent, sent, perf_counter(), value, error
            ))
            answered += error is None

    async def sampler() -> None:
        while True:
            now = perf_counter()
            samples.append((now, answered, cpu()))
            if now >= stop:
                return
            await asyncio.sleep(min(WINDOW_S, stop - now))

    with _gc_paused():
        start = perf_counter()
        stop = start + seconds
        await asyncio.gather(sampler(), *(caller() for _ in range(CONCURRENCY)))
    return Phase(name, start, perf_counter(), records, samples)


async def open_loop(
    target, requests: list[Request], rate: float, name: str, trace_every: int = 0,
    steal: Callable[[], float] = lambda: 0.0,
) -> Phase:
    """``requests`` due at ``rate`` per second; ``steal`` returns the
    host's cumulative stolen CPU time, sampled every :data:`STEAL_S`."""
    records: list[Record] = []
    samples: list[tuple[float, int, float]] = []
    sending = True

    async def sampler() -> None:
        while sending or inflight:
            samples.append((perf_counter(), len(records), steal()))
            await asyncio.sleep(STEAL_S)
        samples.append((perf_counter(), len(records), steal()))

    async def one(i: int, req: Request, due: float) -> None:
        ctx = _context(name, i, trace_every)
        sent = perf_counter()
        value, error = await _send(target, req, ctx)
        records.append(Record(
            req, ctx and ctx.trace_id, due, sent, perf_counter(), value, error
        ))

    inflight: set[asyncio.Task] = set()
    with _gc_paused():
        watcher = asyncio.create_task(sampler())
        start = perf_counter() + 0.01
        for i, req in enumerate(requests):
            due = start + i / rate
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            task = asyncio.create_task(one(i, req, due))
            inflight.add(task)
            task.add_done_callback(inflight.discard)
        sending = False
        await asyncio.gather(*inflight)
        await watcher
    return Phase(name, start, perf_counter(), records, samples)


async def replay(target, requests: list[Request]) -> None:
    """Send every request (set-up warm-up); raise on the first failure."""
    it = iter(requests)

    async def caller() -> None:
        for req in it:
            _, error = await _send(target, req, None)
            if error is not None:
                raise RuntimeError(f"warm-up request failed: {error}")

    await asyncio.gather(*(caller() for _ in range(CONCURRENCY)))
