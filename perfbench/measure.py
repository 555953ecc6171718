"""The two kinds of run: end-to-end metrics, and the traced per-layer ledger.

:func:`measure_end_to_end` sets up :data:`SETUPS` times (``setup_s``
is the median), then alternates :data:`ROUNDS` closed-loop and
open-loop phases, so that each metric spans the whole run and a slow
stretch of a shared host weighs on both alike; the answers are checked
after the last phase.  :func:`measure_layers` sets up once and runs the
closed-loop phase traced between two untraced halves, then a traced
open-loop phase; the ledger rows come from :mod:`perfbench.ledger`.
Each of its phases is checked by the :class:`Tally` right after it.
Checking is never timed.
"""

from __future__ import annotations

import asyncio
import os
import platform
import statistics
from contextlib import asynccontextmanager
from pathlib import Path

import numpy as np

from fragalign._native import HAVE_NATIVE
from fragalign.obs.kprof import top_rows_from_exposition
from fragalign.service.client import AsyncAlignmentClient

from perfbench.ledger import TRACE_EVERY, inprocess_metrics, span_metrics
from perfbench.loadgen import closed_loop, open_loop, rates, window_percentiles
from perfbench.servers import boot, cpu_seconds, peak_rss_mb, steal_ticks

__all__ = ["SETUPS", "Tally", "host_record", "measure_end_to_end", "measure_layers"]

SETUPS = 3  # set-ups per end-to-end run; setup_s is their median
ROUNDS = 4  # closed/open phase pairs per end-to-end run
CLOSED_SHARE = 0.4  # share of --seconds spent in the closed-loop phase


def host_record() -> dict:
    """What a result depends on besides the code: a run on the C
    kernels must never be compared silently with a fallback run."""
    model = platform.processor()
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "native_c": HAVE_NATIVE,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _split(seconds: float) -> tuple[float, float]:
    return seconds * CLOSED_SHARE, seconds * (1 - CLOSED_SHARE)


class Tally:
    """Checks each phase's answers and keeps the run's counts."""

    def __init__(self, oracle) -> None:
        self.oracle = oracle
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # anything else that makes the run incorrect

    def check(self, phase) -> None:
        succeeded, failed, notes = self.oracle.check(phase.records)
        self.attempted += len(phase.records)
        self.failed += failed
        print(
            f"phase {phase.name}: attempted={len(phase.records)} "
            f"succeeded={succeeded} failed={failed} "
            f"wall={phase.end - phase.start:.2f}s",
            flush=True,
        )
        for note in notes:
            print(f"  failure: {note}", flush=True)


async def measure_end_to_end(source, seconds: float, workdir: Path, tally: Tally) -> dict:
    wl = source.workload
    closed_s, open_s = _split(seconds)
    fleet, setups = None, []
    try:
        for k in range(SETUPS):
            if fleet is not None:
                await fleet.stop()
                fleet = None
            fleet = await boot(wl, source.warmup(k), workdir, k)
            setups.append(fleet.setup_s)
        print("setup_s samples: " + " ".join(f"{s:.3f}" for s in setups), flush=True)
        feed = source.feed("closed", int(closed_s * wl.closed_guess * 1.5))
        pids = [os.getpid(), *fleet.pids]
        requests = source.take("open", max(ROUNDS, int(open_s * wl.open_rate)))
        closed, opened = [], []
        for k in range(ROUNDS):
            closed.append(await closed_loop(
                fleet.target, feed, closed_s / ROUNDS, f"closed-{k}",
                cpu=lambda: cpu_seconds(pids),
            ))
            part = requests[len(requests) * k // ROUNDS:len(requests) * (k + 1) // ROUNDS]
            opened.append(
                await open_loop(fleet.target, part, wl.open_rate, f"open-{k}", steal=steal_ticks)
            )
        rss = peak_rss_mb(fleet.pids)
    finally:
        if fleet is not None:
            await fleet.stop()
    tally.oracle.compute({r.req for phase in closed + opened for r in phase.records})
    for phase in closed + opened:
        tally.check(phase)
    req_per_s, cpu_ms_per_req = rates(
        tuple(sum(v) for v in zip(*(phase.counted() for phase in closed)))
    )
    print("closed loop windows (req/s): " + " | ".join(" ".join(
        f"{(n1 - n0) / (t1 - t0):.0f}"
        for (t0, n0, _), (t1, n1, _) in zip(phase.samples, phase.samples[1:])
    ) for phase in closed), flush=True)
    latencies = [ms for phase in opened for ms in phase.latencies_ms()]
    windows = window_percentiles(latencies, (50, 99))
    p50, p99 = (float(v) for v in np.median(windows, axis=0))
    print(
        f"open loop: rate={wl.open_rate:g}/s samples={len(latencies)} of {len(requests)} "
        f"(the rest were in flight during "
        f"{sum(len(phase.stolen_spans()) for phase in opened)} host steal stalls); "
        f"median over {len(windows)} windows p50={p50:.3f}ms p99={p99:.3f}ms",
        flush=True,
    )
    print("open loop window p99 (ms): " + " ".join(f"{v:.1f}" for v in windows[:, 1]), flush=True)
    return {
        "setup_s": statistics.median(setups),
        "req_per_s": req_per_s,
        "p50_ms": p50,
        "p99_ms": p99,
        "cpu_ms_per_req": cpu_ms_per_req,
        "rss_mb": rss,
    }


class SpanCollector:
    """Drains the servers' span buffers (``trace`` op on a control
    connection per server) and the router's in-process tracer."""

    def __init__(self, controls, router) -> None:
        self.controls = controls
        self.router = router
        self.server_spans: list[dict] = []
        self.router_spans: list[dict] = []
        self.dropped = [0] * len(controls)  # per server, cumulative

    async def drain(self) -> None:
        for k, control in enumerate(self.controls):
            reply = await control.trace_spans()
            self.server_spans.extend(reply["spans"])
            self.dropped[k] = reply["dropped"]
        if self.router is not None:
            self.router_spans.extend(s.to_dict() for s in self.router.tracer.buffer.drain())

    @asynccontextmanager
    async def draining(self, interval: float = 0.25):
        """Drain every ``interval`` seconds while the body runs, so the
        bounded buffers never drop a span."""
        stop = asyncio.Event()

        async def loop() -> None:
            while not stop.is_set():
                try:
                    await asyncio.wait_for(stop.wait(), interval)
                except asyncio.TimeoutError:
                    await self.drain()

        task = asyncio.create_task(loop())
        try:
            yield self
        finally:
            stop.set()
            await task
            await self.drain()


async def _counters(controls, router) -> dict:
    """Summed ``stats``/``metrics`` counters over every server."""
    total: dict[str, float] = dict.fromkeys(
        ("batches", "batched_pairs", "coalesced", "hits", "misses", "calls",
         "pairs", "score_cells", "score_s", "align_cells", "align_s"), 0.0
    )
    for control in controls:
        stats = await control.stats()
        total["batches"] += stats["batches"]["dispatched"]
        total["batched_pairs"] += stats["batches"]["pairs"]
        total["coalesced"] += stats["batches"]["coalesced"]
        total["hits"] += stats["cache"]["hits"]
        total["misses"] += stats["cache"]["misses"]
        for row in top_rows_from_exposition(await control.metrics()):
            family = "align" if row["family"].startswith("align") else "score"
            total["calls"] += row["calls"]
            total["pairs"] += row["pairs"]
            total[f"{family}_cells"] += row["cells"]
            total[f"{family}_s"] += row["seconds"]
    if router is not None:
        total["retries"] = router.retries
        for shard in router.configured_shards:
            total[f"routed:{shard}"] = router.routed[shard]
    return total


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0.0) for k in after}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


async def measure_layers(source, seconds: float, workdir: Path, tally: Tally) -> dict:
    wl = source.workload
    closed_s, open_s = _split(seconds)
    prefetch = int(closed_s * wl.closed_guess * 1.5)
    fleet = await boot(wl, source.warmup(0), workdir, 0)
    controls = []
    try:
        for host, port in fleet.addresses:
            controls.append(await AsyncAlignmentClient.connect(host, port))
        # Untraced halves before and after the traced phase (A-B-A), so
        # a drift of the shared host cancels out of trace.overhead_pct.
        before_half = await closed_loop(
            fleet.target, source.feed("closed", prefetch), closed_s / 2, "closed"
        )
        tally.check(before_half)
        spans = SpanCollector(controls, fleet.router)
        before = await _counters(controls, fleet.router)
        async with spans.draining():
            traced = await closed_loop(
                fleet.target, source.feed("traced-closed", prefetch), closed_s,
                "traced-closed", trace_every=TRACE_EVERY,
            )
        closed_delta = _delta(await _counters(controls, fleet.router), before)
        tally.check(traced)
        after_half = await closed_loop(
            fleet.target, source.feed("closed-after", prefetch), closed_s / 2, "closed-after"
        )
        tally.check(after_half)
        spans.server_spans.clear()
        spans.router_spans.clear()
        requests = source.take("traced-open", max(1, int(open_s * wl.open_rate)))
        before = await _counters(controls, fleet.router)
        async with spans.draining():
            opened = await open_loop(
                fleet.target, requests, wl.open_rate, "traced-open", trace_every=TRACE_EVERY
            )
        open_delta = _delta(await _counters(controls, fleet.router), before)
        tally.check(opened)
    finally:
        for control in controls:
            await control.close()
        await fleet.stop()

    dropped = sum(spans.dropped)
    values, missing = span_metrics(opened.records, spans.server_spans, spans.router_spans)
    print(
        f"traced requests: {sum(1 for r in opened.records if r.trace_id)} "
        f"(one in {TRACE_EVERY}), without server spans: {missing}, spans dropped: {dropped}",
        flush=True,
    )
    if dropped or missing:
        tally.problems.append("ledger incomplete: spans were dropped or missing")
    d = closed_delta
    wall = (traced.end - traced.start) * len(controls)
    routed = [v for k, v in d.items() if k.startswith("routed:")]
    untraced = (before_half.rates()[0] + after_half.rates()[0]) / 2
    traced_rps = traced.rates()[0]
    batch = max(1, round(_ratio(d["batched_pairs"], d["batches"])))
    values.update({
        "server.cache_hit_ratio": _ratio(d["hits"], d["hits"] + d["misses"]),
        "server.coalesced": d["coalesced"],
        "batcher.batch_size_mean": _ratio(open_delta["batched_pairs"], open_delta["batches"]),
        "engine.kernel_calls_per_batch": _ratio(d["calls"], d["batches"]),
        "engine.pairs_per_kernel_call": _ratio(d["pairs"], d["calls"]),
        "kernel.score_mcells_per_s": _ratio(d["score_cells"], d["score_s"]) / 1e6,
        "kernel.align_mcells_per_s": _ratio(d["align_cells"], d["align_s"]) / 1e6,
        "kernel.busy_frac": _ratio(d["score_s"] + d["align_s"], wall),
        "router.shard_skew": max(routed) / statistics.fmean(routed) if routed else 1.0,
        "router.retries": d.get("retries", 0.0),
        "loadgen.late_ms_p99": float(
            np.percentile([(r.sent - r.due) * 1e3 for r in opened.records], 99)
        ),
        "trace.overhead_pct": _ratio(untraced - traced_rps, untraced) * 100.0,
    })
    print(
        f"closed loop: untraced {untraced:.1f} req/s, traced {traced_rps:.1f} req/s, "
        f"mean batch {batch}",
        flush=True,
    )
    sample = [r.req for r in traced.records[:2000]]
    values.update(inprocess_metrics(wl, source.seed, sample, tally.oracle.expected, batch))
    return values
