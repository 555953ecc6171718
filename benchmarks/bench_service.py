"""B-SERVICE — serving-layer throughput: micro-batching and the cache.

Three measurements against in-process :class:`AlignmentService`
instances over real sockets (the numpy backend throughout):

* **sequential** — one request at a time against a per-request server
  (``max_batch=1``, cache off): the foil every non-batching RPC service
  pays.
* **batched** — the same pairs fired at concurrency ``C`` against a
  micro-batching server (cache off): requests coalesce into
  ``score_many`` batches, amortizing the per-row Python sweep.
* **cache** — cold then warm sequential passes against a cache-enabled
  server: warm requests are answered straight from the LRU.
* **tracing** — batched ``align`` requests (the ``align_many`` path:
  kernels + traceback + serialization) with *every* request carrying
  a trace context (100% sampling, the worst case): span recording
  must cost ≤ 3% of align throughput, judged on process CPU time
  over interleaved rounds (wall-clock A/B cannot resolve 3% under
  shared-host scheduler noise).

Run as a script: ``python benchmarks/bench_service.py [--quick]``
writes the result table to ``BENCH_service.json`` (the committed
reference run).  Thresholds (full runs only): batched >= 5x
sequential, warm >= 10x cold, tracing overhead <= 3%.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # script mode: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from fragalign.genome.dna import random_dna
from fragalign.service import AlignmentService, AsyncAlignmentClient, ServiceConfig


async def _with_service(config: ServiceConfig, fn):
    """Run ``fn(client)`` against a fresh service; return (result, stats)."""
    service = AlignmentService(config)
    await service.start()
    client = await AsyncAlignmentClient.connect(port=service.port)
    try:
        result = await fn(client)
        stats = await client.stats()
    finally:
        await client.shutdown()
        await client.close()
        await service.wait_closed()
        service.close()
    return result, stats


async def _sequential(client, pairs, warmup=(), repeat=1):
    """Best-of-``repeat`` wall time for one-at-a-time requests."""
    for pair in warmup:
        await client.score(*pair)
    best, scores = float("inf"), []
    for _ in range(repeat):
        t0 = time.perf_counter()
        scores = [await client.score(a, b) for a, b in pairs]
        best = min(best, time.perf_counter() - t0)
    return best, scores


async def _concurrent(client, pairs, concurrency, warmup=(), repeat=1):
    """Best-of-``repeat`` wall time with ``concurrency`` in flight."""
    for pair in warmup:
        await client.score(*pair)
    semaphore = asyncio.Semaphore(concurrency)

    async def one(pair):
        async with semaphore:
            return await client.score(*pair)

    best, scores = float("inf"), []
    for _ in range(repeat):
        t0 = time.perf_counter()
        scores = list(await asyncio.gather(*(one(p) for p in pairs)))
        best = min(best, time.perf_counter() - t0)
    return best, scores


async def _bench(n_pairs: int, length: int, concurrency: int, seed: int) -> dict:
    gen = np.random.default_rng(seed)
    pairs = [
        (random_dna(length, gen), random_dna(length, gen)) for _ in range(n_pairs)
    ]
    # Distinct warmup pairs: first requests pay numpy/loop start-up
    # costs, and (in the cache phase) must not pre-fill measured keys.
    warmup = [
        (random_dna(length, gen), random_dna(length, gen)) for _ in range(8)
    ]
    results: dict[str, dict] = {}

    # 1. Per-request sequential serving (the non-batching foil).
    (t_seq, seq_scores), _ = await _with_service(
        ServiceConfig(port=0, max_batch=1, cache_size=0),
        lambda c: _sequential(c, pairs, warmup=warmup, repeat=2),
    )
    results["sequential_per_request"] = {
        "seconds": round(t_seq, 4),
        "req_per_s": round(n_pairs / t_seq, 1),
    }

    # 2. Micro-batched serving at concurrency C (cache still off, so
    #    the speedup is batching alone, not result reuse).
    (t_batch, batch_scores), batch_stats = await _with_service(
        ServiceConfig(port=0, max_batch=concurrency, cache_size=0),
        lambda c: _concurrent(c, pairs, concurrency, warmup=warmup, repeat=3),
    )
    results["batched_concurrent"] = {
        "seconds": round(t_batch, 4),
        "req_per_s": round(n_pairs / t_batch, 1),
        "concurrency": concurrency,
        "batches": batch_stats["batches"]["dispatched"],
        "mean_batch_size": batch_stats["batches"]["mean_size"],
    }
    assert seq_scores == batch_scores  # serving is an execution detail

    # 3. Result cache: cold pass fills it, warm passes are pure lookups.
    async def cold_then_warm(client):
        t_cold, cold_scores = await _sequential(client, pairs, warmup=warmup)
        t_warm, warm_scores = await _sequential(client, pairs, repeat=3)
        assert cold_scores == warm_scores == seq_scores
        return t_cold, t_warm

    (t_cold, t_warm), cache_stats = await _with_service(
        ServiceConfig(port=0, max_batch=1, cache_size=4 * n_pairs),
        cold_then_warm,
    )
    results["cache_cold_pass"] = {
        "seconds": round(t_cold, 4),
        "mean_request_ms": round(t_cold / n_pairs * 1e3, 3),
    }
    results["cache_warm_pass"] = {
        "seconds": round(t_warm, 4),
        "mean_request_ms": round(t_warm / n_pairs * 1e3, 3),
        "hit_rate": cache_stats["cache"]["hit_rate"],
    }

    # 4. Tracing overhead on the align_many path: batched ``align``
    #    requests (kernels + traceback + serialization), every request
    #    traced at 100% sampling.  Rounds are interleaved against the
    #    *same* server instance — running all untraced rounds first
    #    would hand the traced side a better-warmed server and skew
    #    the ratio.  max_batch == concurrency, and batches follow the
    #    worker: the client's semaphore, not a clock, decides how many
    #    requests each batch holds, the same on both sides of the A/B,
    #    so it resolves span-capture cost rather than batch-formation
    #    luck.
    from fragalign.obs import new_trace_context

    # Overhead is judged on *process CPU time* (client + server + the
    # batcher's worker thread share this process), not wall clock:
    # tracing adds pure CPU work, the server is CPU-bound at this
    # concurrency (so CPU overhead == throughput overhead at
    # saturation), and wall-clock A/B on a shared host carries
    # scheduler noise far larger than the 3% effect being resolved.
    # Contention noise in CPU time is strictly additive (a neighbour
    # can only make instructions slower, never faster), so the MINIMUM
    # over interleaved rounds converges on the true cost.  The GC is
    # paused across the timed rounds — the same thing ``timeit`` does
    # by default — so collection scheduling doesn't land on one side.
    async def plain_then_traced(client):
        semaphore = asyncio.Semaphore(concurrency)

        async def one(pair, traced):
            async with semaphore:
                trace = new_trace_context() if traced else None
                return await client.align(*pair, trace=trace)

        async def one_round(traced):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            alignments = list(
                await asyncio.gather(*(one(p, traced) for p in pairs))
            )
            wall = time.perf_counter() - wall0
            return wall, time.process_time() - cpu0, alignments

        for pair in warmup:
            await client.align(*pair)
        await one_round(False)  # warm the concurrent align path itself
        plain_best = traced_best = (float("inf"), float("inf"))
        plain_alns = traced_alns = []
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for _ in range(12):
                wall, cpu, plain_alns = await one_round(False)
                plain_best = (min(plain_best[0], wall), min(plain_best[1], cpu))
                wall, cpu, traced_alns = await one_round(True)
                traced_best = (min(traced_best[0], wall), min(traced_best[1], cpu))
        finally:
            if gc_was_enabled:
                gc.enable()
        assert plain_alns == traced_alns  # tracing is non-semantic
        assert [a.score for a in plain_alns] == seq_scores
        return plain_best, traced_best

    (plain_best, traced_best), _ = await _with_service(
        ServiceConfig(port=0, max_batch=concurrency, cache_size=0),
        plain_then_traced,
    )
    overhead_pct = (traced_best[1] / max(plain_best[1], 1e-9) - 1.0) * 100
    results["tracing_full_sampling"] = {
        "untraced_seconds": round(plain_best[0], 4),
        "traced_seconds": round(traced_best[0], 4),
        "untraced_cpu_seconds": round(plain_best[1], 4),
        "traced_cpu_seconds": round(traced_best[1], 4),
        "overhead_pct": round(overhead_pct, 2),
    }

    # 5. Tail-sampling overhead on the same align_many path: the v2
    #    operating mode (server-initiated traces at a 10% head rate,
    #    slow/error retention) vs no sampler at all.  The client sends
    #    no trace context here — the *server* starts a trace per pair
    #    request, decides at completion, and mostly drops.
    #
    #    Methodology: sampling changes the server's config, so both
    #    sides run as separate servers — but booted *simultaneously*
    #    and measured in interleaved rounds, because machine-load drift
    #    between two sequential boots swamps a 3% signal.  As in (4),
    #    max_batch == concurrency and the client's semaphore, not a
    #    clock, forms the batches, so both servers see the same batch
    #    sizes and the A/B measures span capture.
    async def one_sampling_round(client):
        semaphore = asyncio.Semaphore(concurrency)

        async def one(pair):
            async with semaphore:
                return await client.align(*pair)

        wall0, cpu0 = time.perf_counter(), time.process_time()
        alignments = list(await asyncio.gather(*(one(p) for p in pairs)))
        wall = time.perf_counter() - wall0
        return wall, time.process_time() - cpu0, alignments

    sampling_cfgs = [
        ServiceConfig(port=0, max_batch=concurrency, cache_size=0),
        ServiceConfig(port=0, max_batch=concurrency, cache_size=0, trace_sample=0.1),
    ]
    sampling_servers = [AlignmentService(cfg) for cfg in sampling_cfgs]
    for service in sampling_servers:
        await service.start()
    sampling_clients = [
        await AsyncAlignmentClient.connect(port=service.port)
        for service in sampling_servers
    ]
    try:
        for client in sampling_clients:
            for pair in warmup:
                await client.align(*pair)
            await one_sampling_round(client)  # warm the concurrent path
        best = [(float("inf"), float("inf")), (float("inf"), float("inf"))]
        alns = [None, None]
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for round_no in range(16):
                # Alternate order each round so scheduling bias cancels.
                order = (0, 1) if round_no % 2 == 0 else (1, 0)
                for side in order:
                    wall, cpu, alignments = await one_sampling_round(
                        sampling_clients[side]
                    )
                    best[side] = (min(best[side][0], wall), min(best[side][1], cpu))
                    alns[side] = alignments
        finally:
            if gc_was_enabled:
                gc.enable()
    finally:
        for client in sampling_clients:
            await client.shutdown()
            await client.close()
        for service in sampling_servers:
            await service.wait_closed()
            service.close()
    (unsampled_best, sampled_best) = best
    assert alns[0] == alns[1]  # sampling is non-semantic
    sampling_overhead_pct = (
        sampled_best[1] / max(unsampled_best[1], 1e-9) - 1.0
    ) * 100
    results["tail_sampling_10pct"] = {
        "unsampled_seconds": round(unsampled_best[0], 4),
        "sampled_seconds": round(sampled_best[0], 4),
        "unsampled_cpu_seconds": round(unsampled_best[1], 4),
        "sampled_cpu_seconds": round(sampled_best[1], 4),
        "overhead_pct": round(sampling_overhead_pct, 2),
    }

    return {
        "experiment": "B-SERVICE micro-batched serving throughput",
        "config": {
            "n_pairs": n_pairs,
            "length": length,
            "concurrency": concurrency,
            "backend": "numpy",
        },
        "results": results,
        "speedup_batched_vs_sequential": round(t_seq / max(t_batch, 1e-9), 1),
        "speedup_warm_cache_vs_cold": round(t_cold / max(t_warm, 1e-9), 1),
    }


def run_service_bench(
    n_pairs: int = 384, length: int = 128, concurrency: int = 64, seed: int = 2026
) -> dict:
    """Run the serving benchmark; return the JSON-able report."""
    return asyncio.run(_bench(n_pairs, length, concurrency, seed))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small sizes for CI smoke runs"
    )
    parser.add_argument("--pairs", type=int, default=384)
    parser.add_argument("--length", type=int, default=128)
    parser.add_argument("--concurrency", type=int, default=64)
    parser.add_argument(
        "--out",
        default=None,
        help="where to write the JSON report (default: repo-root "
        "BENCH_service.json; quick runs don't write unless --out is given)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.pairs, args.length, args.concurrency = 24, 64, 8
    report = run_service_bench(args.pairs, args.length, args.concurrency)
    print(json.dumps(report, indent=2))
    out = args.out
    if out is None and not args.quick:
        out = Path(__file__).resolve().parent.parent / "BENCH_service.json"
    if out:
        Path(out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}", file=sys.stderr)
    if not args.quick:
        failures = []
        if report["speedup_batched_vs_sequential"] < 5.0:
            failures.append(
                f"batched speedup {report['speedup_batched_vs_sequential']} < 5x"
            )
        if report["speedup_warm_cache_vs_cold"] < 10.0:
            failures.append(
                f"warm-cache speedup {report['speedup_warm_cache_vs_cold']} < 10x"
            )
        overhead = report["results"]["tracing_full_sampling"]["overhead_pct"]
        if overhead > 3.0:
            failures.append(f"tracing overhead {overhead}% > 3%")
        sampling = report["results"]["tail_sampling_10pct"]["overhead_pct"]
        if sampling > 3.0:
            failures.append(f"tail-sampling overhead {sampling}% > 3%")
        if failures:
            print("FAIL: " + "; ".join(failures), file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
