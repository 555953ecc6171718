"""The per-layer ledger of the traced run.

Every row names a layer metric, the end-to-end metric it should move,
the workloads that should show the move (``up``) and those where the
prediction is "no change" (``same``).  Sources:

* **spans** — the server's own spans (``server.*``, ``batcher.*``),
  drained with the ``trace`` op from the traced open-loop phase, where
  one request in :data:`TRACE_EVERY` carries a trace id the benchmark
  chose; the router's ``router.attempt`` spans come from its in-process
  tracer.  Span metrics are means over the spans of that name.
* **counters** — deltas of the ``stats`` and ``metrics`` ops (result
  cache, batches, kernel profile) across the traced closed-loop phase,
  except ``batcher.batch_size_mean``, taken across the open-loop phase.
* **in-process** — the layers' public functions timed in this process
  on the run's own generated requests, after the servers have stopped.

On the single-server workloads there is no router: ``router.hop_us``
equals ``hop_us``, ``router.shard_skew`` is 1 and ``router.retries``
is 0.  ``kernel.align_mcells_per_s`` is 0 where no align request runs.

The timing functions import fragalign where they run, so the table
loads (for the self-tests) without the sources on the path.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from perfbench.workloads import Request, random_pairs, read_lengths

__all__ = ["LEDGER", "TRACE_EVERY", "Row", "span_metrics", "inprocess_metrics", "format_ledger"]

TRACE_EVERY = 4  # one request in this many carries a trace context

_R, _C, _F = "reads-score", "cluster-repeat", "fragments-align"
_ALL = f"{_R},{_F},{_C}"


@dataclass(frozen=True)
class Row:
    name: str
    unit: str
    better: str
    moves: str  # end-to-end metric(s) it should move
    up: str  # workloads expected to show the move
    same: str  # workloads where the prediction is no change


LEDGER: tuple[Row, ...] = (
    Row("protocol.decode_us", "us", "lower", "req_per_s,cpu_ms_per_req", f"{_R},{_C}", _F),
    Row("protocol.encode_us", "us", "lower", "req_per_s,cpu_ms_per_req", f"{_R},{_C}", _F),
    Row("server.request_us", "us", "lower", "req_per_s,p50_ms", _R, _F),
    Row("server.cache_us", "us", "lower", "req_per_s,p50_ms", _C, _F),
    Row("server.write_us", "us", "lower", "req_per_s,p50_ms", _R, _F),
    Row("server.self_us", "us", "lower", "req_per_s,p50_ms", _R, _F),
    Row("server.cache_hit_ratio", "ratio", "higher", "req_per_s,p50_ms", _C, _F),
    Row("server.coalesced", "count", "higher", "req_per_s,p50_ms", _C, _F),
    Row("batcher.wait_ms", "ms", "lower", "p50_ms,p99_ms", _ALL, "-"),
    Row("batcher.compute_ms", "ms", "lower", "p50_ms,p99_ms", _ALL, "-"),
    Row("batcher.batch_size_mean", "pairs", "higher", "p50_ms,p99_ms", _ALL, "-"),
    Row("engine.encode_us_per_seq", "us", "lower", "req_per_s", _R, _C),
    Row("engine.score_many_us_per_pair", "us", "lower", "req_per_s", f"{_R},{_F}", _C),
    Row("engine.align_many_us_per_pair", "us", "lower", "req_per_s", _F, _C),
    Row("engine.kernel_calls_per_batch", "count", "lower", "req_per_s", _F, _C),
    Row("engine.pairs_per_kernel_call", "pairs", "higher", "req_per_s", _F, _C),
    Row("engine.reanchor.numpy_uniform128_us_per_pair", "us", "lower", "req_per_s", _F, _C),
    Row("engine.reanchor.numpy_mixed128_us_per_pair", "us", "lower", "req_per_s", _F, _C),
    Row("engine.reanchor.native_uniform128_us_per_pair", "us", "lower", "req_per_s", _R, _F),
    Row("engine.reanchor.native_mixed128_us_per_pair", "us", "lower", "req_per_s", _R, _F),
    Row("kernel.score_mcells_per_s", "Mcells/s", "higher", "req_per_s,p99_ms", _F, _R),
    Row("kernel.align_mcells_per_s", "Mcells/s", "higher", "req_per_s,p99_ms", _F, _R),
    Row("kernel.busy_frac", "ratio", "higher", "req_per_s,p99_ms", _F, _R),
    Row("router.key_us", "us", "lower", "req_per_s,p50_ms", _C, f"{_R},{_F}"),
    Row("router.hop_us", "us", "lower", "req_per_s,p50_ms", _C, f"{_R},{_F}"),
    Row("router.shard_skew", "ratio", "lower", "req_per_s,p50_ms", _C, f"{_R},{_F}"),
    Row("router.retries", "count", "lower", "req_per_s,p50_ms", _C, f"{_R},{_F}"),
    Row("hop_us", "us", "lower", "p50_ms", _ALL, "-"),
    Row("loadgen.late_ms_p99", "ms", "lower", "p50_ms", _ALL, "-"),
    Row("ledger.untimed_frac", "ratio", "lower", "p50_ms", _ALL, "-"),
    Row("trace.overhead_pct", "%", "lower", "req_per_s", _ALL, "-"),
)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def span_metrics(records, server_spans: list[dict], router_spans: list[dict]) -> tuple[dict, int]:
    """Span-derived ledger rows for the traced requests in ``records``;
    also returns how many traced requests had no ``server.request`` span."""
    by_trace: dict[str, list[dict]] = defaultdict(list)
    for span in server_spans:
        by_trace[span["trace_id"]].append(span)
    attempts = {
        s["trace_id"]: s["duration_s"]
        for s in router_spans
        if s["name"] == "router.attempt" and s.get("tags", {}).get("outcome") == "ok"
    }
    child_time: dict[str, list[float]] = defaultdict(list)
    requests, selfs, hops, client_hops = [], [], [], []
    missing = 0
    for r in records:
        if r.trace_id is None or r.error is not None:
            continue
        spans = by_trace.get(r.trace_id, ())
        top = next((s for s in spans if s["name"] == "server.request"), None)
        if top is None:
            missing += 1
            continue
        lo, duration = top["start_s"], top["duration_s"]
        children = [s for s in spans if s["parent_id"] == top["span_id"]]
        for s in children:
            child_time[s["name"]].append(s["duration_s"])
        covered = _covered(
            [(s["start_s"], s["start_s"] + s["duration_s"]) for s in children],
            lo, lo + duration,
        )
        requests.append(duration)
        selfs.append(duration - covered)
        client = r.done - r.sent
        client_hops.append(client - duration)
        hops.append(attempts.get(r.trace_id, client) - duration)

    def mean_us(values: list[float]) -> float:
        return statistics.fmean(values) * 1e6 if values else 0.0

    out = {
        "server.request_us": mean_us(requests),
        "server.cache_us": mean_us(child_time["server.cache"]),
        "server.write_us": mean_us(child_time["server.write"]),
        "server.self_us": mean_us(selfs),
        "batcher.wait_ms": mean_us(child_time["batcher.wait"]) / 1e3,
        "batcher.compute_ms": mean_us(child_time["batcher.compute"]) / 1e3,
        "hop_us": mean_us(hops),
        "router.hop_us": mean_us(client_hops),
        "ledger.untimed_frac": sum(selfs) / sum(requests) if requests else 0.0,
    }
    return out, missing


# -- in-process timing of the layers' public functions ------------------


def _per_item_us(fn, items, reps: int) -> float:
    """Median over ``reps`` passes of the mean µs per item."""
    runs = []
    for _ in range(reps):
        start = perf_counter()
        for item in items:
            fn(item)
        runs.append((perf_counter() - start) / len(items) * 1e6)
    return statistics.median(runs)


def _knobs(req: Request) -> dict:
    knobs = {"mode": req.mode}
    if req.gap_open is not None:
        knobs.update(gap_open=req.gap_open, gap_extend=req.gap_extend)
    return knobs


def _verb_us_per_pair(backend: str, verb: str, reqs: list[Request], batch: int, reps: int) -> float:
    """Cold-memo ``AlignmentEngine`` verb cost per pair, the requests
    cut into batches of ``batch`` per knob group as the batcher does."""
    from fragalign.engine.facade import AlignmentEngine

    groups: dict[tuple, list[Request]] = defaultdict(list)
    for req in reqs:
        groups[(req.mode, req.gap_open, req.gap_extend)].append(req)
    batches = [
        (_knobs(group[0]), [(r.a, r.b) for r in group[lo:lo + batch]])
        for group in groups.values()
        for lo in range(0, len(group), batch)
    ]
    runs = []
    for _ in range(reps):
        # cache_size=0 switches the encode memo off: every call is cold.
        with AlignmentEngine(backend=backend, cache_size=0) as engine:
            call = getattr(engine, verb)
            start = perf_counter()
            for knobs, pairs in batches:
                call(pairs, **knobs)
            runs.append((perf_counter() - start) / len(reqs) * 1e6)
    return statistics.median(runs)


def _wire(i: int, req: Request) -> dict:
    """The request object as the client puts it on the wire."""
    return {"id": i, "op": req.op, "a": req.a, "b": req.b, **_knobs(req)}


def inprocess_metrics(
    workload, seed: int, reqs: list[Request], expected: dict, batch: int
) -> dict:
    """Ledger rows timed in this process on the run's requests."""
    from fragalign.align.scoring_matrices import encode
    from fragalign.cluster.ring import HashRing, ring_key
    from fragalign.service.protocol import (
        alignment_from_dict, alignment_to_dict, decode_line, encode_line,
        ok_response, parse_request,
    )

    lines = [encode_line(_wire(i, r)) for i, r in enumerate(reqs)]
    answers = [
        (i, expected[r] if r.op == "score" else alignment_from_dict(expected[r]))
        for i, r in enumerate(reqs)
        if r in expected
    ]

    def respond(item) -> bytes:
        i, value = item
        result = value if isinstance(value, float) else alignment_to_dict(value)
        return encode_line(ok_response(i, result, cached=False))

    ring = HashRing(["127.0.0.1:1", "127.0.0.1:2"])
    seqs = [s for r in reqs for s in (r.a, r.b)]
    slow = workload.backend == "numpy"
    out = {
        "protocol.decode_us": _per_item_us(lambda line: parse_request(decode_line(line)), lines, 5),
        "protocol.encode_us": _per_item_us(respond, answers, 5),
        "engine.encode_us_per_seq": _per_item_us(encode, seqs, 5),
        "router.key_us": _per_item_us(
            lambda r: ring.node_for(ring_key(
                r.op, r.a, r.b, r.mode, None, "",
                gap_open=r.gap_open, gap_extend=r.gap_extend,
            )),
            reqs, 5,
        ),
        "engine.score_many_us_per_pair": _verb_us_per_pair(
            workload.backend, "score_many", reqs[: 192 if slow else 768], batch, 3
        ),
        "engine.align_many_us_per_pair": _verb_us_per_pair(
            workload.backend, "align_many", reqs[:48], batch, 3
        ),
    }
    out.update(_reanchor(seed))
    return out


def _reanchor(seed: int) -> dict:
    """The re-anchor table's engine rows: cold-memo ``score_many`` on
    768 distinct pairs, uniform 128 bp and 128 ± 28 bp, numpy and native."""
    rng = np.random.default_rng([seed, 128])
    inputs = {
        "uniform128": random_pairs(rng, np.full(2 * 768, 128)),
        "mixed128": random_pairs(rng, read_lengths(rng, 2 * 768)),
    }
    out = {}
    for backend in ("numpy", "native"):
        for shape, pairs in inputs.items():
            reqs = [Request("score", a, b, "global") for a, b in pairs]
            reps = 2 if (backend, shape) == ("numpy", "mixed128") else 3
            out[f"engine.reanchor.{backend}_{shape}_us_per_pair"] = _verb_us_per_pair(
                backend, "score_many", reqs, len(reqs), reps
            )
    return out


def format_ledger(values: dict) -> str:
    """The ledger as a fixed-width table, one row per metric."""
    lines = [
        f"{'metric':<46} {'value':>12} {'unit':<8} {'moves':<26} {'up':<44} same"
    ]
    for row in LEDGER:
        lines.append(
            f"{row.name:<46} {values[row.name]:>12.4f} {row.unit:<8} "
            f"{row.moves:<26} {row.up:<44} {row.same}"
        )
    return "\n".join(lines)
