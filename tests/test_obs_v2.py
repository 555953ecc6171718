"""Observability v2: SLOs, tail sampling + exemplars, journal, dash.

Standing invariants (the issue's acceptance criteria live here):

* tail sampling at a 10% head rate retains **100%** of errored and
  above-threshold-latency traces — only boring traces are shed;
* the trace ring buffer never loses or duplicates a span under
  concurrent drain + write, and its bound holds;
* exposition merge fails loudly on metric-type conflicts and
  round-trips empty histograms and NaN/Inf gauges;
* replaying a journal reproduces the recorded cache-hit structure
  (synthetic sequences preserve the dedup graph);
* the SLO engine's multi-window burn alerts page on fast burn and
  stay quiet on a healthy service.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time

import pytest

from fragalign.obs import (
    MetricsRegistry,
    TailSampler,
    TraceBuffer,
    Tracer,
    build_state,
    diff_report,
    exemplar_for_quantile,
    merge_expositions,
    new_trace_context,
    parse_exposition,
    read_journal,
    render_frame,
    replay_journal,
    synth_sequence,
)
from fragalign.obs.journal import JournalWriter, build_record, format_diff_report
from fragalign.obs.kprof import KernelProfiler, top_rows
from fragalign.obs.slo import (
    PAGE_BURN,
    SLOEngine,
    format_slo_report,
    parse_slo,
)
from fragalign.service import AlignmentClient, AlignmentService, ServiceConfig


# -- in-thread service harness (mirrors test_obs.py) -------------------


def _entry(trace_id: str, name: str) -> tuple:
    """A raw deferred-span tuple (what leaf_entry builds from a ctx)."""
    return (trace_id, trace_id, name, 0.0, 0.001, None)


def _serve_in_thread(config: ServiceConfig):
    holder: dict = {}
    ready = threading.Event()

    def target():
        async def main():
            service = AlignmentService(config)
            await service.start()
            holder["service"] = service
            holder["port"] = service.port
            holder["loop"] = asyncio.get_running_loop()
            ready.set()
            await service.wait_closed()
            service.close()

        asyncio.run(main())

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    assert ready.wait(10), "service failed to start"
    holder["thread"] = thread
    return holder


def _stop_shard(holder) -> None:
    try:
        holder["loop"].call_soon_threadsafe(holder["service"].stop)
    except RuntimeError:
        pass
    holder["thread"].join(timeout=10)
    assert not holder["thread"].is_alive()


# -- tail-based sampling -----------------------------------------------


class TestTailSampler:
    def test_head_rate_is_deterministic_stride(self):
        sampler = TailSampler(head_rate=0.1, warmup=10_000)
        kept = sum(
            sampler.decide("score", 0.001, True).retain for _ in range(100)
        )
        assert kept == 10

    def test_acceptance_drill_errors_and_slow_always_retained(self):
        """The issue's acceptance criterion: at a 10% head rate, 100%
        of errored and above-threshold traces survive sampling."""
        sampler = TailSampler(
            head_rate=0.1, slow_factor=3.0, min_slow_s=0.0, warmup=20
        )
        # Warm the EWMA with boring 1ms traffic.
        for _ in range(200):
            sampler.decide("score", 0.001, True)
        threshold = sampler.slow_threshold("score")
        assert 0.001 < threshold < 0.01

        retained_errors = sum(
            sampler.decide("score", 0.001, False).retain for _ in range(50)
        )
        retained_slow = sum(
            sampler.decide("score", 0.050, True).retain for _ in range(50)
        )
        assert retained_errors == 50  # 100%
        assert retained_slow == 50  # 100%

    def test_reasons_and_counters(self):
        reg = MetricsRegistry()
        sampler = TailSampler(head_rate=0.5, warmup=5, registry=reg)
        for _ in range(10):
            sampler.decide("score", 0.001, True)
        assert sampler.decide("score", 0.001, False).reason == "error"
        assert sampler.decide("score", 10.0, True).reason == "slow"
        # Tallies batch on the hot path; publish() flushes them to the
        # registry (the server does this at every scrape).
        sampler.publish()
        text = reg.render()
        assert 'fragalign_traces_retained_total{reason="error"} 1' in text
        assert 'fragalign_traces_retained_total{reason="slow"} 1' in text
        # A second publish with no new decisions is a no-op, not a
        # double count.
        sampler.publish()
        assert 'fragalign_traces_retained_total{reason="error"} 1' in reg.render()

    def test_warmup_defers_slow_classification(self):
        sampler = TailSampler(head_rate=1.0, warmup=50)
        for _ in range(10):
            decision = sampler.decide("score", 5.0, True)
            assert decision.reason == "head"  # EWMA not trusted yet

    def test_per_op_isolation(self):
        sampler = TailSampler(head_rate=1.0, warmup=5, min_slow_s=0.0)
        for _ in range(50):
            sampler.decide("score", 0.001, True)
            sampler.decide("align", 1.0, True)
        # 10ms is slow for score (1ms mean), boring for align (1s mean).
        assert sampler.decide("score", 0.010, True).reason == "slow"
        assert sampler.decide("align", 0.010, True).reason == "head"


# -- trace buffer under concurrency ------------------------------------


class TestTraceBufferConcurrency:
    def test_concurrent_drain_and_write_loses_nothing(self):
        buf = TraceBuffer(maxlen=100_000)
        n_writers, per_writer = 4, 2_000
        drained: list = []
        stop = threading.Event()

        def writer(w: int) -> None:
            for k in range(per_writer):
                buf.append(_entry(f"t{w}-{k}", "work"))

        def drainer() -> None:
            while not stop.is_set():
                drained.extend(buf.drain())
            drained.extend(buf.drain())

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(n_writers)]
        d = threading.Thread(target=drainer)
        d.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        d.join()
        ids = [s.trace_id for s in drained]
        assert len(ids) == n_writers * per_writer  # nothing lost
        assert len(set(ids)) == len(ids)  # nothing duplicated
        assert buf.dropped == 0

    def test_ring_bound_holds_under_concurrent_writes(self):
        buf = TraceBuffer(maxlen=64)
        threads = [
            threading.Thread(
                target=lambda w=w: [
                    buf.append(_entry(f"t{w}-{k}", "x")) for k in range(500)
                ]
            )
            for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(buf) <= 64
        assert buf.dropped == 4 * 500 - len(buf)
        assert len(buf.drain()) <= 64

    def test_discard_removes_one_trace_without_counting_dropped(self):
        buf = TraceBuffer(maxlen=100)
        for k in range(10):
            buf.append(_entry("keep", f"s{k}"))
            buf.append(_entry("toss", f"s{k}"))
        assert buf.discard("toss") == 10
        spans = buf.drain()
        assert {s.trace_id for s in spans} == {"keep"}
        assert len(spans) == 10
        assert buf.dropped == 0  # discard is deliberate, not pressure

    def test_discard_missing_trace_is_noop(self):
        buf = TraceBuffer(maxlen=10)
        buf.append(_entry("a", "s"))
        assert buf.discard("nope") == 0
        assert len(buf) == 1


# -- kernel profiler under concurrency ---------------------------------


class TestKprofConcurrent:
    def test_concurrent_recording_is_exact(self):
        """The batcher thread records while the loop thread scrapes (and
        a library engine may be shared across threads): totals must come
        out exact, and no scrape may see a counter go backwards."""
        reg = MetricsRegistry()
        prof = KernelProfiler(reg)
        n_threads, per_thread = 8, 500
        done = threading.Event()
        scraped: list[float] = []

        def worker() -> None:
            for _ in range(per_thread):
                prof.record("score_many", "numpy", "global", [(64, 64)], 0.001)

        def scraper() -> None:
            while not done.is_set():
                scraped.extend(row["calls"] for row in top_rows(reg))

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        reader = threading.Thread(target=scraper)
        reader.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        done.set()
        reader.join(timeout=30)
        assert not any(t.is_alive() for t in [*threads, reader])
        assert scraped == sorted(scraped)
        rows = top_rows(reg)
        assert len(rows) == 1
        row = rows[0]
        assert row["calls"] == n_threads * per_thread
        assert row["pairs"] == n_threads * per_thread
        assert row["cells"] == n_threads * per_thread * 64 * 64
        assert row["seconds"] == pytest.approx(n_threads * per_thread * 0.001)


# -- exposition hardening: merge, NaN/Inf, exemplars -------------------


class TestExpositionHardening:
    def test_empty_histogram_round_trips(self):
        reg = MetricsRegistry()
        reg.histogram("empty_seconds", "help")
        text = reg.render()
        parsed = parse_exposition(text)
        assert parsed["samples"][("empty_seconds_count", ())] == 0.0
        merged = merge_expositions([text, text])
        reparsed = parse_exposition(merged)
        assert reparsed["samples"][("empty_seconds_count", ())] == 0.0

    def test_nan_and_inf_gauges_round_trip(self):
        reg = MetricsRegistry()
        g = reg.gauge("weird", "help", labels=("k",))
        g.set(float("nan"), k="nan")
        g.set(float("inf"), k="pinf")
        g.set(float("-inf"), k="ninf")
        samples = parse_exposition(reg.render())["samples"]
        assert math.isnan(samples[("weird", (("k", "nan"),))])
        assert samples[("weird", (("k", "pinf"),))] == float("inf")
        assert samples[("weird", (("k", "ninf"),))] == float("-inf")

    def test_merge_raises_on_type_conflict(self):
        a = MetricsRegistry()
        a.counter("thing", "help").inc()
        b = MetricsRegistry()
        b.gauge("thing", "help").set(1.0)
        with pytest.raises(ValueError, match="type conflict"):
            merge_expositions([a.render(), b.render()])

    def test_exemplar_round_trip_and_merge_keeps_newest(self):
        import re

        def one(trace_id: str, when: float) -> str:
            reg = MetricsRegistry()
            h = reg.histogram("lat_seconds", "help")
            h.observe(0.005, exemplar=trace_id)
            # Pin the exemplar timestamp so merge recency is testable.
            return re.sub(
                r'(\{trace_id="[^"]+"\} \S+) \S+$',
                rf"\1 {when!r}",
                reg.render(),
                flags=re.MULTILINE,
            )

        old, new = one("trace-old", 100.0), one("trace-new", 200.0)
        parsed = parse_exposition(merge_expositions([old, new]))
        exemplars = parsed["exemplars"]
        assert len(exemplars) == 1
        (trace_id, value, ts) = next(iter(exemplars.values()))
        assert trace_id == "trace-new"
        assert ts == 200.0

    def test_exemplar_for_quantile_finds_nearest_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", "help")
        for _ in range(99):
            h.observe(0.001)
        h.observe(0.5, exemplar="slow-trace")
        parsed = parse_exposition(reg.render())
        ex = exemplar_for_quantile(parsed, "lat_seconds", 0.99)
        assert ex is not None
        assert ex["trace_id"] == "slow-trace"

    def test_exemplar_absent_returns_none(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", "help")
        h.observe(0.001)
        parsed = parse_exposition(reg.render())
        assert exemplar_for_quantile(parsed, "lat_seconds", 0.99) is None
        assert exemplar_for_quantile(parsed, "missing_seconds", 0.99) is None


# -- SLO engine --------------------------------------------------------


def _slo_samples(good: float, total: float) -> dict:
    """A minimal parsed exposition for a `score availability` target."""
    return {
        "samples": {
            ("fragalign_requests_total", (("op", "score"),)): total,
            ("fragalign_errors_by_op_total", (("op", "score"),)): total - good,
        }
    }


class TestSLOEngine:
    def test_parse_latency_spec(self):
        t = parse_slo("score p99 < 50ms @ 99.9%")
        assert (t.op, t.kind) == ("score", "latency")
        assert t.threshold_s == pytest.approx(0.050)
        assert t.objective == pytest.approx(0.999)
        assert t.name == "score_latency_50ms"

    def test_parse_quantile_doubles_as_objective(self):
        t = parse_slo("align p95 < 2s")
        assert t.objective == pytest.approx(0.95)
        assert t.threshold_s == pytest.approx(2.0)

    def test_parse_availability_spec(self):
        t = parse_slo("align availability @ 99.9")
        assert (t.kind, t.name) == ("availability", "align_availability")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_slo("score should be fast please")

    def test_healthy_service_stays_ok(self):
        engine = SLOEngine.from_specs(["score availability @ 99%"])
        t0 = 1_000_000.0
        for k in range(100):
            engine.sample(_slo_samples(good=100.0 * k, total=100.0 * k), now=t0 + 60 * k)
        (report,) = engine.evaluate(now=t0 + 60 * 99)
        assert report["alert"] == "ok"
        assert report["compliance"] == pytest.approx(1.0)
        assert all(burn == 0.0 for burn in report["windows"].values())

    def test_fast_burn_pages(self):
        engine = SLOEngine.from_specs(["score availability @ 99.9%"])
        t0 = 1_000_000.0
        # 2h of clean history, then every request fails for 20 minutes.
        for k in range(120):
            engine.sample(_slo_samples(good=100.0 * k, total=100.0 * k), now=t0 + 60 * k)
        good = 100.0 * 119
        for k in range(20):
            engine.sample(
                _slo_samples(good=good, total=100.0 * (120 + k)),
                now=t0 + 60 * (120 + k),
            )
        (report,) = engine.evaluate(now=t0 + 60 * 139)
        assert report["windows"]["5m"] >= PAGE_BURN
        assert report["windows"]["1h"] >= PAGE_BURN
        assert report["alert"] == "page"

    def test_window_clamps_to_uptime(self):
        engine = SLOEngine.from_specs(["score availability @ 99%"])
        t0 = 1_000_000.0
        engine.sample(_slo_samples(good=100.0, total=100.0), now=t0)
        engine.sample(_slo_samples(good=100.0, total=200.0), now=t0 + 60)
        (report,) = engine.evaluate(now=t0 + 60)
        # All four windows clamp to the same 2-snapshot history, whose
        # delta is 100 requests, all bad: burn = 1.0 / 1% budget.
        assert report["windows"]["6h"] == pytest.approx(1.0 / 0.01)
        assert report["windows"]["5m"] == report["windows"]["6h"]

    def test_no_data_alert(self):
        engine = SLOEngine.from_specs(["align availability @ 99%"])
        (report,) = engine.evaluate()
        assert report["alert"] == "no-data"
        assert "no-data" in format_slo_report([report])

    def test_export_gauges_renders(self):
        engine = SLOEngine.from_specs(["score availability @ 99%"])
        engine.sample(_slo_samples(good=99.0, total=100.0), now=1_000.0)
        reg = MetricsRegistry()
        engine.export_gauges(reg, now=1_000.0)
        text = reg.render()
        assert 'fragalign_slo_burn_rate{slo="score_availability",window="5m"}' in text
        assert 'fragalign_slo_compliance{slo="score_availability"} 0.99' in text
        assert 'fragalign_slo_alert{slo="score_availability"} 0' in text

    def test_latency_target_reads_histogram(self):
        engine = SLOEngine.from_specs(["score p99 < 50ms @ 99%"])
        reg = MetricsRegistry()
        h = reg.histogram("fragalign_score_latency_seconds", "help")
        for _ in range(99):
            h.observe(0.001)
        h.observe(5.0)  # one blown request
        engine.sample(parse_exposition(reg.render()), now=1_000.0)
        (report,) = engine.evaluate(now=1_000.0)
        assert report["total"] == 100.0
        assert report["good"] == 99.0

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SLOEngine.from_specs(
                ["score availability @ 99%", "score availability @ 99.9%"]
            )


# -- journal + replay --------------------------------------------------


class TestJournal:
    def test_record_sanitized_by_default(self):
        rec = build_record(
            "score", "ACGT" * 8, "TTTT" * 8, {"mode": "global", "band": None},
            ok=True, duration_s=0.004, ts=1.0,
        )
        assert "a" not in rec and "b" not in rec
        assert rec["a_len"] == 32 and len(rec["a_sha"]) == 12
        assert rec["mode"] == "global"
        assert "band" not in rec  # None knobs elided

    def test_record_can_opt_sequences_in(self):
        rec = build_record(
            "score", "ACGT", "TTAA", {}, ok=True, include_sequences=True, ts=1.0
        )
        assert (rec["a"], rec["b"]) == ("ACGT", "TTAA")

    def test_rotation_bounds_disk_and_preserves_order(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        writer = JournalWriter(path, max_bytes=2_000, segments=3)
        for k in range(200):
            writer.write({"seq": k, "pad": "x" * 40})
        writer.close()
        segments = [p.name for p in sorted(tmp_path.iterdir())]
        assert len(segments) <= 3
        records = read_journal(path)
        assert len(records) < 200  # oldest segments fell off
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs)  # oldest-first, in arrival order
        assert seqs[-1] == 199

    def test_torn_line_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"ok": true}\n{"torn": ')
        assert read_journal(str(path)) == [{"ok": True}]

    def test_write_failure_flips_failed_not_raises(self, tmp_path):
        writer = JournalWriter(str(tmp_path / "nope" / "j.jsonl"))
        writer.write({"k": 1})  # parent dir missing -> OSError inside
        assert writer.failed
        writer.write({"k": 2})  # and subsequent writes no-op
        writer.close()

    def test_synth_sequence_deterministic_and_distinct(self):
        a1 = synth_sequence("abcdef012345", 64)
        a2 = synth_sequence("abcdef012345", 64)
        b = synth_sequence("fedcba543210", 64)
        assert a1 == a2 and len(a1) == 64
        assert a1 != b
        assert set(a1) <= set("ACGT")

    def test_replay_preserves_dedup_structure(self):
        """The acceptance criterion: replayed hit-rate within ±5 points
        of recorded.  A perfect cache replay is exact: repeated hashes
        synthesize identical pairs, so hits land exactly where the
        recorded traffic's hits did."""
        pairs = [("AAAA" + "C" * 28, "GGGG" + "T" * 28), ("ACAC" * 8, "GTGT" * 8)]
        records = []
        seen: set = set()
        for k in range(40):
            a, b = pairs[k % 2] if k % 4 < 2 else (f"U{k}" + "A" * 30, "C" * 32)
            hit = (a, b) in seen
            seen.add((a, b))
            records.append(
                build_record(
                    "score", a, b, {"mode": "global"},
                    ok=True, cached=hit, duration_s=0.002, ts=float(k),
                )
            )
        recorded_hits = sum(1 for r in records if r["cached"])

        cache: set = set()

        def send(op, a, b, knobs):
            hit = (a, b) in cache
            cache.add((a, b))
            return True, hit

        results = replay_journal(records, send, speed=0)
        diff = diff_report(records, results)
        assert diff["recorded"]["hit_rate"] == pytest.approx(recorded_hits / 40)
        assert abs(diff["hit_rate_delta"]) <= 0.05
        text = format_diff_report(diff)
        assert "cache hit rate" in text

    def test_coalesced_twins_count_as_repeats(self):
        # Recorded: each twin arrived while its job computed (coalesced,
        # not cached).  A serial replay sends one record at a time, so
        # every repeat hits: both runs answered 2 of 6 without compute.
        pairs = [("A" * 16, "C" * 16), ("G" * 16, "T" * 16), ("AC" * 8, "GT" * 8)]
        records = []
        for k, (a, b) in enumerate(pairs + pairs[:2] + pairs[2:]):
            twin = k in (3, 4)
            records.append(
                build_record(
                    "score", a, b, {}, ok=True, cached=False, ts=float(k),
                    disposition="coalesced" if twin else "computed",
                )
            )
        records[5]["cached"] = True  # a later repeat, after its job finished
        records[5]["disposition"] = "cache_hit"
        served: set = set()

        def send(op, a, b, knobs):
            hit = (a, b) in served
            served.add((a, b))
            return True, hit

        diff = diff_report(records, replay_journal(records, send, speed=0))
        assert diff["recorded"]["hit_rate"] == pytest.approx(3 / 6)
        assert diff["hit_rate_delta"] == 0

    def test_replay_paces_but_caps_gaps(self):
        records = [
            build_record("score", "A" * 8, "C" * 8, {}, ok=True, ts=0.0),
            build_record("score", "A" * 8, "C" * 8, {}, ok=True, ts=100.0),
        ]
        start = time.perf_counter()
        replay_journal(records, lambda *a: (True, False), speed=1.0, max_gap_s=0.05)
        assert time.perf_counter() - start < 2.0  # 100s gap capped


# -- dashboard pure halves ---------------------------------------------


class TestDash:
    def test_build_state_and_render_single_server(self):
        reg = MetricsRegistry()
        reg.counter("fragalign_requests_total", "h", labels=("op",)).inc(
            5, op="score"
        )
        reg.histogram("fragalign_request_latency_seconds", "h").observe(0.004)
        stats = {
            "requests": {"total": 5, "errors": 0},
            "latency_ms": {"p99": 4.2},
            "cache": {"hit_rate": 0.5},
            "resilience": {"degraded_mode": False, "shed": 0, "deadline_exceeded": 0},
        }
        router = {  # a lone server is a one-shard cluster
            "breakers": {"s1": "closed"},
            "live_shards": ["s1"],
            "configured_shards": ["s1"],
            "failovers": 0,
            "retries": 0,
            "hedges": 0,
            "breaker_fast_fails": 0,
        }
        state = build_state(
            cluster_stats={"router": router, "aggregate": {}, "shards": {"s1": stats}},
            slo_reports=[
                {
                    "name": "score_availability",
                    "op": "score",
                    "kind": "availability",
                    "objective": 0.999,
                    "threshold_s": None,
                    "windows": {"5m": 0.0, "1h": 0.0, "30m": 0.0, "6h": 0.0},
                    "compliance": 1.0,
                    "alert": "ok",
                    "good": 5,
                    "total": 5,
                }
            ],
            metrics_text=reg.render(),
            label="test",
        )
        assert state["router"]["live"] == state["router"]["configured"] == 1
        frame = render_frame(state, color=False)
        assert "fragalign dash" in frame
        assert "s1" in frame and "shards 1/1" in frame
        assert "score_availability" in frame
        assert "\x1b[" not in frame  # color off means no ANSI

    def test_render_marks_down_shard_and_paints_alerts(self):
        state = build_state(
            cluster_stats={
                "router": {
                    "breakers": {"s1": "open"},
                    "live_shards": [],
                    "configured_shards": ["s1"],
                    "failovers": 2,
                    "retries": 1,
                    "hedges": 0,
                    "breaker_fast_fails": 3,
                },
                "aggregate": {},
                "shards": {"s1": {"error": "ConnectionRefusedError"}},
            },
            slo_reports=[
                {
                    "name": "score_availability",
                    "op": "score",
                    "kind": "availability",
                    "objective": 0.999,
                    "threshold_s": None,
                    "windows": {"5m": 50.0, "1h": 30.0, "30m": 20.0, "6h": 10.0},
                    "compliance": 0.5,
                    "alert": "page",
                    "good": 1,
                    "total": 2,
                }
            ],
        )
        frame = render_frame(state, color=True)
        assert "DOWN" in frame
        assert "shards 0/1" in frame
        assert "\x1b[31m" in frame  # red paint on the paging SLO / down shard

    def test_empty_state_renders_placeholder(self):
        assert "no data yet" in render_frame(build_state(), color=False)


# -- end-to-end: server with sampling + journal + slo op ---------------


@pytest.fixture()
def sampled_server(tmp_path):
    holder = _serve_in_thread(
        ServiceConfig(
            port=0,
            max_batch=16,
            cache_size=256,
            trace_sample=0.1,
            journal=str(tmp_path / "journal.jsonl"),
        )
    )
    holder["journal_path"] = str(tmp_path / "journal.jsonl")
    yield holder
    _stop_shard(holder)


class TestServerIntegration:
    def test_sampling_journal_slo_exemplars_end_to_end(self, sampled_server):
        port = sampled_server["port"]
        with AlignmentClient("127.0.0.1", port) as client:
            pairs = [("ACGTACGT", "ACGGACGT"), ("TTTTCCCC", "TTTTGCCC")]
            for k in range(30):
                a, b = pairs[k % 2]
                client.score(a, b)
            # One guaranteed error: banded mode without a band.
            with pytest.raises(Exception):
                client.score("ACGT", "ACGT", mode="banded")
            slos = client.slo()["slos"]
            text = client.metrics()

        names = {s["name"] for s in slos}
        assert "score_availability" in names
        score_avail = next(s for s in slos if s["name"] == "score_availability")
        assert score_avail["total"] >= 31

        parsed = parse_exposition(text)
        samples = parsed["samples"]
        # The errored request was always retained (tail sampling).
        assert (
            samples.get(
                ("fragalign_traces_retained_total", (("reason", "error"),)), 0
            )
            >= 1
        )
        # Most boring traces were sampled out at a 10% head rate.
        assert samples.get(("fragalign_traces_sampled_out_total", ()), 0) > 0
        # SLO gauges ride the exposition.
        assert ("fragalign_slo_alert", (("slo", "score_availability"),)) in samples
        # At least one exemplar pins a retained trace to a bucket.
        assert parsed["exemplars"]

        # The journal recorded every pair request, sanitized.
        records = read_journal(sampled_server["journal_path"])
        assert len(records) == 31
        assert all("a" not in r for r in records)
        assert sum(1 for r in records if not r["ok"]) == 1
        assert sum(1 for r in records if r.get("disposition") == "cache_hit") > 0

    def test_retained_trace_resolvable_not_sampled_out_ones(self, sampled_server):
        port = sampled_server["port"]
        with AlignmentClient("127.0.0.1", port) as client:
            for k in range(40):
                client.score("ACGTACGT", "ACGGACGT")
            text = client.metrics()
            parsed = parse_exposition(text)
            ex = exemplar_for_quantile(
                parsed, "fragalign_request_latency_seconds", 0.99
            )
            assert ex is not None
            reply = client.trace_spans(ex["trace_id"])
        assert reply["spans"], "exemplar must resolve to a retained trace"
        assert {s["trace_id"] for s in reply["spans"]} == {ex["trace_id"]}

    def test_client_trace_bypasses_sampling(self, sampled_server):
        """A client-initiated trace context is always retained — the
        operator asked for that trace explicitly."""
        port = sampled_server["port"]
        with AlignmentClient("127.0.0.1", port) as client:
            for _ in range(5):
                ctx = new_trace_context()
                client.score("ACGTACGT", "TTGGAACC", trace=ctx)
                reply = client.trace_spans(ctx.trace_id)
                assert reply["spans"], "explicit traces must never be shed"
