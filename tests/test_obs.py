"""Observability: metrics registry, tracing, kernel profiling, logging.

Standing invariants:

* trace fields are non-semantic — a traced request gets byte-identical
  answers, batching and cache keys to an untraced one (the analyzer
  enforces the registration flags; these tests exercise the wiring);
* histogram quantiles are exact to within one bucket width
  (``10**(1/8) ≈ 1.33×``) and, unlike the old 4096-sample deque, free
  of recency bias;
* expositions are mergeable: scrape-side quantiles over summed bucket
  counts equal server-side quantiles over the same data.
"""

from __future__ import annotations

import asyncio
import io
import json
import logging
import threading
import time
from collections import deque

import numpy as np
import pytest

from fragalign.cluster import HealthMonitor, ShardRouter
from fragalign.engine import AlignmentEngine
from fragalign.obs import (
    KernelProfiler,
    MetricsRegistry,
    Span,
    TraceBuffer,
    TraceContext,
    Tracer,
    child_context,
    configure_logging,
    default_latency_buckets,
    get_logger,
    merge_expositions,
    new_trace_context,
    parse_exposition,
)
from fragalign.obs.kprof import format_top, top_rows, top_rows_from_exposition
from fragalign.obs.metrics import histogram_quantile_from_samples
from fragalign.obs.trace import span_tree
from fragalign.service import AlignmentClient, AlignmentService, ServiceConfig
from fragalign.service.stats import ServiceStats


# -- in-thread service harness (mirrors test_cluster.py) ---------------


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


@pytest.fixture()
def one_server():
    holder = _serve_in_thread(
        ServiceConfig(port=0, max_batch=16, cache_size=256)
    )
    yield holder
    _stop_shard(holder)


@pytest.fixture()
def three_shards():
    holders = [
        _serve_in_thread(
            ServiceConfig(port=0, max_batch=16, cache_size=256)
        )
        for _ in range(3)
    ]
    yield holders
    for holder in holders:
        _stop_shard(holder)


def _addresses(holders) -> list[tuple[str, int]]:
    return [("127.0.0.1", h["port"]) for h in holders]


# -- metrics registry --------------------------------------------------


class TestInstruments:
    def test_counter_labels_and_monotonicity(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "help", labels=("op",))
        c.inc(op="score")
        c.inc(2, op="score")
        c.inc(op="align")
        assert c.value(op="score") == 3
        assert c.value(op="align") == 1
        with pytest.raises(ValueError):
            c.inc(-1, op="score")
        with pytest.raises(ValueError):
            c.inc(op="score", extra="nope")

    def test_gauge_set_add_set_max(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(5)
        g.add(-2)
        assert g.value() == 3
        g.set_max(10)
        g.set_max(7)
        assert g.value() == 10

    def test_registry_create_or_get_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")
        with pytest.raises(ValueError):
            reg.gauge("a_total")  # same name, different kind

    def test_default_buckets_are_log_spaced(self):
        bounds = default_latency_buckets()
        ratios = [b / a for a, b in zip(bounds, bounds[1:])]
        assert all(abs(r - 10 ** 0.125) < 1e-6 for r in ratios)
        assert bounds[0] <= 1e-5 and bounds[-1] >= 30.0

    def test_histogram_quantile_within_one_bucket_width(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds")
        gen = np.random.default_rng(7)
        samples = np.exp(gen.normal(-5.0, 1.5, size=5000))
        for s in samples:
            h.observe(float(s))
        width = 10 ** 0.125  # per-decade=8 bucket ratio
        for q in (0.5, 0.9, 0.95, 0.99):
            true = float(np.quantile(samples, q))
            est = h.quantile(q)
            assert true / width <= est <= true * width, (q, true, est)

    def test_histogram_empty_and_bounds(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        assert h.quantile(0.95) == 0.0
        h.observe(100.0)  # overflow bucket reports largest finite bound
        assert h.quantile(0.5) == 4.0
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestExposition:
    def _loaded_registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("req_total", "requests", labels=("op",)).inc(3, op="score")
        reg.gauge("open", "conns").set(2)
        h = reg.histogram("lat", "latency", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.7, 5.0):
            h.observe(v)
        return reg

    def test_render_parse_round_trip(self):
        reg = self._loaded_registry()
        parsed = parse_exposition(reg.render())
        s = parsed["samples"]
        assert s[("req_total", (("op", "score"),))] == 3
        assert s[("open", ())] == 2
        assert s[("lat_bucket", (("le", "1"),))] == 3  # cumulative
        assert s[("lat_count", ())] == 4
        assert parsed["types"]["lat"] == "histogram"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_exposition("this is not a metric line\n")

    def test_merge_sums_counters_and_buckets(self):
        text = self._loaded_registry().render()
        merged = parse_exposition(merge_expositions([text, text]))["samples"]
        assert merged[("req_total", (("op", "score"),))] == 6
        assert merged[("lat_count", ())] == 8
        assert merged[("lat_bucket", (("le", "+Inf"),))] == 8

    def test_merged_output_is_reparseable(self):
        text = self._loaded_registry().render()
        twice = merge_expositions([text, text])
        again = merge_expositions([twice])  # idempotent round trip
        assert parse_exposition(again)["samples"] == parse_exposition(twice)["samples"]

    def test_scrape_side_quantile_matches_server_side(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        gen = np.random.default_rng(11)
        for v in np.exp(gen.normal(-4.0, 1.0, size=2000)):
            h.observe(float(v))
        samples = parse_exposition(reg.render())["samples"]
        for q in (0.5, 0.95, 0.99):
            assert histogram_quantile_from_samples(samples, "lat", q) == pytest.approx(
                h.quantile(q)
            )

    def test_merged_quantile_over_two_shards(self):
        # Two shards with disjoint latency regimes: the merged p95 must
        # reflect the union, not either shard alone.
        regs = [MetricsRegistry() for _ in range(2)]
        for v in [0.001] * 900 + [0.5] * 100:
            regs[0].histogram("lat").observe(v)
        for v in [0.001] * 1000:
            regs[1].histogram("lat").observe(v)
        merged = parse_exposition(
            merge_expositions([r.render() for r in regs])
        )["samples"]
        width = 10 ** 0.125
        # 100/2000 slow: p95 stays in the fast regime, p99 lands in
        # the slow one — only the union of both shards shows that.
        p95 = histogram_quantile_from_samples(merged, "lat", 0.95)
        assert p95 <= 0.001 * width
        p99 = histogram_quantile_from_samples(merged, "lat", 0.99)
        assert p99 >= 0.5 / width


def _legacy_deque_p95(observations: list[float]) -> float:
    """The pre-histogram estimator: newest 4096 samples, nearest rank."""
    reservoir: deque[float] = deque(maxlen=4096)
    reservoir.extend(observations)
    ordered = sorted(reservoir)
    idx = min(len(ordered) - 1, max(0, round(0.95 * (len(ordered) - 1))))
    return ordered[idx]


class TestRecencyBiasRegression:
    def test_old_reservoir_under_reports_p95_histogram_does_not(self):
        # A latency regression early in the window followed by a burst
        # of fast requests: 500 slow (100 ms) then 8000 fast (1 ms).
        # True p95 over all 8500 observations is still 100 ms-class
        # (slow fraction ≈ 5.9% > 5%), but the slow samples have fallen
        # out of the 4096-deep deque entirely.
        observations = [0.1] * 500 + [0.001] * 8000
        true_p95 = float(np.quantile(observations, 0.95))
        assert true_p95 == pytest.approx(0.1)

        legacy = _legacy_deque_p95(observations)
        assert legacy == pytest.approx(0.001)  # off by 100x: the bug

        h = MetricsRegistry().histogram("lat")
        for v in observations:
            h.observe(v)
        width = 10 ** 0.125
        assert true_p95 / width <= h.quantile(0.95) <= true_p95 * width

    def test_service_stats_snapshot_uses_histogram_estimator(self):
        stats = ServiceStats()
        for v in [0.1] * 500 + [0.001] * 8000:
            stats.observe_request("score")
            stats.observe_latency(v)
        snap = stats.snapshot()
        assert snap["latency_ms"]["estimator"] == "histogram"
        width = 10 ** 0.125
        assert snap["latency_ms"]["p95"] >= 100.0 / width  # not 1 ms


# -- tracing -----------------------------------------------------------


class TestTraceContext:
    def test_child_links_parent_and_shares_trace(self):
        root = new_trace_context()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_child_context_none_means_tracing_off(self):
        assert child_context(None, None) is None
        assert child_context("", "abc") is None
        ctx = child_context("t1", "p1")
        assert ctx is not None and ctx.trace_id == "t1" and ctx.parent_id == "p1"

    def test_to_wire_carries_exactly_two_fields(self):
        ctx = new_trace_context()
        assert set(ctx.to_wire()) == {"trace_id", "span_id"}


class TestTraceBuffer:
    def test_ring_drops_oldest_and_counts(self):
        buf = TraceBuffer(maxlen=3)
        tracer = Tracer(buf)
        ctx = new_trace_context()
        for k in range(5):
            tracer.record(ctx, f"s{k}", 0.001)
        assert len(buf) == 3
        assert buf.dropped == 2
        assert [s.name for s in buf.peek()] == ["s2", "s3", "s4"]

    def test_drain_filters_by_trace_and_keeps_others(self):
        buf = TraceBuffer()
        tracer = Tracer(buf)
        a, b = new_trace_context(), new_trace_context()
        tracer.record(a, "a1", 0.001)
        tracer.record(b, "b1", 0.001)
        tracer.record(a, "a2", 0.001)
        drained = buf.drain(a.trace_id)
        assert [s.name for s in drained] == ["a1", "a2"]
        assert [s.name for s in buf.peek()] == ["b1"]
        assert buf.drain() and not buf.peek()  # unfiltered drain empties

    def test_span_round_trips_through_dict(self):
        span = Span("t", "s", "p", "work", 1.0, 0.5, {"op": "score"})
        assert Span.from_dict(span.to_dict()) == span

    def test_tracer_span_contextmanager_times_and_parents(self):
        tracer = Tracer()
        root = new_trace_context()
        with tracer.span(root, "outer", op="x") as outer_ctx:
            assert outer_ctx.parent_id == root.span_id
            with tracer.span(outer_ctx, "inner"):
                pass
        spans = {s.name: s for s in tracer.buffer.drain()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].tags == {"op": "x"}
        assert spans["outer"].duration_s >= spans["inner"].duration_s >= 0
        # ctx=None is a no-op everywhere.
        with tracer.span(None, "ghost"):
            pass
        tracer.record(None, "ghost", 1.0)
        assert not tracer.buffer.peek()


# -- kernel profiling --------------------------------------------------


class TestKernelProfiler:
    def test_record_accumulates_per_family(self):
        reg = MetricsRegistry()
        prof = KernelProfiler(reg)
        prof.record("score_many", "numpy", "global", [(64, 64)] * 8, 0.5)
        prof.record("score_many", "numpy", "global", [(64, 64)] * 4, 0.5)
        rows = top_rows(reg)
        assert len(rows) == 1
        row = rows[0]
        assert row["calls"] == 2 and row["pairs"] == 12
        assert row["cells"] == 12 * 64 * 64
        assert row["max_batch"] == 8
        assert row["mcells_per_s"] == pytest.approx(12 * 64 * 64 / 1.0 / 1e6)

    def test_engine_facade_records_when_profiler_attached(self):
        reg = MetricsRegistry()
        with AlignmentEngine(backend="numpy") as eng:
            eng.profiler = KernelProfiler(reg)
            eng.score("ACGTACGT", "ACGTAGGT")
            eng.align("ACGTACGT", "ACGTAGGT")
            eng.score_many([("ACGT", "AGGT"), ("ACGTA", "AGGTA")])
            eng.align_many([("ACGT", "AGGT")], mode="local")
        families = {(r["family"], r["mode"]) for r in top_rows(reg)}
        assert ("score", "global") in families
        assert ("align", "global") in families
        assert ("score_many", "global") in families
        assert ("align_many", "local") in families
        # mixed-shape batch: one dispatch of both pairs
        row = next(r for r in top_rows(reg) if r["family"] == "score_many")
        assert row["calls"] == 1 and row["pairs"] == 2

    def test_profiler_off_changes_nothing(self):
        with AlignmentEngine() as eng:
            assert eng.profiler is None
            baseline = eng.score("ACGTACGT", "ACGTAGGT")
        reg = MetricsRegistry()
        with AlignmentEngine() as eng:
            eng.profiler = KernelProfiler(reg)
            assert eng.score("ACGTACGT", "ACGTAGGT") == baseline

    def test_format_top_renders_table_or_placeholder(self):
        assert "no kernel-profile samples" in format_top([])
        reg = MetricsRegistry()
        KernelProfiler(reg).record("score", "numpy", "global", [(8, 8)], 0.01)
        table = format_top(top_rows(reg))
        assert "FAMILY" in table and "score" in table and "MCELLS/S" in table

    def test_rows_survive_exposition_round_trip(self):
        reg = MetricsRegistry()
        KernelProfiler(reg).record("align", "numpy", "banded", [(32, 32)], 0.25)
        direct = top_rows(reg)
        scraped = top_rows_from_exposition(reg.render())
        assert direct == scraped


# -- structured logging ------------------------------------------------


class TestLogging:
    def test_json_formatter_emits_parseable_lines_with_extras(self):
        stream = io.StringIO()
        configure_logging(level="info", json_format=True, stream=stream)
        try:
            get_logger("service").info(
                "server started", extra={"port": 1234, "backend": "numpy"}
            )
            record = json.loads(stream.getvalue().strip())
            assert record["event"] == "server started"
            assert record["level"] == "INFO"
            assert record["logger"] == "fragalign.service"
            assert record["port"] == 1234 and record["backend"] == "numpy"
        finally:
            logging.getLogger("fragalign").handlers.clear()

    def test_level_threshold_and_text_format(self):
        stream = io.StringIO()
        configure_logging(level="warning", json_format=False, stream=stream)
        try:
            get_logger("cluster").info("quiet", extra={})
            get_logger("cluster").warning("shard evicted", extra={"shard": "s0"})
            out = stream.getvalue()
            assert "quiet" not in out
            assert "shard evicted" in out and "shard=s0" in out
        finally:
            logging.getLogger("fragalign").handlers.clear()

    def test_configure_is_idempotent(self):
        stream = io.StringIO()
        configure_logging(stream=stream)
        configure_logging(stream=stream)
        try:
            assert len(logging.getLogger("fragalign").handlers) == 1
        finally:
            logging.getLogger("fragalign").handlers.clear()


# -- service integration ----------------------------------------------


def _tree_is_consistent(spans: list[dict], root: TraceContext) -> bool:
    ids = {s["span_id"] for s in spans}
    return all(
        s["parent_id"] == root.span_id or s["parent_id"] in ids for s in spans
    ) and all(s["trace_id"] == root.trace_id for s in spans)


class TestServiceObservability:
    def test_traced_request_yields_full_span_tree(self, one_server):
        with AlignmentClient("127.0.0.1", one_server["port"]) as client:
            root = new_trace_context()
            client.score("ACGTACGTAC", "ACGTAGGTAC", trace=root)
            reply = client.trace_spans(root.trace_id)
        names = {s["name"] for s in reply["spans"]}
        assert {
            "server.read",
            "server.cache",
            "batcher.wait",
            "batcher.compute",
            "server.write",
            "server.request",
        } <= names
        assert _tree_is_consistent(reply["spans"], root)
        assert reply["dropped"] == 0
        # The server-side request span parents directly under the
        # caller's wire span.
        request_span = next(
            s for s in reply["spans"] if s["name"] == "server.request"
        )
        assert request_span["parent_id"] == root.span_id

    def test_server_read_excludes_an_idle_kept_alive_gap(self, one_server):
        with AlignmentClient("127.0.0.1", one_server["port"]) as client:
            client.score("ACGTACGT", "ACGTAGGT")  # opens the connection
            time.sleep(0.05)  # idle on the kept-alive connection
            root = new_trace_context()
            client.score("ACGTACGTAC", "ACGTAGGTAC", trace=root)
            reply = client.trace_spans(root.trace_id)
        read = next(s for s in reply["spans"] if s["name"] == "server.read")
        assert read["duration_s"] < 0.005

    def test_cache_hit_trace_has_no_batcher_spans(self, one_server):
        with AlignmentClient("127.0.0.1", one_server["port"]) as client:
            client.score("ACGTACGT", "ACGTAGGT")  # seed the cache
            root = new_trace_context()
            client.score("ACGTACGT", "ACGTAGGT", trace=root)
            reply = client.trace_spans(root.trace_id)
        names = {s["name"] for s in reply["spans"]}
        assert "batcher.compute" not in names
        cache_span = next(s for s in reply["spans"] if s["name"] == "server.cache")
        assert cache_span["tags"]["hit"] is True

    def test_untraced_requests_record_no_spans(self, one_server):
        with AlignmentClient("127.0.0.1", one_server["port"]) as client:
            client.score("ACGT", "AGGT")
            reply = client.trace_spans()
        assert reply["spans"] == []

    def test_traced_and_untraced_answers_are_identical(self, one_server):
        with AlignmentClient("127.0.0.1", one_server["port"]) as client:
            plain = client.score("ACGTACGTACGT", "ACGTAGGTACGT", mode="local")
            traced = client.score(
                "ACGTACGTACGT", "ACGTAGGTACGT", mode="local",
                trace=new_trace_context(),
            )
            aln_plain = client.align("ACGTAC", "ACGTTC")
            aln_traced = client.align("ACGTAC", "ACGTTC", trace=new_trace_context())
        assert plain == traced
        assert aln_plain == aln_traced

    def test_metrics_op_exposes_requests_latency_and_kernels(self, one_server):
        with AlignmentClient("127.0.0.1", one_server["port"]) as client:
            pairs = [("ACGTACGT", "ACGTAGGT" + "T" * k) for k in range(6)]
            client.score_many(pairs, concurrency=4)
            text = client.metrics()
        parsed = parse_exposition(text)
        samples = parsed["samples"]
        assert samples[("fragalign_requests_total", (("op", "score"),))] >= 6
        assert parsed["types"]["fragalign_request_latency_seconds"] == "histogram"
        kernel_calls = sum(
            v for (name, _), v in samples.items()
            if name == "fragalign_kernel_calls_total"
        )
        assert kernel_calls > 0

        # Every op's latency lands in the histogram after its response
        # is built, so a `metrics` answer and a later `stats` answer
        # can differ by the `metrics` op's own sample.  Read both views
        # in one callback on the server's loop: no request between them.
        async def both_views():
            service = one_server["service"]
            return service.render_metrics(), service.stats.snapshot()

        text, snap = asyncio.run_coroutine_threadsafe(
            both_views(), one_server["loop"]
        ).result(timeout=10)
        # Exposition-derived quantiles agree with the stats snapshot
        # (same histogram underneath).
        p95 = histogram_quantile_from_samples(
            parse_exposition(text)["samples"], "fragalign_request_latency_seconds", 0.95
        )
        # The snapshot rounds to 3 decimals; otherwise identical.
        assert snap["latency_ms"]["p95"] == pytest.approx(p95 * 1e3, abs=1e-3)

    def test_stats_snapshot_schema_is_additive(self, one_server):
        with AlignmentClient("127.0.0.1", one_server["port"]) as client:
            client.score("ACGT", "AGGT")
            snap = client.stats()
        # Pre-observability consumers keep working: the seed schema.
        assert {"uptime_s", "requests", "connections", "batches", "cache",
                "latency_ms"} <= set(snap)
        assert {"p50", "p95", "p99", "mean", "samples"} <= set(snap["latency_ms"])


# -- cluster integration ----------------------------------------------


class TestClusterObservability:
    def test_failover_produces_one_consistent_trace(self, three_shards):
        # A fresh pair (cold cache) so the surviving shard's batcher
        # and kernel spans appear in the tree.
        a, b = "ACGTACGTACGTACGTAC", "ACGTAGGTACGTAGGTAC"

        async def run():
            router = ShardRouter(_addresses(three_shards), max_attempts=3)
            try:
                victim = router.shard_for("score", a, b)
                holder = three_shards[
                    [f"127.0.0.1:{h['port']}" for h in three_shards].index(victim)
                ]
                _stop_shard(holder)
                root = new_trace_context()
                value = await router.score(a, b, trace=root)
                report = await router.collect_trace(root.trace_id)
                return value, report, root, router.router_stats()
            finally:
                await router.close()

        value, report, root, stats = asyncio.run(run())
        with AlignmentEngine() as eng:
            assert value == eng.score(a, b)
        assert stats["failovers"] == 1 and stats["evictions"] == 1

        spans = report["spans"]
        names = {s["name"] for s in spans}
        assert {
            "router.route", "router.attempt", "server.request",
            "batcher.wait", "batcher.compute",
        } <= names
        assert _tree_is_consistent(spans, root)

        attempts = [s for s in spans if s["name"] == "router.attempt"]
        assert len(attempts) == 2
        outcomes = sorted(s["tags"]["outcome"] for s in attempts)
        assert outcomes[-1] == "ok" and outcomes[0].startswith("failed")
        route = next(s for s in spans if s["name"] == "router.route")
        assert route["tags"]["failover"] is True
        assert route["tags"]["attempts"] == 2
        # Both attempts parent under the route span; the server-side
        # request span parents under the *successful* attempt.
        ok_attempt = next(s for s in attempts if s["tags"]["outcome"] == "ok")
        assert all(s["parent_id"] == route["span_id"] for s in attempts)
        request_span = next(s for s in spans if s["name"] == "server.request")
        assert request_span["parent_id"] == ok_attempt["span_id"]
        # The dead shard is reported unreachable, not silently skipped.
        assert len(report["errors"]) == 1

    def test_cluster_metrics_merges_shards_and_router(self, three_shards):
        pairs = [("ACGTACGTAC", "ACGTAGGTAC" + "T" * k) for k in range(12)]

        async def run():
            router = ShardRouter(_addresses(three_shards))
            try:
                await router.score_many(pairs, concurrency=8)
                per_shard = []
                for shard in router.configured_shards:
                    per_shard.append(await router.probe_shard(shard, "metrics"))
                return await router.cluster_metrics(), per_shard
            finally:
                await router.close()

        report, per_shard = asyncio.run(run())
        assert not report["errors"]
        merged = parse_exposition(report["merged"])["samples"]
        shard_totals = [
            parse_exposition(t)["samples"].get(
                ("fragalign_requests_total", (("op", "score"),)), 0.0
            )
            for t in per_shard
        ]
        # Every shard served some of the spread, and the merged counter
        # is within one extra metrics-scrape round of their sum.
        merged_scores = merged[("fragalign_requests_total", (("op", "score"),))]
        assert merged_scores >= len(pairs)
        assert merged_scores >= sum(shard_totals)
        assert merged[("fragalign_router_live_shards", ())] == 3
        routed_samples = [
            v for (name, _), v in merged.items()
            if name == "fragalign_router_requests_total"
        ]
        assert sum(routed_samples) == len(pairs)

    def test_health_monitor_records_probe_rtt(self, three_shards):
        async def run():
            router = ShardRouter(_addresses(three_shards))
            try:
                monitor = HealthMonitor(router, fail_after=2)
                await monitor.probe_round()
                await monitor.probe_round()
                return monitor.snapshot()
            finally:
                await router.close()

        snap = asyncio.run(run())
        for shard, record in snap["shards"].items():
            rtt = record["rtt_ms"]
            assert rtt["last"] is not None and rtt["last"] > 0
            assert rtt["ema"] is not None and rtt["ema"] > 0
            assert rtt["max"] >= rtt["last"] * 0.999

    def test_dead_shard_has_no_rtt_and_stays_failed(self):
        async def run():
            router = ShardRouter([("127.0.0.1", 1)], connect_timeout=0.5)
            try:
                monitor = HealthMonitor(router, fail_after=1, timeout=1.0)
                await monitor.probe_round()
                return monitor.snapshot()
            finally:
                await router.close()

        snap = asyncio.run(run())
        (record,) = snap["shards"].values()
        assert record["healthy"] is False
        assert record["rtt_ms"]["last"] is None


# -- CLI surface -------------------------------------------------------


class TestCliSurface:
    def test_parser_accepts_observability_flags(self):
        from fragalign.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--log-level", "debug", "--log-json", "--trace-sample", "0.5"]
        )
        assert args.log_level == "debug" and args.log_json and args.trace_sample == 0.5
        args = parser.parse_args(["client", "--trace"])
        assert args.trace is True
        args = parser.parse_args(
            ["cluster", "serve", "--log-level", "warning", "--log-json"]
        )
        assert args.log_level == "warning"
        args = parser.parse_args(["client", "--cluster-file", "x.json", "--trace"])
        assert args.trace is True and args.cluster_file == "x.json"
        args = parser.parse_args(["metrics", "--cluster-file", "x.json", "--summary"])
        assert args.summary is True
        args = parser.parse_args(["top", "--port", "9999", "--expect-samples"])
        assert args.expect_samples is True

    def test_metrics_command_against_live_server(self, one_server, capsys):
        from fragalign.cli import main

        with AlignmentClient("127.0.0.1", one_server["port"]) as client:
            client.score("ACGTACGT", "ACGTAGGT")
        rc = main(
            ["metrics", "--port", str(one_server["port"]), "--summary"]
        )
        out, err = capsys.readouterr()
        assert rc == 0
        parse_exposition(out)  # stdout is a well-formed exposition
        assert "request latency p95" in err

    def test_top_command_against_live_server(self, one_server, capsys):
        from fragalign.cli import main

        with AlignmentClient("127.0.0.1", one_server["port"]) as client:
            client.score("ACGTACGT", "ACGTAGGT")
        rc = main(["top", "--port", str(one_server["port"]), "--expect-samples"])
        out, _ = capsys.readouterr()
        assert rc == 0
        assert "FAMILY" in out and "score_many" in out

    def test_client_trace_flag_prints_span_tree(self, one_server, capsys):
        from fragalign.cli import main

        rc = main(
            [
                "client", "--port", str(one_server["port"]),
                "--requests", "4", "--concurrency", "2", "--length", "16",
                "--trace",
            ]
        )
        out, _ = capsys.readouterr()
        assert rc == 0
        assert "trace " in out and "server.request" in out

    def test_trace_command_prints_a_lone_servers_span_tree(self, one_server, capsys):
        from fragalign.cli import main

        root = new_trace_context()
        with AlignmentClient("127.0.0.1", one_server["port"]) as client:
            client.score("ACGTACGT", "ACGTAGGT", trace=root)
        rc = main(
            ["trace", "--port", str(one_server["port"]), "--trace-id", root.trace_id]
        )
        out, _ = capsys.readouterr()
        assert rc == 0
        assert f"trace {root.trace_id}:" in out and "server.request" in out

    def test_dash_once_renders_a_lone_server_as_one_shard(self, one_server, capsys):
        from fragalign.cli import main

        port = one_server["port"]
        with AlignmentClient("127.0.0.1", port) as client:
            client.score("ACGTACGT", "ACGTAGGT")
        assert main(["dash", "--once", "--no-color", "--port", str(port)]) == 0
        out = capsys.readouterr().out
        assert f"127.0.0.1:{port} " in out  # the shard row
        assert "shards 1/1" in out  # the router row

    def test_dash_keeps_one_router_so_a_burn_shows(
        self, one_server, capsys, monkeypatch, tmp_path
    ):
        """Two frames of one `dash` run around failing requests: the
        second pages, because both frames sample the same router."""
        import re
        import time

        from fragalign.cli import main
        from fragalign.obs.dash import CLEAR
        from fragalign.service import ServiceError

        port = one_server["port"]
        pauses = []

        def between_frames(seconds: float) -> None:
            pauses.append(seconds)
            if len(pauses) > 1:
                raise KeyboardInterrupt  # after the second frame
            with AlignmentClient("127.0.0.1", port) as client:
                client.score("ACGT", "AGGT")
                for _ in range(50):
                    with pytest.raises(ServiceError):
                        client.score("ACGT", "ACGT", mode="banded")  # no band

        with AlignmentClient("127.0.0.1", port) as client:
            client.score("ACGTACGT", "ACGTAGGT")  # the first frame has data
        cluster_file = tmp_path / "cluster.json"
        cluster_file.write_text(json.dumps({"host": "127.0.0.1", "shards": [{"port": port}]}))
        monkeypatch.setattr(time, "sleep", between_frames)
        assert main(
            ["dash", "--no-color", "--interval", "0", "--cluster-file", str(cluster_file)]
        ) == 0
        first, second = capsys.readouterr().out.split(CLEAR)[1:]
        assert re.search(r"^score_availability .* ok$", first, re.M)
        assert re.search(r"^score_availability .* page$", second, re.M)

    def test_slo_command_against_a_lone_server(self, one_server, capsys):
        from fragalign.cli import main

        port = str(one_server["port"])
        with AlignmentClient("127.0.0.1", one_server["port"]) as client:
            client.score("ACGTACGT", "ACGTAGGT")
        # Without --spec: the server's own targets and burn history.
        assert main(["slo", "--port", port, "--expect-ok"]) == 0
        assert "score_availability" in capsys.readouterr().out
        # With --spec: evaluated over the one-shard cluster's scrape.
        assert main(["slo", "--port", port, "--spec", "score p99 < 5s @ 50%", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in report["slos"]] == ["score_latency_5s"]
        assert report["shards_reporting"] == 1 and not report["errors"]

    def test_span_tree_printer_orders_children(self, capsys):
        from fragalign.cli import _print_span_tree

        root = new_trace_context()
        tracer = Tracer()
        with tracer.span(root, "outer") as outer:
            with tracer.span(outer, "inner"):
                pass
        spans = [s.to_dict() for s in tracer.buffer.drain()]
        _print_span_tree(spans, 0, root.trace_id)
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith(f"trace {root.trace_id}: 2 spans")
        outer_line = next(l for l in lines if "outer" in l)
        inner_line = next(l for l in lines if "inner" in l)
        assert len(inner_line) - len(inner_line.lstrip()) > (
            len(outer_line) - len(outer_line.lstrip())
        )

    def test_span_tree_helper_groups_by_parent(self):
        root = new_trace_context()
        tracer = Tracer()
        tracer.record(root, "a", 0.001)
        tracer.record(root, "b", 0.002)
        tree = span_tree(tracer.buffer.drain())
        assert {s.name for s in tree[root.span_id]} == {"a", "b"}
