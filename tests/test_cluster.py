"""The sharded serving tier: ring, router, health, warm, supervisor.

Standing invariants:

* routing is an execution detail — every response through the cluster
  equals what a direct ``AlignmentEngine`` call produces, in request
  order, no matter which shard served it or whether failover rerouted
  it mid-flight;
* the ring keys on the same ``(op, pair, mode, band, model)`` tuple as
  the service result cache, so per-shard caches are disjoint;
* losing one of N shards remaps only that shard's keys (~1/N) and the
  survivors absorb its traffic with no wrong answers.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import pytest

from fragalign.cluster import (
    ClusterClient,
    ClusterError,
    ClusterSupervisor,
    HashRing,
    HealthMonitor,
    ShardRouter,
    dump_keyset,
    generate_keyset,
    load_keyset,
    ring_key,
    warm_router,
)
from fragalign.engine import AlignmentEngine
from fragalign.job import JobSpec
from fragalign.service import AlignmentClient, AlignmentService, ServiceConfig, ServiceError
from fragalign.util.errors import InvalidArgument


class TestHashRing:
    KEYS = [ring_key("score", f"ACGT{i}", f"AGGT{i}") for i in range(2000)]

    def test_deterministic_and_membership_order_independent(self):
        ring_a = HashRing(["s0", "s1", "s2", "s3"])
        ring_b = HashRing(["s3", "s1", "s0", "s2"])
        assert [ring_a.node_for(k) for k in self.KEYS] == [
            ring_b.node_for(k) for k in self.KEYS
        ]

    def test_balance_over_four_nodes(self):
        ring = HashRing([f"s{i}" for i in range(4)], vnodes=96)
        spread = ring.spread(self.KEYS)
        assert set(spread) == {"s0", "s1", "s2", "s3"}
        for count in spread.values():
            # Perfect balance is 25%; vnode placement keeps every node
            # within a loose band of it.
            assert 0.10 <= count / len(self.KEYS) <= 0.45

    def test_node_loss_remaps_only_that_nodes_keys(self):
        ring = HashRing([f"s{i}" for i in range(4)], vnodes=96)
        before = {k: ring.node_for(k) for k in self.KEYS}
        ring.remove_node("s1")
        after = {k: ring.node_for(k) for k in self.KEYS}
        moved = [k for k in self.KEYS if before[k] != after[k]]
        # Exactly the lost node's keys move (the consistent-hash
        # guarantee), and that's ~1/N of the keyspace.
        assert all(before[k] == "s1" for k in moved)
        assert len(moved) / len(self.KEYS) <= 0.45
        # Readmission restores the original mapping bit-for-bit.
        ring.add_node("s1")
        assert {k: ring.node_for(k) for k in self.KEYS} == before

    def test_nodes_for_walks_distinct_replicas(self):
        ring = HashRing([f"s{i}" for i in range(4)])
        for key in self.KEYS[:50]:
            replicas = ring.nodes_for(key, 3)
            assert len(replicas) == 3
            assert len(set(replicas)) == 3
            assert replicas[0] == ring.node_for(key)
        assert len(ring.nodes_for(self.KEYS[0], 10)) == 4  # capped at N

    def test_ring_key_mirrors_cache_key_fields(self):
        base = ring_key("score", "ACGT", "AGGT", "global", None, "fp")
        assert base != ring_key("align", "ACGT", "AGGT", "global", None, "fp")
        assert base != ring_key("score", "ACGT", "AGGT", "local", None, "fp")
        assert base != ring_key("score", "ACGT", "AGGT", "banded", 4, "fp")
        assert base != ring_key("score", "ACGT", "AGGT", "global", None, "other")
        assert base == ring_key("score", "ACGT", "AGGT", "global", None, "fp")

    def test_ring_key_normalizes_like_the_server_cache_key(self):
        # The server resolves mode=None to its default and drops band
        # for non-banded modes before keying its cache; the routing
        # key must normalize identically or warmed results would sit
        # on a different shard than live traffic asks.
        explicit = ring_key("score", "ACGT", "AGGT", "global", None, "fp")
        assert ring_key("score", "ACGT", "AGGT", None, None, "fp") == explicit
        assert ring_key("score", "ACGT", "AGGT", "global", 8, "fp") == explicit
        assert (
            ring_key("score", "ACGT", "AGGT", None, None, "fp", default_mode="local")
            == ring_key("score", "ACGT", "AGGT", "local", None, "fp")
        )
        # band still keys banded requests.
        assert ring_key("score", "AC", "GT", "banded", 4, "fp") != ring_key(
            "score", "AC", "GT", "banded", 6, "fp"
        )

    def test_empty_ring_raises(self):
        ring = HashRing()
        with pytest.raises(LookupError, match="empty"):
            ring.node_for("anything")
        ring.add_node("only")
        ring.remove_node("only")
        with pytest.raises(LookupError):
            ring.node_for("anything")


def _serve_in_thread(config: ServiceConfig):
    """Start one service on a daemon thread; return its control handle."""
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
        pass  # loop already closed
    holder["thread"].join(timeout=10)
    assert not holder["thread"].is_alive()


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


class TestShardRouter:
    PAIRS = [("ACGTACGTAC", "ACGTAGGTAC" + "T" * k) for k in range(24)]

    def test_fan_out_merge_preserves_request_order(self, three_shards):
        async def run():
            async with ShardRouter(_addresses(three_shards)) as router:
                scores = await router.score_many(self.PAIRS, concurrency=8)
                alns = await router.align_many(self.PAIRS[:6], concurrency=4)
                return scores, alns, dict(router.routed)

        scores, alns, routed = asyncio.run(run())
        with AlignmentEngine() as eng:
            assert scores == [eng.score(a, b) for a, b in self.PAIRS]
            assert alns == eng.align_many(self.PAIRS[:6])
        # The batch actually fanned out: more than one shard served.
        assert len(routed) >= 2
        assert sum(routed.values()) == len(self.PAIRS) + 6

    # `shard_for` never connects, so routing tests need no servers: a
    # router over fixed addresses names its shards, and so places every
    # key, the same way on every run.
    FIXED = [("127.0.0.1", 7001), ("127.0.0.1", 7002), ("127.0.0.1", 7003)]

    def test_routing_is_deterministic_and_mode_aware(self):
        router = ShardRouter(self.FIXED)
        first = router.shard_for("score", "ACGTACGT", "AGGTACGT")
        again = router.shard_for("score", "ACGTACGT", "AGGTACGT")
        combos = [(op, mode) for op in ("score", "align") for mode in ("global", "local", "overlap")]
        spread = {router.shard_for(op, "ACGTACGT", "AGGTACGT", mode=mode) for op, mode in combos}
        assert first == again  # same request -> same shard, always
        # op/mode are part of the routing key: the six combinations
        # are six distinct keys...
        keys = {JobSpec(mode=mode).ring_key(op, "ACGTACGT", "AGGTACGT") for op, mode in combos}
        assert len(keys) == len(combos)
        # ...which these fixed addresses place on two of the three
        # shards (four and two).
        assert len(spread) >= 2

    def test_default_mode_routes_like_explicit_mode(self):
        router = ShardRouter(self.FIXED)
        implicit, explicit, with_band = (
            router.shard_for("score", "ACGTACGT", "AGGTACGT"),
            router.shard_for("score", "ACGTACGT", "AGGTACGT", mode="global"),
            router.shard_for("score", "ACGTACGT", "AGGTACGT", mode="global", band=8),
        )
        # A warmed default-mode entry and live explicit-global traffic
        # must land on the same shard cache.
        assert implicit == explicit == with_band

    def test_request_many_and_warm_refuse_a_misspelled_knob_before_sending(self):
        entries = [
            {"op": "score", "a": "ACGT", "b": "AGGT"},
            {"op": "score", "a": "ACGT", "b": "AGGT", "mdoe": "local"},
        ]

        async def run():
            async with ShardRouter(self.FIXED) as router:
                with pytest.raises(InvalidArgument, match="unknown request field 'mdoe'"):
                    await router.request_many(entries)
                with pytest.raises(InvalidArgument, match="unknown request field 'mdoe'"):
                    await warm_router(router, entries)
                return router.router_stats()

        stats = asyncio.run(run())
        # Refused whole: no entry was routed and no shard was dialled
        # (nothing listens on the fixed addresses, so a dial would evict).
        assert (stats["routed_total"], stats["retries"], stats["evictions"]) == (0, 0, 0)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"op": "score", "b": "AC"}, "needs string fields 'a' and 'b'"),
            ({"a": "A", "b": "C"}, "unknown pair op None"),
            ({"op": "score", "a": 3, "b": "AC"}, "needs string fields 'a' and 'b'"),
            ({"op": ["score"], "a": "A", "b": "C"}, "unknown pair op"),
        ],
    )
    def test_request_many_and_warm_refuse_a_malformed_entry_before_sending(self, bad, message):
        entries = [{"op": "score", "a": "ACGT", "b": "AGGT"}, bad]

        async def run():
            async with ShardRouter(self.FIXED) as router:
                with pytest.raises(InvalidArgument, match=message):
                    await router.request_many(entries)
                with pytest.raises(InvalidArgument, match=message):
                    await warm_router(router, entries)
                return router.router_stats()

        stats = asyncio.run(run())
        assert (stats["routed_total"], stats["retries"], stats["evictions"]) == (0, 0, 0)

    def test_per_request_modes_route_and_verify(self, three_shards):
        pairs = [("TTTTTACGTACGT", "ACGTACGTCCCC"), ("ACGTACGT", "ACGTAGGT")]

        async def run():
            async with ShardRouter(_addresses(three_shards)) as router:
                overlap = await router.score_many(pairs, mode="overlap")
                banded = await router.score_many(pairs, mode="banded", band=4)
                return overlap, banded

        overlap, banded = asyncio.run(run())
        with AlignmentEngine() as eng:
            assert overlap == [eng.score(a, b, mode="overlap") for a, b in pairs]
            assert banded == [
                eng.score(a, b, mode="banded", band=4) for a, b in pairs
            ]

    def test_shard_kill_failover_no_wrong_answers(self, three_shards):
        with AlignmentEngine() as eng:
            expected = [eng.score(a, b) for a, b in self.PAIRS]

        async def run():
            router = ShardRouter(_addresses(three_shards), max_attempts=3)
            try:
                warm = await router.score_many(self.PAIRS, concurrency=8)
                # Kill one shard that demonstrably owns traffic, then
                # replay: every request must still answer correctly.
                victim = max(router.routed, key=router.routed.get)
                holder = three_shards[
                    [f"127.0.0.1:{h['port']}" for h in three_shards].index(victim)
                ]
                _stop_shard(holder)
                replay = await router.score_many(self.PAIRS, concurrency=8)
                return warm, replay, router.router_stats()
            finally:
                await router.close()

        warm, replay, stats = asyncio.run(run())
        assert warm == expected
        assert replay == expected  # failed requests retried, no drift
        assert stats["evictions"] >= 1
        assert stats["failovers"] >= 1
        assert stats["failed_requests"] == 0
        assert len(stats["live_shards"]) == 2

    def test_concurrent_router_requests_share_shard_connections(self, three_shards):
        # Every request in flight at once: each shard's one pipelined
        # connection carries its share, and every reply reaches its own
        # caller by id.
        pairs = [(f"ACGT{'A' * (k % 7)}GT", f"AGGT{'C' * (k % 5)}ACGT") for k in range(300)]

        async def run():
            async with ShardRouter(_addresses(three_shards)) as router:
                scores = await router.score_many(pairs, concurrency=len(pairs))
                return scores, await router.cluster_stats()

        scores, stats = asyncio.run(run())
        with AlignmentEngine() as eng:
            assert scores == [float(v) for v in eng.score_many(pairs)]
        assert stats["router"]["routed_total"] == len(pairs)
        # Per shard: the router's one connection, plus this stats probe.
        assert [s["connections"]["total"] for s in stats["shards"].values()] == [2, 2, 2]

    def test_bad_request_is_not_retried_as_failover(self, three_shards):
        async def run():
            async with ShardRouter(_addresses(three_shards)) as router:
                with pytest.raises(ServiceError, match="too narrow"):
                    await router.score("ACGTACGTACGT", "AC", mode="banded", band=2)
                return router.router_stats()

        stats = asyncio.run(run())
        # The shard answered (with an error): it stays live, and the
        # router must not have burned retries on a doomed request.
        assert stats["retries"] == 0
        assert stats["evictions"] == 0
        assert len(stats["live_shards"]) == 3

    def test_all_shards_down_raises_cluster_error(self):
        holders = [_serve_in_thread(ServiceConfig(port=0)) for _ in range(2)]
        addresses = _addresses(holders)
        for holder in holders:
            _stop_shard(holder)

        async def run():
            async with ShardRouter(addresses, max_attempts=2) as router:
                with pytest.raises(ClusterError, match="no shard could serve"):
                    await router.score("ACGT", "AGGT")
                return router.router_stats()

        stats = asyncio.run(run())
        assert stats["failed_requests"] == 1
        assert stats["live_shards"] == []


class TestBlockingClients:
    def test_failed_construction_releases_the_loop_thread(self, monkeypatch):
        # Both blocking clients start a private loop thread before they
        # can fail; a failed constructor must stop and join it.
        def alive(name):
            return sum(t.name == name for t in threading.enumerate())

        before = alive("fragalign-client"), alive("fragalign-cluster")
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]  # closed again: nothing listens
        with pytest.raises(OSError):
            AlignmentClient(port=port)

        def refuse(self):
            raise RuntimeError("monitor refused to start")

        monkeypatch.setattr(HealthMonitor, "start", refuse)
        with pytest.raises(RuntimeError, match="refused to start"):
            ClusterClient([("127.0.0.1", port)], health_interval=1.0)
        assert (alive("fragalign-client"), alive("fragalign-cluster")) == before


class TestHealthMonitor:
    def test_eviction_and_readmission_on_same_port(self):
        holder = _serve_in_thread(ServiceConfig(port=0))
        port = holder["port"]

        async def run():
            router = ShardRouter([("127.0.0.1", port)])
            monitor = HealthMonitor(router, interval=0.05, fail_after=1)
            try:
                assert (await monitor.probe_round())[f"127.0.0.1:{port}"]
                _stop_shard(holder)
                assert not (await monitor.probe_round())[f"127.0.0.1:{port}"]
                assert router.live_shards == []
                assert router.evictions == 1
                # The shard comes back on its configured port; the next
                # probe readmits it.
                revived = _serve_in_thread(ServiceConfig(port=port))
                try:
                    assert (await monitor.probe_round())[f"127.0.0.1:{port}"]
                    assert router.live_shards == [f"127.0.0.1:{port}"]
                    assert router.readmissions == 1
                    assert await router.score("ACGT", "AGGT") == 2.0
                finally:
                    await router.close()
                    _stop_shard(revived)
            except BaseException:
                await router.close()
                raise

        asyncio.run(run())

    def test_fail_after_threshold_tolerates_one_blip(self):
        calls = {"n": 0}

        class FlakyRouter:
            configured_shards = ["s0"]

            async def probe_shard(self, shard):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise ConnectionError("one blip")
                return {}

            def mark_shard_down(self, shard):
                raise AssertionError("one blip must not evict at fail_after=2")

            def mark_shard_up(self, shard):
                pass

        async def run():
            monitor = HealthMonitor(FlakyRouter(), fail_after=2)
            assert not (await monitor.probe_round())["s0"]
            assert (await monitor.probe_round())["s0"]
            assert monitor.records["s0"].consecutive_failures == 0

        asyncio.run(run())


class TestWarm:
    def test_keyset_round_trip(self, tmp_path):
        entries = generate_keyset(12, length=24, seed=7, op="align", mode="overlap")
        path = tmp_path / "keys.jsonl"
        assert dump_keyset(path, entries) == 12
        loaded = load_keyset(path)
        assert loaded == [
            {"op": "align", "a": e["a"], "b": e["b"], "mode": "overlap"}
            for e in entries
        ]

    def test_keyset_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"op": "shutdown", "a": "A", "b": "C"}\n')
        with pytest.raises(ValueError, match="bad keyset entry"):
            load_keyset(path)

    def test_keyset_refuses_a_misspelled_knob(self, tmp_path):
        path = tmp_path / "keys.jsonl"
        good = {"op": "score", "a": "ACGT", "b": "AGGT"}
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "mdoe": "local"}) + "\n")
        with pytest.raises(
            ValueError, match="keys.jsonl:2: bad keyset entry: unknown request field 'mdoe'"
        ):
            load_keyset(path)

    def test_warm_then_hit(self, three_shards):
        entries = generate_keyset(30, length=32, seed=11)

        async def run():
            async with ShardRouter(_addresses(three_shards)) as router:
                report = await warm_router(router, entries, concurrency=8)
                before = (await router.cluster_stats())["aggregate"]["cache"]
                # Replay the exact keyset as live traffic: every
                # request must be answered by the owning shard's cache.
                pairs = [(e["a"], e["b"]) for e in entries]
                await router.score_many(pairs, concurrency=8)
                after = (await router.cluster_stats())["aggregate"]["cache"]
                return report, before, after

        report, before, after = asyncio.run(run())
        assert report["warmed"] == 30 and report["errors"] == 0
        # Every shard that owns keys got warmed, and the warm is what
        # makes the replay hit: >= 30 new aggregate hits.
        assert sum(report["per_shard"].values()) == 30
        assert after["hits"] - before["hits"] >= 30

        # Aggregate capacity: with each shard's cache smaller than the
        # keyset, the warmed cluster still replays all hits, and one
        # shard with the same per-node budget cannot.
        per_node = 8
        small = [
            _serve_in_thread(ServiceConfig(port=0, cache_size=per_node))
            for _ in range(4)
        ]
        cluster, single = small[:3], small[3]

        async def hits(addresses, keyset):
            async with ShardRouter(addresses) as router:
                await warm_router(router, keyset, concurrency=8)
                before = (await router.cluster_stats())["aggregate"]["cache"]
                await router.score_many([(e["a"], e["b"]) for e in keyset], concurrency=8)
                after = (await router.cluster_stats())["aggregate"]["cache"]
            return after["hits"] - before["hits"]

        async def fill_every_shard():
            # Exactly per_node keys per shard (the ring places keys by
            # port), so the cluster holds the whole keyset.
            async with ShardRouter(_addresses(cluster)) as router:
                owned: dict = {}
                for entry in generate_keyset(200, length=32, seed=12):
                    shard = router.shard_for("score", entry["a"], entry["b"])
                    owned.setdefault(shard, [])
                    if len(owned[shard]) < per_node:
                        owned[shard].append(entry)
            assert sorted(map(len, owned.values())) == [per_node] * 3
            return [e for group in owned.values() for e in group]

        try:
            keyset = asyncio.run(fill_every_shard())
            assert asyncio.run(hits(_addresses(cluster), keyset)) == len(keyset)
            assert asyncio.run(hits(_addresses([single]), keyset)) <= per_node
        finally:
            for holder in small:
                _stop_shard(holder)


class TestClusterStatsAggregation:
    def test_aggregate_sums_and_quantiles(self, three_shards):
        async def run():
            async with ShardRouter(_addresses(three_shards)) as router:
                pairs = [("ACGT" * 3, "AGGT" * 3 + "A" * k) for k in range(12)]
                await router.score_many(pairs, concurrency=6)
                await router.score_many(pairs, concurrency=6)  # cache food
                return await router.cluster_stats()

        report = asyncio.run(run())
        agg = report["aggregate"]
        assert agg["shards_reporting"] == 3
        assert agg["requests_total"] >= 24
        assert agg["cache"]["hits"] >= 12
        assert agg["cache"]["maxsize"] == 3 * 256
        assert agg["requests_by_mode"].get("global", 0) >= 24
        assert (
            agg["latency_ms"]["worst_p99"]
            >= agg["latency_ms"]["worst_p95"]
            >= agg["latency_ms"]["worst_p50"]
            >= 0
        )
        assert set(report["shards"]) == set(report["router"]["configured_shards"])


class TestProcessCluster:
    """The supervisor path: real ``fragalign serve`` child processes."""

    def test_supervisor_cluster_end_to_end(self, tmp_path):
        pairs = [("ACGTAC" * 3, "AGGTAC" * 3 + "T" * k) for k in range(10)]
        with AlignmentEngine() as eng:
            expected = [eng.score(a, b) for a, b in pairs]
        with ClusterSupervisor(
            shards=2, cache_size=128, base_dir=str(tmp_path)
        ) as sup:
            assert len(sup.addresses) == 2
            cluster_file = tmp_path / "cluster.json"
            sup.write_cluster_file(cluster_file)
            layout = json.loads(cluster_file.read_text())
            assert [s["port"] for s in layout["shards"]] == [
                p for _, p in sup.addresses
            ]
            with ClusterClient(sup.addresses, max_attempts=2) as cluster:
                assert cluster.score_many(pairs, concurrency=8) == expected
                # SIGKILL one shard mid-run: the replay must fail over
                # with no wrong answers.
                sup.kill_shard(0)
                assert cluster.score_many(pairs, concurrency=8) == expected
                stats = cluster.stats()
                assert stats["router"]["evictions"] >= 1
                assert stats["router"]["failed_requests"] == 0
                assert stats["aggregate"]["shards_reporting"] == 1
        assert sup.alive_count == 0

    def test_supervisor_forwards_every_serve_option(self, tmp_path):
        from argparse import Namespace

        from fragalign.cli import _fleet_defaults, _open_target

        with pytest.raises(TypeError):
            ClusterSupervisor(shards=1, cache_sise=64)  # not a ServiceConfig field
        a, b = "ACGTACGTAC", "ACGTTCGTAC"
        with ClusterSupervisor(
            shards=1, base_dir=str(tmp_path), memory="linear",
            journal=True, journal_sequences=True,
        ) as sup:
            # The cluster file is the layout alone; the shard reports
            # the fleet's memory default in `stats`, so a router
            # resolving jobs against it keeps the shards' choice.
            cluster_file = tmp_path / "cluster.json"
            sup.write_cluster_file(cluster_file)
            assert set(json.loads(cluster_file.read_text())) == {"host", "shards"}
            with _open_target(Namespace(cluster_file=str(cluster_file))) as cluster:
                assert list(cluster.router.addresses.values()) == sup.addresses
                assert _fleet_defaults(cluster).memory == "linear"
                expected = AlignmentEngine().align(a, b)
                assert cluster.align(a, b) == expected
        (record,) = [
            json.loads(line)
            for line in (tmp_path / "shard-0.journal.jsonl").read_text().splitlines()
        ]
        assert (record["a"], record["b"], record["memory"]) == (a, b, "linear")


class TestRingKeyGapFields:
    """Routing keys mirror the widened cache key (gaps in, memory out)."""

    def test_gap_fields_partition_the_keyspace(self):
        base = ring_key("score", "ACGT", "AGGT", "global", None, "fp")
        affine = ring_key(
            "score", "ACGT", "AGGT", "global", None, "fp",
            gap_open=-4.0, gap_extend=-1.0,
        )
        assert base != affine
        assert affine == ring_key(
            "score", "ACGT", "AGGT", "global", None, "fp",
            gap_open=-4, gap_extend=-1,  # ints normalize to floats
        )
        assert affine != ring_key(
            "score", "ACGT", "AGGT", "global", None, "fp",
            gap_open=-4.0, gap_extend=-2.0,
        )

    def test_resolved_gap_defaults_route_like_explicit_gaps(self):
        # A fleet started with affine defaults: requests resolved against
        # them at the edge route exactly like ones that spell the gaps out.
        defaults = JobSpec("global", None, -4.0, -1.0, "auto", "numpy")
        router = ShardRouter([("127.0.0.1", 1), ("127.0.0.1", 2)])

        def key(spec: JobSpec) -> str:
            return spec.resolve(defaults, "score").ring_key("score", "AC", "GT")

        defaulted = key(JobSpec())
        assert key(JobSpec(gap_open=-4.0, gap_extend=-1.0)) == defaulted
        assert key(JobSpec(gap_open=-2.0, gap_extend=-1.0)) != defaulted
        assert router.shard_for("score", "AC", "GT", gap_open=-4, gap_extend=-1) == (
            router.ring.node_for(defaulted)
        )

    def test_keyset_entries_carry_gap_fields(self, tmp_path):
        entries = generate_keyset(
            4, length=16, op="score", gap_open=-3.0, gap_extend=-1.0
        )
        path = tmp_path / "keys.jsonl"
        dump_keyset(path, entries)
        loaded = load_keyset(path)
        assert all(e["gap_open"] == -3.0 and e["gap_extend"] == -1.0 for e in loaded)
        with pytest.raises(ValueError, match="together"):
            dump_keyset(path, [{"op": "score", "a": "AC", "b": "GT", "gap_open": -1}])


class TestClusterAffineEndToEnd:
    """Affine knobs through a real (in-process) shard fleet."""

    def test_affine_routes_and_matches_engine(self, three_shards):
        pairs = [("ACGTACGTAC", "ACGTAGGTAC"), ("AAAATTTT", "AAATTTT"), ("GGGG", "GGCG")]
        with AlignmentEngine() as eng, ClusterClient(_addresses(three_shards)) as cluster:
            got = cluster.score_many(pairs, gap_open=-3.0, gap_extend=-1.0)
            want = [eng.score(a, b, gap_open=-3.0, gap_extend=-1.0) for a, b in pairs]
            assert got == want
            got_al = cluster.align_many(pairs, gap_open=-3.0, gap_extend=-1.0)
            want_al = [eng.align(a, b, gap_open=-3.0, gap_extend=-1.0) for a, b in pairs]
            assert got_al == want_al
            # memory hint flows through without changing results
            assert cluster.align(
                pairs[0][0], pairs[0][1], memory="linear"
            ) == eng.align(pairs[0][0], pairs[0][1])
