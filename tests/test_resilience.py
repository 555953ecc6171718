"""The resilience layer: deadlines, admission, breakers, faults, healing.

Standing invariants:

* a fault can delay a request or fail it with a *typed* error from the
  :mod:`fragalign.util.errors` taxonomy — it can never change an
  answer: everything that completes equals the direct engine result;
* every request a breaker admits reports an outcome back (success,
  failure, or abandon), so the half-open trial slot can never leak and
  wedge a shard out of the fleet forever;
* deadlines are end-to-end: an expired budget is refused at whichever
  tier notices first (router give-up, server admission, batch queue),
  and a queued job whose every waiter's budget has run out never
  reaches the engine.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from fragalign.cluster import ClusterError, ClusterSupervisor, ShardRouter
from fragalign.engine import AlignmentEngine
from fragalign.job import JobSpec
from fragalign.resilience import (
    AdmissionController,
    CircuitBreaker,
    FaultProxyThread,
    deadline_from_budget_ms,
    estimate_cost,
    expired,
    remaining_ms,
)
from fragalign.service import (
    AlignmentClient,
    AlignmentService,
    AsyncAlignmentClient,
    MicroBatcher,
    ServiceConfig,
    ServiceError,
    model_fingerprint,
)
from fragalign.service.protocol import DeadlineExceededError, OverloadedError, encode_line
from fragalign.util.errors import (
    CircuitOpen,
    DeadlineExceeded,
    FragalignError,
    NonRetryableError,
    Overloaded,
    RetryableError,
)


class TestErrorTaxonomy:
    """The router retries by isinstance, never by message text."""

    def test_retryable_split(self):
        assert issubclass(Overloaded, RetryableError)
        assert issubclass(CircuitOpen, RetryableError)
        assert issubclass(DeadlineExceeded, NonRetryableError)
        assert not issubclass(DeadlineExceeded, RetryableError)
        for cls in (Overloaded, CircuitOpen, DeadlineExceeded):
            assert issubclass(cls, FragalignError)

    def test_wire_errors_are_both_service_and_taxonomy_errors(self):
        # A server-reported deadline/overload answer must satisfy both
        # isinstance branches the router takes: "the shard answered"
        # (ServiceError) and "is that answer retryable" (taxonomy).
        assert issubclass(DeadlineExceededError, ServiceError)
        assert issubclass(DeadlineExceededError, DeadlineExceeded)
        assert issubclass(OverloadedError, ServiceError)
        assert issubclass(OverloadedError, Overloaded)


class TestCircuitBreaker:
    def _breaker(self, threshold=3, recovery=10.0):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=threshold, recovery_time=recovery,
            clock=lambda: clock[0],
        )
        return breaker, clock

    def test_trips_after_consecutive_failures_only(self):
        breaker, _ = self._breaker(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the consecutive count
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.opens == 1

    def test_half_open_admits_exactly_one_trial(self):
        breaker, clock = self._breaker(threshold=1, recovery=5.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock[0] = 5.0
        assert breaker.state == "half_open"
        assert breaker.allow()  # the trial slot
        assert not breaker.allow()  # everyone else fast-fails

    def test_trial_success_closes_and_trial_failure_reopens(self):
        breaker, clock = self._breaker(threshold=1, recovery=5.0)
        breaker.record_failure()
        clock[0] = 5.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

        breaker.record_failure()
        clock[0] = 10.0
        assert breaker.allow()
        breaker.record_failure()  # failed trial: re-open, restart clock
        assert breaker.state == "open"
        clock[0] = 14.0
        assert not breaker.allow()  # recovery restarted at t=10
        clock[0] = 15.0
        assert breaker.allow()
        assert breaker.opens == 3

    def test_abandon_releases_trial_slot_without_verdict(self):
        # A cancelled request (lost hedge race, abandoned attempt) is
        # neither success nor failure — but it must hand the half-open
        # trial slot back or the shard is refused forever.
        breaker, clock = self._breaker(threshold=1, recovery=5.0)
        breaker.record_failure()
        clock[0] = 5.0
        assert breaker.allow()
        assert not breaker.allow()
        breaker.record_abandon()
        assert breaker.state == "half_open"
        assert breaker.allow()  # slot returned, next caller gets the trial
        breaker.record_success()
        assert breaker.state == "closed"

    def test_snapshot_and_validation(self):
        breaker, _ = self._breaker()
        assert breaker.snapshot() == {"state": "closed", "failures": 0, "opens": 0}
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(recovery_time=0.0)


class TestDeadlineHelpers:
    def test_budget_round_trip_is_relative(self):
        deadline = deadline_from_budget_ms(250.0, now=100.0)
        assert deadline == pytest.approx(100.25)
        assert remaining_ms(deadline, now=100.1) == pytest.approx(150.0)
        assert remaining_ms(deadline, now=101.0) == pytest.approx(-750.0)

    def test_expiry_and_none_passthrough(self):
        assert not expired(None)
        assert deadline_from_budget_ms(None) is None
        assert remaining_ms(None) is None
        assert expired(5.0, now=5.0)  # boundary counts as expired
        assert not expired(5.0, now=4.999)


class TestAdmissionController:
    def test_cost_model(self):
        assert estimate_cost("score", "A" * 10, "A" * 20) == 200
        assert estimate_cost("align", "A" * 10, "A" * 20) == 400  # traceback pass
        banded = estimate_cost("score", "A" * 100, "A" * 100, JobSpec("banded", 2))
        assert banded == 5 * 100  # (2*band+1) * max(n, m)
        # A band wider than the table never costs more than the table.
        assert estimate_cost("score", "AC", "GT", JobSpec("banded", 50)) == 4
        assert estimate_cost("score", "", "") == 1  # floor

    def test_cell_cap_sheds_but_always_admits_one(self):
        ctl = AdmissionController(max_cells=100)
        ctl.try_admit(1000)  # oversized, but nothing inflight: progress guarantee
        assert ctl.inflight_jobs == 1
        with pytest.raises(Overloaded):
            ctl.try_admit(10)
        assert ctl.shed_total == 1
        ctl.release(1000)
        assert ctl.inflight_cells == 0 and ctl.inflight_jobs == 0
        ctl.try_admit(60)
        ctl.try_admit(40)  # exactly at capacity is admitted
        with pytest.raises(Overloaded):
            ctl.try_admit(1)

    def test_job_cap(self):
        ctl = AdmissionController(max_jobs=2)
        ctl.try_admit(1)
        ctl.try_admit(1)
        with pytest.raises(Overloaded):
            ctl.try_admit(1)
        ctl.release(1)
        ctl.try_admit(1)

    def test_degraded_mode_hysteresis(self):
        ctl = AdmissionController(max_cells=100, degrade_watermark=0.75)
        for _ in range(8):
            ctl.try_admit(10)
        assert ctl.degraded  # load 0.8, past the watermark
        ctl.release(10)
        ctl.release(10)  # load 0.6: above recover, below degrade
        assert ctl.degraded  # still engaged (hysteresis)
        ctl.release(10)  # load 0.5: at the recover watermark
        assert not ctl.degraded
        ctl.try_admit(10)  # back to 0.6, rising: does not engage
        assert not ctl.degraded

    def test_recover_watermark_is_two_thirds_of_the_degrade_watermark(self):
        ctl = AdmissionController(max_cells=100, degrade_watermark=0.3)
        assert ctl.recover_watermark == pytest.approx(0.2)
        for _ in range(8):
            ctl.try_admit(5)
        assert ctl.degraded  # load 0.4
        for _ in range(3):
            ctl.release(5)
        assert ctl.degraded  # load 0.25: below degrade, above recover
        ctl.release(5)
        ctl.release(5)
        assert not ctl.degraded  # load 0.15

    def test_disabled_and_snapshot(self):
        ctl = AdmissionController()
        assert not ctl.enabled and ctl.load() == 0.0
        for _ in range(50):
            ctl.try_admit(10**9)  # unbounded: never sheds
        snap = ctl.snapshot()
        assert snap["admitted"] == 50 and snap["shed"] == 0
        assert not snap["degraded"]
        with pytest.raises(ValueError):
            AdmissionController(max_cells=-1)
        with pytest.raises(ValueError):
            AdmissionController(degrade_watermark=0.0)


_SPEC = JobSpec()


class TestBatcherDeadlines:
    def test_coalesced_job_keeps_the_loosest_deadline(self):
        # A waiter whose deadline has passed does not fail a twin whose
        # deadline is live or absent: the shared job is dropped only
        # when every waiter's deadline has passed.
        async def run(*deadlines):
            batcher = MicroBatcher(AlignmentEngine(), max_batch=4)
            try:
                return await asyncio.gather(
                    *(
                        batcher.submit("score", "ACGT", "AGGT", _SPEC, deadline=d)
                        for d in deadlines
                    ),
                    return_exceptions=True,
                )
            finally:
                batcher.close()

        score = AlignmentEngine().score("ACGT", "AGGT")
        past = time.monotonic() - 1.0
        assert asyncio.run(run(past, time.monotonic() + 30.0)) == [score, score]
        assert asyncio.run(run(past, None, past - 1.0)) == [score] * 3
        dropped = asyncio.run(run(past, past - 1.0))
        assert all(isinstance(r, DeadlineExceeded) for r in dropped)

    def test_lone_job_with_a_deadline_is_answered_on_an_idle_worker(self):
        async def run():
            batcher = MicroBatcher(AlignmentEngine(), max_batch=64)
            try:
                return await asyncio.wait_for(
                    batcher.submit(
                        "score", "ACGTACGT", "AGGTACGT", _SPEC,
                        deadline=time.monotonic() + 0.2,
                    ),
                    timeout=5.0,
                )
            finally:
                batcher.close()

        score = asyncio.run(run())
        assert score == AlignmentEngine().score("ACGTACGT", "AGGTACGT")

    def test_job_expired_in_queue_is_dropped_not_computed(self):
        class NeverEngine:
            def run(self, op, pairs, specs):  # pragma: no cover - must not run
                raise AssertionError("expired job reached the engine")

        async def run():
            batcher = MicroBatcher(NeverEngine(), max_batch=4)
            try:
                with pytest.raises(DeadlineExceeded):
                    await batcher.submit(
                        "score", "ACGT", "AGGT", _SPEC, deadline=time.monotonic() - 1.0
                    )
            finally:
                batcher.close()

        asyncio.run(run())


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
def one_shard():
    holder = _serve_in_thread(
        ServiceConfig(port=0, max_batch=16, cache_size=64)
    )
    yield holder
    _stop_shard(holder)


class TestServerDeadline:
    def test_expired_budget_refused_before_any_compute(self, one_shard):
        async def run():
            client = await AsyncAlignmentClient.connect(port=one_shard["port"])
            try:
                with pytest.raises(DeadlineExceededError) as err:
                    # A fraction of a microsecond: expired by the time
                    # the server unpacks it, deterministically.
                    await client.score("ACGT", "AGGT", deadline_ms=1e-4)
                # The typed answer is non-retryable: every replica
                # would refuse the same corpse the same way.
                assert isinstance(err.value, DeadlineExceeded)
                assert not isinstance(err.value, RetryableError)
                return await client.stats()
            finally:
                await client.close()

        stats = asyncio.run(run())
        assert stats["resilience"]["deadline_exceeded"] >= 1

    def test_generous_budget_answers_normally(self, one_shard):
        async def run():
            client = await AsyncAlignmentClient.connect(port=one_shard["port"])
            try:
                return await client.score("ACGTACGT", "AGGTACGT", deadline_ms=30_000)
            finally:
                await client.close()

        assert asyncio.run(run()) == AlignmentEngine().score("ACGTACGT", "AGGTACGT")

    def test_coalesced_twin_outlives_its_twins_deadline(self):
        # A (30-ms budget) queues behind a busy worker; twin B (no
        # budget) joins A's queued job and keeps it live, so both get
        # the one computed answer.  Lone C (30-ms budget) queues too:
        # nobody keeps its job live, so it is dropped, never computed.
        entered, gate = threading.Event(), threading.Event()
        computed: list[tuple[str, str]] = []

        class GatedEngine(AlignmentEngine):
            def run(self, op, pairs, specs):
                computed.extend(pairs)
                entered.set()
                assert gate.wait(10), "gate never opened"
                return super().run(op, pairs, specs)

        async def until(condition):
            for _ in range(5000):
                if condition():
                    return
                await asyncio.sleep(0.001)
            raise AssertionError("condition never held")

        async def run():
            service = AlignmentService(ServiceConfig(port=0), engine=GatedEngine())
            await service.start()
            client = await AsyncAlignmentClient.connect(port=service.port)
            fp = model_fingerprint(service.engine.model)
            key_a = JobSpec("global").cache_key("score", "ACGT", "AGGT", fp)
            key_c = JobSpec("global").cache_key("score", "TTTT", "TTAT", fp)
            try:
                busy = asyncio.create_task(client.score("AAAA", "AATA"))
                await until(entered.is_set)  # the worker holds the gated call
                a = asyncio.create_task(client.score("ACGT", "AGGT", deadline_ms=30))
                c = asyncio.create_task(client.score("TTTT", "TTAT", deadline_ms=30))
                await until(lambda: key_a in service.batcher and key_c in service.batcher)
                b = asyncio.create_task(client.score("ACGT", "AGGT"))
                await until(lambda: service.stats.snapshot()["batches"]["coalesced"] == 1)
                await asyncio.sleep(0.1)  # A's and C's budgets run out in the queue
                gate.set()
                return await asyncio.gather(busy, a, b, c, return_exceptions=True)
            finally:
                gate.set()
                await client.close()
                service.stop()
                await service.wait_closed()
                service.close()

        busy, a, b, c = asyncio.run(run())
        assert busy == AlignmentEngine().score("AAAA", "AATA")
        assert a == b == AlignmentEngine().score("ACGT", "AGGT")
        assert computed.count(("ACGT", "AGGT")) == 1
        assert isinstance(c, DeadlineExceededError)
        assert ("TTTT", "TTAT") not in computed


class TestServerDegrade:
    def test_low_watermark_boots_engages_and_recovers(self):
        """Any degrade watermark boots: degraded mode disengages at 2/3
        of it, so the hysteresis band never inverts."""

        async def run():
            service = AlignmentService(
                ServiceConfig(
                    port=0, cache_size=0, max_inflight_cells=1000,
                    degrade="score", degrade_watermark=0.3,
                )
            )
            await service.start()
            try:
                client = await AsyncAlignmentClient.connect(port=service.port)
                try:
                    # 2 * 20 * 20 = 800 cells: load 0.8 engages degraded mode.
                    big = await client.request("align", "ACGT" * 5, "AGGT" * 5)
                    # Released to load 0, so it recovered: 50 cells, a full answer.
                    small = await client.request("align", "ACGTA", "AGGTA")
                    return big, small, await client.stats()
                finally:
                    await client.close()
            finally:
                service.stop()
                await service.wait_closed()
                service.close()

        big, small, stats = asyncio.run(run())
        assert big["degraded"] and big["result"]["pairs"] == []
        assert "degraded" not in small and small["result"]["pairs"]
        assert stats["resilience"]["degraded_responses"] == 1
        assert stats["resilience"]["degraded_mode"] is False


class TestFaultProxy:
    """The chaos harness's own instrument, checked against one shard."""

    @pytest.fixture()
    def proxied(self, one_shard):
        proxy = FaultProxyThread("127.0.0.1", one_shard["port"])
        proxy.start()
        yield proxy
        proxy.stop()

    def test_latency_fault_delays_but_never_corrupts(self, proxied):
        async def run():
            client = await AsyncAlignmentClient.connect(port=proxied.port)
            try:
                clean = await client.score("ACGTAC", "AGGTAC")
                proxied.set_faults(latency_ms=250.0)
                start = time.monotonic()
                slow = await client.score("ACGTTC", "AGGTAC")
                elapsed = time.monotonic() - start
                return clean, slow, elapsed
            finally:
                proxied.clear_faults()
                await client.close()

        clean, slow, elapsed = asyncio.run(run())
        with AlignmentEngine() as eng:
            assert clean == eng.score("ACGTAC", "AGGTAC")
            assert slow == eng.score("ACGTTC", "AGGTAC")
        assert elapsed >= 0.2  # the injected delay actually applied

    def test_blackhole_stalls_instead_of_answering(self, proxied):
        async def run():
            client = await AsyncAlignmentClient.connect(port=proxied.port)
            try:
                proxied.set_faults(blackhole=True)
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(client.score("ACGT", "AGGT"), timeout=0.4)
            finally:
                proxied.clear_faults()
                await client.close()

        asyncio.run(run())

    def test_garbled_response_can_never_parse_as_an_answer(self, proxied):
        proxied.set_faults(garble=True)
        with socket.create_connection(("127.0.0.1", proxied.port), timeout=5) as sock:
            sock.settimeout(5)
            sock.sendall(encode_line({"id": 0, "op": "score", "a": "ACGT", "b": "AGGT"}))
            raw = sock.makefile("rb").readline()
        assert raw.endswith(b"\n")  # frames still terminate...
        with pytest.raises(ValueError):  # ...but can never decode as JSON
            json.loads(raw)

    def test_deny_connect_refuses_at_the_door(self, proxied):
        proxied.set_faults(deny_connect=True)
        with socket.create_connection(("127.0.0.1", proxied.port), timeout=5) as sock:
            sock.settimeout(5)
            try:
                assert sock.recv(1) == b""  # clean EOF...
            except OSError:
                pass  # ...or an RST, depending on timing
        assert proxied.proxy.denied >= 1

    def test_set_upstream_repoints_new_connections(self, one_shard):
        # Reserve a port that is certainly closed, then point the
        # proxy at it: the shard "moved" and the proxy must follow.
        with socket.socket() as placeholder:
            placeholder.bind(("127.0.0.1", 0))
            dead_port = placeholder.getsockname()[1]
        proxy = FaultProxyThread("127.0.0.1", dead_port)
        proxy.start()
        try:
            async def attempt():
                client = await AsyncAlignmentClient.connect(port=proxy.port)
                try:
                    return await asyncio.wait_for(client.score("ACGT", "AGGT"), 5.0)
                finally:
                    await client.close()

            with pytest.raises((ConnectionError, OSError, EOFError)):
                asyncio.run(attempt())
            proxy.set_upstream("127.0.0.1", one_shard["port"])
            assert asyncio.run(attempt()) == AlignmentEngine().score("ACGT", "AGGT")
        finally:
            proxy.stop()


@pytest.fixture()
def two_shards():
    holders = [
        _serve_in_thread(
            ServiceConfig(port=0, max_batch=16, cache_size=64)
        )
        for _ in range(2)
    ]
    yield holders
    for holder in holders:
        _stop_shard(holder)


def _owned_pairs(router: ShardRouter, shard: str, count: int) -> list[tuple[str, str]]:
    """Distinct pairs whose routing key lands on ``shard``."""
    owned, k = [], 0
    while len(owned) < count:
        pair = ("ACGTACGTACGT", "AGGTACGTACGT" + "T" * k)
        k += 1
        if router.shard_for("score", *pair) == shard:
            owned.append(pair)
    return owned


class TestSlowShardStall:
    """ISSUE scenario: a shard stalls; the breaker opens, traffic fails
    over with zero wrong answers, and the half-open trial readmits the
    shard once it recovers."""

    def test_breaker_opens_failover_stays_correct_then_readmits(self, two_shards):
        proxy = FaultProxyThread("127.0.0.1", two_shards[0]["port"])
        proxy.start()
        try:
            async def run():
                router = ShardRouter(
                    [("127.0.0.1", proxy.port),
                     ("127.0.0.1", two_shards[1]["port"])],
                    max_attempts=2, request_timeout=0.4, connect_timeout=2.0,
                    breaker_threshold=2, breaker_recovery=0.4,
                )
                async with router:
                    stalled_shard = f"127.0.0.1:{proxy.port}"
                    pairs = _owned_pairs(router, stalled_shard, 4)
                    baseline = await asyncio.gather(
                        *(router.score(a, b) for a, b in pairs)
                    )
                    # Stall the owner.  The requests are concurrent, so
                    # the breaker sees enough timeouts to trip before
                    # eviction hides the shard from later candidates.
                    proxy.set_faults(blackhole=True)
                    failed_over = await asyncio.gather(
                        *(router.score(a, b) for a, b in pairs)
                    )
                    snap = router.router_stats()
                    mid = (
                        failed_over, snap["breakers"][stalled_shard],
                        snap["breaker_opens"],
                        stalled_shard in router.live_shards,
                    )
                    # Recovery: clear the fault, let the breaker cool
                    # to half-open, then nudge the shard serially —
                    # the first owned request is the trial.
                    proxy.clear_faults()
                    await asyncio.sleep(0.6)
                    for a, b in pairs:
                        await router.score(a, b)
                    after = router.router_stats()
                    healed = await asyncio.gather(
                        *(router.score(a, b) for a, b in pairs)
                    )
                    return (
                        baseline, mid, after["breakers"][stalled_shard],
                        stalled_shard in router.live_shards, healed,
                        after["failed_requests"],
                    )

            baseline, mid, breaker_after, live_after, healed, failed = asyncio.run(run())
            failed_over, breaker_mid, opens, live_mid = mid
            # Zero wrong answers through the stall and after recovery.
            assert failed_over == baseline and healed == baseline
            assert breaker_mid in ("open", "half_open")
            assert opens >= 1
            assert not live_mid  # evicted while stalled
            assert breaker_after == "closed"  # trial passed
            assert live_after  # readmitted into the ring
            assert failed == 0  # every request found a live replica
        finally:
            proxy.stop()

    def test_hedged_score_races_past_a_slow_owner(self, two_shards):
        proxy = FaultProxyThread("127.0.0.1", two_shards[0]["port"])
        proxy.start()
        try:
            async def run():
                router = ShardRouter(
                    [("127.0.0.1", proxy.port),
                     ("127.0.0.1", two_shards[1]["port"])],
                    max_attempts=2, request_timeout=5.0, connect_timeout=2.0,
                    hedge_delay=0.2, hedge_max_fraction=1.0,
                )
                async with router:
                    slow_shard = f"127.0.0.1:{proxy.port}"
                    pairs = _owned_pairs(router, slow_shard, 4)
                    # A prompt owner answers before the hedge delay.
                    prompt = await asyncio.gather(*(router.score(a, b) for a, b in pairs))
                    quiet = router.router_stats()["hedges"]
                    proxy.set_faults(latency_ms=2_000.0)
                    start = time.monotonic()
                    raced = await asyncio.gather(*(router.score(a, b) for a, b in pairs))
                    elapsed = time.monotonic() - start
                    return pairs, prompt, quiet, raced, elapsed, router.router_stats()

            pairs, prompt, quiet, raced, elapsed, snap = asyncio.run(run())
            with AlignmentEngine() as eng:
                assert prompt == raced == [eng.score(a, b) for a, b in pairs]
            assert quiet == 0
            assert elapsed < 1.5  # the hedges answered, not the 2 s owner
            assert snap["hedges"] == snap["hedge_wins"] == len(pairs)
            # The losing copies were abandoned, not failed: the slow
            # owner's circuit stays closed and it stays on the ring.
            slow_shard = f"127.0.0.1:{proxy.port}"
            assert snap["breakers"][slow_shard] == "closed"
            assert slow_shard in snap["live_shards"]
            assert snap["failed_requests"] == 0
        finally:
            proxy.stop()

    def test_cancelled_half_open_trial_returns_its_slot(self, one_shard):
        # Regression: a routed request cancelled while it held the
        # half-open trial slot kept the slot even after the shard
        # answered, so every later request failed CircuitOpen
        # "(tried none)".
        proxy = FaultProxyThread("127.0.0.1", one_shard["port"])
        proxy.start()
        try:
            async def run():
                router = ShardRouter(
                    [("127.0.0.1", proxy.port)], max_attempts=1,
                    connect_timeout=2.0, breaker_threshold=1, breaker_recovery=0.2,
                )
                async with router:
                    shard = f"127.0.0.1:{proxy.port}"
                    proxy.set_faults(blackhole=True)
                    with pytest.raises(ClusterError):  # one timeout trips it
                        await router.score("ACGT", "AGGT", deadline_ms=200.0)
                    tripped = router.router_stats()["breakers"][shard]
                    # A shard that answers after 300 ms; the trial is
                    # cancelled at 50 ms.
                    proxy.set_faults(blackhole=False, latency_ms=300.0)
                    await asyncio.sleep(0.3)  # cool-off: half-open
                    trial = asyncio.create_task(router.score("ACGT", "AGGT"))
                    await asyncio.sleep(0.05)
                    trial.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await trial
                    await asyncio.sleep(0.4)  # the abandoned trial is answered
                    proxy.clear_faults()
                    score = await router.score("ACGT", "AGGT")
                    return tripped, score, router.router_stats()["breakers"][shard]

            tripped, score, breaker_after = asyncio.run(run())
            assert tripped == "open"
            assert score == AlignmentEngine().score("ACGT", "AGGT")
            assert breaker_after == "closed"  # the next request was the trial
        finally:
            proxy.stop()

    def test_deadline_gives_up_instead_of_hopeless_retry(self, two_shards):
        proxy = FaultProxyThread("127.0.0.1", two_shards[0]["port"])
        proxy.start()
        try:
            async def run():
                router = ShardRouter(
                    [("127.0.0.1", proxy.port),
                     ("127.0.0.1", two_shards[1]["port"])],
                    max_attempts=3, connect_timeout=2.0,
                )
                async with router:
                    stalled = f"127.0.0.1:{proxy.port}"
                    (pair,) = _owned_pairs(router, stalled, 1)
                    proxy.set_faults(blackhole=True)
                    # No per-attempt timeout: the deadline alone bounds
                    # the first attempt, and the retry floor (set by
                    # that attempt's observed cost) forbids a second.
                    with pytest.raises(DeadlineExceeded):
                        await router.score(*pair, deadline_ms=300.0)
                    return router.router_stats()

            snap = asyncio.run(run())
            assert snap["deadline_gaveups"] >= 1
            assert snap["failed_requests"] == 0  # gave up, not exhausted
        finally:
            proxy.stop()


class TestSupervisorAutoHeal:
    """Healing driven deterministically through ``_heal_tick(now=...)``."""

    def test_crash_is_respawned_after_backoff(self, tmp_path):
        with ClusterSupervisor(
            shards=1, cache_size=32, base_dir=str(tmp_path),
            heal_backoff=0.2, heal_backoff_max=0.2, heal_jitter=0.0,
        ) as sup:
            sup.kill_shard(0)
            sup.procs[0].process.wait(timeout=10)
            t0 = time.monotonic()
            sup._heal_tick(now=t0)
            assert sup.heal_events[-1]["event"] == "crash"
            sup._heal_tick(now=t0 + 0.1)  # backoff (0.2 s) not yet elapsed
            assert sup.alive_count == 0
            sup._heal_tick(now=t0 + 1.0)  # due: respawns and waits for boot
            assert sup.heal_events[-1]["event"] == "respawned"
            assert sup.alive_count == 1
            assert sup.procs[0].restarts == 1
            new_port = sup.addresses[0][1]
            with AlignmentClient(port=new_port) as client:
                assert client.score("ACGT", "AGGT") == AlignmentEngine().score(
                    "ACGT", "AGGT"
                )

    def test_crash_loop_fails_permanently_instead_of_thrashing(self, tmp_path):
        with ClusterSupervisor(
            shards=1, cache_size=32, base_dir=str(tmp_path),
            heal_backoff=0.1, heal_backoff_max=0.1, heal_jitter=0.0,
            crash_loop_threshold=2, crash_loop_window=1_000.0,
        ) as sup:
            t0 = time.monotonic()
            sup.kill_shard(0)
            sup.procs[0].process.wait(timeout=10)
            sup._heal_tick(now=t0)
            sup._heal_tick(now=t0 + 10.0)
            assert sup.heal_events[-1]["event"] == "respawned"
            # Second death inside the window: one short of nothing —
            # the threshold says this fleet slot is beyond healing.
            sup.kill_shard(0)
            sup.procs[0].process.wait(timeout=10)
            sup._heal_tick(now=t0 + 20.0)
            assert sup.heal_events[-1]["event"] == "crash_loop"
            assert sup.procs[0].failed
            events_before = len(sup.heal_events)
            sup._heal_tick(now=t0 + 100.0)  # permanently failed: no respawn
            assert len(sup.heal_events) == events_before
            assert sup.alive_count == 0
