"""The serving layer: LRU cache, micro-batcher, server, clients.

Standing invariants:

* serving is an execution detail — every response equals what a direct
  ``AlignmentEngine`` call produces;
* N concurrent identical requests cost one backend call and return
  identical results (coalescing);
* the result cache keys on op, pair, mode, *and* model, so results
  computed under one configuration never answer another.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import threading
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fragalign.align.pairwise import Alignment
from fragalign.align.scoring_matrices import transition_transversion, unit_dna
from fragalign.engine import AlignmentEngine
from fragalign.job import JobSpec
from fragalign.service import (
    AlignmentClient,
    AlignmentService,
    AsyncAlignmentClient,
    LRUCache,
    MicroBatcher,
    ServiceConfig,
    ServiceError,
    ServiceStats,
    model_fingerprint,
    wait_for_port_file,
    write_port_file,
)
from fragalign.service import server as server_module
from fragalign.service.protocol import (
    Outbox,
    ProtocolError,
    alignment_from_dict,
    alignment_to_dict,
    decode_line,
    encode_line,
    ok_response,
    parse_request,
)
from fragalign.util.errors import DeadlineExceeded


class TestLRUCache:
    def test_hit_and_miss_counts(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b", "fallback") == "fallback"
        assert (cache.hits, cache.misses) == (1, 2)
        assert cache.hit_rate == pytest.approx(1 / 3)

    def test_eviction_order_is_lru(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # promote a: b is now least recently used
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1
        assert cache.keys() == ["a", "c"]

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not duplicate
        cache.put("c", 3)
        assert "b" not in cache and cache.get("a") == 10

    def test_maxsize_zero_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.misses == 1

    def test_stats_shape(self):
        cache = LRUCache(8)
        cache.put("a", 1)
        cache.get("a")
        stats = cache.stats()
        assert stats == {
            "size": 1,
            "maxsize": 8,
            "hits": 1,
            "misses": 0,
            "evictions": 0,
            "hit_rate": 1.0,
        }

    def test_thread_safety_under_concurrent_access(self):
        # The same instance is shared by the engine encode memo (hit
        # from the batcher worker thread), the service result cache
        # (event loop) and cluster warmers: hammer one cache from many
        # threads and require intact invariants afterwards.
        cache = LRUCache(64)
        n_threads, n_ops, key_space = 8, 3000, 256
        errors: list[BaseException] = []
        barrier = threading.Barrier(n_threads)

        def worker(seed: int) -> None:
            try:
                barrier.wait()
                for k in range(n_ops):
                    key = (seed * 7919 + k * 31) % key_space
                    if k % 3 == 0:
                        cache.put(key, (seed, k))
                    else:
                        value = cache.get(key)
                        assert value is None or isinstance(value, tuple)
                    if k % 101 == 0:
                        assert len(cache.keys()) <= 64
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert len(cache) <= 64
        # Counter conservation: every get() was exactly one hit or miss.
        gets = n_threads * sum(1 for k in range(n_ops) if k % 3 != 0)
        assert cache.hits + cache.misses == gets
        stats = cache.stats()
        assert stats["size"] == len(cache.keys()) <= stats["maxsize"]


class TestFacadeEncodeMemoIsBounded:
    def test_engine_reuses_lru_primitive(self):
        eng = AlignmentEngine(cache_size=2)
        assert isinstance(eng._codes, LRUCache)

    def test_encode_memo_stays_bounded(self):
        eng = AlignmentEngine(backend="naive", cache_size=2)
        for seq in ("AC", "GT", "CA", "TG", "AA"):
            eng.score(seq, "ACGT")
        assert len(eng._codes) <= 2


class TestProtocol:
    def test_line_round_trip(self):
        obj = {"id": 7, "op": "score", "a": "ACGT", "b": "AGGT"}
        assert decode_line(encode_line(obj)) == obj

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError, match="invalid JSON"):
            decode_line(b"{nope\n")
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_line(b"[1, 2]\n")

    def test_parse_request_validation(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            parse_request({"op": "frobnicate"})
        with pytest.raises(ProtocolError, match="string fields"):
            parse_request({"op": "score", "a": "ACGT"})
        request = parse_request({"id": 3, "op": "align", "a": "AC", "b": "GT"})
        assert (request.op, request.a, request.b) == ("align", "AC", "GT")
        assert (request.spec.mode, request.spec.band) == (None, None)

    def test_parse_request_mode_and_band(self):
        request = parse_request(
            {"id": 1, "op": "score", "a": "AC", "b": "GT", "mode": "banded", "band": 4}
        )
        assert (request.spec.mode, request.spec.band) == ("banded", 4)
        with pytest.raises(ProtocolError, match="unknown alignment mode"):
            parse_request({"op": "score", "a": "AC", "b": "GT", "mode": "diagonal"})
        for bad_band in (-1, 2.5, True, "8"):
            with pytest.raises(ProtocolError, match="band must be"):
                parse_request(
                    {"op": "score", "a": "AC", "b": "GT", "mode": "banded", "band": bad_band}
                )

    def test_alignment_round_trip(self):
        aln = Alignment(3.5, ((0, 1), (2, 2)), (0, 3), (1, 3))
        assert alignment_from_dict(alignment_to_dict(aln)) == aln

    def test_model_fingerprint_distinguishes_models(self):
        assert model_fingerprint(unit_dna()) == model_fingerprint(unit_dna())
        assert model_fingerprint(unit_dna()) != model_fingerprint(
            transition_transversion()
        )
        assert model_fingerprint(unit_dna()) != model_fingerprint(
            unit_dna(gap=-2.0)
        )


class CountingEngine:
    """Engine wrapper that counts backend batch calls (batcher's view)."""

    def __init__(self, engine: AlignmentEngine) -> None:
        self._engine = engine
        self.calls: list[tuple[str, int]] = []

    def run(self, op, pairs, spec):
        self.calls.append((op, len(pairs)))
        return self._engine.run(op, pairs, spec)


class GatedEngine:
    """Engine whose calls block on the batcher's worker thread until the
    test releases them, one :meth:`release` per call."""

    def __init__(self) -> None:
        self._engine = AlignmentEngine()
        self._cond = threading.Condition()
        self._released = 0
        self.calls: list[list[tuple[str, str]]] = []  # each call's pairs
        self.returned = 0
        self.peak = 0  # most calls in flight at once

    def run(self, op, pairs, spec):
        with self._cond:
            self.calls.append(list(pairs))
            n = len(self.calls)
            self.peak = max(self.peak, n - self.returned)
            if not self._cond.wait_for(lambda: self._released >= n, timeout=10):
                raise TimeoutError("engine call never released")
        try:
            return self._engine.run(op, pairs, spec)
        finally:
            with self._cond:
                self.returned += 1

    @property
    def parked(self) -> bool:
        """A call is waiting at the gate."""
        with self._cond:
            return len(self.calls) > self._released

    def release(self, n: int = 1) -> None:
        with self._cond:
            self._released += n
            self._cond.notify_all()

    def open(self) -> None:
        self.release(10**9)


async def _until(condition, timeout: float = 5.0) -> None:
    """Poll ``condition`` while the loop and the worker thread run."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.0005)


_SCHEDULE_PAIRS = [
    ("ACGT", "AGGT"), ("AAAA", "AATA"), ("ACGTAC", "ACGTTC"),
    ("GGGG", "GGCG"), ("TTACG", "TTAG"),
]
# Two jobs per pair, each spelled several ways: execution twins (other
# backends) and equivalent spellings (an unset mode, integer gaps)
# share the job's cache key.
_SCHEDULE_SPECS = [
    JobSpec(), JobSpec("global", backend="naive"), JobSpec(backend="native"),
    JobSpec(gap_open=-4, gap_extend=-1),
    JobSpec("global", None, -4.0, -1.0, backend="naive"),
]
# One step: a burst of (pair index, spec index, already expired?)
# submits in one loop tick, a release of the engine call at the gate,
# or the cancel of one unanswered waiter (its index among them, modulo).
_SCHEDULES = st.lists(
    st.one_of(
        st.lists(
            st.tuples(
                st.integers(0, len(_SCHEDULE_PAIRS) - 1),
                st.integers(0, len(_SCHEDULE_SPECS) - 1),
                st.booleans(),
            ),
            min_size=1, max_size=6,
        ),
        st.just("release"),
        st.tuples(st.just("cancel"), st.integers(0, 5)),
    ),
    max_size=24,
)


class TestMicroBatcher:
    def test_identical_concurrent_requests_coalesce(self):
        async def run():
            counting = CountingEngine(AlignmentEngine())
            batcher = MicroBatcher(counting, max_batch=64)
            try:
                results = await asyncio.gather(
                    *(batcher.submit("score", "ACGTACGT", "AGGTACGT", JobSpec()) for _ in range(16))
                )
            finally:
                batcher.close()
            return counting.calls, results

        calls, results = asyncio.run(run())
        assert calls == [("score", 1)]  # one backend call, batch of one job
        assert len(set(results)) == 1  # identical results for all awaiters
        assert results[0] == AlignmentEngine().score("ACGTACGT", "AGGTACGT")

    def test_mixed_batch_matches_direct_engine(self):
        pairs = [("ACGT", "AGGT"), ("AAAA", "TTTT"), ("ACGTAC", "ACGTAC")]

        async def run():
            counting = CountingEngine(AlignmentEngine())
            batcher = MicroBatcher(counting, max_batch=64)
            try:
                scores = asyncio.gather(
                    *(batcher.submit("score", a, b, JobSpec()) for a, b in pairs)
                )
                alns = asyncio.gather(
                    *(batcher.submit("align", a, b, JobSpec()) for a, b in pairs)
                )
                return counting.calls, await scores, await alns
            finally:
                batcher.close()

        calls, scores, alns = asyncio.run(run())
        # One flush: one score_many and one align_many dispatch.
        assert sorted(calls) == [("align", 3), ("score", 3)]
        with AlignmentEngine() as eng:
            assert scores == [eng.score(a, b) for a, b in pairs]
            assert [json.loads(x) for x in alns] == [
                alignment_to_dict(x) for x in eng.align_many(pairs)
            ]

    def test_execution_twins_share_one_job(self):
        # Specs that differ only in backend or memory name one job: it
        # runs once, with its first waiter's spec, and answers them all.
        specs = [
            JobSpec("global", backend="numpy", memory="tensor"),
            JobSpec(backend="naive", memory="linear"),
            JobSpec("global", backend="native", memory="auto"),
        ]

        async def run():
            counting = CountingEngine(AlignmentEngine())
            batcher = MicroBatcher(counting, max_batch=64)
            try:
                results = await asyncio.gather(
                    *(batcher.submit("align", "ACGTACGT", "AGGTACGT", spec) for spec in specs)
                )
            finally:
                batcher.close()
            return counting.calls, results

        calls, results = asyncio.run(run())
        assert calls == [("align", 1)]
        assert results[0] == results[1] == results[2]
        with AlignmentEngine() as eng:
            assert json.loads(results[0]) == alignment_to_dict(eng.align("ACGTACGT", "AGGTACGT"))

    def test_submits_in_one_tick_share_one_call_on_an_idle_worker(self):
        pairs = [("ACGT" * 2, "AGGT" * 2 + "A" * k) for k in range(6)]

        async def run():
            engine = GatedEngine()
            engine.open()
            batcher = MicroBatcher(engine, max_batch=64)
            try:
                tasks = [
                    asyncio.ensure_future(batcher.submit("score", a, b, JobSpec()))
                    for a, b in pairs
                ]
                return engine.calls, await asyncio.wait_for(asyncio.gather(*tasks), 5)
            finally:
                batcher.close()

        calls, scores = asyncio.run(run())
        assert calls == [pairs]
        with AlignmentEngine() as eng:
            assert scores == [eng.score(a, b) for a, b in pairs]

    def test_jobs_queued_behind_a_running_batch_share_the_next_call(self):
        async def run():
            engine = GatedEngine()
            batcher = MicroBatcher(engine, max_batch=64)

            def submit(a, b):
                return asyncio.ensure_future(batcher.submit("score", a, b, JobSpec()))

            try:
                first = submit("ACGT", "AGGT")
                await _until(lambda: len(engine.calls) == 1)
                # Spread wider than any short batching window: the
                # running call, not a clock, decides what batches.
                second = submit("AAAA", "AATA")
                await asyncio.sleep(0.01)
                third = submit("ACGTAC", "ACGTTC")
                await asyncio.sleep(0.01)
                assert len(engine.calls) == 1  # nothing starts while it runs
                engine.release()
                await _until(lambda: len(engine.calls) == 2)
                engine.open()
                results = await asyncio.wait_for(asyncio.gather(first, second, third), 5)
                return engine.calls, engine.peak, results
            finally:
                engine.open()
                batcher.close()

        calls, peak, results = asyncio.run(run())
        assert calls == [[("ACGT", "AGGT")], [("AAAA", "AATA"), ("ACGTAC", "ACGTTC")]]
        assert peak == 1
        with AlignmentEngine() as eng:
            assert results == [
                eng.score("ACGT", "AGGT"), eng.score("AAAA", "AATA"),
                eng.score("ACGTAC", "ACGTTC"),
            ]

    def test_max_batch_caps_each_call_and_the_rest_go_next(self):
        pairs = [("ACGT" * 2, "AGGT" * 2 + "A" * k) for k in range(10)]

        async def run():
            engine = GatedEngine()
            engine.open()
            batcher = MicroBatcher(engine, max_batch=4)
            try:
                scores = await asyncio.wait_for(
                    asyncio.gather(
                        *(batcher.submit("score", a, b, JobSpec()) for a, b in pairs)
                    ),
                    timeout=5.0,
                )
            finally:
                batcher.close()
            return engine.calls, scores

        calls, scores = asyncio.run(run())
        assert calls == [pairs[:4], pairs[4:8], pairs[8:]]
        with AlignmentEngine() as eng:
            assert scores == [eng.score(a, b) for a, b in pairs]

    def test_drain_resolves_queued_and_running_jobs(self):
        async def run():
            engine = GatedEngine()
            batcher = MicroBatcher(engine, max_batch=64)
            try:
                running = asyncio.ensure_future(
                    batcher.submit("score", "ACGT", "AGGT", JobSpec())
                )
                await _until(lambda: len(engine.calls) == 1)
                queued = asyncio.ensure_future(
                    batcher.submit("score", "AAAA", "AATA", JobSpec())
                )
                await asyncio.sleep(0)  # the submit runs: one job queued
                drain = asyncio.ensure_future(batcher.drain())
                await asyncio.sleep(0.01)
                assert not drain.done()
                engine.open()
                await asyncio.wait_for(drain, 5)
                assert running.done() and queued.done()
                return running.result(), queued.result()
            finally:
                engine.open()
                batcher.close()

        with AlignmentEngine() as eng:
            assert asyncio.run(run()) == (eng.score("ACGT", "AGGT"), eng.score("AAAA", "AATA"))

    @given(schedule=_SCHEDULES, max_batch=st.integers(1, 4))
    # Two twins wait on a computing job and the first gives up.
    @example(schedule=[[(0, 0, False), (0, 1, False)], ("cancel", 0), "release"], max_batch=1)
    def test_paced_invariants_hold_on_any_schedule(self, schedule, max_batch):
        def key(i: int, k: int) -> tuple:
            return _SCHEDULE_SPECS[k].cache_key("score", *_SCHEDULE_PAIRS[i], "fp")

        async def run():
            engine = GatedEngine()
            stats = ServiceStats()
            cache = LRUCache(64)
            batcher = MicroBatcher(
                engine, max_batch=max_batch, stats=stats, cache=cache, model_fp="fp"
            )
            submits: list[tuple[int, int, bool, asyncio.Future]] = []
            cancelled: set[asyncio.Future] = set()

            def idle() -> bool:
                # Every submit is answered and no job is left: a job
                # whose waiters were all cancelled still runs.
                return all(f.done() for *_, f in submits) and not any(
                    key(i, k) in batcher for i, k, *_ in submits
                )

            def quiet() -> bool:
                # Only a release can change anything now: a call waits at
                # the gate, or the batcher is idle.  A job queued while
                # the worker idles would never get here.  A dropped
                # job's waiters hear of it through their own futures, a
                # loop turn after the worker moved on: wait for them too.
                return (engine.parked or idle()) and all(
                    f.done() or key(i, k) in batcher or key(i, k) in cache
                    for i, k, expired, f in submits if expired
                )

            try:
                for step in schedule:
                    if step == "release":
                        if engine.parked:
                            engine.release()
                    elif step[0] == "cancel":
                        waiting = [f for *_, f in submits if not f.done()]
                        if waiting:
                            victim = waiting[step[1] % len(waiting)]
                            victim.cancel()
                            cancelled.add(victim)
                            await asyncio.sleep(0)  # the cancel lands
                    else:
                        for i, k, expired in step:
                            deadline = time.monotonic() - 1.0 if expired else None
                            submits.append((i, k, expired, asyncio.ensure_future(
                                batcher.submit("score", *_SCHEDULE_PAIRS[i], _SCHEDULE_SPECS[k],
                                               deadline=deadline)
                            )))
                        await asyncio.sleep(0)  # the whole burst submits in one tick
                    await _until(quiet)
                    # A twin arriving now finds its job or its answer.
                    assert all(
                        key(i, k) in batcher or key(i, k) in cache
                        for i, k, _, f in submits if not f.done()
                    )
                engine.open()
                await _until(idle)
            finally:
                engine.open()
                batcher.close()
            return engine, stats.snapshot(), cache, submits, cancelled

        engine, snap, cache, submits, cancelled = asyncio.run(run())
        assert engine.peak <= 1
        assert all(1 <= len(call) <= max_batch for call in engine.calls)
        # Every distinct job is computed once or dropped once: never
        # twice, never lost.  A batch may hold several dispatch groups
        # (twins run on their first waiter's backend), each its own call.
        batches = snap["batches"]
        computed = sum(len(call) for call in engine.calls)
        assert batches["pairs"] == computed
        assert batches["dispatched"] <= len(engine.calls)
        dropped = snap["resilience"]["deadline_exceeded"]
        assert computed + dropped == len(submits) - batches["coalesced"]
        answered = {}  # cache key -> the direct engine's wire form
        with AlignmentEngine() as eng:
            for i, k, expired, future in submits:
                want = float(eng.run("score", [_SCHEDULE_PAIRS[i]], _SCHEDULE_SPECS[k])[0])
                if future in cancelled:
                    # Only its own wait ends: the job still runs for its
                    # twins and the cache unless every deadline passed.
                    assert future.cancelled()
                    if not expired:
                        answered[key(i, k)] = want
                    continue
                result = future.exception() or future.result()
                if isinstance(result, DeadlineExceeded):
                    assert expired  # a waiter without a deadline keeps its job live
                else:
                    answered[key(i, k)] = want
                    assert result == want
        # Every computed job's answer, and nothing else, is cached.
        assert {key: cache.get(key) for key in cache.keys()} == answered

    def test_engine_error_propagates_to_all_waiters(self):
        class ExplodingEngine:
            def run(self, op, pairs, spec):
                raise RuntimeError("kernel on fire")

        async def run():
            batcher = MicroBatcher(ExplodingEngine(), max_batch=8)
            try:
                results = await asyncio.gather(
                    *(batcher.submit("score", "AC", "GT", JobSpec()) for _ in range(3)),
                    batcher.submit("score", "TT", "AA", JobSpec()),
                    return_exceptions=True,
                )
            finally:
                batcher.close()
            return results

        results = asyncio.run(run())
        assert len(results) == 4
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_engine_error_fails_only_its_dispatch_group(self):
        class LocalExplodes:
            def __init__(self) -> None:
                self._engine = AlignmentEngine()

            def run(self, op, pairs, spec):
                if spec.mode == "local":
                    raise RuntimeError("local kernel on fire")
                return self._engine.run(op, pairs, spec)

        pairs = [("ACGTACGT", "AGGTACGT"), ("AAAA", "AATA"), ("ACGTAC", "ACGTAC")]

        async def run():
            batcher = MicroBatcher(LocalExplodes(), max_batch=64)
            try:
                return await asyncio.gather(
                    *(batcher.submit("score", a, b, JobSpec()) for a, b in pairs),
                    *(batcher.submit("score", a, b, JobSpec("local")) for a, b in pairs),
                    return_exceptions=True,
                )
            finally:
                batcher.close()

        results = asyncio.run(run())
        with AlignmentEngine() as eng:
            assert results[:3] == [eng.score(a, b) for a, b in pairs]
        assert all(isinstance(r, RuntimeError) for r in results[3:])

    def test_non_ascii_request_does_not_fail_its_flush(self):
        # "ß".upper() is the two characters "SS"; a request carrying it
        # is answered like any other and costs its flush nothing.
        good = [("ACGTACGT" + "A" * k, "ACGTTCGT") for k in range(10)]
        odd = ("ACGTß", "ACGT")

        async def run():
            counting = CountingEngine(AlignmentEngine())
            batcher = MicroBatcher(counting, max_batch=64)
            try:
                results = await asyncio.gather(
                    *(batcher.submit("score", a, b, JobSpec()) for a, b in good + [odd]),
                    return_exceptions=True,
                )
            finally:
                batcher.close()
            return counting.calls, results

        calls, results = asyncio.run(run())
        assert calls == [("score", 11)]  # one flush, one dispatch group
        with AlignmentEngine() as eng:
            assert results[:10] == [eng.score(a, b) for a, b in good]
            assert results[10] == eng.score("ACGTN", "ACGT")  # ß scores as N


def _serve_in_thread(config: ServiceConfig):
    """Start a service on a daemon thread; return (port, stop, service)."""
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

    def stop():
        try:
            holder["loop"].call_soon_threadsafe(holder["service"].stop)
        except RuntimeError:
            pass  # loop already closed: the server stopped on its own
        thread.join(timeout=10)
        assert not thread.is_alive(), "service thread failed to exit"

    return holder["port"], stop, holder["service"]


@pytest.fixture()
def service_port():
    port, stop, _service = _serve_in_thread(
        ServiceConfig(port=0, max_batch=16, cache_size=256)
    )
    yield port
    stop()


class TestServiceEndToEnd:
    def test_score_align_parity_with_engine(self, service_port):
        pairs = [("ACGTACGTAC", "ACGTAGGTAC"), ("AAAA", "AAAT"), ("", "ACG")]
        with AlignmentClient(port=service_port) as client:
            assert client.ping()
            scores = client.score_many(pairs, concurrency=4)
            alns = client.align_many(pairs, concurrency=4)
        with AlignmentEngine() as eng:
            assert scores == [eng.score(a, b) for a, b in pairs]
            assert alns == eng.align_many(pairs)

    def test_served_align_lines_equal_the_encoded_dict(self, service_port):
        # The server answers and caches align as JSON text: the line it
        # writes, computed or cached, is the encoded dict's, byte for byte.
        pairs = [("ACGTACGTAC", "ACGTAGGTAC"), ("TTTTACGTACGTAAA", "ACGNTCGTA"), ("", "ACG")]
        ids = iter([0, "x-1", 2.5, None, -7, "é", 1e-3, 10**20, 8, 9, 10, 11] * 2)
        with AlignmentEngine() as eng, socket.create_connection(
            ("127.0.0.1", service_port), timeout=60
        ) as sock:
            stream = sock.makefile("rb")
            for a, b in pairs:
                for mode in ("global", "local", "overlap", "banded"):
                    knobs = {"mode": mode, "band": 9} if mode == "banded" else {"mode": mode}
                    want = alignment_to_dict(eng.align(a, b, **knobs))
                    for cached in (False, True):
                        rid = next(ids)
                        request = {"id": rid, "op": "align", "a": a, "b": b, **knobs}
                        sock.sendall(encode_line(request))
                        line = stream.readline()
                        assert line == encode_line(ok_response(rid, want, cached=cached))

    def test_cache_hit_on_repeat(self, service_port):
        async def run():
            client = await AsyncAlignmentClient.connect(port=service_port)
            try:
                first, cached_first = await client.score_detail("ACGT", "AGGT")
                second, cached_second = await client.score_detail("ACGT", "AGGT")
                stats = await client.stats()
            finally:
                await client.close()
            return first, cached_first, second, cached_second, stats

        first, cached_first, second, cached_second, stats = asyncio.run(run())
        assert first == second
        assert not cached_first and cached_second
        assert stats["cache"]["hits"] >= 1

    def test_concurrent_load_batches_and_stats(self, service_port):
        pairs = [("ACGT" * 4, "AGGT" * 3 + "ACG" + "T" * k) for k in range(40)]
        with AlignmentClient(port=service_port) as client:
            scores = client.score_many(pairs + pairs, concurrency=16)
            stats = client.stats()
        assert scores[:40] == scores[40:]
        # Far fewer backend dispatches than requests: batching happened.
        assert 0 < stats["batches"]["dispatched"] < 80
        assert stats["batches"]["max_size"] > 1
        assert stats["cache"]["hits"] + stats["batches"]["coalesced"] >= 40
        assert stats["requests"]["score"] == 80
        assert stats["requests"]["by_mode"]["global"] == 80  # resolved default
        assert (
            stats["latency_ms"]["p99"]
            >= stats["latency_ms"]["p95"]
            >= stats["latency_ms"]["p50"]
            >= 0
        )

    def test_overlap_and_banded_round_trip(self, service_port):
        # Per-request mode overrides route client -> batcher -> engine
        # and come back intact; every response equals the direct
        # engine call in that mode.
        pairs = [("TTTTTACGTACGT", "ACGTACGTCCCC"), ("ACGTACGT", "ACGTAGGT")]
        with AlignmentClient(port=service_port) as client:
            overlap_scores = client.score_many(pairs, concurrency=4, mode="overlap")
            overlap_alns = client.align_many(pairs, concurrency=4, mode="overlap")
            banded_scores = client.score_many(pairs, concurrency=4, mode="banded", band=4)
            banded_alns = client.align_many(pairs, concurrency=4, mode="banded", band=4)
            global_scores = client.score_many(pairs, concurrency=4)
        with AlignmentEngine() as eng:
            assert overlap_scores == [
                eng.score(a, b, mode="overlap") for a, b in pairs
            ]
            assert overlap_alns == eng.align_many(pairs, mode="overlap")
            assert banded_scores == [
                eng.score(a, b, mode="banded", band=4) for a, b in pairs
            ]
            assert banded_alns == eng.align_many(pairs, mode="banded", band=4)
            assert global_scores == [eng.score(a, b) for a, b in pairs]
        # Distinct modes for one pair must not cross-contaminate the
        # result cache: the overlap score of these pairs differs from
        # the global score.
        assert overlap_scores != global_scores

    def test_banded_requests_validated_before_batching(self, service_port):
        async def run():
            client = await AsyncAlignmentClient.connect(port=service_port)
            try:
                with pytest.raises(ServiceError, match="needs a band"):
                    await client.score("ACGT", "AGGT", mode="banded")
                with pytest.raises(ServiceError, match="too narrow"):
                    await client.score("ACGTACGTACGT", "AC", mode="banded", band=2)
                # The failed requests poisoned nothing: a good banded
                # request on the same connection still works.
                return await client.score("ACGT", "AGGT", mode="banded", band=2)
            finally:
                await client.close()

        assert asyncio.run(run()) == AlignmentEngine().score(
            "ACGT", "AGGT", mode="banded", band=2
        )

    def test_unknown_op_is_answered_not_fatal(self, service_port):
        async def run():
            client = await AsyncAlignmentClient.connect(port=service_port)
            try:
                with pytest.raises(ServiceError, match="unknown op"):
                    await client._request("frobnicate")
                return await client.ping()  # connection still serves
            finally:
                await client.close()

        assert asyncio.run(run())

    def test_shutdown_request_stops_server(self):
        port, stop, _service = _serve_in_thread(ServiceConfig(port=0))
        client = AlignmentClient(port=port)
        try:
            assert client.ping()
            client.shutdown()
        finally:
            client.close()
        stop()  # joins the server thread: returns only on clean exit
        with pytest.raises(OSError):
            AlignmentClient(port=port).ping()


class TestServiceStatsSurface:
    def test_p99_and_by_mode_counters(self):
        from fragalign.service import ServiceStats

        stats = ServiceStats()
        for k in range(100):
            stats.observe_latency(k / 1000.0)
        stats.observe_request("score")
        stats.observe_mode("global")
        stats.observe_request("score")
        stats.observe_mode("overlap")
        snap = stats.snapshot()
        assert snap["latency_ms"]["p99"] >= snap["latency_ms"]["p95"]
        assert snap["requests"]["by_mode"] == {"global": 1, "overlap": 1}
        # Backward compatibility: the pre-existing schema keys survive.
        for key in ("total", "errors", "score"):
            assert key in snap["requests"]
        for key in ("p50", "p95", "mean", "samples"):
            assert key in snap["latency_ms"]


class TestPortFileHandshake:
    def test_write_is_atomic_and_wait_polls(self, tmp_path):
        path = tmp_path / "server.port"

        def late_write():
            time.sleep(0.15)
            write_port_file(str(path), 43210)

        writer = threading.Thread(target=late_write)
        writer.start()
        try:
            # The reader starts before the file exists and must never
            # see a half-written value — only nothing, then the port.
            assert wait_for_port_file(str(path), timeout=5.0, poll=0.01) == 43210
        finally:
            writer.join()
        assert not list(tmp_path.glob("*.tmp.*"))  # tmp file renamed away

    def test_wait_times_out_and_aborts_on_dead_server(self, tmp_path):
        path = str(tmp_path / "never.port")
        with pytest.raises(TimeoutError, match="no port appeared"):
            wait_for_port_file(path, timeout=0.2, poll=0.02)
        with pytest.raises(RuntimeError, match="exited before"):
            wait_for_port_file(path, timeout=5.0, poll=0.02, alive=lambda: False)


async def _abrupt_server():
    """A server that reads one line, then closes the connection without
    answering — the mid-stream-death simulator."""

    async def handle(reader, writer):
        await reader.readline()
        writer.close()

    server = await asyncio.start_server(handle, host="127.0.0.1", port=0)
    return server, server.sockets[0].getsockname()[1]


class TestClientReconnectBehavior:
    def test_pending_request_fails_cleanly_on_mid_stream_close(self):
        async def run():
            server, port = await _abrupt_server()
            try:
                client = await AsyncAlignmentClient.connect(port=port)
                try:
                    with pytest.raises((ConnectionError, OSError)):
                        await client.score("ACGT", "AGGT")
                    assert client.closed
                    # Requests issued after the close fail fast with a
                    # clean error instead of hanging on a dead reader.
                    with pytest.raises((ConnectionError, OSError)):
                        await client.ping()
                finally:
                    await client.close()
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(run())

    def test_sync_client_surfaces_connection_error(self):
        async def start():
            return await _abrupt_server()

        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        server, port = asyncio.run_coroutine_threadsafe(start(), loop).result()
        try:
            client = AlignmentClient(port=port)
            try:
                with pytest.raises((ConnectionError, OSError)):
                    client.score("ACGT", "AGGT")
                with pytest.raises((ConnectionError, OSError)):
                    client.ping()  # still clean on the next call
            finally:
                client.close()
        finally:
            asyncio.run_coroutine_threadsafe(_close(server), loop).result()
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=5)
            loop.close()

    def test_close_releases_pending_waiters(self):
        # close() cancels the reader task; the cleanup must run anyway
        # (finally, not except) or a request sharing the client — e.g.
        # through the cluster router's failover path — hangs forever.
        async def run():
            async def handle(reader, writer):
                await asyncio.sleep(3600)  # a server that never answers

            server = await asyncio.start_server(handle, host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            client = await AsyncAlignmentClient.connect(port=port)
            pending = asyncio.create_task(client.score("ACGT", "AGGT"))
            await asyncio.sleep(0.05)  # let the request hit the wire
            await client.close()
            with pytest.raises((ConnectionError, OSError)):
                await asyncio.wait_for(pending, timeout=5)
            server.close()
            await server.wait_closed()

        asyncio.run(run())

    def test_server_restart_allows_fresh_connection(self, service_port):
        # The documented reconnect story: a new client object per
        # connection.  After an old client dies with the server, a
        # fresh connect to a live server works.
        async def run():
            client = await AsyncAlignmentClient.connect(port=service_port)
            try:
                return await client.score("ACGT", "AGGT")
            finally:
                await client.close()

        assert asyncio.run(run()) == asyncio.run(run())


async def _close(server):
    server.close()
    await server.wait_closed()


class _FakeTransport:
    def __init__(self) -> None:
        self.writes: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.writes.append(data)

    def get_write_buffer_size(self) -> int:
        return 0

    def is_closing(self) -> bool:
        return False


class _FakeWriter:
    def __init__(self) -> None:
        self.transport = _FakeTransport()


def _pipelined_workload(
    hot: int = 20, total: int = 2000
) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """A hot pool to warm the cache with, then ``total`` requests whose
    even positions repeat the pool (cache hits) and whose odd positions
    are all distinct (misses that fill batches)."""
    rng = random.Random(7)

    def seq(n: int) -> str:
        return "".join(rng.choice("ACGT") for _ in range(n))

    pool = [(seq(16), seq(18)) for _ in range(hot)]
    pairs = [
        pool[k // 2 % hot] if k % 2 == 0 else (seq(12 + k % 9), seq(14))
        for k in range(total)
    ]
    return pool, pairs


class TestWritePath:
    """The per-connection outbox: coalesced writes, bounded drains."""

    def test_outbox_writes_once_per_loop_iteration(self):
        async def run():
            writer = _FakeWriter()
            outbox = Outbox(writer, drain_timeout=1.0)
            for k in range(3):
                outbox.send(b"%d\n" % k)
            assert writer.transport.writes == []  # nothing leaves mid-iteration
            await asyncio.sleep(0)
            first = list(writer.transport.writes)
            outbox.send(b"3\n")
            await asyncio.sleep(0)
            return first, writer.transport.writes

        first, writes = asyncio.run(run())
        assert first == [b"0\n1\n2\n"]
        assert writes == [b"0\n1\n2\n", b"3\n"]

    def test_2000_pipelined_requests_on_one_connection(self, service_port):
        pool, pairs = _pipelined_workload()
        with AlignmentEngine() as eng:
            expected = dict(zip(pairs, eng.score_many(pairs)))

        def blob(batch, first_id):
            return b"".join(
                encode_line({"id": first_id + k, "op": "score", "a": a, "b": b})
                for k, (a, b) in enumerate(batch)
            )

        with socket.create_connection(("127.0.0.1", service_port), timeout=60) as sock:
            stream = sock.makefile("rb")
            sock.sendall(blob(pool, -len(pool)))  # warm the hot pool
            warm = [decode_line(stream.readline()) for _ in pool]
            sock.sendall(blob(pairs, 0))  # every request before any answer
            answers = [decode_line(stream.readline()) for _ in pairs]
        assert all(w["ok"] for w in warm)
        assert sorted(a["id"] for a in answers) == list(range(len(pairs)))
        for answer in answers:
            assert answer["ok"], answer
            assert answer["result"] == expected[pairs[answer["id"]]]
            assert answer["cached"] == (answer["id"] % 2 == 0)  # hits interleaved

    def test_2000_concurrent_client_requests_route_by_id(self, service_port):
        pool, pairs = _pipelined_workload()
        with AlignmentEngine() as eng:
            expected = [float(v) for v in eng.score_many(pairs)]

        async def run():
            client = await AsyncAlignmentClient.connect(port=service_port)
            try:
                await asyncio.gather(*(client.score(a, b) for a, b in pool))
                return await asyncio.gather(*(client.score_detail(a, b) for a, b in pairs))
            finally:
                await client.close()

        answers = asyncio.run(run())
        assert [score for score, _ in answers] == expected
        assert [cached for _, cached in answers] == [k % 2 == 0 for k in range(len(pairs))]

    def test_wedged_reader_dropped_after_drain_timeout(self, monkeypatch):
        monkeypatch.setattr(server_module, "DRAIN_TIMEOUT", 0.5)
        rng = random.Random(3)
        a = "".join(rng.choice("ACGT") for _ in range(1200))
        b = a[:600] + "T" + a[601:]
        # Identical align requests: computed once, then answered from
        # the cache — ~15 KB per response, ~12 MB in all.
        line = encode_line({"id": 0, "op": "align", "a": a, "b": b})
        port, stop, _service = _serve_in_thread(
            ServiceConfig(port=0, cache_size=16)
        )
        wedged = socket.socket()
        try:
            wedged.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            wedged.connect(("127.0.0.1", port))
            wedged.sendall(line * 800)  # ...and never reads a byte

            async def watch():
                client = await AsyncAlignmentClient.connect(port=port)
                try:
                    answered, deadline = 0, time.monotonic() + 30
                    while time.monotonic() < deadline:
                        # The second connection keeps being answered.
                        assert await client.score("ACGTACGT", "AGGTACGT") == 6.0
                        answered += 1
                        if (await client.stats())["connections"]["open"] == 1:
                            return answered
                        await asyncio.sleep(0.05)
                    raise AssertionError("the wedged client was never dropped")
                finally:
                    await client.close()

            assert asyncio.run(watch()) >= 1
            # The server aborted its side: once the wedged socket reads,
            # it reaches a reset or EOF instead of timing out.
            wedged.settimeout(10)
            try:
                while wedged.recv(1 << 16):
                    pass
            except ConnectionResetError:
                pass
        finally:
            wedged.close()
            stop()

    def test_client_aborts_a_server_that_stops_reading(self, monkeypatch):
        monkeypatch.setattr(AsyncAlignmentClient, "WRITE_TIMEOUT", 0.3)
        big = "ACGT" * 100_000  # ~800 KB per request line

        async def run():
            accepted: list[asyncio.StreamWriter] = []

            async def never_reads(reader, writer):
                accepted.append(writer)
                await asyncio.sleep(3600)

            server = await asyncio.start_server(never_reads, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await AsyncAlignmentClient.connect(port=port)
            try:
                start = time.monotonic()
                results = await asyncio.wait_for(
                    asyncio.gather(
                        *(client.score(big, big) for _ in range(32)),
                        return_exceptions=True,
                    ),
                    timeout=10,
                )
                return results, time.monotonic() - start
            finally:
                await client.close()
                for writer in accepted:
                    writer.close()
                await _close(server)

        results, elapsed = asyncio.run(run())
        # ~25 MB backs up in the transport; the bounded drain wait
        # aborts the connection, failing every pending request.
        assert all(isinstance(r, ConnectionError) for r in results), results[:3]
        assert elapsed < 5.0

    def test_request_after_server_closed_fails_fast(self):
        port, stop, _service = _serve_in_thread(ServiceConfig(port=0))

        async def run():
            client = await AsyncAlignmentClient.connect(port=port)
            try:
                await client.shutdown()
                await asyncio.to_thread(stop)  # the server has fully exited
                start = time.monotonic()
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(client.score("ACGT", "AGGT"), timeout=5)
                return time.monotonic() - start
            finally:
                await client.close()

        assert asyncio.run(run()) < 1.0


class TestCacheKeying:
    def test_key_includes_op_mode_band_and_model(self):
        svc = AlignmentService(ServiceConfig(port=0))
        svc_model = AlignmentService(
            ServiceConfig(port=0),
            engine=AlignmentEngine(model=transition_transversion()),
        )
        fp = model_fingerprint(svc.engine.model)
        keys = {
            JobSpec("global").cache_key("score", "ACGT", "AGGT", fp),
            JobSpec("global").cache_key("align", "ACGT", "AGGT", fp),
            JobSpec("local").cache_key("score", "ACGT", "AGGT", fp),
            JobSpec("overlap").cache_key("score", "ACGT", "AGGT", fp),
            JobSpec("banded", 2).cache_key("score", "ACGT", "AGGT", fp),
            JobSpec("banded", 3).cache_key("score", "ACGT", "AGGT", fp),
            JobSpec("global").cache_key(
                "score", "ACGT", "AGGT", model_fingerprint(svc_model.engine.model)
            ),
        }
        assert len(keys) == 7  # op, mode, band, model all key
        svc.close()
        svc_model.close()

    def test_same_config_same_key(self):
        svc_a = AlignmentService(ServiceConfig(port=0))
        svc_b = AlignmentService(ServiceConfig(port=0))
        try:
            spec_a = svc_a.engine.resolve(JobSpec(), "score")
            spec_b = svc_b.engine.resolve(JobSpec("global"), "score")
            assert spec_a.cache_key(
                "score", "AC", "GT", model_fingerprint(svc_a.engine.model)
            ) == spec_b.cache_key("score", "AC", "GT", model_fingerprint(svc_b.engine.model))
        finally:
            svc_a.close()
            svc_b.close()


class TestAffineAndMemoryKnobsEndToEnd:
    """gap_open/gap_extend/memory round-trip client -> server -> engine."""

    def test_affine_requests_match_engine(self, service_port):
        a, b = "ACGTACGTACGTTT", "ACGTAAGTACG"
        with AlignmentEngine() as eng, AlignmentClient(port=service_port) as client:
            got = client.score(a, b, gap_open=-3.0, gap_extend=-1.0)
            assert got == eng.score(a, b, gap_open=-3.0, gap_extend=-1.0)
            for mode in ("global", "local", "overlap"):
                got_aln = client.align(a, b, mode=mode, gap_open=-3.0, gap_extend=-1.0)
                assert got_aln == eng.align(a, b, mode=mode, gap_open=-3.0, gap_extend=-1.0)
            got_aln = client.align(
                a, b, mode="banded", band=8, gap_open=-3.0, gap_extend=-1.0
            )
            assert got_aln == eng.align(
                a, b, mode="banded", band=8, gap_open=-3.0, gap_extend=-1.0
            )

    def test_memory_strategies_agree_and_share_cache(self, service_port):
        """linear and tensor return identical alignments, so they share
        one cache entry (memory is not in the cache key)."""
        a, b = "ACGTACGTACGT", "ACGTAAGTACG"

        async def run():
            client = await AsyncAlignmentClient.connect(port=service_port)
            aln1 = await client.align(a, b, memory="tensor")
            response = await client._request("align", a=a, b=b, memory="linear")
            await client.close()
            return aln1, response

        aln1, response = asyncio.run(run())
        assert response["cached"] is True  # same key as the tensor request
        assert alignment_from_dict(response["result"]) == aln1

    def test_affine_cached_separately_from_linear_gap(self, service_port):
        a, b = "ACGTACGT", "ACGTCCGT"

        async def run():
            client = await AsyncAlignmentClient.connect(port=service_port)
            s1 = await client.score(a, b)
            s2, cached = await client.score_detail(a, b, gap_open=-4.0, gap_extend=-1.0)
            await client.close()
            return s1, s2, cached

        s1, s2, cached = asyncio.run(run())
        assert cached is False  # different knobs, different cache key

    def test_invalid_knob_combos_rejected_before_batching(self, service_port):
        a, b = "ACGT", "ACGA"
        with AlignmentClient(port=service_port) as client:
            with pytest.raises(ServiceError, match="linear"):
                client.align(a, b, memory="linear", gap_open=-3.0, gap_extend=-1.0)
            with pytest.raises(ServiceError, match="linear"):
                client.align(a, b, mode="banded", band=4, memory="linear")
            with pytest.raises(ServiceError, match="together"):
                client.score(a, b, gap_open=-3.0)
            with pytest.raises(ServiceError, match="<= 0"):
                client.score(a, b, gap_open=2.0, gap_extend=-1.0)
            # the connection is still healthy after rejected requests
            assert client.ping()

    def test_memory_on_score_rejected(self, service_port):
        async def run():
            client = await AsyncAlignmentClient.connect(port=service_port)
            with pytest.raises(ServiceError, match="align"):
                await client._request("score", a="AC", b="AC", memory="linear")
            await client.close()

        asyncio.run(run())

    def test_server_affine_defaults_apply(self):
        port, stop, _service = _serve_in_thread(
            ServiceConfig(port=0, gap_open=-3.0, gap_extend=-1.0, cache_size=64)
        )
        try:
            a, b = "ACGTACGTACGT", "ACGTCCGT"
            with AlignmentEngine() as eng, AlignmentClient(port=port) as client:
                assert client.score(a, b) == eng.score(
                    a, b, gap_open=-3.0, gap_extend=-1.0
                )
        finally:
            stop()


class TestClientAutoReconnect:
    """Opt-in reconnect with capped exponential backoff; fail-fast default."""

    def _restartable_config(self):
        return ServiceConfig(port=0, max_batch=8, cache_size=64)

    def test_reconnect_after_server_restart(self):
        port, stop, _service = _serve_in_thread(self._restartable_config())
        client = AlignmentClient(
            port=port, reconnect=True, reconnect_base_delay=0.02,
            reconnect_attempts=8,
        )
        try:
            assert client.score("ACGT", "ACGA") == 2.0
            stop()  # server dies
            # restart on the same port while the client holds a dead conn
            cfg = self._restartable_config()
            cfg.port = port
            port2, stop, _service = _serve_in_thread(cfg)
            assert port2 == port
            assert client.score("ACGT", "ACGA") == 2.0  # transparent retry
            assert client.reconnects >= 1
            # batch ops survive too
            assert client.score_many([("AC", "AC"), ("GT", "GA")]) == [2.0, 0.0]
        finally:
            client.close()
            stop()

    def test_default_stays_fail_fast(self):
        port, stop, _service = _serve_in_thread(self._restartable_config())
        client = AlignmentClient(port=port)
        try:
            assert client.ping()
            stop()
            with pytest.raises((ConnectionError, OSError)):
                client.score("ACGT", "ACGT")
            assert client.reconnects == 0
        finally:
            client.close()

    def test_reconnect_gives_up_after_attempts(self):
        port, stop, _service = _serve_in_thread(self._restartable_config())
        client = AlignmentClient(
            port=port, reconnect=True, reconnect_attempts=2,
            reconnect_base_delay=0.01, reconnect_max_delay=0.02,
        )
        try:
            assert client.ping()
            stop()  # nothing ever comes back on this port
            with pytest.raises((ConnectionError, OSError)):
                client.score("ACGT", "ACGT")
        finally:
            client.close()
