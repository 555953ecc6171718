"""The ``fragalign chaos`` drill: a scripted fault schedule with
verified invariants.

The drill boots a real local fleet — N ``fragalign serve`` processes
under an auto-healing :class:`~fragalign.cluster.supervisor.ClusterSupervisor`,
each reached *only* through its own :class:`~fragalign.resilience.faults.FaultProxyThread`
— and drives a :class:`~fragalign.cluster.router.ShardRouter` through a
fixed schedule of injected faults:

1. ``baseline``     — all healthy; every request must succeed.
2. ``latency``      — 150 ms upstream latency on shard 0; hedged
   retries should win races against the slow replica.
3. ``blackhole``    — shard 1 swallows bytes; its circuit breaker must
   open and traffic must fail over with no wrong answers.
4. ``abrupt-close`` — shard 2 aborts connections mid-request.
5. ``expired``      — requests carrying a microscopic deadline; the
   router must refuse to spend wire time on them.
6. ``overload``     — a concurrent burst of oversized jobs against a
   small admission budget; shards must shed, not queue unboundedly.
7. ``kill-heal``    — shard 0 is SIGKILLed; the supervisor must
   auto-restart it and the drill re-points its proxy at the new port.
8. ``recovery``     — all faults cleared; breakers must readmit, every
   shard must serve again, and every request must succeed.

Throughout, the drill enforces the resilience contract rather than any
particular success rate: a degraded cluster may *refuse* work (typed
``DeadlineExceeded`` / ``Overloaded`` / ``CircuitOpen`` /
``ClusterError`` failures are tolerated mid-fault) but may never return
a wrong answer (``--verify`` recomputes every accepted answer on a
local engine), never fail with an untyped error, and never let a call
outlive its deadline by more than the grace window.  Structural
invariants — breaker opened, sheds observed, deadline enforcement
counted, supervisor respawn seen, full recovery — are asserted from the
router and shard counters at the end.

Exit status: 0 when every invariant holds, 1 otherwise (the CI
``chaos-drill`` job gates on it).
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import Counter

from fragalign.cluster import (
    ClusterError,
    ClusterSupervisor,
    HealthMonitor,
    ShardRouter,
)
from fragalign.engine import AlignmentEngine
from fragalign.genome.dna import random_dna
from fragalign.resilience.faults import FaultProxyThread
from fragalign.util.errors import (
    CircuitOpen,
    DeadlineExceeded,
    Overloaded,
)

__all__ = ["run_chaos"]

# Failures a degraded cluster is *allowed* to produce.  Anything else
# escaping the router is an invariant breach — the taxonomy exists so
# callers can tell "the cluster protected itself" from "the cluster
# broke".
_ALLOWED_FAILURES = (DeadlineExceeded, Overloaded, CircuitOpen, ClusterError)

# Grace window on top of a request's deadline before an answer (or a
# typed failure) counts as "outlived its deadline": a job already
# computing when its deadline passes finishes its batch, and the rest
# absorbs CI scheduling noise.
_DEADLINE_SLACK_S = 0.75

# Drill-fleet tuning: tight enough that faults bite within seconds,
# loose enough that the healthy phases never trip anything.
_REQUEST_TIMEOUT_S = 1.0
_BREAKER_THRESHOLD = 3
_BREAKER_RECOVERY_S = 1.25
_HEDGE_DELAY_S = 0.05
_LATENCY_FAULT_MS = 150.0
_EXPIRED_DEADLINE_MS = 1e-4
_HEAL_WAIT_S = 30.0


class _PhaseStats:
    """Outcome tally for one drill phase."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.sent = 0
        self.ok = 0
        self.typed: Counter[str] = Counter()
        self.wrong: list[str] = []
        self.untyped: list[str] = []
        self.overshoots: list[str] = []
        self.max_elapsed_s = 0.0

    def _deadline_check(self, elapsed: float, deadline_ms: float | None) -> None:
        self.max_elapsed_s = max(self.max_elapsed_s, elapsed)
        if deadline_ms is not None and elapsed > deadline_ms / 1e3 + _DEADLINE_SLACK_S:
            self.overshoots.append(
                f"{elapsed * 1e3:.1f}ms elapsed against a {deadline_ms:.3f}ms deadline"
            )

    def note_ok(self, elapsed: float, deadline_ms: float | None) -> None:
        self.ok += 1
        self._deadline_check(elapsed, deadline_ms)

    def note_failure(
        self, exc: BaseException, elapsed: float, deadline_ms: float | None
    ) -> None:
        if isinstance(exc, _ALLOWED_FAILURES):
            self.typed[type(exc).__name__] += 1
        else:
            self.untyped.append(f"{type(exc).__name__}: {exc}")
        self._deadline_check(elapsed, deadline_ms)

    def note_wrong(self, detail: str) -> None:
        self.wrong.append(detail)

    @property
    def deadline_failures(self) -> int:
        return sum(n for name, n in self.typed.items() if "Deadline" in name)

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "sent": self.sent,
            "ok": self.ok,
            "typed": dict(self.typed),
            "wrong": self.wrong,
            "untyped": self.untyped,
            "overshoots": self.overshoots,
            "max_elapsed_ms": round(self.max_elapsed_s * 1e3, 1),
        }

    def line(self) -> str:
        typed = sum(self.typed.values())
        extra = f" typed={dict(self.typed)}" if typed else ""
        bad = ""
        if self.wrong or self.untyped or self.overshoots:
            bad = (
                f" WRONG={len(self.wrong)} untyped={len(self.untyped)}"
                f" overshoots={len(self.overshoots)}"
            )
        return (
            f"fragalign.chaos {self.name}: sent={self.sent} ok={self.ok}"
            f" max_elapsed={self.max_elapsed_s * 1e3:.0f}ms{extra}{bad}"
        )


class _PairBook:
    """Deterministic request material: a pool of unique pairs with
    shard-targeted draws (computed against the full ring, so a wave can
    be aimed at one shard before the schedule knocks it over)."""

    def __init__(self, pool: list[tuple[str, str]]) -> None:
        self.pool = pool
        self._cursor = 0
        self._used: set[tuple[str, str]] = set()

    def take(self, n: int) -> list[tuple[str, str]]:
        out: list[tuple[str, str]] = []
        while len(out) < n and self._cursor < len(self.pool):
            pair = self.pool[self._cursor]
            self._cursor += 1
            if pair in self._used:
                continue
            self._used.add(pair)
            out.append(pair)
        if len(out) < n:  # pool sized generously; wrap rather than starve
            out.extend(self.pool[: n - len(out)])
        return out

    def owned_by(
        self, router: ShardRouter, shard: str, n: int
    ) -> list[tuple[str, str]]:
        out: list[tuple[str, str]] = []
        for pair in self.pool:
            if pair in self._used:
                continue
            if router.shard_for("score", pair[0], pair[1]) == shard:
                self._used.add(pair)
                out.append(pair)
                if len(out) == n:
                    break
        return out


async def _score_wave(
    router: ShardRouter,
    pairs: list[tuple[str, str]],
    stats: _PhaseStats,
    expected: dict[tuple[str, str], float],
    deadline_ms: float | None,
    concurrency: int,
) -> None:
    """Fire one wave of score requests and tally every outcome."""
    semaphore = asyncio.Semaphore(max(1, concurrency))

    async def one(pair: tuple[str, str]) -> None:
        stats.sent += 1
        async with semaphore:
            started = time.monotonic()
            try:
                value = await router.score(pair[0], pair[1], deadline_ms=deadline_ms)
            except Exception as exc:
                stats.note_failure(exc, time.monotonic() - started, deadline_ms)
                return
            stats.note_ok(time.monotonic() - started, deadline_ms)
            if pair in expected and value != expected[pair]:
                stats.note_wrong(
                    f"score({pair[0][:12]}…) = {value!r}, engine says {expected[pair]!r}"
                )

    await asyncio.gather(*(one(p) for p in pairs))


async def _drill(args, supervisor: ClusterSupervisor,
                 proxies: list[FaultProxyThread],
                 book: _PairBook,
                 oversized: list[tuple[str, str]],
                 expected: dict[tuple[str, str], float],
                 align_pairs: list[tuple[str, str]],
                 align_expected: dict) -> dict:
    host = supervisor.host
    shard_name = {i: f"{host}:{proxies[i].port}" for i in range(len(proxies))}
    router = ShardRouter(
        [(host, proxy.port) for proxy in proxies],
        max_attempts=max(2, args.shards),
        request_timeout=_REQUEST_TIMEOUT_S,
        connect_timeout=_REQUEST_TIMEOUT_S,
        breaker_threshold=_BREAKER_THRESHOLD,
        breaker_recovery=_BREAKER_RECOVERY_S,
        # Hedging is switched on only for the latency phase: against a
        # blackhole a winning hedge would mask every stall, and the
        # drill wants the breaker — not the hedge — to absorb those.
        hedge_delay=None,
        hedge_max_fraction=0.5,
    )
    monitor = HealthMonitor(router, interval=0.4, timeout=_REQUEST_TIMEOUT_S,
                            fail_after=2)
    phases: list[_PhaseStats] = []
    violations: list[str] = []
    deadline_ms = args.deadline_ms

    def phase(name: str) -> _PhaseStats:
        if phases:  # breaker/ring view at each phase boundary
            snap = router.router_stats()
            print(
                f"fragalign.chaos   state: breakers={snap['breakers']} "
                f"opens={snap['breaker_opens']} live={len(snap['live_shards'])}"
                f"/{len(snap['configured_shards'])}"
            )
        stats = _PhaseStats(name)
        phases.append(stats)
        return stats

    try:
        monitor.start()

        # -- 1. baseline: healthy fleet, zero tolerance -----------------
        stats = phase("baseline")
        await _score_wave(router, book.take(args.requests), stats, expected,
                          deadline_ms, args.concurrency)
        for pair in align_pairs:
            stats.sent += 1
            started = time.monotonic()
            try:
                alignment = await router.align(
                    pair[0], pair[1], deadline_ms=deadline_ms
                )
            except Exception as exc:
                stats.note_failure(exc, time.monotonic() - started, deadline_ms)
                continue
            stats.note_ok(time.monotonic() - started, deadline_ms)
            if pair in align_expected and alignment != align_expected[pair]:
                stats.note_wrong(f"align({pair[0][:12]}…) drifted from the engine")
        if stats.ok != stats.sent:
            violations.append(
                f"baseline had failures on a healthy fleet: {stats.snapshot()}"
            )
        print(stats.line())

        # -- 2. latency spike on shard 0: hedges should win -------------
        stats = phase("latency")
        proxies[0].set_faults(latency_ms=_LATENCY_FAULT_MS)
        router.hedge_delay = _HEDGE_DELAY_S
        targeted = book.owned_by(router, shard_name[0], 8)
        await _score_wave(router, targeted + book.take(args.requests), stats,
                          expected, deadline_ms, args.concurrency)
        router.hedge_delay = None
        proxies[0].clear_faults()
        print(stats.line())

        # -- 3. blackhole shard 1: the breaker must open ----------------
        stats = phase("blackhole")
        proxies[1].set_faults(blackhole=True)
        targeted = book.owned_by(router, shard_name[1], 6)
        # Concurrent wave aimed at the wedged shard: every attempt times
        # out, so the breaker sees >= threshold consecutive failures.
        await _score_wave(router, targeted, stats, expected, deadline_ms,
                          len(targeted))
        breaker_after = router.router_stats()["breakers"].get(shard_name[1])
        if breaker_after not in ("open", "half_open"):
            violations.append(
                f"blackholed shard's breaker is {breaker_after!r}, expected open"
            )
        await _score_wave(router, book.take(args.requests), stats, expected,
                          deadline_ms, args.concurrency)
        print(stats.line())
        # The blackhole stays on until recovery: readmission must happen
        # because the fault cleared, not because the drill got polite.

        # -- 4. abrupt closes on shard 2 --------------------------------
        stats = phase("abrupt-close")
        proxies[2 % len(proxies)].set_faults(abrupt_close=True)
        targeted = book.owned_by(router, shard_name[2 % len(proxies)], 6)
        await _score_wave(router, targeted + book.take(args.requests), stats,
                          expected, deadline_ms, args.concurrency)
        proxies[2 % len(proxies)].clear_faults()
        print(stats.line())

        # -- 5. expired deadlines: refuse, don't spend ------------------
        stats = phase("expired")
        await _score_wave(router, book.take(8), stats, expected,
                          _EXPIRED_DEADLINE_MS, args.concurrency)
        if stats.deadline_failures != stats.sent:
            violations.append(
                "expired-deadline burst was not fully refused: "
                f"{stats.snapshot()}"
            )
        print(stats.line())

        # -- 6. overload: oversized burst against a small budget --------
        stats = phase("overload")
        await _score_wave(router, oversized, stats, expected, None,
                          len(oversized))
        if stats.ok == 0:
            violations.append("overload burst made zero progress (expected "
                              "at least one admitted job)")
        print(stats.line())

        # -- 7. kill shard 0: the supervisor must bring it back ---------
        stats = phase("kill-heal")
        targeted = book.owned_by(router, shard_name[0], 6)
        supervisor.kill_shard(0)
        # A beat for the health monitor to re-probe the fleet (and the
        # heal thread to notice the corpse) before traffic arrives.
        await asyncio.sleep(1.0)
        await _score_wave(router, targeted, stats, expected, deadline_ms,
                          len(targeted))
        healed_port: int | None = None
        wait_until = time.monotonic() + _HEAL_WAIT_S
        while time.monotonic() < wait_until:
            respawns = [
                event for event in supervisor.heal_events
                if event.get("event") == "respawned" and event.get("index") == 0
            ]
            if respawns:
                healed_port = respawns[-1]["port"]
                break
            await asyncio.sleep(0.1)
        if healed_port is None:
            violations.append(
                f"supervisor never respawned shard 0 within {_HEAL_WAIT_S:.0f}s "
                f"(heal_events={supervisor.heal_events})"
            )
        else:
            # The shard restarted on a fresh ephemeral port; re-point
            # its proxy the way a service-discovery layer would.
            proxies[0].set_upstream(host, healed_port)
        print(stats.line())

        # -- 8. recovery: clear everything, demand full health ----------
        stats = phase("recovery")
        for proxy in proxies:
            proxy.clear_faults()
        # Let breakers age past their recovery window and the health
        # monitor re-probe everything before demanding perfection.
        await asyncio.sleep(_BREAKER_RECOVERY_S + 1.0)
        # Warm the fleet: a half-open breaker admits exactly one trial,
        # so a cold concurrent wave would mostly fast-fail CircuitOpen —
        # correct fail-fast behavior, but the strict wave below wants a
        # settled fleet.  Serial per-shard nudges close each breaker.
        warm_pairs = {
            shard: book.owned_by(router, shard, 1) for shard in shard_name.values()
        }
        warm_until = time.monotonic() + 15.0
        while time.monotonic() < warm_until:
            snap = router.router_stats()
            settled = sorted(snap["live_shards"]) == sorted(
                snap["configured_shards"]
            ) and all(state == "closed" for state in snap["breakers"].values())
            if settled:
                break
            for shard, state in snap["breakers"].items():
                if state == "closed" and shard in snap["live_shards"]:
                    continue
                for pair in warm_pairs.get(shard, ()):
                    try:
                        await router.score(pair[0], pair[1], deadline_ms=deadline_ms)
                    except Exception:
                        pass  # judged below: the fleet must settle in time
            await asyncio.sleep(0.25)
        else:
            violations.append(
                "fleet never settled after faults cleared: "
                f"{router.router_stats()['breakers']}"
            )
        routed_before = dict(router.routed)
        targeted = []
        for index in range(len(proxies)):
            targeted += book.owned_by(router, shard_name[index], 4)
        await _score_wave(router, targeted + book.take(args.requests), stats,
                          expected, deadline_ms, args.concurrency)
        if stats.ok != stats.sent:
            violations.append(
                f"recovered fleet still failing requests: {stats.snapshot()}"
            )
        final = router.router_stats()
        if sorted(final["live_shards"]) != sorted(final["configured_shards"]):
            violations.append(
                f"not every shard was readmitted: live={final['live_shards']}"
            )
        stuck = {s: b for s, b in final["breakers"].items() if b != "closed"}
        if stuck:
            violations.append(f"breakers never closed after recovery: {stuck}")
        idle = [
            shard for shard in shard_name.values()
            if router.routed.get(shard, 0) <= routed_before.get(shard, 0)
        ]
        if idle:
            violations.append(f"shards served no recovery traffic: {idle}")
        print(stats.line())

        cluster = await router.cluster_stats()
    finally:
        await monitor.stop()
        await router.close()

    # -- cross-phase invariants ----------------------------------------
    shard_rows = [s for s in cluster["shards"].values() if "error" not in s]
    shed_total = sum(s.get("resilience", {}).get("shed", 0) for s in shard_rows)
    server_deadline = sum(
        s.get("resilience", {}).get("deadline_exceeded", 0) for s in shard_rows
    )
    rstats = cluster["router"]
    total = _PhaseStats("total")
    for p in phases:
        total.sent += p.sent
        total.ok += p.ok
        total.typed.update(p.typed)
        total.wrong += p.wrong
        total.untyped += p.untyped
        total.overshoots += p.overshoots
        total.max_elapsed_s = max(total.max_elapsed_s, p.max_elapsed_s)

    invariants = {
        "no_wrong_answers": not total.wrong,
        "no_untyped_failures": not total.untyped,
        "no_deadline_overshoots": not total.overshoots,
        "breaker_opened": rstats["breaker_opens"] >= 1,
        "hedges_fired": rstats["hedges"] >= 1,
        "deadline_enforced": (
            total.deadline_failures >= 1
            and rstats["deadline_gaveups"] + server_deadline >= 1
        ),
        "load_shed": shed_total >= 1 or rstats["shed_retries"] >= 1,
        "auto_healed": any(
            event.get("event") == "respawned" for event in supervisor.heal_events
        ),
        "no_phase_violations": not violations,
    }
    return {
        "phases": [p.snapshot() for p in phases],
        "totals": total.snapshot(),
        "router": rstats,
        "resilience": {
            "shed_total": shed_total,
            "server_deadline_exceeded": server_deadline,
            "heal_events": supervisor.heal_events,
        },
        "violations": violations,
        "invariants": invariants,
        "ok": all(invariants.values()),
    }


def run_chaos(args) -> int:
    """Boot the drill fleet, run the schedule, print the verdict."""
    import numpy as np

    rng = np.random.default_rng(args.seed)
    pool_size = args.requests * 6 + 64
    pool = [
        (random_dna(args.length, rng), random_dna(args.length, rng))
        for _ in range(pool_size)
    ]
    align_pairs = pool[:2]
    book = _PairBook(pool[2:])

    # Admission budget: headroom for the healthy waves, but a single
    # oversized pair blows through it, so a concurrent burst of them
    # must shed (the always-admit-one floor keeps the burst live).
    cap = max(400_000, args.concurrency * args.length * args.length)
    big = int((1.25 * cap) ** 0.5) + 1
    oversized = [(random_dna(big, rng), random_dna(big, rng)) for _ in range(12)]

    expected: dict[tuple[str, str], float] = {}
    align_expected: dict = {}
    if args.verify:
        engine = AlignmentEngine(backend=args.backend, mode="global")
        for pair, score in zip(pool, engine.score_many(pool)):
            expected[pair] = float(score)
        for pair, score in zip(oversized, engine.score_many(oversized)):
            expected[pair] = float(score)
        for pair, alignment in zip(align_pairs, engine.align_many(align_pairs)):
            align_expected[pair] = alignment

    supervisor = ClusterSupervisor(
        shards=args.shards,
        backend=args.backend,
        base_dir=args.base_dir,
        max_inflight_cells=cap,
        degrade="score",
        degrade_watermark=0.6,
        auto_heal=True,
        heal_backoff=0.2,
        heal_backoff_max=1.0,
        heal_jitter=0.25,
        heal_poll=0.05,
        # One scripted kill must never look like a crash loop.
        crash_loop_threshold=8,
        crash_loop_window=30.0,
    )
    proxies: list[FaultProxyThread] = []
    try:
        supervisor.start()
        for shard_host, shard_port in supervisor.addresses:
            proxy = FaultProxyThread(shard_host, shard_port, host=supervisor.host)
            proxy.start()
            proxies.append(proxy)
        print(
            f"fragalign.chaos fleet up: {args.shards} shards behind fault "
            f"proxies, admission cap {cap} cells, verify={'on' if args.verify else 'off'}"
        )
        report = asyncio.run(
            _drill(args, supervisor, proxies, book, oversized, expected,
                   align_pairs, align_expected)
        )
    finally:
        for proxy in proxies:
            proxy.stop()
        supervisor.stop()

    if args.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        for name, held in report["invariants"].items():
            print(f"fragalign.chaos invariant {name}: {'ok' if held else 'VIOLATED'}")
        for violation in report["violations"]:
            print(f"fragalign.chaos violation: {violation}")
    print(f"fragalign.chaos verdict: {'PASS' if report['ok'] else 'FAIL'}")
    return 0 if report["ok"] else 1
