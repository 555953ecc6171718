"""Where a dispatch group computes: on the event loop or the worker.

``AlignmentEngine.inline`` hands back a group's call, bounded, only when
every pair goes whole to the C bit-parallel kernel (native backend,
``score``, ``global``/``overlap``, a flat model, no ``N``) and the group
sums at most ``INLINE_CELLS`` DP cells.  ``MicroBatcher`` runs a bounded
group on its event loop and every other group on its worker thread, one
group at a time, and the answers are the engine's either way.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from functools import partial

import pytest

from fragalign._native import HAVE_NATIVE
from fragalign.engine import AlignmentEngine, NativeBackend
from fragalign.engine.native import INLINE_CELLS
from fragalign.job import JobSpec
from fragalign.service import MicroBatcher

needs_c = pytest.mark.skipif(not HAVE_NATIVE, reason="C extension not built")

_RNG = random.Random(29)


def _seq(n: int) -> str:
    return "".join(_RNG.choice("ACGT") for _ in range(n))


# 64 pairs of 128 x 128: exactly INLINE_CELLS.
_FULL = [(_seq(128), _seq(128)) for _ in range(64)]
assert sum(len(a) * len(b) for a, b in _FULL) == INLINE_CELLS
_PAIR = [_FULL[0]]
_AFFINE = JobSpec(gap_open=-4.0, gap_extend=-1.0)


class TestEngineInline:
    @needs_c
    @pytest.mark.parametrize(
        "pairs, specs",
        [
            (_PAIR, [JobSpec()]),
            (_PAIR, [JobSpec("overlap")]),
            (_FULL, [JobSpec()] * 64),
            (_FULL, [JobSpec("global"), JobSpec("overlap")] * 32),
            ([("", "ACGT"), ("ACGT", "")], [JobSpec()] * 2),
        ],
        ids=["global", "overlap", "2^20-cells", "mixed-modes", "empty-sides"],
    )
    def test_bounded_native_score_groups(self, pairs, specs):
        with AlignmentEngine(backend="native") as eng:
            assert eng.inline("score", pairs, specs)
        # A numpy engine routes a group that asks for native alike.
        with AlignmentEngine() as eng:
            assert eng.inline("score", pairs, [JobSpec(s.mode, backend="native") for s in specs])

    @needs_c
    @pytest.mark.parametrize(
        "op, pairs, specs",
        [
            ("score", _PAIR, [JobSpec("local")]),
            ("score", _PAIR * 2, [JobSpec("global"), JobSpec("local")]),
            ("score", _PAIR, [_AFFINE]),
            ("score", _PAIR, [JobSpec("banded", 8)]),
            ("align", _PAIR, [JobSpec()]),
            ("score", [("ACGTN", "ACGTA")], [JobSpec()]),
            ("score", [("ACGTA", "ACNTA")], [JobSpec()]),
            ("score", _FULL + [("A", "C")], [JobSpec()] * 65),
        ],
        ids=["local", "local-in-group", "affine", "banded", "align", "N-in-a", "N-in-b",
             "2^20+1-cells"],
    )
    def test_unbounded_groups(self, op, pairs, specs):
        with AlignmentEngine(backend="native") as eng:
            assert not eng.inline(op, pairs, specs)

    @pytest.mark.parametrize(
        "engine",
        [lambda: AlignmentEngine(), lambda: AlignmentEngine(backend=NativeBackend(force_fallback=True))],
        ids=["numpy", "native-fallback"],
    )
    def test_other_backends_never_inline(self, engine):
        with engine() as eng:
            assert not eng.inline("score", _PAIR, [JobSpec()])
            assert not eng.inline("score", _FULL, [JobSpec("overlap")] * 64)

    def test_non_flat_model_never_inlines(self):
        from fragalign.align.scoring_matrices import transition_transversion

        with AlignmentEngine(backend="native", model=transition_transversion()) as eng:
            assert not eng.inline("score", _PAIR, [JobSpec()])

    @pytest.mark.parametrize(
        "backend, specs",
        [("numpy", [JobSpec()] * 64), ("native", [JobSpec("local")] * 64),
         ("native", [JobSpec()] * 63 + [_AFFINE])],
        ids=["numpy", "local", "two-calls"],
    )
    def test_a_refusal_the_specs_settle_prepares_no_pair(self, backend, specs, monkeypatch):
        # The question runs on the event loop: a group bound for the
        # worker must not encode its pairs there first.
        with AlignmentEngine(backend=backend) as eng:
            prepared = []
            monkeypatch.setattr(eng, "prepare", lambda a, b: prepared.append((a, b)))
            assert not eng.inline("score", _FULL, specs)
        assert prepared == []


class ThreadRecorder:
    """An engine wrapper recording each call's pairs, specs and thread,
    and the most calls ever inside the engine at once."""

    def __init__(self, engine: AlignmentEngine) -> None:
        self._engine = engine
        self._lock = threading.Lock()
        self._inside = 0
        self.peak = 0
        self.calls: list[tuple[list, list, int]] = []  # (pairs, specs, thread id)

    def inline(self, op, pairs, specs):
        call = self._engine.inline(op, pairs, specs)
        return None if call is None else partial(self._enter, pairs, specs, call)

    def run(self, op, pairs, specs):
        return self._enter(pairs, specs, partial(self._engine.run, op, pairs, specs))

    def _enter(self, pairs, specs, call):
        with self._lock:
            self._inside += 1
            self.peak = max(self.peak, self._inside)
        try:
            self.calls.append((list(pairs), list(specs), threading.get_ident()))
            time.sleep(0.002)  # widen the window an overlap would need
            return call()
        finally:
            with self._lock:
                self._inside -= 1


def _bounded(pairs, specs) -> bool:
    """The placement rule, restated from the pairs and specs alone."""
    return (
        all((spec.mode or "global") in ("global", "overlap") and spec.gap_open is None
            for spec in specs)
        and not any("N" in a + b for a, b in pairs)
        and sum(len(a) * len(b) for a, b in pairs) <= INLINE_CELLS
    )


def _serve(engine, bursts, pause: float = 0.001):
    """Submit each burst of (pair, spec) score jobs in one loop tick,
    ``pause`` seconds apart; return the answers, the recorder and the
    loop's thread id."""

    async def run():
        recorder = ThreadRecorder(engine)
        batcher = MicroBatcher(recorder, max_batch=64)
        try:
            futures = []
            for burst in bursts:
                futures += [
                    asyncio.ensure_future(batcher.submit("score", a, b, spec))
                    for (a, b), spec in burst
                ]
                await asyncio.sleep(pause)
            answers = await asyncio.wait_for(asyncio.gather(*futures), 10)
        finally:
            batcher.close()
        return answers, recorder, threading.get_ident()

    return asyncio.run(run())


def _direct(bursts):
    with AlignmentEngine() as eng:
        return [eng.score(a, b, **spec.wire()) for burst in bursts for (a, b), spec in burst]


class TestBatcherPlacement:
    @needs_c
    def test_one_batch_settles_a_loop_group_and_a_worker_group(self):
        bursts = [[(_FULL[0], JobSpec()), (_FULL[1], JobSpec("overlap")), (_FULL[2], _AFFINE)]]
        with AlignmentEngine(backend="native") as eng:
            answers, recorder, loop_thread = _serve(eng, bursts)
        assert answers == _direct(bursts)
        placed = [([s.mode for s in specs], thread == loop_thread)
                  for _, specs, thread in recorder.calls]
        assert placed == [([None, "overlap"], True), ([None], False)]

    @needs_c
    def test_placement_follows_the_rule_and_calls_never_overlap(self):
        local, overlap = JobSpec("local"), JobSpec("overlap")
        long_pair = (_seq(1024), _seq(1024))  # 2^20 cells alone
        bursts = [
            [(_FULL[0], JobSpec()), (_FULL[1], overlap), (_FULL[2], _AFFINE)],
            [(_FULL[3], local)],
            [(("ACGTN" * 20, _FULL[4][1]), JobSpec())],
            [(p, JobSpec()) for p in _FULL[5:]],
            [(_FULL[6], local), (_FULL[7], overlap)],
            [(long_pair, JobSpec())],
            [(long_pair, overlap), (_FULL[8], JobSpec())],
            [(_FULL[9], JobSpec())],
        ]
        with AlignmentEngine(backend="native") as eng:
            answers, recorder, loop_thread = _serve(eng, bursts)
        assert answers == _direct(bursts)
        assert recorder.peak == 1
        placed = [thread == loop_thread for _, _, thread in recorder.calls]
        assert placed == [_bounded(pairs, specs) for pairs, specs, _ in recorder.calls]
        assert any(placed) and not all(placed)

    @needs_c
    def test_a_bounded_group_prepares_each_pair_once(self, monkeypatch):
        # The call the question hands back reuses the pairs it prepared.
        bursts = [[(p, JobSpec()) for p in _FULL[:8]]]
        with AlignmentEngine(backend="native") as eng:
            prepared = []
            real = eng.prepare
            monkeypatch.setattr(eng, "prepare", lambda a, b: prepared.append((a, b)) or real(a, b))
            answers, recorder, loop_thread = _serve(eng, bursts)
        assert prepared == _FULL[:8]
        assert [thread == loop_thread for *_, thread in recorder.calls] == [True]
        assert answers == _direct(bursts)

    def test_fallback_native_groups_stay_on_the_worker(self):
        bursts = [
            [(_FULL[0], JobSpec()), (_FULL[1], JobSpec("overlap")), (_FULL[2], JobSpec("local"))],
            [(p, JobSpec()) for p in _FULL[3:]],
        ]
        with AlignmentEngine(backend=NativeBackend(force_fallback=True)) as eng:
            answers, recorder, loop_thread = _serve(eng, bursts)
        assert answers == _direct(bursts)
        assert recorder.peak == 1
        assert recorder.calls and all(thread != loop_thread for *_, thread in recorder.calls)
