"""The alignment engine: backend registry, facade, cross-backend parity.

The standing invariants:

* every backend produces identical scores (exactly, for integer-valued
  models) and identical tracebacks to the transparent ``naive`` DP;
* ``align_many``/``score_many`` equal a Python loop of ``align``/
  ``score`` — batching is an execution detail, never a semantic one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragalign.align.pairwise import global_align_batch, global_scores_batch
from fragalign.align.scoring_matrices import transition_transversion, unit_dna
from fragalign.engine import (
    AlignmentBackend,
    AlignmentEngine,
    JobSpec,
    NaiveBackend,
    NativeBackend,
    NumpyBackend,
    available_backends,
    default_model,
    get_backend,
    register_backend,
)
from fragalign.genome.dna import random_dna
from fragalign.util.errors import SolverError

dna = st.text(alphabet="ACGT", min_size=0, max_size=32)
dna_pairs = st.lists(st.tuples(dna, dna), min_size=0, max_size=8)


class TestRegistry:
    def test_builtins_registered(self):
        assert available_backends() == ("naive", "native", "numpy")

    def test_unknown_backend(self):
        with pytest.raises(SolverError, match="unknown backend"):
            get_backend("no-such-backend")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SolverError, match="already registered"):
            register_backend("numpy", NumpyBackend)

    def test_custom_backend_pluggable(self):
        class Doubling(NumpyBackend):
            name = "doubling"

            def score(self, p, model, spec):
                return 2.0 * super().score(p, model, spec)

        register_backend("doubling", Doubling, overwrite=True)
        try:
            eng = AlignmentEngine(backend="doubling")
            ref = AlignmentEngine(backend="numpy")
            assert eng.score("ACGT", "ACGT") == 2.0 * ref.score("ACGT", "ACGT")
        finally:
            import fragalign.engine.registry as reg

            reg._REGISTRY.pop("doubling", None)


class TestFacade:
    def test_mode_validation(self):
        with pytest.raises(ValueError, match="unknown alignment mode"):
            AlignmentEngine(mode="frobnicate")

    def test_banded_mode_needs_band(self):
        with pytest.raises(ValueError, match="needs a band"):
            AlignmentEngine(mode="banded")
        with pytest.raises(ValueError, match="band must be"):
            AlignmentEngine(mode="banded", band=-3)
        eng = AlignmentEngine(mode="banded", band=4)
        assert eng.score("ACGT", "ACGT") == 4.0
        # A global-mode engine can still serve banded per call ...
        eng = AlignmentEngine()
        assert eng.score("ACGT", "AGGT", mode="banded", band=2) == 2.0
        # ... but only with a band from somewhere.
        with pytest.raises(ValueError, match="needs a band"):
            eng.score("ACGT", "AGGT", mode="banded")

    def test_backend_instance_accepted(self):
        eng = AlignmentEngine(backend=NaiveBackend())
        assert eng.backend_name == "naive"

    def test_default_model_memoized(self):
        assert default_model() is default_model()

    def test_encoding_memoized_and_bounded(self):
        eng = AlignmentEngine(cache_size=2)
        p1 = eng.prepare("ACGT", "ACGT")
        assert p1.a_codes is p1.b_codes  # same string, one cached encode
        eng.prepare("TTTT", "GGGG")  # evicts the oldest entry
        assert len(eng._codes) == 2

    def test_cache_size_zero_disables_memoization(self):
        eng = AlignmentEngine(cache_size=0)
        assert eng.score("ACGT", "ACGT") == AlignmentEngine().score("ACGT", "ACGT")
        assert len(eng._codes) == 0

    def test_context_manager_closes(self):
        closed = []

        class Tracker(NaiveBackend):
            def close(self):
                closed.append(True)

        with AlignmentEngine(backend=Tracker()) as eng:
            eng.score("AC", "AG")
        assert closed == [True]


class TestCrossBackendParity:
    @settings(deadline=None)
    @given(dna_pairs)
    def test_scores_naive_equals_numpy(self, pairs):
        naive = AlignmentEngine(backend="naive")
        vec = AlignmentEngine(backend="numpy")
        assert np.array_equal(naive.score_many(pairs), vec.score_many(pairs))

    @settings(deadline=None)
    @given(dna_pairs)
    def test_local_scores_naive_equals_numpy(self, pairs):
        naive = AlignmentEngine(backend="naive", mode="local")
        vec = AlignmentEngine(backend="numpy", mode="local")
        assert np.array_equal(naive.score_many(pairs), vec.score_many(pairs))

    @settings(deadline=None)
    @given(dna_pairs)
    def test_alignments_naive_equals_numpy(self, pairs):
        # Integer-valued model: DP tables agree exactly, so identical
        # tie-breaking gives identical tracebacks, not just scores.
        naive = AlignmentEngine(backend="naive")
        vec = AlignmentEngine(backend="numpy")
        for x, y in zip(naive.align_many(pairs), vec.align_many(pairs)):
            assert x.score == y.score
            assert x.pairs == y.pairs
            assert (x.a_interval, x.b_interval) == (y.a_interval, y.b_interval)

    @settings(deadline=None, max_examples=25)
    @given(dna_pairs)
    def test_scores_parity_biological_model(self, pairs):
        model = transition_transversion()
        naive = AlignmentEngine(backend="naive", model=model)
        vec = AlignmentEngine(backend="numpy", model=model)
        assert np.allclose(
            naive.score_many(pairs), vec.score_many(pairs), atol=1e-9
        )

    @settings(deadline=None, max_examples=25)
    @given(dna_pairs)
    def test_local_alignments_naive_equals_numpy(self, pairs):
        # The stop-bit direction-code walk vs the naive float-equality
        # walk: identical windows, pairs, and scores on integer models.
        naive = AlignmentEngine(backend="naive", mode="local")
        vec = AlignmentEngine(backend="numpy", mode="local")
        for x, y in zip(naive.align_many(pairs), vec.align_many(pairs)):
            assert x == y

    @settings(deadline=None, max_examples=30)
    @given(dna_pairs)
    def test_overlap_scores_naive_equals_numpy(self, pairs):
        naive = AlignmentEngine(backend="naive", mode="overlap")
        vec = AlignmentEngine(backend="numpy", mode="overlap")
        assert np.array_equal(naive.score_many(pairs), vec.score_many(pairs))

    @settings(deadline=None, max_examples=30)
    @given(dna_pairs, st.integers(0, 5))
    def test_banded_scores_naive_equals_numpy(self, pairs, extra_band):
        band = max((abs(len(a) - len(b)) for a, b in pairs), default=0) + extra_band
        naive = AlignmentEngine(backend="naive", mode="banded", band=band)
        vec = AlignmentEngine(backend="numpy", mode="banded", band=band)
        assert np.array_equal(naive.score_many(pairs), vec.score_many(pairs))

    @settings(deadline=None, max_examples=20)
    @given(dna_pairs)
    def test_overlap_alignments_naive_equals_numpy(self, pairs):
        naive = AlignmentEngine(backend="naive", mode="overlap")
        vec = AlignmentEngine(backend="numpy", mode="overlap")
        for x, y in zip(naive.align_many(pairs), vec.align_many(pairs)):
            assert x == y

    @settings(deadline=None, max_examples=20)
    @given(dna_pairs)
    def test_banded_alignments_naive_equals_numpy(self, pairs):
        band = max((abs(len(a) - len(b)) for a, b in pairs), default=0) + 3
        naive = AlignmentEngine(backend="naive", mode="banded", band=band)
        vec = AlignmentEngine(backend="numpy", mode="banded", band=band)
        for x, y in zip(naive.align_many(pairs), vec.align_many(pairs)):
            assert x == y


class TestBatchSemantics:
    @settings(deadline=None)
    @given(dna_pairs)
    def test_align_many_equals_loop_of_align(self, pairs):
        for backend in ("naive", "numpy"):
            eng = AlignmentEngine(backend=backend)
            batch = eng.align_many(pairs)
            loop = [eng.align(a, b) for a, b in pairs]
            assert [x.score for x in batch] == [x.score for x in loop]
            assert [x.pairs for x in batch] == [x.pairs for x in loop]

    @settings(deadline=None)
    @given(dna_pairs)
    def test_score_many_equals_loop_of_score(self, pairs):
        for backend in ("naive", "numpy"):
            for mode in ("global", "local"):
                eng = AlignmentEngine(backend=backend, mode=mode)
                batch = eng.score_many(pairs)
                loop = np.array([eng.score(a, b) for a, b in pairs])
                assert np.array_equal(batch, loop)

    def test_batch_kernel_takes_mixed_shapes(self):
        pairs = [("AC", "GT"), ("ACG", "GT"), ("", "ACGT"), ("ACGTN", "A"), ("ACGTACGT", "ACG")]
        assert list(global_scores_batch(pairs)) == [
            global_scores_batch([p])[0] for p in pairs
        ]
        assert global_align_batch(pairs) == [global_align_batch([p])[0] for p in pairs]

    @pytest.mark.parametrize("mode", ["global", "overlap", "local"])
    @pytest.mark.parametrize("force_fallback", [False, True])
    def test_native_score_many_takes_mixed_shapes(self, mode, force_fallback, rng):
        # The C kernels need one shape: the backend buckets the group.
        shapes = [(12, 9), (30, 31), (12, 9), (0, 5), (7, 0), (1, 1), (64, 65)]
        pairs = [(random_dna(n, rng), random_dna(m, rng)) for n, m in shapes]
        pairs.append(("ACGTNACGTA", "ACGTTACGT"))  # N: the numpy side path
        native = NativeBackend(force_fallback=force_fallback)
        with AlignmentEngine(backend=native) as eng, AlignmentEngine() as ref:
            got = eng.score_many(pairs, mode=mode)
            assert np.array_equal(got, ref.score_many(pairs, mode=mode))
            assert list(got) == [ref.score(a, b, mode=mode) for a, b in pairs]

    @pytest.mark.parametrize("force_fallback", [False, True])
    def test_native_group_of_mixed_modes_equals_numpy(self, force_fallback, rng):
        # One dispatch group in three modes: the C kernels take one mode
        # and shape per call, and local without the extension runs on
        # numpy, through the facade's routing or the backend's own.
        shapes = [(12, 9), (30, 31), (12, 9), (0, 5), (7, 0), (1, 1), (64, 65), (40, 33)]
        pairs = [(random_dna(n, rng), random_dna(m, rng)) for n, m in shapes]
        pairs.append(("ACGTNACGTA", "ACGTTACGT"))  # N: the numpy side path
        specs = [JobSpec(("global", "overlap", "local")[k % 3]) for k in range(len(pairs))]
        native = NativeBackend(force_fallback=force_fallback)
        with AlignmentEngine(backend=native) as eng, AlignmentEngine() as ref:
            want = ref.run("score", pairs, specs)
            assert list(want) == [ref.score(a, b, mode=s.mode) for (a, b), s in zip(pairs, specs)]
            assert np.array_equal(eng.run("score", pairs, specs), want)
            preps = [eng.prepare(a, b) for a, b in pairs]
            resolved = [eng.resolve(s, "score") for s in specs]
            assert np.array_equal(native.score_many(preps, eng.model, resolved), want)

    def test_engine_buckets_mixed_shapes(self):
        eng = AlignmentEngine(backend="numpy")
        pairs = [("ACGT", "ACGA"), ("AC", "A"), ("TTTT", "GGGG"), ("", "ACG")]
        got = eng.score_many(pairs)
        want = [eng.score(a, b) for a, b in pairs]
        assert list(got) == want

    def test_per_call_mode_override(self):
        # One engine serves all four modes; per-call overrides never
        # disturb the configured default.
        eng = AlignmentEngine(backend="numpy")
        pairs = [("TTTTTACGTACGT", "ACGTACGTCCCC"), ("ACGT", "AGGT")]
        for mode, band in [("global", None), ("local", None), ("overlap", None), ("banded", 9)]:
            fixed = AlignmentEngine(backend="numpy", mode=mode, band=band)
            assert np.array_equal(
                eng.score_many(pairs, mode=mode, band=band), fixed.score_many(pairs)
            )
            assert eng.align_many(pairs, mode=mode, band=band) == fixed.align_many(pairs)
        assert eng.mode == "global" and eng.band is None


class TestConsumers:
    def test_conserved_discovery_backend_invariant(self):
        from fragalign.genome.conserved import find_conserved_regions
        from fragalign.genome.evolution import evolve, make_ancestor
        from fragalign.genome.shotgun import fragment_into_contigs

        gen = np.random.default_rng(11)
        anc = make_ancestor(n_blocks=3, block_len=120, spacer_len=60, rng=gen)
        a = evolve(anc, sub_rate=0.02, rng=gen)
        b = evolve(anc, sub_rate=0.02, rng=gen)
        ca = fragment_into_contigs(a, n_contigs=1, flip_prob=0, shuffle=False, rng=gen)
        cb = fragment_into_contigs(b, n_contigs=1, flip_prob=0, shuffle=False, rng=gen)
        base = find_conserved_regions(ca, cb, min_score=40)
        assert base  # the planted homology must be found
        model = unit_dna(match=1.0, mismatch=-1.0, gap=-2.0)
        for backend in ("naive", "numpy"):
            eng = AlignmentEngine(backend=backend, model=model, mode="local")
            assert find_conserved_regions(ca, cb, min_score=40, engine=eng) == base

    def test_conserved_discovery_rejects_global_engine(self):
        from fragalign.genome.conserved import find_conserved_regions

        with pytest.raises(ValueError, match="local-mode"):
            find_conserved_regions([], [], engine=AlignmentEngine(mode="global"))


class TestBackendProtocol:
    def test_base_class_defaults_loop(self):
        calls = []

        class Counting(AlignmentBackend):
            name = "counting"

            def score(self, p, model, spec):
                calls.append(p.a)
                return 0.0

        eng = AlignmentEngine(backend=Counting())
        out = eng.score_many([("A", "C"), ("G", "T")])
        assert list(out) == [0.0, 0.0]
        assert calls == ["A", "G"]

    def test_unknown_mode_rejected_by_backends(self):
        p = AlignmentEngine().prepare("AC", "GT")
        # Backends take a JobSpec, which refuses an unknown mode when it
        # is built — no backend ever sees one.
        for backend in (NaiveBackend(), NumpyBackend()):
            with pytest.raises(ValueError, match="unknown alignment mode"):
                backend.score(p, unit_dna(), JobSpec("frobnicate"))


class TestAffineKnobs:
    """Affine gap parameters through the facade, all backends."""

    def _pairs(self, rng, count=8, lo=6, hi=24):
        return [
            (random_dna(int(rng.integers(lo, hi)), rng),
             random_dna(int(rng.integers(lo, hi)), rng))
            for _ in range(count)
        ]

    @pytest.mark.parametrize("mode", ["global", "local", "overlap", "banded"])
    def test_cross_backend_affine_parity(self, mode, rng):
        pairs = self._pairs(rng)
        band = 30 if mode == "banded" else None
        results = {}
        for name in ("naive", "numpy"):
            with AlignmentEngine(backend=name) as eng:
                scores = eng.score_many(
                    pairs, mode=mode, band=band, gap_open=-3.0, gap_extend=-1.0
                )
                alns = eng.align_many(
                    pairs, mode=mode, band=band, gap_open=-3.0, gap_extend=-1.0
                )
            assert np.allclose(scores, [a.score for a in alns])
            results[name] = (list(scores), alns)
        assert results["naive"][0] == results["numpy"][0]
        assert results["naive"][1] == results["numpy"][1]

    def test_engine_level_defaults(self, rng):
        a, b = random_dna(20, rng), random_dna(22, rng)
        with AlignmentEngine(gap_open=-3.0, gap_extend=-1.0) as eng_def, AlignmentEngine() as eng:
            assert eng_def.score(a, b) == eng.score(a, b, gap_open=-3.0, gap_extend=-1.0)
            assert eng_def.align(a, b) == eng.align(a, b, gap_open=-3.0, gap_extend=-1.0)

    def test_gap_validation(self):
        with pytest.raises(ValueError, match="together"):
            AlignmentEngine(gap_open=-3.0)
        with pytest.raises(ValueError, match="<= 0"):
            AlignmentEngine(gap_open=1.0, gap_extend=-1.0)
        eng = AlignmentEngine()
        with pytest.raises(ValueError, match="together"):
            eng.score("AC", "GT", gap_open=-3.0)


class TestMemoryKnob:
    """Traceback strategy: linear vs tensor identity + validation."""

    def test_linear_equals_tensor_all_supported_modes(self, rng):
        a, b = random_dna(120, rng), random_dna(110, rng)
        with AlignmentEngine() as eng:
            for mode in ("global", "local", "overlap"):
                assert eng.align(a, b, mode=mode, memory="linear") == eng.align(
                    a, b, mode=mode, memory="tensor"
                )

    def test_align_many_linear_identity(self, rng):
        pairs = [(random_dna(40, rng), random_dna(44, rng)) for _ in range(6)]
        with AlignmentEngine() as eng:
            assert eng.align_many(pairs, memory="linear") == eng.align_many(
                pairs, memory="tensor"
            )

    def test_auto_threshold_switches_strategy(self, rng):
        a, b = random_dna(64, rng), random_dna(64, rng)
        with AlignmentEngine(
            backend=NumpyBackend(linear_auto_cells=100)
        ) as small, AlignmentEngine() as eng:
            # 64*64 cells > 100: auto takes the linear walker — results identical
            assert small.align(a, b) == eng.align(a, b, memory="tensor")

    def test_auto_resolves_per_chunk(self, rng, monkeypatch):
        # One long pair among short ones sweeps in a chunk of its own,
        # and only that chunk is big enough to walk in linear memory.
        import fragalign.align.hirschberg as hirschberg

        walked = []
        real = hirschberg.linear_align

        def counted(a, b, *args, **kwargs):
            walked.append((len(a), len(b)))
            return real(a, b, *args, **kwargs)

        monkeypatch.setattr(hirschberg, "linear_align", counted)
        pairs = [(random_dna(8, rng), random_dna(9, rng)) for _ in range(20)]
        pairs.insert(7, (random_dna(300, rng), random_dna(310, rng)))
        with AlignmentEngine(
            backend=NumpyBackend(linear_auto_cells=5000)
        ) as small, AlignmentEngine() as eng:
            assert small.align_many(pairs) == eng.align_many(pairs, memory="tensor")
        assert walked == [(300, 310)]

    def test_auto_keeps_the_tensor_for_a_pair_under_the_threshold(self, rng, monkeypatch):
        # A pair whose own tensor (60 x 71 cells) is under the threshold
        # but would bring the short pairs' chunk past it sweeps apart, so
        # no pair walks in linear memory.
        import fragalign.align.hirschberg as hirschberg

        monkeypatch.setattr(hirschberg, "linear_align", None)  # never called
        pairs = [(random_dna(8, rng), random_dna(9, rng)) for _ in range(20)]
        pairs.insert(7, (random_dna(60, rng), random_dna(70, rng)))
        with AlignmentEngine(
            backend=NumpyBackend(linear_auto_cells=5000)
        ) as small, AlignmentEngine() as eng:
            assert small.align_many(pairs) == eng.align_many(pairs, memory="tensor")

    def test_invalid_memory_combinations(self, rng):
        a, b = random_dna(16, rng), random_dna(16, rng)
        with AlignmentEngine() as eng:
            with pytest.raises(ValueError, match="linear"):
                eng.align(a, b, memory="linear", gap_open=-3.0, gap_extend=-1.0)
            with pytest.raises(ValueError, match="linear"):
                eng.align(a, b, mode="banded", band=4, memory="linear")
            with pytest.raises(ValueError, match="memory"):
                eng.align(a, b, memory="bogus")
            with pytest.raises(ValueError, match="memory"):
                AlignmentEngine(memory="bogus")

    def test_naive_backend_accepts_and_ignores_memory(self, rng):
        a, b = random_dna(12, rng), random_dna(12, rng)
        with AlignmentEngine(backend="naive") as naive, AlignmentEngine() as eng:
            assert naive.align(a, b, memory="linear") == eng.align(a, b, memory="linear")
