"""Affine (Gotoh) kernels and linear-memory alignment.

The standing invariants:

* every batched affine kernel (global/local/overlap/banded, score and
  align) agrees with the transparent per-cell Gotoh oracle in
  :mod:`fragalign.align.affine` — scores exactly and tracebacks
  alignment-for-alignment on integer models;
* ``linear_align`` (and therefore ``hirschberg_align``) returns
  **byte-identical** alignments to the direction-tensor walks of
  ``global_align``/``overlap_align``/``local_align`` — not merely
  co-optimal — at every block size;
* affine with ``open == extend == model.gap`` scores exactly like the
  linear kernels.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragalign.align.affine import (
    affine_align_reference,
    affine_global_align,
    affine_global_score,
    affine_global_score_reference,
    affine_score_reference,
)
from fragalign.align.hirschberg import (
    hirschberg_align,
    hirschberg_align_reference,
    linear_align,
)
from fragalign.align import pairwise
from fragalign.align.pairwise import (
    affine_align_batch,
    affine_banded_align_batch,
    affine_banded_scores_batch,
    affine_local_align_batch,
    affine_local_scores_batch,
    affine_overlap_align_batch,
    affine_overlap_scores_batch,
    affine_scores_batch,
    check_affine_gaps,
    global_align,
    global_score,
    local_align,
    local_score,
    overlap_align,
    overlap_score,
)
from fragalign.align.scoring_matrices import transition_transversion, unit_dna
from fragalign.genome.dna import random_dna

dna = st.text(alphabet="ACGT", min_size=0, max_size=18)
dna1 = st.text(alphabet="ACGT", min_size=1, max_size=30)

SCORE_KERNELS = {
    "global": affine_scores_batch,
    "local": affine_local_scores_batch,
    "overlap": affine_overlap_scores_batch,
}
ALIGN_KERNELS = {
    "global": affine_align_batch,
    "local": affine_local_align_batch,
    "overlap": affine_overlap_align_batch,
}


class TestAffineGapValidation:
    def test_mismatched_pair_rejected(self):
        with pytest.raises(ValueError, match="together"):
            check_affine_gaps(-2.0, None)
        with pytest.raises(ValueError, match="together"):
            check_affine_gaps(None, -1.0)

    def test_positive_rejected(self):
        with pytest.raises(ValueError, match="<= 0"):
            check_affine_gaps(1.0, -1.0)
        with pytest.raises(ValueError, match="<= 0"):
            check_affine_gaps(-1.0, 0.5)

    def test_non_numbers_rejected(self):
        with pytest.raises(ValueError, match="number"):
            check_affine_gaps("x", -1.0)
        with pytest.raises(ValueError, match="number"):
            check_affine_gaps(True, -1.0)

    def test_zero_allowed(self):
        assert check_affine_gaps(0, 0) == (0.0, 0.0)


class TestAffineKernelParity:
    """Batched kernels vs the per-cell Gotoh oracle, all four modes."""

    @pytest.mark.parametrize("mode", ["global", "local", "overlap"])
    def test_randomized_scores_and_alignments(self, mode, rng):
        models = [unit_dna(), transition_transversion()]
        for trial in range(60):
            n, m = int(rng.integers(0, 16)), int(rng.integers(0, 16))
            a, b = random_dna(n, rng), random_dna(m, rng)
            model = models[trial % 2]
            open_ = float(rng.choice([-1, -2, -4]))
            ext = float(rng.choice([0, -1, -2]))
            got = float(SCORE_KERNELS[mode]([(a, b)], model, open_, ext, chunk=1)[0])
            want = affine_score_reference(a, b, model, open_, ext, mode=mode)
            assert got == pytest.approx(want, abs=1e-9)
            got_aln = ALIGN_KERNELS[mode]([(a, b)], model, open_, ext, chunk=1)[0]
            want_aln = affine_align_reference(a, b, model, open_, ext, mode=mode)
            assert got_aln == want_aln

    def test_randomized_banded(self, rng):
        models = [unit_dna(), transition_transversion()]
        for trial in range(60):
            n, m = int(rng.integers(1, 16)), int(rng.integers(1, 16))
            band = abs(n - m) + int(rng.integers(0, 5))
            a, b = random_dna(n, rng), random_dna(m, rng)
            model = models[trial % 2]
            open_ = float(rng.choice([-1, -3, -5]))
            ext = float(rng.choice([0, -1]))
            got = float(
                affine_banded_scores_batch([(a, b)], band, model, open_, ext, chunk=1)[0]
            )
            want = affine_score_reference(
                a, b, model, open_, ext, mode="banded", band=band
            )
            assert got == pytest.approx(want, abs=1e-9)
            got_aln = affine_banded_align_batch(
                [(a, b)], band, model, open_, ext, chunk=1
            )[0]
            want_aln = affine_align_reference(
                a, b, model, open_, ext, mode="banded", band=band
            )
            assert got_aln == want_aln

    @given(dna, dna)
    def test_global_kernel_vs_reference(self, a, b):
        got = affine_global_score(a, b)
        expect = affine_global_score_reference(a, b)
        assert got == pytest.approx(expect, abs=1e-6)

    def test_batch_equals_loop(self, rng):
        pairs = [(random_dna(20, rng), random_dna(24, rng)) for _ in range(17)]
        batch = affine_scores_batch(pairs, None, -4.0, -1.0, chunk=5)
        loop = [affine_global_score(a, b) for a, b in pairs]
        assert np.array_equal(batch, loop)
        batch_al = affine_align_batch(pairs, None, -4.0, -1.0, chunk=5)
        loop_al = [affine_global_align(a, b) for a, b in pairs]
        assert batch_al == loop_al

    def test_banded_full_width_equals_global(self, rng):
        a, b = random_dna(24, rng), random_dna(30, rng)
        band = max(len(a), len(b))
        assert affine_banded_scores_batch([(a, b)], band, None, -3.0, -1.0)[
            0
        ] == pytest.approx(affine_global_score(a, b, None, -3.0, -1.0))


class TestAffineSemantics:
    @given(dna1, dna1)
    def test_equals_linear_when_open_equals_extend(self, a, b):
        """open == extend == gap collapses affine to the linear model."""
        model = unit_dna(gap=-2.0)
        affine = affine_global_score(a, b, model, open_=-2.0, extend=-2.0)
        linear = global_score(a, b, model)
        assert affine == pytest.approx(linear, abs=1e-6)

    def test_equals_linear_all_modes(self, rng):
        model = unit_dna(gap=-2.0)
        for _ in range(20):
            a, b = random_dna(int(rng.integers(1, 24)), rng), random_dna(
                int(rng.integers(1, 24)), rng
            )
            pairs = [(a, b)]
            assert affine_local_scores_batch(pairs, model, -2.0, -2.0)[
                0
            ] == pytest.approx(local_score(a, b, model))
            assert affine_overlap_scores_batch(pairs, model, -2.0, -2.0)[
                0
            ] == pytest.approx(overlap_score(a, b, model)[0])

    def test_long_gap_cheaper_than_linear(self):
        a = "ACGTACGTACGT"
        b = "ACGT" + "ACGT"  # middle chunk deleted
        model = unit_dna(gap=-2.0)
        linear = global_score(a, b, model)
        affine = affine_global_score(a, b, model, open_=-3.0, extend=-0.5)
        # One 4-gap: affine pays 3 + 3·0.5 = 4.5 < linear 8.
        assert affine > linear

    def test_identical_sequences(self):
        s = "ACGTACGT"
        assert affine_global_score(s, s) == pytest.approx(len(s))
        aln = affine_global_align(s, s)
        assert aln.pairs == tuple((i, i) for i in range(len(s)))

    def test_empty_cases(self):
        assert affine_global_score("", "") == 0.0
        assert affine_global_score("A", "") == pytest.approx(-4.0)
        assert affine_global_score("", "AAA") == pytest.approx(-4.0 - 2.0)
        assert affine_local_scores_batch([("", "ACG")], None, -4.0, -1.0)[0] == 0.0
        assert affine_overlap_scores_batch([("ACG", "")], None, -4.0, -1.0)[0] == 0.0
        aln = affine_align_batch([("A", "")], None, -4.0, -1.0)[0]
        assert aln.pairs == () and aln.a_interval == (0, 1)

    def test_degenerate_band_equals_diff(self, rng):
        """band == |n - m|, the narrowest legal band."""
        a, b = random_dna(9, rng), random_dna(14, rng)
        band = abs(len(a) - len(b))
        got = float(affine_banded_scores_batch([(a, b)], band, None, -3.0, -1.0)[0])
        want = affine_score_reference(a, b, None, -3.0, -1.0, mode="banded", band=band)
        assert got == pytest.approx(want)

    @given(dna1, dna1)
    def test_symmetry(self, a, b):
        assert affine_global_score(a, b) == pytest.approx(
            affine_global_score(b, a), abs=1e-6
        )

    def test_local_alignment_positive_and_consistent(self, rng):
        for _ in range(10):
            a, b = random_dna(30, rng), random_dna(30, rng)
            aln = affine_local_align_batch([(a, b)], None, -3.0, -1.0)[0]
            assert aln.score >= 0
            for (i1, j1), (i2, j2) in zip(aln.pairs, aln.pairs[1:]):
                assert i1 < i2 and j1 < j2


class TestLinearMemoryIdentity:
    """linear_align must reproduce the tensor walks byte for byte."""

    @pytest.mark.parametrize("mode,ref", [
        ("global", global_align),
        ("overlap", overlap_align),
        ("local", local_align),
    ])
    def test_randomized_byte_identity(self, mode, ref, rng):
        """The walk sweeps these integer models in int32; it equals the
        tensor walk in int32 and in float64, score bytes included."""
        models = [unit_dna(), transition_transversion()]
        for trial in range(80):
            n, m = int(rng.integers(0, 48)), int(rng.integers(0, 48))
            a, b = random_dna(n, rng), random_dna(m, rng)
            model = models[trial % 2]
            assert pairwise._sweep_dtype(model, None, n, m) == np.int32
            block = int(rng.choice([1, 3, 17, 1 << 22]))
            lin = linear_align(a, b, model, mode=mode, block_cells=block)
            with mock.patch.object(pairwise, "_INT_HEADROOM", 0):
                wide = ref(a, b, model)
            for want in (ref(a, b, model), wide):
                assert lin == want
                assert np.float64(lin.score).tobytes() == np.float64(want.score).tobytes()

    def test_long_pair_identity_and_small_blocks(self, rng):
        a, b = random_dna(700, rng), random_dna(650, rng)
        lin = linear_align(a, b, block_cells=4096)
        assert lin == global_align(a, b)

    def test_mutated_pair_identity(self, rng):
        """Realistic indel structure, not just iid noise."""
        src = random_dna(800, rng)
        out = []
        for ch in src:
            r = rng.random()
            if r < 0.03:
                continue
            if r < 0.06:
                out.append(ch)
                out.append("ACGT"[rng.integers(4)])
                continue
            out.append(ch)
        b = "".join(out)
        assert linear_align(src, b, block_cells=1 << 14) == global_align(src, b)

    def test_unsupported_mode_rejected(self):
        with pytest.raises(ValueError, match="linear-memory"):
            linear_align("ACGT", "ACGT", mode="banded")

    def test_empty_inputs(self):
        assert linear_align("", "ACG").score == 3 * unit_dna().gap
        assert linear_align("", "", mode="local").pairs == ()
        assert linear_align("ACG", "", mode="overlap").a_interval == (3, 3)


class TestHirschberg:
    @given(dna1, dna1)
    def test_byte_identical_to_tensor_walk(self, a, b):
        assert hirschberg_align(a, b) == global_align(a, b)

    @given(dna1, dna1)
    def test_score_matches_quadratic(self, a, b):
        aln = hirschberg_align(a, b)
        assert aln.score == pytest.approx(global_score(a, b), abs=1e-9)

    @given(dna1, dna1)
    def test_pairs_are_a_valid_alignment(self, a, b):
        aln = hirschberg_align(a, b)
        for (i1, j1), (i2, j2) in zip(aln.pairs, aln.pairs[1:]):
            assert i1 < i2 and j1 < j2
        for i, j in aln.pairs:
            assert 0 <= i < len(a) and 0 <= j < len(b)

    @given(dna1, dna1)
    @settings(max_examples=15)
    def test_pairs_realize_optimal_score(self, a, b):
        """Summing σ over the pairs plus gap costs = the DP optimum."""
        model = unit_dna()
        aln = hirschberg_align(a, b, model)
        pair_score = sum(model.score(a[i], b[j]) for i, j in aln.pairs)
        gaps = (len(a) - len(aln.pairs)) + (len(b) - len(aln.pairs))
        assert pair_score + gaps * model.gap == pytest.approx(
            aln.score, abs=1e-9
        )

    @given(dna1, dna1)
    @settings(max_examples=15)
    def test_reference_oracle_score_parity(self, a, b):
        """The classic split-recursion oracle stays co-optimal."""
        assert hirschberg_align_reference(a, b).score == pytest.approx(
            hirschberg_align(a, b).score, abs=1e-9
        )

    def test_long_sequences(self, rng):
        a = random_dna(800, rng)
        b = random_dna(700, rng)
        aln = hirschberg_align(a, b)
        quad = global_align(a, b)
        assert aln == quad
