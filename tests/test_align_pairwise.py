"""Pairwise nucleotide alignment kernels vs. references and properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragalign.align.affine import affine_align_reference, affine_score_reference
from fragalign.align.pairwise import (
    affine_align_batch,
    affine_banded_align_batch,
    affine_banded_scores_batch,
    affine_local_align_batch,
    affine_local_scores_batch,
    affine_overlap_align_batch,
    affine_overlap_scores_batch,
    affine_scores_batch,
    banded_align,
    banded_align_batch,
    banded_global_score,
    banded_global_score_reference,
    banded_scores_batch,
    global_align,
    global_align_batch,
    global_score,
    global_score_reference,
    global_scores_batch,
    local_align,
    local_align_batch,
    local_score,
    local_score_reference,
    local_scores_batch,
    overlap_align,
    overlap_align_batch,
    overlap_score,
    overlap_score_reference,
    overlap_scores_batch,
)
from fragalign.align.scoring_matrices import (
    encode,
    transition_transversion,
    unit_dna,
)
from fragalign.engine.backends import NaiveBackend, PreparedPair
from fragalign.job import JobSpec

dna = st.text(alphabet="ACGT", min_size=0, max_size=24)
dna1 = st.text(alphabet="ACGT", min_size=1, max_size=24)


def test_encode_roundtrip():
    codes = encode("ACGTN")
    assert list(codes) == [0, 1, 2, 3, 4]
    assert list(encode("acxg")) == [0, 1, 4, 2]


def _encode_per_char(seq: str) -> np.ndarray:
    """Per-character reference for encode() on input whose upper()
    keeps one character per character."""
    table = {c: i for i, c in enumerate("ACGTN")}
    out = np.empty(len(seq), dtype=np.uint8)
    for i, c in enumerate(seq.upper()):
        out[i] = table.get(c, 4)
    return out


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="ACGTNacgtnXx -*U", max_size=64))
def test_encode_matches_per_char_reference_on_ascii(seq):
    got = encode(seq)
    assert got.dtype == np.uint8 and got.flags.writeable
    assert np.array_equal(got, _encode_per_char(seq))


def test_encode_gives_one_code_per_character():
    # Every character, ASCII or not, is exactly one code; unknown ones
    # N — even "ß", whose upper() is the two characters "SS".
    assert list(encode("ACGTß")) == [0, 1, 2, 3, 4]
    assert list(encode("aé☃\U0001F600t")) == [0, 4, 4, 4, 3]
    assert encode("").shape == (0,)


def test_substitution_model_validation():
    import numpy as np

    from fragalign.align.scoring_matrices import SubstitutionModel

    with pytest.raises(ValueError):
        SubstitutionModel(matrix=np.zeros((4, 4)), gap=-1)
    bad = np.zeros((5, 5))
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        SubstitutionModel(matrix=bad, gap=-1)


def test_transition_vs_transversion_scores():
    m = transition_transversion()
    assert m.score("A", "G") > m.score("A", "C")  # transition beats transversion
    assert m.score("A", "A") > m.score("A", "G")


def test_global_identical_sequences():
    s = "ACGTACGT"
    assert global_score(s, s) == len(s)


def test_global_empty():
    model = unit_dna()
    assert global_score("", "ACG") == 3 * model.gap
    assert global_score("ACG", "") == 3 * model.gap


def test_known_alignment():
    # classic: GATTACA vs GCATGCU-like sanity on DNA
    s = global_score("GATTACA", "GATGACA")
    assert s == 5.0  # 6 matches, 1 mismatch with unit scores: 6 - 1


@given(dna, dna)
def test_global_vectorized_equals_reference(a, b):
    assert global_score(a, b) == pytest.approx(
        global_score_reference(a, b), abs=1e-9
    )


@given(dna, dna)
def test_global_symmetry(a, b):
    assert global_score(a, b) == pytest.approx(global_score(b, a), abs=1e-9)


@given(dna1, dna1)
def test_global_align_traceback_consistent(a, b):
    aln = global_align(a, b)
    assert aln.score == pytest.approx(global_score(a, b), abs=1e-9)
    for (i1, j1), (i2, j2) in zip(aln.pairs, aln.pairs[1:]):
        assert i1 < i2 and j1 < j2


@given(dna1, dna1)
def test_local_at_least_global_tail(a, b):
    # Local can always do at least 0 and at least any exact shared char.
    s = local_score(a, b)
    assert s >= 0.0
    if set(a) & set(b):
        assert s >= 1.0


@given(dna1, dna1)
def test_local_align_window_scores(a, b):
    aln = local_align(a, b)
    assert aln.score == pytest.approx(local_score(a, b), abs=1e-9)
    (ai, aj) = aln.a_interval
    (bi, bj) = aln.b_interval
    if aln.pairs:
        # Re-aligning the windows globally recovers at least the score.
        assert global_score(a[ai:aj], b[bi:bj]) >= aln.score - 1e-9


def test_local_finds_planted_motif(rng):
    from fragalign.genome.dna import random_dna

    motif = "ACGTGTACCAGT"
    a = random_dna(60, rng) + motif + random_dna(60, rng)
    b = random_dna(40, rng) + motif + random_dna(50, rng)
    assert local_score(a, b) >= len(motif) - 2


def test_overlap_score_detects_overlap():
    a = "TTTTTACGTACGT"
    b = "ACGTACGTCCCC"
    score, a_start, b_end = overlap_score(a, b)
    assert score >= 8.0
    assert a[a_start:] .startswith("ACGT")
    assert b[:b_end].endswith("ACGT")


@given(dna1, dna1)
def test_banded_equals_global_with_wide_band(a, b):
    band = max(len(a), len(b))
    assert banded_global_score(a, b, band) == pytest.approx(
        global_score(a, b), abs=1e-9
    )


def test_banded_rejects_too_narrow():
    with pytest.raises(ValueError):
        banded_global_score("AAAA", "A", band=1)


def test_banded_validates_band_up_front():
    with pytest.raises(ValueError, match="non-negative"):
        banded_global_score("ACGT", "ACGT", band=-1)
    with pytest.raises(ValueError, match="integer"):
        banded_global_score("ACGT", "ACGT", band=2.5)
    with pytest.raises(ValueError, match="integer"):
        banded_global_score("ACGT", "ACGT", band=None)


LINEAR_KERNELS = [
    ("global", global_scores_batch, global_align_batch),
    ("local", local_scores_batch, local_align_batch),
    ("overlap", overlap_scores_batch, overlap_align_batch),
    ("banded", banded_scores_batch, banded_align_batch),
]
AFFINE_KERNELS = [
    ("global", affine_scores_batch, affine_align_batch),
    ("local", affine_local_scores_batch, affine_local_align_batch),
    ("overlap", affine_overlap_scores_batch, affine_overlap_align_batch),
    ("banded", affine_banded_scores_batch, affine_banded_align_batch),
]


def _random_uniform_batch(rng, count, n, m):
    from fragalign.genome.dna import random_dna

    return [(random_dna(n, rng), random_dna(m, rng)) for _ in range(count)]


class TestBatchKernelsVsScalarReferences:
    """Cross-kernel parity: every batch kernel vs its per-cell oracle."""

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.tuples(dna, dna), min_size=1, max_size=6), st.booleans())
    def test_overlap_batch_equals_reference(self, shapes, biological):
        model = transition_transversion() if biological else unit_dna()
        n, m = len(shapes[0][0]), len(shapes[0][1])
        pairs = [(a[:n].ljust(n, "A"), b[:m].ljust(m, "C")) for a, b in shapes]
        got = overlap_scores_batch(pairs, model)
        want = [overlap_score_reference(a, b, model) for a, b in pairs]
        assert np.allclose(got, want, atol=1e-9)
        if not biological:
            assert list(got) == want  # bit-identical on integer models

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.tuples(dna, dna), min_size=1, max_size=6), st.integers(0, 6))
    def test_banded_batch_equals_reference(self, shapes, extra_band):
        n, m = len(shapes[0][0]), len(shapes[0][1])
        band = abs(n - m) + extra_band
        pairs = [(a[:n].ljust(n, "A"), b[:m].ljust(m, "C")) for a, b in shapes]
        got = banded_scores_batch(pairs, band)
        want = [banded_global_score_reference(a, b, band) for a, b in pairs]
        assert list(got) == want  # bit-identical on the unit model

    def test_banded_wide_band_alignment_equals_global(self, rng):
        pairs = _random_uniform_batch(rng, 6, 40, 37)
        band = 64
        banded = banded_align_batch(pairs, band)
        full = global_align_batch(pairs)
        for x, y in zip(banded, full):
            assert x.score == y.score
            assert x.pairs == y.pairs

    def test_overlap_align_batch_equals_scalar(self, rng):
        pairs = _random_uniform_batch(rng, 8, 30, 26)
        batch = overlap_align_batch(pairs)
        loop = [overlap_align(a, b) for a, b in pairs]
        assert batch == loop
        for (a, b), aln in zip(pairs, batch):
            s, a_start, b_end = overlap_score(a, b)
            assert (s, a_start, b_end) == (
                aln.score,
                aln.a_interval[0],
                aln.b_interval[1],
            )

    def test_local_align_batch_equals_scalar(self, rng):
        pairs = _random_uniform_batch(rng, 8, 30, 26)
        assert local_align_batch(pairs) == [local_align(a, b) for a, b in pairs]

    def test_local_kernels_match_reference(self, rng):
        # Parity: vectorized Smith–Waterman against the per-cell oracle.
        pairs = _random_uniform_batch(rng, 12, 23, 31)
        expected = [local_score_reference(a, b) for a, b in pairs]
        np.testing.assert_allclose(local_scores_batch(pairs), expected)
        for (a, b), aln, want in zip(pairs, local_align_batch(pairs), expected):
            assert aln.score == want
            assert local_align(a, b).score == want

    @given(dna, dna)
    def test_local_reference_parity_hypothesis(self, a, b):
        assert local_score(a, b) == local_score_reference(a, b)


class TestDirectionWalkVsRecomputeWalk:
    """The packed-code walk reproduces the old H-table float-equality
    walk exactly on integer models (same tie order: diag, up, left)."""

    @staticmethod
    def _recompute_walk(a, b, model):
        """The pre-direction-code traceback: full H table plus float
        equality re-testing, kept here as the independent oracle."""
        W = model.pair_matrix(encode(a), encode(b))
        g = model.gap
        n, m = len(a), len(b)
        H = np.empty((n + 1, m + 1))
        H[0] = np.arange(m + 1) * g
        for i in range(1, n + 1):
            H[i, 0] = i * g
            for j in range(1, m + 1):
                H[i, j] = max(
                    H[i - 1, j - 1] + W[i - 1, j - 1],
                    H[i - 1, j] + g,
                    H[i, j - 1] + g,
                )
        pairs = []
        i, j = n, m
        while i > 0 and j > 0:
            h = H.item(i, j)
            if h == H.item(i - 1, j - 1) + W.item(i - 1, j - 1):
                pairs.append((i - 1, j - 1))
                i -= 1
                j -= 1
            elif h == H.item(i - 1, j) + g:
                i -= 1
            else:
                j -= 1
        pairs.reverse()
        return float(H[n, m]), tuple(pairs)

    def test_randomized_batches(self, rng):
        model = unit_dna()
        for n, m in [(1, 1), (7, 3), (16, 16), (24, 31)]:
            pairs = _random_uniform_batch(rng, 10, n, m)
            for (a, b), aln in zip(pairs, global_align_batch(pairs, model)):
                score, walked = self._recompute_walk(a, b, model)
                assert aln.score == score
                assert aln.pairs == walked

    @given(dna1, dna1)
    def test_hypothesis_identity(self, a, b):
        aln = global_align(a, b)
        score, walked = self._recompute_walk(a, b, unit_dna())
        assert (aln.score, aln.pairs) == (score, walked)


class TestDegenerateShapes:
    """Empty/degenerate sweeps through every kernel: n==0, m==0,
    band == |n - m|, and the empty batch."""

    def test_empty_batches(self):
        assert len(global_scores_batch([])) == 0
        assert len(local_scores_batch([])) == 0
        assert len(overlap_scores_batch([])) == 0
        assert len(banded_scores_batch([], band=0)) == 0
        assert global_align_batch([]) == []
        assert local_align_batch([]) == []
        assert overlap_align_batch([]) == []
        assert banded_align_batch([], band=0) == []

    @pytest.mark.parametrize(
        "a,b", [("", ""), ("", "ACG"), ("ACGT", ""), ("A", "ACG"), ("ACG", "T")]
    )
    def test_empty_sequences(self, a, b):
        """All sixteen kernels, four modes x linear/affine x score/align,
        equal their oracles in full (score, pairs and both intervals):
        the linear ones ``NaiveBackend``, the affine ones (gaps -3/-1)
        ``affine_score_reference``/``affine_align_reference``."""
        model = unit_dna()
        band = max(len(a), len(b))
        pair = PreparedPair(a, b, encode(a), encode(b))
        naive = NaiveBackend()
        for mode, score_kernel, align_kernel in LINEAR_KERNELS:
            args = (band,) if mode == "banded" else ()
            spec = JobSpec(mode, band if mode == "banded" else None)
            want = naive.align(pair, model, spec)
            assert want.score == naive.score(pair, model, spec)
            assert score_kernel([(a, b)], *args, model)[0] == want.score
            assert align_kernel([(a, b)], *args, model)[0] == want
        for mode, score_kernel, align_kernel in AFFINE_KERNELS:
            args = (band,) if mode == "banded" else ()
            want = affine_align_reference(a, b, model, -3.0, -1.0, mode=mode, band=band)
            assert want.score == affine_score_reference(
                a, b, model, -3.0, -1.0, mode=mode, band=band
            )
            assert score_kernel([(a, b)], *args, model, -3.0, -1.0)[0] == want.score
            assert align_kernel([(a, b)], *args, model, -3.0, -1.0)[0] == want

    def test_band_exactly_length_gap(self):
        # band == |n - m|: the tightest band that still connects the
        # corners — one forced diagonal staircase.
        a, b = "ACGTACGT", "ACGT"
        band = len(a) - len(b)
        got = banded_global_score(a, b, band)
        assert got == banded_global_score_reference(a, b, band)
        aln = banded_align(a, b, band)
        assert aln.score == got
        for (i1, j1), (i2, j2) in zip(aln.pairs, aln.pairs[1:]):
            assert i1 < i2 and j1 < j2

    def test_band_zero_square(self):
        assert banded_global_score("ACGT", "AGGT", 0) == 2.0
        assert banded_align("ACGT", "AGGT", 0).pairs == (
            (0, 0),
            (1, 1),
            (2, 2),
            (3, 3),
        )
