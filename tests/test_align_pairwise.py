"""Pairwise nucleotide alignment kernels vs. references and properties."""

from __future__ import annotations

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fragalign.align import pairwise
from fragalign.align.affine import affine_align_reference, affine_score_reference
from fragalign.align.pairwise import (
    Alignment,
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


# -- ragged batches: one padded sweep per chunk ------------------------

_RAGGED_MODELS = {
    "unit": unit_dna(),
    "tt": transition_transversion(),
    "gap0": unit_dna(gap=0.0),
    "gap+0.5": unit_dna(gap=0.5),
}
_ORACLE_MODELS = ("unit", "tt")  # integer models NaiveBackend matches exactly
# Linear, then affine (open, extend).  With 2 * open > extend, a zig-zag
# between X and Y through padded columns beats a real gap's extension.
_RAGGED_GAPS = [None, (-3.0, -1.0), (0.0, 0.0), (0.0, -1.0), (-1.0, -3.0)]


def _padding(unbounded: bool):
    """Unbounded: every chunk pads to its longest pair however skewed,
    so the sweeps are tested whatever the planner's padding bound."""
    if not unbounded:
        return contextlib.nullcontext()
    return mock.patch.object(pairwise, "_PAD_RATIO", math.inf)


@st.composite
def _ragged_pairs(draw):
    """Up to 10 pairs of mixed shapes: lengths at the 64-column word
    edges or anywhere in 0..80, with or without N."""
    lengths = draw(st.sampled_from([st.sampled_from([0, 1, 2, 63, 64, 65]), st.integers(0, 80)]))
    alphabet = draw(st.sampled_from(["ACGT", "ACGTN"]))
    seq = lengths.flatmap(lambda n: st.text(alphabet=alphabet, min_size=n, max_size=n))
    return draw(st.lists(st.tuples(seq, seq), min_size=1, max_size=10))


def _exact(values) -> list:
    """Scores as their bit patterns (sign bits included), alignments in full."""
    return [
        (np.float64(v.score).tobytes(), v.pairs, v.a_interval, v.b_interval)
        if isinstance(v, Alignment)
        else np.float64(v).tobytes()
        for v in values
    ]


@given(
    pairs=_ragged_pairs(),
    model_name=st.sampled_from(sorted(_RAGGED_MODELS)),
    gaps=st.sampled_from(_RAGGED_GAPS),
    mode=st.sampled_from(["global", "local", "overlap", "banded"]),
    extra_band=st.integers(0, 3),
    chunk=st.sampled_from([1, 3, 64]),
    unbounded=st.booleans(),
)
# A local batch whose best is 0: every alignment is empty.
@example(
    pairs=[("AAAA", "CCC"), ("", "GG"), ("TTTTTT", "GA"), ("A", "C")],
    model_name="unit", gaps=None, mode="local", extra_band=0, chunk=3, unbounded=False,
)
# An affine overlap whose X/Y zig-zag through padded columns outscores
# the pair's own end row.
@example(
    pairs=[("ACGTGG", "ACGT"), ("ACGTGG", "ACGTACGT")],
    model_name="unit", gaps=(0.0, -1.0), mode="overlap", extra_band=0, chunk=64, unbounded=False,
)
def test_ragged_batch_equals_each_pair_alone(
    pairs, model_name, gaps, mode, extra_band, chunk, unbounded
):
    """Every entry of a mixed-shape batch equals that pair run alone (a
    batch of one, no padding), sign bits included, in all four modes,
    linear and affine, score and align; on the integer models it also
    equals the per-cell oracles."""
    model = _RAGGED_MODELS[model_name]
    kernels = {m: (s, a) for m, s, a in (LINEAR_KERNELS if gaps is None else AFFINE_KERNELS)}
    score_kernel, align_kernel = kernels[mode]
    band = max(abs(len(a) - len(b)) for a, b in pairs) + extra_band
    args = ((band,) if mode == "banded" else ()) + (model,) + (gaps or ())
    with _padding(unbounded):
        scores = score_kernel(pairs, *args, chunk=chunk)
        alns = align_kernel(pairs, *args, chunk=chunk)
    assert _exact(scores) == _exact([score_kernel([p], *args)[0] for p in pairs])
    assert _exact(alns) == _exact([align_kernel([p], *args)[0] for p in pairs])
    if model_name not in _ORACLE_MODELS:
        return
    spec = JobSpec(mode, band if mode == "banded" else None, *(gaps or (None, None)))
    naive = NaiveBackend()
    for (a, b), score, aln in zip(pairs, scores, alns):
        want = naive.align(PreparedPair(a, b, encode(a), encode(b)), model, spec)
        assert (score, aln) == (want.score, want)


@pytest.mark.parametrize("unbounded", [False, True])
@pytest.mark.parametrize("model_name", sorted(_RAGGED_MODELS))
def test_ragged_chunks_equal_each_pair_alone_in_every_mode(model_name, unbounded, rng):
    """Every mode, gap model and verb on one batch whose chunks of 3 are
    each padded (a positive gap makes any padded cell that could win,
    win)."""
    from fragalign.genome.dna import random_dna

    shapes = [(65, 2), (0, 7), (1, 64), (63, 65), (30, 12), (64, 0), (17, 40), (2, 1)]
    pairs = [(random_dna(n, rng), random_dna(m, rng)) for n, m in shapes]
    pairs[4] = (pairs[4][0][:10] + "N" + pairs[4][0][11:], pairs[4][1])
    model = _RAGGED_MODELS[model_name]
    band = max(abs(n - m) for n, m in shapes)
    for gaps in _RAGGED_GAPS:
        for mode, score_kernel, align_kernel in LINEAR_KERNELS if gaps is None else AFFINE_KERNELS:
            args = ((band,) if mode == "banded" else ()) + (model,) + (gaps or ())
            for kernel in (score_kernel, align_kernel):
                alone = [kernel([p], *args)[0] for p in pairs]
                with _padding(unbounded):
                    got = kernel(pairs, *args, chunk=3)
                assert _exact(got) == _exact(alone), (mode, gaps)


@given(
    shapes=st.lists(st.tuples(st.integers(0, 400), st.integers(0, 400)), max_size=80),
    chunk=st.sampled_from([1, 3, 64]),
)
def test_chunk_plan_sweeps_each_pair_once_within_the_padding_bound(shapes, chunk):
    nk = np.array([n for n, _ in shapes], dtype=np.int64)
    mk = np.array([m for _, m in shapes], dtype=np.int64)
    plan = pairwise._chunks(nk, mk, None, chunk)
    assert sorted(k for idx, _, _ in plan for k in idx) == [
        k for k, (n, m) in enumerate(shapes) if n and m
    ]
    for idx, n, m in plan:
        assert 1 <= idx.size <= chunk and (n, m) == (nk[idx].max(), mk[idx].max())
        bound = pairwise._PAD_RATIO * int((nk[idx] * mk[idx]).sum()) + pairwise._ROW_CELLS * n
        assert idx.size == 1 or idx.size * n * m <= bound


def test_a_long_pair_sweeps_apart_from_short_ones():
    nk = mk = np.array([32] * 63 + [2000])
    plan = pairwise._chunks(nk, mk, None, 64)
    assert [idx.tolist() for idx, _, _ in plan] == [list(range(63)), [63]]
