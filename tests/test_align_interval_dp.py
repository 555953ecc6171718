"""Incremental all-intervals DP ≡ per-interval reference."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fragalign.align.chain import chain_score
from fragalign.align.interval_dp import (
    all_interval_chain_scores,
    all_interval_chain_scores_reference,
)

matrices = arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 8)),
    elements=st.floats(-4, 4, allow_nan=False, width=32),
)


@given(matrices)
def test_incremental_equals_reference(W):
    got = all_interval_chain_scores(W)
    expect = all_interval_chain_scores_reference(W)
    assert np.allclose(got, expect, atol=1e-9)


@given(matrices)
def test_full_interval_matches_chain_score(W):
    S = all_interval_chain_scores(W)
    m = W.shape[1]
    assert S[0, m] == pytest.approx(chain_score(W), abs=1e-9)


@given(matrices)
def test_monotone_in_interval_extension(W):
    # Padding is free, so a wider interval never scores less.
    S = all_interval_chain_scores(W)
    m = W.shape[1]
    for d in range(m):
        for e in range(d + 1, m):
            assert S[d, e + 1] >= S[d, e] - 1e-9
            assert S[d, e] >= S[d + 1, e] - 1e-9 if d + 1 <= e else True


def test_empty_matrix():
    S = all_interval_chain_scores(np.zeros((0, 0)))
    assert S.shape == (1, 1)

