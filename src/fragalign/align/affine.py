"""Affine-gap (Gotoh) alignment: reference oracles + thin wrappers.

The *production* affine path is the batched three-frontier kernel
family in :mod:`fragalign.align.pairwise` (``affine_scores_batch`` and
friends — all four modes, score and align, packed direction codes).
This module keeps two things:

* the **parity oracles** — transparent per-cell Python DPs
  (:func:`affine_score_reference` / :func:`affine_align_reference`,
  plus the long-standing :func:`affine_global_score_reference`) that
  implement exactly the same recurrences *and tie orders* as the
  kernels, so the randomized cross-parity suite can require
  alignment-for-alignment agreement on integer models;
* thin scalar wrappers (:func:`affine_global_score`,
  :func:`affine_global_align`) that are the batch kernels at batch
  size 1 — there is one production code path.

Gotoh's three-state DP (match M, gap-in-b X consuming ``a``,
gap-in-a Y consuming ``b``) charges ``open + (k-1)·extend`` for a
k-long gap; a direct X↔Y switch pays ``open`` again:

    M[i,j] = max(M, X, Y)[i-1, j-1] + s(i, j)
    X[i,j] = max(max(M, Y)[i-1, j] + open, X[i-1, j] + extend)
    Y[i,j] = max(max(M, X)[i, j-1] + open, Y[i, j-1] + extend)

Tie orders everywhere (shared with the kernels' direction codes):
diagonal sources prefer M, then X, then Y; gap states prefer opening
from M, then opening from the other gap state, then extending — all
"beats" are strict comparisons.
"""

from __future__ import annotations

from fragalign.align.pairwise import (
    Alignment,
    _check_band,
    affine_align_batch,
    affine_scores_batch,
    check_affine_gaps,
)
from fragalign.align.scoring_matrices import SubstitutionModel, encode, unit_dna

__all__ = [
    "affine_global_score",
    "affine_global_align",
    "affine_global_score_reference",
    "affine_score_reference",
    "affine_align_reference",
]

_NEG = -1e30


def affine_global_score(
    a: str,
    b: str,
    model: SubstitutionModel | None = None,
    open_: float = -4.0,
    extend: float = -1.0,
) -> float:
    """Gotoh global alignment score — the batch kernel at batch 1."""
    return float(
        affine_scores_batch([(a, b)], model, gap_open=open_, gap_extend=extend, chunk=1)[0]
    )


def affine_global_align(
    a: str,
    b: str,
    model: SubstitutionModel | None = None,
    open_: float = -4.0,
    extend: float = -1.0,
) -> Alignment:
    """Gotoh global alignment with traceback — the batch kernel at batch 1."""
    return affine_align_batch(
        [(a, b)], model, gap_open=open_, gap_extend=extend, chunk=1
    )[0]


def affine_global_score_reference(
    a: str,
    b: str,
    model: SubstitutionModel | None = None,
    open_: float = -4.0,
    extend: float = -1.0,
) -> float:
    """Scalar Gotoh — the historical oracle for the global kernel."""
    return affine_score_reference(a, b, model, open_, extend, mode="global")


def _affine_tables(
    a: str,
    b: str,
    model: SubstitutionModel,
    open_: float,
    ext: float,
    mode: str,
    band: int | None,
):
    """Per-cell Gotoh tables for any mode; returns (M, X, Y, W, stop).

    ``stop[i][j]`` is only meaningful for local mode (the M clamp won).
    Out-of-band cells stay at ``_NEG`` when ``band`` is set.
    """
    W = model.pair_matrix(encode(a), encode(b))
    n, m = len(a), len(b)
    M = [[_NEG] * (m + 1) for _ in range(n + 1)]
    X = [[_NEG] * (m + 1) for _ in range(n + 1)]
    Y = [[_NEG] * (m + 1) for _ in range(n + 1)]
    stop = [[False] * (m + 1) for _ in range(n + 1)]
    local = mode == "local"
    overlap = mode == "overlap"

    def in_band(i: int, j: int) -> bool:
        return band is None or abs(j - i) <= band

    if local:
        for j in range(m + 1):
            M[0][j] = 0.0
    else:
        M[0][0] = 0.0
        for j in range(1, m + 1):
            if in_band(0, j):
                Y[0][j] = open_ + (j - 1) * ext
    for i in range(1, n + 1):
        if local or overlap:
            M[i][0] = 0.0  # fresh (local) / free (overlap) start
        elif in_band(i, 0):
            X[i][0] = open_ + (i - 1) * ext
        for j in range(1, m + 1):
            if not in_band(i, j):
                continue
            bp = max(M[i - 1][j - 1], X[i - 1][j - 1], Y[i - 1][j - 1])
            mv = bp + W[i - 1, j - 1]
            if local:
                if mv <= 0.0:
                    mv = 0.0
                    stop[i][j] = True
            M[i][j] = mv
            X[i][j] = max(max(M[i - 1][j], Y[i - 1][j]) + open_, X[i - 1][j] + ext)
            Y[i][j] = max(max(M[i][j - 1], X[i][j - 1]) + open_, Y[i][j - 1] + ext)
    return M, X, Y, W, stop


def affine_score_reference(
    a: str,
    b: str,
    model: SubstitutionModel | None = None,
    open_: float = -4.0,
    extend: float = -1.0,
    mode: str = "global",
    band: int | None = None,
) -> float:
    """Per-cell Gotoh score for any mode — the kernels' parity oracle."""
    model = model or unit_dna()
    open_, ext = check_affine_gaps(open_, extend)
    n, m = len(a), len(b)
    if mode == "banded":
        band = _check_band(n, m, band)
        mode = "global"
    else:
        band = None
    M, X, Y, _, _ = _affine_tables(a, b, model, open_, ext, mode, band)
    if mode == "local":
        return max(max(row) for row in M)
    if mode == "overlap":
        return max(max(M[n][j], X[n][j], Y[n][j]) for j in range(m + 1))
    return float(max(M[n][m], X[n][m], Y[n][m]))


def affine_align_reference(
    a: str,
    b: str,
    model: SubstitutionModel | None = None,
    open_: float = -4.0,
    extend: float = -1.0,
    mode: str = "global",
    band: int | None = None,
) -> Alignment:
    """Per-cell Gotoh alignment for any mode, with the kernels' exact
    tie orders — the oracle the cross-parity suite compares tracebacks
    against (alignment-for-alignment on integer models)."""
    model = model or unit_dna()
    open_, ext = check_affine_gaps(open_, extend)
    n, m = len(a), len(b)
    if mode == "banded":
        band = _check_band(n, m, band)
        table_mode = "global"
    else:
        band = None
        table_mode = mode
    M, X, Y, W, stop = _affine_tables(a, b, model, open_, ext, table_mode, band)

    def end_state(i: int, j: int) -> int:
        best = max(M[i][j], X[i][j], Y[i][j])
        if M[i][j] == best:
            return 0
        if X[i][j] == best:
            return 1
        return 2

    if table_mode == "local":
        best, ei, ej = 0.0, 0, 0
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                if M[i][j] > best:
                    best, ei, ej = M[i][j], i, j
        score, state = best, 0
    elif table_mode == "overlap":
        ej = max(
            range(m + 1), key=lambda j: (max(M[n][j], X[n][j], Y[n][j]), -j)
        )
        ei = n
        score = max(M[n][ej], X[n][ej], Y[n][ej])
        state = end_state(n, ej)
    else:
        ei, ej = n, m
        score = max(M[n][m], X[n][m], Y[n][m])
        state = end_state(n, m)

    i, j = ei, ej
    pairs: list[tuple[int, int]] = []
    while i > 0 and j > 0:
        if state == 0:
            if table_mode == "local" and stop[i][j]:
                break
            pairs.append((i - 1, j - 1))
            # Diagonal source, tie order M > X > Y (strict beats).
            mv, xv, yv = M[i - 1][j - 1], X[i - 1][j - 1], Y[i - 1][j - 1]
            if yv > max(mv, xv):
                state = 2
            elif xv > mv:
                state = 1
            else:
                state = 0
            i -= 1
            j -= 1
        elif state == 1:
            # Extend only if it strictly beat opening; open from M
            # unless Y strictly beat it.
            if X[i - 1][j] + ext > max(M[i - 1][j], Y[i - 1][j]) + open_:
                state = 1
            elif Y[i - 1][j] > M[i - 1][j]:
                state = 2
            else:
                state = 0
            i -= 1
        else:
            if Y[i][j - 1] + ext > max(M[i][j - 1], X[i][j - 1]) + open_:
                state = 2
            elif X[i][j - 1] > M[i][j - 1]:
                state = 1
            else:
                state = 0
            j -= 1
    pairs.reverse()
    if table_mode == "local":
        return Alignment(float(score), tuple(pairs), (i, ei), (j, ej))
    if table_mode == "overlap":
        return Alignment(float(score), tuple(pairs), (i, n), (0, ej))
    return Alignment(float(score), tuple(pairs), (0, n), (0, m))
