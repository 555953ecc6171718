"""Bit-parallel score-only kernels: 64 DP cells per machine word.

Myers' trick (and its BitPAl-flavoured integer-score generalization)
packs the *vertical deltas* of a DP column into bit-vectors — one bit
per query position — and advances a whole column per text character
with a fixed number of word-wide boolean operations plus one carry
add.  On a 256-long query that is 4 uint64 words of state instead of
256 float cells, which is where the order-of-magnitude win over the
row-vectorized float kernels comes from.

Two **flat-cost model families** are supported, selected by
:func:`flat_model_family`:

* ``"unit"`` — ``(match, mismatch, gap) = (c, -c, -c)`` with ``c > 0``
  (the default ``unit_dna()`` model).  Plain edit-distance bit
  parallelism is *not* enough here: the NW score under unit scores is
  not a function of the Levenshtein distance (``a="ab"`` vs ``b="ba"``
  ties with ``"ab"`` vs ``"cd"`` at distance 2 but scores -1 vs -2,
  because a substitution costs 2 score units while an indel costs
  1.5).  Instead the horizontal/vertical deltas — which for this
  family live in ``{-1, 0, 1, 2}`` (units of ``c``) — are tracked as
  three cumulative threshold indicators per direction, advanced with a
  carry-propagation primitive (:func:`_propagate`).
* ``"lev"`` — ``(0, -c, -c)``: the NW score is exactly ``-c`` times
  the Levenshtein distance, handled by the classic Myers/Hyyrö
  formulation (deltas in ``{-1, 0, 1}``).

Both families cover ``global`` and ``overlap`` (free a-suffix start,
max over the last row) modes, score-only.  Scales ``c`` with ``2*c``
integral are accepted — every DP cell is then a multiple of ``0.5``,
so the float64 oracle accumulates exactly and parity is bit-exact.
Models containing ``N`` codes are fine (``N`` scores 0 against
everything, which breaks two-valued flatness) as long as the
*sequences* contain no ``N`` — the native backend routes N-carrying
pairs to the float kernels per pair.

``bitparallel_scores_batch`` is the engine-facing kernel (numpy
uint64, batched); ``bitparallel_score_reference`` is its per-cell
oracle, and the C twin in :mod:`fragalign._native` is pinned against
both by the cross-backend parity fuzz tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from fragalign.align.pairwise import (
    global_score_reference,
    overlap_score_reference,
)
from fragalign.align.scoring_matrices import SubstitutionModel, encode, unit_dna

__all__ = [
    "flat_model_family",
    "bitparallel_scores_batch",
    "bitparallel_score_reference",
]

_MODES = ("global", "overlap")
_ONE = np.uint64(1)
_S63 = np.uint64(63)
_ALL = ~np.uint64(0)


def flat_model_family(model: SubstitutionModel | None) -> tuple[str, float] | None:
    """Which bit-parallel family covers ``model`` — ``None`` for none.

    Returns ``("unit", c)`` for ``(c, -c, -c)`` models, ``("lev", c)``
    for ``(0, -c, -c)`` models, both restricted to scales where ``2*c``
    is integral (so float64 parity with the accumulating oracles is
    exact).  Only the A/C/G/T core of the matrix matters — the ``N``
    row/column is handled per pair by the caller.
    """
    model = model or unit_dna()
    core = model.matrix[:4, :4]
    diag = float(core[0, 0])
    off = float(core[0, 1])
    if not (np.all(np.diag(core) == diag) and np.all(core[~np.eye(4, dtype=bool)] == off)):
        return None
    gap = float(model.gap)
    if diag > 0 and off == -diag and gap == -diag:
        c = diag
    elif diag == 0 and off == gap and gap < 0:
        c = -off
    else:
        return None
    if not float(2 * c).is_integer():
        return None
    return ("unit" if diag > 0 else "lev", c)


def bitparallel_score_reference(
    a: str, b: str, model: SubstitutionModel | None = None, mode: str = "global"
) -> float:
    """Per-cell oracle for the bit-parallel kernels (both families)."""
    if mode == "overlap":
        return overlap_score_reference(a, b, model)
    if mode != "global":
        raise ValueError(f"bit-parallel kernels cover {_MODES}, got mode={mode!r}")
    return global_score_reference(a, b, model)


# -- multiword uint64 primitives.  State is word-major, (W words, B
# -- pairs): bit k of word w is query row w*64 + k + 1, and each word is
# -- one contiguous row across the batch.  All information flows toward
# -- higher bits, so padding bits above n never contaminate valid ones.


def _shl1(x: np.ndarray) -> np.ndarray:
    """Shift every pair's W-word bit-vector up one bit (zero fill)."""
    out = x << _ONE
    if len(x) > 1:
        out[1:] |= x[:-1] >> _S63
    return out


def _add(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Multiword add (wraparound ok), the carries across words by
    lookahead: a word generates one when its sum wrapped (``t < x``) and
    passes one on when its sum is all ones (``t == ~0``)."""
    np.add(x, y, out=out)
    if len(out) > 1:
        carry = out < x  # generated; becomes each word's carry out
        through = out == _ALL
        for w in range(1, len(out) - 1):
            carry[w] |= through[w] & carry[w - 1]
        out[1:] += carry[:-1]
    return out


def _propagate(S: np.ndarray, R: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Solve ``X[i] = S[i] | (R[i] & X[i-1])`` along the bit chain.

    The carry of ``R + (S << 1)`` rides exactly the runs of ``R``
    sitting on top of a seed and clears the bits it passes; OR-ing the
    shifted seed back in covers a run bit that the seed's own carry
    leaves set.
    """
    Sh = _shl1(S)
    U = _add(R, Sh, scratch)
    return S | (R & (~U | Sh))


def _sweep_setup(acodes: np.ndarray, bcodes: np.ndarray):
    """(valid, Eq, cols): the (W, B) mask of the query rows, the
    (W, 4 * B) match masks (bit i of word w in column c * B + p set iff
    ``acodes[p, w*64 + i] == c``) and each text column's (B,) index into
    them."""
    B, n = acodes.shape
    W = (n + 63) // 64
    eq = np.zeros((4, B, W * 64), dtype=bool)
    eq[:, :, :n] = acodes == np.arange(4, dtype=acodes.dtype)[:, None, None]
    words = np.packbits(eq, axis=2, bitorder="little").view("<u8").astype(np.uint64, copy=False)
    Eq = np.ascontiguousarray(words.transpose(2, 0, 1)).reshape(W, 4 * B)
    valid = np.zeros((W, B), dtype=np.uint64)
    valid[: n // 64] = _ALL
    if n % 64:
        valid[n // 64] = (_ONE << np.uint64(n % 64)) - _ONE
    return valid, Eq, bcodes.T.astype(np.intp) * B + np.arange(B)


def _top_bits(tops: np.ndarray, n: int) -> np.ndarray:
    """Bit ``n - 1`` (the last query row) of each saved word, as int64."""
    return ((tops >> np.uint64((n - 1) % 64)) & _ONE).astype(np.int64)


def _scores_unit(acodes: np.ndarray, bcodes: np.ndarray, mode: str) -> np.ndarray:
    """Unit-family sweep, scores in units of ``c`` (int64).

    State per pair: three nested threshold vectors over query rows for
    the vertical delta ``DV in {-1, 0, 1, 2}``, ``T_t = [DV >= t]`` for
    t = 0, 1, 2 (bits above n hold garbage that only flows upward).
    Per text char the horizontal-delta thresholds ``A_t = [DH >= t]``
    come out of seed/propagate algebra, the top bit of each accumulates
    the last-row score, and the new vertical thresholds follow from
    delta-threshold case analysis.
    """
    B, n = acodes.shape
    m = bcodes.shape[1]
    valid, Eq_all, cols = _sweep_setup(acodes, bcodes)
    # H[i][0] = -i (global): every vertical delta is -1; overlap's
    # H[i][0] = 0: every delta is 0.
    T0 = np.zeros_like(valid) if mode == "global" else valid
    T1 = np.zeros_like(valid)
    T2 = np.zeros_like(valid)
    wn = (n - 1) // 64
    tops = np.empty((m, 3, B), dtype=np.uint64)  # each column's last-row A0/A1/A2 word
    scratch = np.empty_like(valid)

    for j in range(m):
        Eq = Eq_all.take(cols[j], axis=1)
        NEq = ~Eq
        # Horizontal-delta thresholds up the column.  Chain positions
        # R (mismatch over DV=-1) pass any threshold along unchanged;
        # matches seed 1 - DV; a mismatch one level down feeds the
        # next threshold through the shifted indicators.
        nT0, nT1, nT2 = ~T0, ~T1, ~T2
        R = NEq & nT0
        A2 = _propagate(Eq & nT0, R, scratch)
        A2s = _shl1(A2)
        M0 = NEq & T0 & nT1  # a mismatch over DV=0
        A1 = _propagate((Eq & nT1) | (M0 & A2s), R, scratch)
        A1s = _shl1(A1)
        A0 = (Eq & nT2) | R | (M0 & A1s) | (NEq & T1 & nT2 & A2s)
        tops[j, 0], tops[j, 1], tops[j, 2] = A0[wn], A1[wn], A2[wn]

        # New vertical thresholds from DH[i-1] thresholds (shift in the
        # top-row delta, always -1) and the old vertical ones.
        B0 = _shl1(A0)
        nB0, nA1s = ~B0, ~A1s
        B0nA1s = B0 & nA1s
        T0, T1, T2 = (
            (Eq & ~A2s) | (NEq & (nB0 | (B0nA1s & T1) | (A1s & ~A2s & T2))),
            (Eq & nA1s) | (NEq & ((nB0 & T1) | (B0nA1s & T2))),
            nB0 & (Eq | T2),
        )
    # The last row moves by DH = (A0 + A1 + A2) - 1 per text char.
    steps = _top_bits(tops, n).sum(axis=1) - 1
    if mode == "global":
        return steps.sum(axis=0) - n
    return np.maximum(np.cumsum(steps, axis=0).max(axis=0), 0)


def _scores_lev(acodes: np.ndarray, bcodes: np.ndarray) -> np.ndarray:
    """Myers/Hyyrö Levenshtein sweep; returns ``-distance`` (int64).

    Only the global mode runs here — under ``(0, -c, -c)`` every
    overlap cell is ``<= 0`` with ``H[n][0] = 0`` free, so the overlap
    score is identically 0 and the caller short-circuits it.
    """
    B, n = acodes.shape
    m = bcodes.shape[1]
    valid, Eq_all, cols = _sweep_setup(acodes, bcodes)
    Pv = valid.copy()
    Mv = np.zeros_like(valid)
    wn = (n - 1) // 64
    tops = np.empty((m, 2, B), dtype=np.uint64)  # each column's last-row Ph/Mh word
    scratch = np.empty_like(valid)

    for j in range(m):
        Eq = Eq_all.take(cols[j], axis=1)
        Xv = Eq | Mv
        Xh = (_add(Eq & Pv, Pv, scratch) ^ Pv) | Eq
        Ph = Mv | ~(Xh | Pv)
        Mh = Pv & Xh
        tops[j, 0], tops[j, 1] = Ph[wn], Mh[wn]
        Phs = _shl1(Ph)
        Phs[0] |= _ONE  # top-row delta is always +1 cost
        Mhs = _shl1(Mh)
        Pv = (Mhs | ~(Xv | Phs)) & valid
        Mv = Phs & Xv
    bits = _top_bits(tops, n).sum(axis=0)
    return bits[1] - bits[0] - n


def bitparallel_scores_batch(
    pairs: Sequence[tuple[str | np.ndarray, str | np.ndarray]],
    model: SubstitutionModel | None = None,
    mode: str = "global",
) -> np.ndarray:
    """Bit-parallel scores for a batch of same-shape pairs.

    Pairs are ``(a, b)`` strings or pre-encoded uint8 codes, all
    sharing one ``(len(a), len(b))`` shape; the model must be in a
    flat family (see :func:`flat_model_family`) and no sequence may
    contain an ``N`` code — violations raise ``ValueError`` so the
    dispatching backend's capability probe stays honest.
    """
    model = model or unit_dna()
    family = flat_model_family(model)
    if family is None:
        raise ValueError("bit-parallel kernels need a flat (unit/lev) model")
    if mode not in _MODES:
        raise ValueError(f"bit-parallel kernels cover {_MODES}, got mode={mode!r}")
    if not pairs:
        return np.zeros(0)
    kind, c = family
    coded = [
        (
            a if isinstance(a, np.ndarray) else encode(a),
            b if isinstance(b, np.ndarray) else encode(b),
        )
        for a, b in pairs
    ]
    n, m = len(coded[0][0]), len(coded[0][1])
    if any(len(a) != n or len(b) != m for a, b in coded):
        raise ValueError("bitparallel_scores_batch needs a uniform-shape batch")
    if n == 0 or m == 0:
        if mode == "overlap":
            return np.zeros(len(coded))
        return np.full(len(coded), (n + m) * model.gap)
    acodes = np.stack([a for a, _ in coded])
    bcodes = np.stack([b for _, b in coded])
    if acodes.max() > 3 or bcodes.max() > 3:
        raise ValueError("bit-parallel kernels take A/C/G/T sequences (no N)")
    if kind == "lev":
        if mode == "overlap":
            # Every cell is <= 0 and the last row starts at the free 0.
            return np.zeros(len(coded))
        ints = _scores_lev(acodes, bcodes)
    else:
        ints = _scores_unit(acodes, bcodes, mode)
    return ints.astype(np.float64) * c
