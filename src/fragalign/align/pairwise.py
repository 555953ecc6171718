"""Pairwise nucleotide alignment: global, local, overlap, banded.

Kernel design
-------------
Every kernel sweeps the DP row by row with NumPy.  The trick that
carries the throughput is the **shifted frontier ("f-space")**: a DP
row is stored as ``F[j] = H[i][j] - g*j - i*g`` (the banded kernel
shifts per-diagonal).  Under this change of variables the up-move
``H[i-1][j] + g`` becomes a plain *view* of the previous frontier, the
diagonal move folds its constants into a pre-shifted substitution
gather (``W - 2g``), the ``j = 0`` boundary becomes a per-row constant,
and the in-row left-extension ``H[j] = max(V[j], H[j-1] + g)`` becomes
an *unweighted* running maximum (``np.maximum.accumulate``) — a score
row costs one add, one max, and one prefix-max.

Traceback is **table-free**: the align kernels emit one packed uint8
direction code per cell during the forward sweep (2 bits — bit0 "up
beat diag", bit1 "left beat both"; local adds bit2 "stop, cell is 0")
and each pair is recovered by an exact O(n+m) walk over the codes.
No float H table is kept and no float equality is re-tested during
the walk, which removes both the 8x memory cost of the old float
table and the tie-breaking fragility of recompute walks.  Tie order
everywhere: diagonal, then up, then left (then stop).

The sixteen ``*_batch`` kernels share one driver, :func:`_batch`.  It
answers pairs with an empty side from one table and sweeps the rest in
lockstep chunks of up to ``chunk`` pairs (the frontier is a (batch,
m+1) matrix and every DP row costs one set of NumPy ops for the entire
batch).  Pairs may differ in shape: :func:`_chunks` groups them in
shape order under a padding bound, and a chunk is padded to its
longest pair with the pad code :data:`_PAD`, whose row and column in
every gather table are ``_NEG``, so no cell of a pair's own table
reads a padded one.  The sweeps save each pair's frontier as they pass
its own last row; the driver reads each pair's own end cell, score and
affine end state, and walks the direction codes.  The scalar entry
points (:func:`global_align`, :func:`local_align`, ...) are the batch
kernels at batch size 1, so *every* traceback in the system goes
through the direction-code walk.  The ``*_reference`` functions are
independent per-cell Python oracles for the parity tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from fragalign.align.scoring_matrices import SubstitutionModel, encode, unit_dna
from fragalign.job import check_affine_gaps

__all__ = [
    "Alignment",
    "global_score",
    "global_score_reference",
    "global_scores_batch",
    "global_align",
    "global_align_batch",
    "local_score",
    "local_score_reference",
    "local_scores_batch",
    "local_align",
    "local_align_batch",
    "overlap_score",
    "overlap_score_reference",
    "overlap_scores_batch",
    "overlap_align",
    "overlap_align_batch",
    "banded_global_score",
    "banded_global_score_reference",
    "banded_scores_batch",
    "banded_align",
    "banded_align_batch",
    "affine_scores_batch",
    "affine_align_batch",
    "affine_local_scores_batch",
    "affine_local_align_batch",
    "affine_overlap_scores_batch",
    "affine_overlap_align_batch",
    "affine_banded_scores_batch",
    "affine_banded_align_batch",
    "check_affine_gaps",
]

_NEG = -1e30  # effectively -inf while staying finite for arithmetic
_PAD = 5  # pads a chunk past a pair's own end; encode() emits only 0-4

_Pairs = Sequence[tuple[str | np.ndarray, str | np.ndarray]]


@dataclass(frozen=True)
class Alignment:
    """An explicit alignment: score plus aligned index pairs.

    ``pairs`` lists (i, j) positions aligned to each other; positions
    absent from the list are aligned to gaps.  ``start``/``end`` bound
    the aligned window in each sequence (useful for local alignments).
    """

    score: float
    pairs: tuple[tuple[int, int], ...]
    a_interval: tuple[int, int]
    b_interval: tuple[int, int]

    def identity(self, a: str, b: str) -> float:
        """Fraction of aligned pairs that are exact character matches."""
        if not self.pairs:
            return 0.0
        hits = sum(1 for i, j in self.pairs if a[i].upper() == b[j].upper())
        return hits / len(self.pairs)


def _pair_matrix(a: str, b: str, model: SubstitutionModel) -> np.ndarray:
    return model.pair_matrix(encode(a), encode(b))


def _as_codes(seq: str | np.ndarray) -> np.ndarray:
    return seq if isinstance(seq, np.ndarray) else encode(seq)


def _padded(table: np.ndarray) -> np.ndarray:
    """A 5 x 5 substitution table grown by the :data:`_PAD` row and
    column, both ``_NEG``: a diagonal move into padding never wins."""
    return np.pad(table, (0, 1), constant_values=_NEG)


class _Ends:
    """Each pair's frontier rows, saved as a padded sweep passes its own
    last row nₖ (``nk`` ``None``: the final rows are every pair's)."""

    def __init__(self, nk: np.ndarray | None, B: int, M: int, count: int) -> None:
        self.stops = {} if nk is None else {int(r): np.flatnonzero(nk == r) for r in np.unique(nk)}
        self.rows = [np.empty((B, M)) for _ in range(count if self.stops else 0)]

    def save(self, i: int, *rows: np.ndarray) -> np.ndarray | None:
        """Keep the pairs whose last row is ``i``; returns their indices."""
        ks = self.stops.get(i)
        if ks is not None:
            for out, row in zip(self.rows, rows):
                out[ks] = row[ks]
        return ks

    def result(self, *final: np.ndarray) -> list[np.ndarray]:
        return self.rows if self.stops else list(final)


def _column_cap(mk: np.ndarray, M: int) -> np.ndarray:
    """(B, M) ``+inf`` over each pair's columns 0..mₖ, ``-inf`` past them:
    ``np.minimum`` with it keeps a pair's cells and no padded one wins."""
    return np.where(np.arange(M) <= mk[:, None], np.inf, -np.inf)


def _first_best(hrow: np.ndarray, mk: np.ndarray | None) -> np.ndarray:
    """Each row's first maximum over its pair's columns 0..mₖ.  Padding is
    masked, as it can outscore them: under a positive linear gap, or by
    affine X/Y zig-zags paying 2 × open a row where a gap pays one extend."""
    if mk is not None:
        np.minimum(hrow, _column_cap(mk, hrow.shape[1]), out=hrow)
    return np.argmax(hrow, axis=1)


def _check_band(n, m, band) -> int:
    """Validate ``band`` once, up front, for one pair's or a batch's lengths."""
    if not isinstance(band, (int, np.integer)) or isinstance(band, bool):
        raise ValueError(f"band must be an integer, got {band!r}")
    if band < 0:
        raise ValueError("band must be non-negative")
    if band < np.max(np.abs(np.subtract(n, m))):
        raise ValueError("band too narrow to connect the corners")
    return int(band)


class _Frontier:
    """Three rotating (B, M) row buffers: ``prev`` (last finished row),
    ``cur`` (this row before left-extension) and ``acc`` (this row
    after)."""

    __slots__ = ("prev", "cur", "acc")

    def __init__(self, B: int, M: int) -> None:
        self.prev = np.full((B, M), -np.inf)
        self.cur = np.full((B, M), -np.inf)
        self.acc = np.full((B, M), -np.inf)

    def prefix_max(self) -> None:
        """``acc`` <- running maxima of ``cur`` along each row."""
        np.maximum.accumulate(self.cur, axis=1, out=self.acc)

    def advance(self) -> None:
        """The accumulated row becomes ``prev``; old ``prev`` is scratch."""
        self.prev, self.acc = self.acc, self.prev


# ---------------------------------------------------------------------------
# Direction codes and the table-free walk.
#
# bit0 (value 1): the up-move strictly beat the diagonal.
# bit1 (value 2): the left-extension strictly beat both.
# bit2 (value 4): local only — the cell was clamped to 0 (stop).
#
# Checking high bits first on the walk reproduces the tie order
# diagonal > up > left (> stop overrides all, matching the scalar
# local walk's ``H > 0`` guard).
# ---------------------------------------------------------------------------


def _walk(
    db: bytes, width: int, i: int, j: int, band: int | None = None
) -> tuple[list[tuple[int, int]], int, int]:
    """Walk linear direction codes from (i, j) toward the origin;
    returns (pairs in forward order, stop_i, stop_j).

    ``db`` is the row-major bytes of one pair's code matrix: (n, m)
    cell-indexed with ``width == m``, or — when ``band`` is given —
    the (n, 2*band+1) diagonal-offset layout, where a cell (i, j)
    lives at offset ``j - i + band``.  The walk ends at the first
    row/column (remaining moves are forced gaps) or at a local stop
    code.
    """
    rev: list[tuple[int, int]] = []
    while i > 0 and j > 0:
        col = (j - 1) if band is None else (j - i + band)
        c = db[(i - 1) * width + col]
        if c >= 4:
            break
        if c >= 2:
            j -= 1
        elif c == 1:
            i -= 1
        else:
            rev.append((i - 1, j - 1))
            i -= 1
            j -= 1
    rev.reverse()
    return rev, i, j


def _pair_bytes(D: np.ndarray, k: int) -> bytes:
    """Row-major bytes of pair ``k``'s code matrix from the (n, B, m)
    direction tensor (one strided copy; bytes indexing is the fastest
    per-step read Python offers)."""
    return D[:, k, :].tobytes()


# ---------------------------------------------------------------------------
# Linear-gap global, overlap and local kernels.
#
# f-space: F[j] = H[i][j] - g*j - i*g.  Then
#   diag  H[i-1][j-1] + W  ->  F_prev[j-1] + (W - 2g)
#   up    H[i-1][j] + g    ->  F_prev[j]            (free: a view)
#   left  H[i][j-1] + g    ->  F_cur[j-1]           (unweighted prefix max)
#   H[i][0] = i*g          ->  F[0] = 0             (global)
#   H[i][0] = 0            ->  F[0] = -i*g          (overlap: free start in a)
#   row 0 (H = g*j)        ->  F = 0 everywhere     (global, overlap)
#
# Local clamps at 0: the clamp becomes one against the per-row vector
# cv[j] = -g*j - i*g (the F-value of a zero cell; row 0 is F = -g*j),
# and the running best needs one subtract per row to read the H values
# back out.
# ---------------------------------------------------------------------------


def _sweep_linear(
    A: np.ndarray,
    Bm: np.ndarray,
    model: SubstitutionModel,
    mode: str,
    D: np.ndarray | None = None,
    F0: np.ndarray | None = None,
    i0: int = 0,
    nk: np.ndarray | None = None,
    mk: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forward linear-gap sweep for ``mode`` in global/overlap/local.

    Returns (last, best, best_i, best_j): ``last`` is each pair's
    f-space row at its own last row (``nk``/``mk``: the pairs' lengths
    in a padded chunk).  In local mode ``best*`` are each pair's best
    cell of its own (earliest row, then earliest column on ties, as
    ``np.argmax`` over its table; ``best_i`` counts rows within this
    sweep); in the other modes they are zeros.  Emits direction codes
    into ``D`` ((n, B, m) uint8) when given.

    ``F0`` is an optional initial frontier (f-space, shape (B, m+1)) —
    the checkpoint row a linear-memory walk restarts from; ``i0`` is
    that row's absolute index (the overlap boundary and the local
    zero-cell clamp depend on it).  Defaults reproduce a sweep from
    row 0.
    """
    g = model.gap
    B, n = A.shape
    m = Bm.shape[1]
    M = m + 1
    local = mode == "local"
    overlap = mode == "overlap"
    P2 = _padded(model.matrix - 2.0 * g)[:, Bm]  # per-code diag rows, pre-shifted
    bidx = np.arange(B)
    negjs = -g * np.arange(M)
    fr = _Frontier(B, M)
    if F0 is not None:
        fr.prev[:] = F0
    else:
        fr.prev[:] = negjs if local else 0.0
    t1 = np.empty((B, m))
    cv = np.empty(M)
    hrow = np.empty((B, M))
    best = np.zeros(B)
    bi = np.zeros(B, dtype=np.int64)
    bj = np.zeros(B, dtype=np.int64)
    ends = _Ends(nk, B, M, 1)
    cap = _column_cap(mk, M) if local and mk is not None else None
    if D is not None:
        up = np.empty((B, m), dtype=bool)
        left = np.empty((B, m), dtype=bool)
        stop = np.empty((B, m), dtype=bool)
        tmp8 = np.empty((B, m), dtype=np.uint8)
    for i in range(1, n + 1):
        prev, cur = fr.prev, fr.cur
        np.add(prev[:, :m], P2[A[:, i - 1], bidx], out=t1)
        up_from = prev[:, 1:]
        if D is not None:
            np.greater(up_from, t1, out=up)
        if local:
            np.add(negjs, -g * (i0 + i), out=cv)  # F-value of a zero cell, this row
            cur[:, 0] = cv[0]
        else:
            cur[:, 0] = -(i0 + i) * g if overlap else 0.0
        np.maximum(t1, up_from, out=cur[:, 1:])
        if local:
            np.maximum(cur, cv, out=cur)  # the 0-clamp
        fr.prefix_max()
        acc = fr.acc
        if local:
            # H never drops below its own clamped V, so no second clamp;
            # read the H row back out for the running best.
            np.subtract(acc, cv, out=hrow)
            if cap is not None:
                np.minimum(hrow, cap, out=hrow)
            rowmax = hrow.max(axis=1)
            better = rowmax > best
            if better.any():
                best[better] = rowmax[better]
                bi[better] = i
                bj[better] = np.argmax(hrow[better], axis=1)
        if D is not None:
            np.greater(acc[:, 1:], cur[:, 1:], out=left)
            np.multiply(left.view(np.uint8), 2, out=tmp8)
            np.add(tmp8, up.view(np.uint8), out=D[i - 1])
            if local:
                np.equal(acc[:, 1:], cv[1:], out=stop)  # H == 0: clamp won
                np.multiply(stop.view(np.uint8), 4, out=tmp8)
                np.add(D[i - 1], tmp8, out=D[i - 1])
        ks = ends.save(i, acc)
        if ks is not None and cap is not None:
            cap[ks] = -np.inf  # the rows past nₖ are padding
        fr.advance()
    return ends.result(fr.prev)[0], best, bi, bj


def global_score_reference(a: str, b: str, model: SubstitutionModel | None = None) -> float:
    """Scalar Needleman–Wunsch, the oracle for the vectorized kernels."""
    model = model or unit_dna()
    W = _pair_matrix(a, b, model)
    g = model.gap
    n, m = len(a), len(b)
    prev = [j * g for j in range(m + 1)]
    for i in range(1, n + 1):
        cur = [i * g] + [0.0] * m
        for j in range(1, m + 1):
            cur[j] = max(
                prev[j - 1] + W[i - 1, j - 1],
                prev[j] + g,
                cur[j - 1] + g,
            )
        prev = cur
    return float(prev[m])


def overlap_score_reference(
    a: str, b: str, model: SubstitutionModel | None = None
) -> float:
    """Scalar per-cell overlap DP score, the oracle for the kernels."""
    model = model or unit_dna()
    W = _pair_matrix(a, b, model)
    g = model.gap
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return 0.0
    prev = [j * g for j in range(m + 1)]
    for i in range(1, n + 1):
        cur = [0.0] * (m + 1)
        for j in range(1, m + 1):
            cur[j] = max(
                prev[j - 1] + W[i - 1, j - 1],
                prev[j] + g,
                cur[j - 1] + g,
            )
        prev = cur
    return float(max(prev))


def local_score_reference(a: str, b: str, model: SubstitutionModel | None = None) -> float:
    """Scalar Smith–Waterman, the oracle for the vectorized kernels."""
    model = model or unit_dna()
    W = _pair_matrix(a, b, model)
    g = model.gap
    n, m = len(a), len(b)
    prev = [0.0] * (m + 1)
    best = 0.0
    for i in range(1, n + 1):
        cur = [0.0] * (m + 1)
        for j in range(1, m + 1):
            cur[j] = max(
                0.0,
                prev[j - 1] + W[i - 1, j - 1],
                prev[j] + g,
                cur[j - 1] + g,
            )
            if cur[j] > best:
                best = cur[j]
        prev = cur
    return best


# ---------------------------------------------------------------------------
# Banded global kernels (diagonal-offset layout).
#
# Column k of the banded frontier is the diagonal j - i + band, so a
# row sweep in this layout *is* the per-diagonal formulation: the
# diagonal move stays in-place (same k), up shifts by one (k+1, with a
# -inf sentinel column at k = w), and the left-extension is again an
# unweighted prefix max along k after the shift
# F_i[k] = H[i][i-band+k] - g*k - 2*i*g.  The j = 0 boundary becomes
# the constant -g*band, as does row 0.
# ---------------------------------------------------------------------------


def _sweep_banded(
    A: np.ndarray,
    Bm: np.ndarray,
    band: int,
    model: SubstitutionModel,
    D: np.ndarray | None = None,
    nk: np.ndarray | None = None,
) -> np.ndarray:
    """Forward banded sweep; returns each pair's f-space row at its own
    last row (``nk`` in a padded chunk)."""
    g = model.gap
    B, n = A.shape
    m = Bm.shape[1]
    w = 2 * band + 1
    M = w + 1  # slot w is the -inf sentinel feeding the up-shift
    P2m = _padded(model.matrix - 2.0 * g)
    ks = np.arange(w)
    boundary = -g * band
    fr = _Frontier(B, M)
    init = np.full(w, -np.inf)
    valid0 = (ks >= band) & (ks - band <= m)
    init[valid0] = boundary  # row 0: H = g*j  ->  F = -g*band
    fr.prev[:, :w] = init
    fr.prev[:, w] = -np.inf
    # Pre-gather every row's diagonal substitution scores when the
    # tensor is small (it always is for narrow bands); out-of-matrix
    # positions are clip artifacts and get masked below anyway.
    jm1_all = np.clip(np.arange(n)[:, None] - band + ks, 0, max(m - 1, 0))
    W_all = None
    if B * n * w * 8 <= (64 << 20):
        W_all = P2m[A[:, :, None], Bm[:, jm1_all]]  # (B, n, w)
    t1 = np.empty((B, w))
    ends = _Ends(nk, B, M, 1)
    if D is not None:
        up = np.empty((B, w), dtype=bool)
        left = np.empty((B, w), dtype=bool)
        tmp8 = np.empty((B, w), dtype=np.uint8)
    for i in range(1, n + 1):
        prev, cur = fr.prev, fr.cur
        if W_all is not None:
            Wk = W_all[:, i - 1]
        else:
            Wk = P2m[A[:, i - 1][:, None], Bm[:, jm1_all[i - 1]]]
        np.add(prev[:, :w], Wk, out=t1)
        up_from = prev[:, 1 : w + 1]
        if D is not None:
            np.greater(up_from, t1, out=up)
        np.maximum(t1, up_from, out=cur[:, :w])
        # Mask cells outside the matrix; plant the j == 0 boundary.
        klo = band - i + 1  # first k with j >= 1
        if klo > 0:
            cur[:, : min(klo, w)] = -np.inf
            if klo - 1 < w:
                cur[:, klo - 1] = boundary
        khi = m - i + band  # last k with j <= m
        if khi < w - 1:
            cur[:, max(khi + 1, 0) : w] = -np.inf
        cur[:, w] = -np.inf
        fr.prefix_max()
        if D is not None:
            np.greater(fr.acc[:, :w], cur[:, :w], out=left)
            np.multiply(left.view(np.uint8), 2, out=tmp8)
            np.add(tmp8, up.view(np.uint8), out=D[i - 1])
        ends.save(i, fr.acc)
        fr.advance()
        fr.prev[:, w] = -np.inf  # re-pin the sentinel after rotation
    return ends.result(fr.prev)[0]


def _sweep_banded_single(
    ac: np.ndarray,
    bc: np.ndarray,
    band: int,
    model: SubstitutionModel,
    D: np.ndarray | None = None,
) -> np.ndarray:
    """Dispatch-trimmed single-pair banded sweep; returns the final
    f-space frontier (length w).

    The batched banded kernel is dispatch-bound at batch 1 (~6 NumPy
    calls per DP row over a narrow band).  This path cuts the interior
    to 3 calls per row on 1-D buffers: the whole band's substitution
    scores are pre-gathered in one fancy-index gather, boundary
    masking runs only over the <= 2*band edge rows (interior rows need
    none), the rotating frontier views are pre-built per parity, and
    the up-shift sentinel is written once instead of re-pinned per
    row.  ~2-2.5x the batch kernel at batch 1 on the reference host
    (measured against the anti-diagonal front sweep and a skewed
    multi-row fixpoint sweep, which both lose — see ROADMAP).
    Direction codes (``D``: (n, w) uint8) match the batch kernel's.
    """
    g = model.gap
    n, m = len(ac), len(bc)
    w = 2 * band + 1
    P2m = model.matrix - 2.0 * g
    ks = np.arange(w)
    boundary = -g * band
    jm1_all = np.clip(np.arange(n)[:, None] - band + ks, 0, max(m - 1, 0))
    W_all = P2m[ac[:, None], bc[jm1_all]]  # (n, w), one gather
    bufs = (np.full(w + 1, -np.inf), np.full(w + 1, -np.inf))
    acc = np.empty(w) if D is not None else None
    t1 = np.empty(w)
    valid0 = (ks >= band) & (ks - band <= m)
    bufs[0][:w][valid0] = boundary
    # Pre-built rotating views: (row 0..w-1, up-shifted 1..w).
    views = ((bufs[0][:w], bufs[0][1 : w + 1]), (bufs[1][:w], bufs[1][1 : w + 1]))
    add, maximum, accum = np.add, np.maximum, np.maximum.accumulate
    if D is not None:
        up = np.empty(w, dtype=bool)
        left = np.empty(w, dtype=bool)
        tmp8 = np.empty(w, dtype=np.uint8)
    lo_int = min(band + 1, n + 1)  # rows below this mask at k's low end
    hi_int = min(n, m - band)  # rows above this mask at k's high end
    p = 0

    def row(i: int, interior: bool) -> None:
        (pw, pu), (cw, _) = views[p], views[1 - p]
        add(pw, W_all[i - 1], out=t1)
        if D is not None:
            np.greater(pu, t1, out=up)
        maximum(t1, pu, out=cw)
        if not interior:
            klo = band - i + 1
            if klo > 0:
                cw[: min(klo, w)] = -np.inf
                if klo - 1 < w:
                    cw[klo - 1] = boundary
            khi = m - i + band
            if khi < w - 1:
                cw[max(khi + 1, 0) : w] = -np.inf
        if D is None:
            accum(cw, out=cw)
        else:
            accum(cw, out=acc)
            np.greater(acc, cw, out=left)
            np.multiply(left.view(np.uint8), 2, out=tmp8)
            np.add(tmp8, up.view(np.uint8), out=D[i - 1])
            cw[:] = acc

    for i in range(1, lo_int):
        row(i, False)
        p = 1 - p
    for i in range(lo_int, hi_int + 1):
        row(i, True)
        p = 1 - p
    for i in range(max(lo_int, hi_int + 1), n + 1):
        row(i, False)
        p = 1 - p
    return views[p][0]


#: Pre-gathering the whole band's substitution tensor caps the single-
#: pair fast path; bigger sweeps take the batch kernel at B = 1.
_BANDED_SINGLE_MAX_BYTES = 64 << 20


def banded_global_score_reference(
    a: str, b: str, band: int, model: SubstitutionModel | None = None
) -> float:
    """Per-cell dict-based banded DP, the oracle for the kernels."""
    model = model or unit_dna()
    n, m = len(a), len(b)
    band = _check_band(n, m, band)
    W = _pair_matrix(a, b, model)
    g = model.gap
    prev = {j: j * g for j in range(0, min(m, band) + 1)}
    for i in range(1, n + 1):
        lo = max(0, i - band)
        hi = min(m, i + band)
        cur: dict[int, float] = {}
        for j in range(lo, hi + 1):
            best = _NEG
            if j == 0:
                best = i * g
            if j - 1 in prev:
                best = max(best, prev[j - 1] + W[i - 1, j - 1])
            if j in prev:
                best = max(best, prev[j] + g)
            if j - 1 in cur:
                best = max(best, cur[j - 1] + g)
            cur[j] = best
        prev = cur
    return float(prev[m])


# ---------------------------------------------------------------------------
# Affine-gap (Gotoh) kernels.
#
# Three frontiers per row: M (last move was a match/mismatch), X (gap
# in b — consuming a, the "up" gap) and Y (gap in a — consuming b, the
# "left" gap).  A k-long gap costs gap_open + (k-1)*gap_extend; a
# direct X<->Y switch pays gap_open again (the convention of the
# scalar Gotoh oracle in fragalign.align.affine).
#
#   M[i,j] = max(M, X, Y)[i-1, j-1] + W(i, j)
#   X[i,j] = max(max(M, Y)[i-1, j] + open,  X[i-1, j] + extend)
#   Y[i,j] = max(max(M, X)[i, j-1] + open,  Y[i, j-1] + extend)
#
# The Y in-row dependency collapses to a prefix maximum of
# ``max(M, X)[j'] + open - extend*(j'+1)`` (add ``extend*j`` back per
# column) — the affine twin of the linear kernel's f-space trick — so
# a row costs a fixed number of whole-batch NumPy ops.  Everything is
# exact on integer-valued models.
#
# Direction codes, one packed uint8 per cell:
#   bits 0-1: M's diagonal source state (0=M, 1=X, 2=Y); ties M > X > Y
#   bit 2 (4):  X extended (from X above); unset = opened
#   bit 3 (8):  X opened from Y (read when bit2 unset); unset = from M
#   bit 4 (16): Y extended (from Y on the left); unset = opened
#   bit 5 (32): Y opened from X (read when bit4 unset); unset = from M
#   bit 6 (64): local only — M was clamped to 0 (stop)
# All "beats" are strict, so the walk reproduces the tie orders above.
# ---------------------------------------------------------------------------


class _AffineRows:
    """The three rotating (B, m+1) frontiers plus per-row scratch."""

    __slots__ = ("Mp", "Xp", "Yp", "Mc", "Xc", "Yc", "bp", "osrc", "run", "t")

    def __init__(self, B: int, M: int) -> None:
        self.Mp = np.full((B, M), -np.inf)
        self.Xp = np.full((B, M), -np.inf)
        self.Yp = np.full((B, M), -np.inf)
        self.Mc = np.full((B, M), -np.inf)
        self.Xc = np.full((B, M), -np.inf)
        self.Yc = np.full((B, M), -np.inf)
        self.bp = np.empty((B, M))
        self.osrc = np.empty((B, M))
        self.run = np.empty((B, M))
        self.t = np.empty((B, M))

    def advance(self) -> None:
        self.Mp, self.Mc = self.Mc, self.Mp
        self.Xp, self.Xc = self.Xc, self.Xp
        self.Yp, self.Yc = self.Yc, self.Yp


def _sweep_affine(
    A: np.ndarray,
    Bm: np.ndarray,
    model: SubstitutionModel,
    open_: float,
    ext: float,
    mode: str,
    D: np.ndarray | None = None,
    nk: np.ndarray | None = None,
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Forward Gotoh sweep for ``mode`` in global/overlap/local.

    Returns (last, best, best_i, best_j): ``last`` is each pair's
    [M, X, Y] rows at its own last row (``nk`` in a padded chunk, else
    the chunk's last row).  ``best*`` track the running best M cell
    (used by local; a padded M cell clamps to 0, which never beats it).
    Emits packed direction codes into ``D`` ((n, B, m) uint8) when given.
    """
    B, n = A.shape
    m = Bm.shape[1]
    M = m + 1
    P = _padded(model.matrix)[:, Bm]  # per-code substitution rows, (6, B, m)
    bidx = np.arange(B)
    js = np.arange(M)
    extjs = ext * js
    src_shift = open_ - ext * (js + 1.0)
    r = _AffineRows(B, M)
    local = mode == "local"
    overlap = mode == "overlap"
    # Row 0: M[0][0] = 0 (local: the whole row restarts at 0);
    # leading gaps in b live in Y unless local.
    if local:
        r.Mp[:, :] = 0.0
    else:
        r.Mp[:, 0] = 0.0
        if m:
            r.Yp[:, 1:] = open_ + (js[1:] - 1) * ext
    best = np.zeros(B)
    bi = np.zeros(B, dtype=np.int64)
    bj = np.zeros(B, dtype=np.int64)
    ends = _Ends(nk, B, M, 3)
    if D is not None:
        e_x = np.empty((B, m), dtype=bool)
        e_y = np.empty((B, m), dtype=bool)
        b1 = np.empty((B, m), dtype=bool)
        u8a = np.empty((B, m), dtype=np.uint8)
        u8b = np.empty((B, m), dtype=np.uint8)
    for i in range(1, n + 1):
        Mp, Xp, Yp = r.Mp, r.Xp, r.Yp
        Mc, Xc, Yc = r.Mc, r.Xc, r.Yc
        # M: best previous state, one diagonal step back.
        np.maximum(Mp, Xp, out=r.bp)
        if D is not None:
            # bits 0-1: M's diag source (ties M > X > Y), from columns
            # 0..m-1 of the previous row.
            np.greater(Xp[:, :m], Mp[:, :m], out=e_x)
            np.greater(Yp[:, :m], r.bp[:, :m], out=e_y)
            np.multiply(e_y.view(np.uint8), 2, out=u8a)
            np.logical_and(e_x, ~e_y, out=b1)
            np.add(u8a, b1.view(np.uint8), out=u8a)  # u8a = msrc
        np.maximum(r.bp, Yp, out=r.bp)
        np.add(r.bp[:, :m], P[A[:, i - 1], bidx], out=Mc[:, 1:])
        Mc[:, 0] = 0.0 if (local or overlap) else -np.inf
        if local:
            if D is not None:
                # bit 6: the clamp won (cell value 0) — stop.
                np.less_equal(Mc[:, 1:], 0.0, out=b1)
                np.multiply(b1.view(np.uint8), 64, out=u8b)
                np.add(u8a, u8b, out=u8a)
            np.maximum(Mc, 0.0, out=Mc)
        # X: open from M/Y above, or extend the running gap.
        np.maximum(Mp, Yp, out=r.osrc)
        if D is not None:
            np.greater(Yp[:, 1:], Mp[:, 1:], out=b1)  # bit 3
            np.multiply(b1.view(np.uint8), 8, out=u8b)
            np.add(u8a, u8b, out=u8a)
        np.add(r.osrc, open_, out=r.osrc)
        np.add(Xp, ext, out=r.t)
        if D is not None:
            np.greater(r.t[:, 1:], r.osrc[:, 1:], out=b1)  # bit 2
            np.multiply(b1.view(np.uint8), 4, out=u8b)
            np.add(u8a, u8b, out=u8a)
        np.maximum(r.osrc, r.t, out=Xc)
        Xc[:, 0] = -np.inf if (local or overlap) else open_ + (i - 1) * ext
        # Y: prefix max over max(M, X)[j'] + open - ext*(j'+1).
        np.maximum(Mc, Xc, out=r.osrc)
        if D is not None:
            np.greater(Xc[:, :m], Mc[:, :m], out=b1)  # bit 5
            np.multiply(b1.view(np.uint8), 32, out=u8b)
            np.add(u8a, u8b, out=u8a)
        np.add(r.osrc, src_shift, out=r.t)
        r.run[:, 0] = -np.inf
        np.maximum.accumulate(r.t[:, :m], axis=1, out=r.run[:, 1:])
        np.add(r.run, extjs, out=Yc)
        Yc[:, 0] = -np.inf
        if D is not None:
            # bit 4: Y extended — the gap ran past the previous column.
            np.add(Yc[:, :m], ext, out=r.t[:, :m])
            np.add(r.osrc[:, :m], open_, out=r.run[:, :m])
            np.greater(r.t[:, :m], r.run[:, :m], out=b1)
            np.multiply(b1.view(np.uint8), 16, out=u8b)
            np.add(u8a, u8b, out=D[i - 1])
        if local:
            rowmax = Mc.max(axis=1)
            better = rowmax > best
            if better.any():
                best[better] = rowmax[better]
                bi[better] = i
                bj[better] = np.argmax(Mc[better], axis=1)
        ends.save(i, Mc, Xc, Yc)
        r.advance()
    return ends.result(r.Mp, r.Xp, r.Yp), best, bi, bj


def _walk_affine(
    db: bytes, width: int, i: int, j: int, state: int, band: int | None = None
) -> tuple[list[tuple[int, int]], int, int]:
    """Walk affine direction codes from (i, j) in ``state`` toward the
    origin; returns (pairs in forward order, stop_i, stop_j).

    ``db`` is the row-major bytes of one pair's code matrix, laid out
    as for :func:`_walk`.  The walk ends at the first row/column or at
    a local stop code.
    """
    rev: list[tuple[int, int]] = []
    while i > 0 and j > 0:
        col = (j - 1) if band is None else (j - i + band)
        c = db[(i - 1) * width + col]
        if state == 0:
            if c >= 64:  # local stop: this cell's M is 0
                break
            rev.append((i - 1, j - 1))
            state = c & 3
            i -= 1
            j -= 1
        elif state == 1:
            state = 1 if c & 4 else (2 if c & 8 else 0)
            i -= 1
        else:
            state = 2 if c & 16 else (1 if c & 32 else 0)
            j -= 1
    rev.reverse()
    return rev, i, j


# ---------------------------------------------------------------------------
# Banded affine kernels (diagonal-offset layout, three frontiers).
#
# Same layout as the linear banded sweep (column k is the diagonal
# j - i + band), but with plain H values and -inf masking instead of
# the f-space shift: the diagonal move stays in-place (same k), the X
# gap reads k+1 from the previous row (sentinel column at k = w), and
# the Y in-row dependency is the same prefix maximum as the unbanded
# affine kernel, along k.
# ---------------------------------------------------------------------------


def _sweep_affine_banded(
    A: np.ndarray,
    Bm: np.ndarray,
    band: int,
    model: SubstitutionModel,
    open_: float,
    ext: float,
    D: np.ndarray | None = None,
    nk: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Forward banded Gotoh sweep; returns each pair's [M, X, Y] rows
    at its own last row (``nk`` in a padded chunk)."""
    B, n = A.shape
    m = Bm.shape[1]
    w = 2 * band + 1
    M = w + 1  # slot w is the -inf sentinel feeding the X up-shift
    ks = np.arange(M)
    extks = ext * ks
    src_shift = open_ - ext * (ks + 1.0)
    # Pre-gather every row's diagonal substitution scores (masked
    # positions are clip artifacts; they are -inf'd below anyway).
    jm1_all = np.clip(np.arange(n)[:, None] - band + ks[:w], 0, max(m - 1, 0))
    W_all = None
    Pm = _padded(model.matrix)
    if B * n * w * 8 <= (64 << 20):
        W_all = Pm[A[:, :, None], Bm[:, jm1_all]]  # (B, n, w)
    r = _AffineRows(B, M)
    ends = _Ends(nk, B, M, 3)
    # Row 0: j = k - band in [0, m]; M[0][0] = 0, Y[0][j] carries the
    # leading gap in b.
    j0s = ks[:w] - band
    valid0 = (j0s >= 0) & (j0s <= m)
    r.Mp[:, :w][:, valid0 & (j0s == 0)] = 0.0
    ypos = valid0 & (j0s >= 1)
    if ypos.any():
        r.Yp[:, :w][:, ypos] = open_ + (j0s[ypos] - 1) * ext
    if D is not None:
        e_x = np.empty((B, w), dtype=bool)
        e_y = np.empty((B, w), dtype=bool)
        b1 = np.empty((B, w), dtype=bool)
        u8a = np.empty((B, w), dtype=np.uint8)
        u8b = np.empty((B, w), dtype=np.uint8)
    for i in range(1, n + 1):
        Mp, Xp, Yp = r.Mp, r.Xp, r.Yp
        Mc, Xc, Yc = r.Mc, r.Xc, r.Yc
        if W_all is not None:
            Wk = W_all[:, i - 1]
        else:
            Wk = Pm[A[:, i - 1][:, None], Bm[:, jm1_all[i - 1]]]
        # M: diagonal move is in-place in this layout.
        np.maximum(Mp[:, :w], Xp[:, :w], out=r.bp[:, :w])
        if D is not None:
            np.greater(Xp[:, :w], Mp[:, :w], out=e_x)
            np.greater(Yp[:, :w], r.bp[:, :w], out=e_y)
            np.multiply(e_y.view(np.uint8), 2, out=u8a)
            np.logical_and(e_x, ~e_y, out=b1)
            np.add(u8a, b1.view(np.uint8), out=u8a)
        np.maximum(r.bp[:, :w], Yp[:, :w], out=r.bp[:, :w])
        np.add(r.bp[:, :w], Wk, out=Mc[:, :w])
        # X: open/extend from k+1 of the previous row.
        np.maximum(Mp[:, 1:M], Yp[:, 1:M], out=r.osrc[:, :w])
        if D is not None:
            np.greater(Yp[:, 1:M], Mp[:, 1:M], out=b1)  # bit 3
            np.multiply(b1.view(np.uint8), 8, out=u8b)
            np.add(u8a, u8b, out=u8a)
        np.add(r.osrc[:, :w], open_, out=r.osrc[:, :w])
        np.add(Xp[:, 1:M], ext, out=r.t[:, :w])
        if D is not None:
            np.greater(r.t[:, :w], r.osrc[:, :w], out=b1)  # bit 2
            np.multiply(b1.view(np.uint8), 4, out=u8b)
            np.add(u8a, u8b, out=u8a)
        np.maximum(r.osrc[:, :w], r.t[:, :w], out=Xc[:, :w])
        # Mask cells outside the matrix; plant the j == 0 boundary.
        klo = band - i + 1  # first k with j >= 1
        if klo > 0:
            Mc[:, : min(klo, w)] = -np.inf
            Xc[:, : min(klo, w)] = -np.inf
            if klo - 1 < w:
                Xc[:, klo - 1] = open_ + (i - 1) * ext
        khi = m - i + band  # last k with j <= m
        if khi < w - 1:
            Mc[:, max(khi + 1, 0) : w] = -np.inf
            Xc[:, max(khi + 1, 0) : w] = -np.inf
        Mc[:, w] = -np.inf
        Xc[:, w] = -np.inf
        # Y: in-row prefix max along k.  The in-row predecessor of cell
        # k is k-1, so the Y bits compare one slot to the left (the
        # unbanded kernel's column slices do this implicitly).
        np.maximum(Mc[:, :w], Xc[:, :w], out=r.osrc[:, :w])
        if D is not None:
            b1[:, 0] = False  # k = 0 has no in-row predecessor
            np.greater(Xc[:, : w - 1], Mc[:, : w - 1], out=b1[:, 1:w])  # bit 5
            np.multiply(b1.view(np.uint8), 32, out=u8b)
            np.add(u8a, u8b, out=u8a)
        np.add(r.osrc[:, :w], src_shift[:w], out=r.t[:, :w])
        r.run[:, 0] = -np.inf
        np.maximum.accumulate(r.t[:, : w - 1], axis=1, out=r.run[:, 1:w])
        np.add(r.run[:, :w], extks[:w], out=Yc[:, :w])
        Yc[:, 0] = -np.inf
        if khi < w - 1:
            Yc[:, max(khi + 1, 0) : w] = -np.inf
        if klo > 0:
            Yc[:, : min(klo, w)] = -np.inf
        Yc[:, w] = -np.inf
        if D is not None:
            np.add(Yc[:, : w - 1], ext, out=r.t[:, : w - 1])
            np.add(r.osrc[:, : w - 1], open_, out=r.run[:, : w - 1])
            b1[:, 0] = False
            np.greater(r.t[:, : w - 1], r.run[:, : w - 1], out=b1[:, 1:w])  # bit 4
            np.multiply(b1.view(np.uint8), 16, out=u8b)
            np.add(u8a, u8b, out=D[i - 1])
        ends.save(i, Mc, Xc, Yc)
        r.advance()
    return ends.result(r.Mp, r.Xp, r.Yp)


def _sweep_affine_banded_single(
    ac: np.ndarray,
    bc: np.ndarray,
    band: int,
    model: SubstitutionModel,
    open_: float,
    ext: float,
    D: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dispatch-trimmed single-pair banded Gotoh sweep; returns the
    final (M, X, Y) frontiers (each length w).

    Same trick as :func:`_sweep_banded_single`, applied to the affine
    kernel: at batch 1 the batched sweep is dispatch-bound (three
    frontiers x ~6 NumPy calls per DP row, each paying 2-D slicing
    overhead over a narrow band).  This path pre-gathers the whole
    band's substitution scores in one fancy-index gather, pre-builds
    the rotating frontier views per parity, writes the up-shift
    sentinels once at init instead of re-pinning per row, and masks
    band edges only over the <= 2*band boundary rows.  Direction codes
    (``D``: (n, w) uint8) are bit-for-bit the batch kernel's, so
    :func:`_walk_affine` reads either.
    """
    n, m = len(ac), len(bc)
    w = 2 * band + 1
    M = w + 1  # slot w is the -inf sentinel feeding the up-shifts
    ks = np.arange(w)
    extks = ext * ks
    src_shift = open_ - ext * (ks + 1.0)
    Pm = model.matrix
    jm1_all = np.clip(np.arange(n)[:, None] - band + ks, 0, max(m - 1, 0))
    W_all = Pm[ac[:, None], bc[jm1_all]]  # (n, w), one gather
    bufs = tuple(np.full(M, -np.inf) for _ in range(6))  # Mp Xp Yp Mc Xc Yc
    # Row 0: j = k - band in [0, m]; M[0][0] = 0, Y[0][j] carries the
    # leading gap in b (mirrors the batch kernel's init).
    j0s = ks - band
    valid0 = (j0s >= 0) & (j0s <= m)
    bufs[0][:w][valid0 & (j0s == 0)] = 0.0
    ypos = valid0 & (j0s >= 1)
    if ypos.any():
        bufs[2][:w][ypos] = open_ + (j0s[ypos] - 1) * ext
    # Pre-built rotating views per parity: (band slice 0..w-1,
    # up-shifted slice 1..w) for each of the three frontiers.
    views = tuple(
        tuple((buf[:w], buf[1:M]) for buf in trio)
        for trio in (bufs[:3], bufs[3:])
    )
    bp, t, run = np.empty(w), np.empty(w), np.empty(w)
    add, maximum, accum = np.add, np.maximum, np.maximum.accumulate
    if D is not None:
        e_x = np.empty(w, dtype=bool)
        e_y = np.empty(w, dtype=bool)
        b1 = np.empty(w, dtype=bool)
        u8a = np.empty(w, dtype=np.uint8)
        u8b = np.empty(w, dtype=np.uint8)
    lo_int = min(band + 1, n + 1)  # rows below this mask at k's low end
    hi_int = min(n, m - band)  # rows above this mask at k's high end
    p = 0

    def row(i: int, interior: bool) -> None:
        (Mw, Mu), (Xw, Xu), (Yw, Yu) = views[p]
        (Mcw, _), (Xcw, _), (Ycw, _) = views[1 - p]
        # M: diagonal move is in-place in this layout.
        maximum(Mw, Xw, out=bp)
        if D is not None:
            np.greater(Xw, Mw, out=e_x)
            np.greater(Yw, bp, out=e_y)
            np.multiply(e_y.view(np.uint8), 2, out=u8a)
            np.logical_and(e_x, ~e_y, out=b1)
            np.add(u8a, b1.view(np.uint8), out=u8a)
        maximum(bp, Yw, out=bp)
        add(bp, W_all[i - 1], out=Mcw)
        # X: open/extend from k+1 of the previous row.
        maximum(Mu, Yu, out=bp)
        if D is not None:
            np.greater(Yu, Mu, out=b1)  # bit 3
            np.multiply(b1.view(np.uint8), 8, out=u8b)
            np.add(u8a, u8b, out=u8a)
        add(bp, open_, out=bp)
        add(Xu, ext, out=t)
        if D is not None:
            np.greater(t, bp, out=b1)  # bit 2
            np.multiply(b1.view(np.uint8), 4, out=u8b)
            np.add(u8a, u8b, out=u8a)
        maximum(bp, t, out=Xcw)
        if not interior:
            # Mask cells outside the matrix; plant the j == 0 boundary.
            klo = band - i + 1
            if klo > 0:
                Mcw[: min(klo, w)] = -np.inf
                Xcw[: min(klo, w)] = -np.inf
                if klo - 1 < w:
                    Xcw[klo - 1] = open_ + (i - 1) * ext
            khi = m - i + band
            if khi < w - 1:
                Mcw[max(khi + 1, 0) : w] = -np.inf
                Xcw[max(khi + 1, 0) : w] = -np.inf
        # Y: in-row prefix max along k (predecessor is one slot left).
        maximum(Mcw, Xcw, out=bp)
        if D is not None:
            b1[0] = False  # k = 0 has no in-row predecessor
            np.greater(Xcw[: w - 1], Mcw[: w - 1], out=b1[1:w])  # bit 5
            np.multiply(b1.view(np.uint8), 32, out=u8b)
            np.add(u8a, u8b, out=u8a)
        add(bp, src_shift, out=t)
        run[0] = -np.inf
        accum(t[: w - 1], out=run[1:w])
        add(run, extks, out=Ycw)
        Ycw[0] = -np.inf
        if not interior:
            khi = m - i + band
            if khi < w - 1:
                Ycw[max(khi + 1, 0) : w] = -np.inf
            klo = band - i + 1
            if klo > 0:
                Ycw[: min(klo, w)] = -np.inf
        if D is not None:
            np.add(Ycw[: w - 1], ext, out=t[: w - 1])
            np.add(bp[: w - 1], open_, out=run[: w - 1])
            b1[0] = False
            np.greater(t[: w - 1], run[: w - 1], out=b1[1:w])  # bit 4
            np.multiply(b1.view(np.uint8), 16, out=u8b)
            np.add(u8a, u8b, out=D[i - 1])

    for i in range(1, lo_int):
        row(i, False)
        p = 1 - p
    for i in range(lo_int, hi_int + 1):
        row(i, True)
        p = 1 - p
    for i in range(max(lo_int, hi_int + 1), n + 1):
        row(i, False)
        p = 1 - p
    (Mw, _), (Xw, _), (Yw, _) = views[p]
    return Mw, Xw, Yw


# ---------------------------------------------------------------------------
# The driver: one chunk loop behind all sixteen batch kernels.
# ---------------------------------------------------------------------------


def _empty_side(
    n: int, m: int, mode: str, model: SubstitutionModel, gaps: tuple[float, float] | None
) -> tuple[float, tuple[int, int], tuple[int, int]]:
    """Score and intervals of a pair with an empty side (n == 0 or m == 0).

    Local and overlap alignments are empty and score 0.  Global and
    banded ones are one gap over the other side: ``(n + m) * gap``
    linear, ``open + (k - 1) * extend`` affine (0 when both are empty).
    """
    if mode == "local":
        return 0.0, (0, 0), (0, 0)
    if mode == "overlap":
        return 0.0, (n, n), (0, 0)
    if gaps is None:
        score = (n + m) * model.gap
    elif n == 0 and m == 0:
        score = 0.0
    else:
        score = gaps[0] + (max(n, m) - 1) * gaps[1]
    return score, (0, n), (0, m)


#: A chunk closes before a pair that would make it sweep more than
#: ``_PAD_RATIO`` times its pairs' own DP cells plus ``_ROW_CELLS`` a
#: row, about what a row's fixed NumPy calls cost in cells (0.7-2.2 k on
#: a 2-vCPU host): padding buys fewer sweeps, never a long pair's table
#: for many short ones.
_PAD_RATIO = 2
_ROW_CELLS = 2048


def _chunks(nk: np.ndarray, mk: np.ndarray, band: int | None, chunk: int) -> list:
    """(pair indices, rows, columns) of each chunk of at most ``chunk``
    pairs with two non-empty sides, taken in shape order."""
    live = np.flatnonzero((nk > 0) & (mk > 0))
    order = live[np.lexsort((mk[live], nk[live]))].tolist()
    rows, cols = nk.tolist(), (mk if band is None else np.full_like(mk, 2 * band + 1)).tolist()
    plan: list[list[int]] = [[]]
    n = c = own = 0
    for k in order:
        n, c, own = max(n, rows[k]), max(c, cols[k]), own + rows[k] * cols[k]
        size = len(plan[-1])
        if size and (size == chunk or (size + 1) * n * c > _PAD_RATIO * own + _ROW_CELLS * n):
            plan.append([])
            n, c, own = rows[k], cols[k], rows[k] * cols[k]
        plan[-1].append(k)
    return [(i, int(nk[i].max()), int(mk[i].max())) for i in map(np.array, plan) if i.size]


def _sweep_ends(
    A: np.ndarray,
    Bm: np.ndarray,
    model: SubstitutionModel,
    mode: str,
    band: int | None = None,
    gaps: tuple[float, float] | None = None,
    D: np.ndarray | None = None,
    nk: np.ndarray | None = None,
    mk: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sweep one chunk; returns each pair's (score, end_i, end_j, state).

    (end_i, end_j) is the cell the alignment ends in, where its walk
    starts: (nₖ, mₖ), the pairs' own lengths in a chunk padded with
    :data:`_PAD` (``None``: every pair fills the chunk), or a best
    cell of the pair's own.  ``state`` is the affine end state (0 = M,
    1 = X, 2 = Y, ties in that order); it is 0 for linear gaps and for
    local, whose best cell is an M cell.
    """
    B, n = A.shape
    m = Bm.shape[1]
    g = model.gap
    rows = np.arange(B)
    ei = np.full(B, n) if nk is None else nk
    ej = np.full(B, m) if mk is None else mk
    state = np.zeros(B, dtype=np.int64)
    if mode == "banded":
        col = ej - ei + band  # each end cell (nₖ, mₖ) in the diagonal layout
        # One pair sweeps dispatch-bound: take the trimmed single-pair
        # path (identical results, fewer NumPy calls).
        single = B == 1 and n * (2 * band + 1) * (8 + (D is not None)) <= _BANDED_SINGLE_MAX_BYTES
        D1 = None if D is None else D[:, 0]  # the single path's (n, w) codes
        if gaps is None:
            if single:
                F = _sweep_banded_single(A[0], Bm[0], band, model, D=D1)[None]
            else:
                F = _sweep_banded(A, Bm, band, model, D=D, nk=nk)
            return F[rows, col] + (g * col + 2.0 * g * ei), ei, ej, state
        if single:
            ends = [
                f[None]
                for f in _sweep_affine_banded_single(A[0], Bm[0], band, model, *gaps, D=D1)
            ]
        else:
            ends = _sweep_affine_banded(A, Bm, band, model, *gaps, D=D, nk=nk)
    elif gaps is None:
        F, best, bi, bj = _sweep_linear(A, Bm, model, mode, D=D, nk=nk, mk=mk)
        if mode == "local":
            return best, bi, bj, state
        if mode == "global":
            return F[rows, ej] + g * (ej + ei), ei, ej, state
        # Overlap: H[n][j] = F[j] + g*j + n*g; the free end in b takes
        # the first maximum.
        hrow = F + g * np.arange(m + 1)
        ej = _first_best(hrow, mk)
        return hrow[rows, ej] + ei * g, ei, ej, state
    else:
        ends, best, bi, bj = _sweep_affine(A, Bm, model, *gaps, mode, D=D, nk=nk)
        if mode == "local":
            return best, bi, bj, state
        if mode == "overlap":
            ej = _first_best(np.maximum(np.maximum(ends[0], ends[1]), ends[2]), mk)
        col = ej
    mv, xv, yv = (f[rows, col] for f in ends)
    score = np.maximum(np.maximum(mv, xv), yv)
    state = np.where(mv == score, 0, np.where(xv == score, 1, 2))
    return score, ei, ej, state


def _batch(
    kind: str,
    pairs: _Pairs,
    model: SubstitutionModel | None,
    mode: str,
    band: int | None = None,
    gaps: tuple[float, float] | None = None,
    chunk: int = 64,
    linear: Callable[[int], bool] | None = None,
) -> np.ndarray | list[Alignment]:
    """The one driver behind every batch kernel.

    ``kind`` is ``"score"`` (returns an array of scores) or ``"align"``
    (a list of :class:`Alignment`); ``mode`` is global, local, overlap
    or banded (``band`` is read in banded mode only); ``gaps`` is
    ``(gap_open, gap_extend)`` for affine (Gotoh) costs, ``None`` for
    the model's linear gap.  Pairs may have any shapes: they sweep in
    the chunks :func:`_chunks` plans, at most ``chunk`` pairs each
    (the working set), each padded to its longest pair into buffers
    allocated once per call.  ``linear`` (align only) says whether a
    chunk of that many padded cells walks in linear memory instead.
    """
    model = model or unit_dna()
    if gaps is not None:
        gaps = check_affine_gaps(*gaps)
    align = kind == "align"
    if not pairs:
        return [] if align else np.zeros(0)
    codes = [(_as_codes(a), _as_codes(b)) for a, b in pairs]
    nk = np.array([len(a) for a, _ in codes], dtype=np.int64)
    mk = np.array([len(b) for _, b in codes], dtype=np.int64)
    band = _check_band(nk, mk, band) if mode == "banded" else None
    scores = np.empty(len(codes))
    alns: list = [None] * len(codes)
    for k in np.flatnonzero((nk == 0) | (mk == 0)):
        score, a_iv, b_iv = _empty_side(int(nk[k]), int(mk[k]), mode, model, gaps)
        scores[k] = score
        alns[k] = Alignment(score, (), a_iv, b_iv)
    plan = _chunks(nk, mk, band, chunk)
    if align and linear is not None:
        from fragalign.align.hirschberg import linear_align  # it imports this module

        walks = [linear(idx.size * n * m) for idx, n, m in plan]
        for k in (k for (idx, _, _), walk in zip(plan, walks) if walk for k in idx):
            alns[k] = linear_align(*codes[k], model, mode=mode)
        plan = [c for c, walk in zip(plan, walks) if not walk]
    bw = None if band is None else 2 * band + 1  # a banded row's width
    if plan:
        Abuf = np.empty(max(idx.size * n for idx, n, _ in plan), dtype=np.uint8)
        Bbuf = np.empty(max(idx.size * m for idx, _, m in plan), dtype=np.uint8)
        cells = max(idx.size * n * (bw or m) for idx, n, m in plan)
        Dbuf = np.empty(cells, dtype=np.uint8) if align else None
    for idx, n, m in plan:
        B, width = idx.size, bw or m
        A = Abuf[: B * n].reshape(B, n)
        Bm = Bbuf[: B * m].reshape(B, m)
        A.fill(_PAD)
        Bm.fill(_PAD)
        for r, k in enumerate(idx):
            A[r, : nk[k]] = codes[k][0]
            Bm[r, : mk[k]] = codes[k][1]
        ragged = nk[idx].min() < n or mk[idx].min() < m
        lens = (nk[idx], mk[idx]) if ragged else (None, None)
        D = None if Dbuf is None else Dbuf[: n * B * width].reshape(n, B, width)
        score, ei, ej, state = _sweep_ends(A, Bm, model, mode, band, gaps, D, *lens)
        if D is None:
            scores[idx] = score
            continue
        for r, k in enumerate(idx):
            i, j = int(ei[r]), int(ej[r])
            db = _pair_bytes(D, r)
            if gaps is None:
                walked, i0, j0 = _walk(db, width, i, j, band)
            else:
                walked, i0, j0 = _walk_affine(db, width, i, j, int(state[r]), band)
            a_iv = (i0 if mode in ("local", "overlap") else 0, i)
            b_iv = (j0 if mode == "local" else 0, j)
            alns[k] = Alignment(float(score[r]), tuple(walked), a_iv, b_iv)
    return alns if align else scores


# ---------------------------------------------------------------------------
# The public kernels: each is one call to the driver.
# ---------------------------------------------------------------------------


def global_scores_batch(
    pairs: _Pairs, model: SubstitutionModel | None = None, chunk: int = 64
) -> np.ndarray:
    """Needleman–Wunsch scores for a batch of pairs.

    Each pair is (a, b) as strings or pre-encoded uint8 codes, of any
    lengths: each chunk is padded to its longest pair.  Exact on
    integer-valued models (every operation stays integral in float64);
    ``chunk`` bounds how many pairs sweep together (working set).
    """
    return _batch("score", pairs, model, "global", chunk=chunk)


def global_align_batch(
    pairs: _Pairs, model: SubstitutionModel | None = None, chunk: int = 64
) -> list[Alignment]:
    """Batched Needleman–Wunsch with table-free traceback.

    One forward sweep per chunk emits the packed direction tensor
    ((n, B, m) uint8 — ~8x smaller than the float H table it
    replaces); each pair is then an exact O(n+m) code walk.  Equals a
    loop of :func:`global_align` — same scores, same tie-breaking.
    """
    return _batch("align", pairs, model, "global", chunk=chunk)


def local_scores_batch(
    pairs: _Pairs, model: SubstitutionModel | None = None, chunk: int = 64
) -> np.ndarray:
    """Smith–Waterman scores for a batch of pairs."""
    return _batch("score", pairs, model, "local", chunk=chunk)


def local_align_batch(
    pairs: _Pairs, model: SubstitutionModel | None = None, chunk: int = 64
) -> list[Alignment]:
    """Batched Smith–Waterman with table-free traceback.

    The best cell per pair is tracked during the sweep (earliest row,
    then earliest column on ties — matching ``np.argmax`` over the
    full table) and the walk runs back over the direction codes until
    a stop code (a zero cell) or the table edge.
    """
    return _batch("align", pairs, model, "local", chunk=chunk)


def overlap_scores_batch(
    pairs: _Pairs, model: SubstitutionModel | None = None, chunk: int = 64
) -> np.ndarray:
    """Best suffix(a)–prefix(b) overlap scores for a batch of pairs."""
    return _batch("score", pairs, model, "overlap", chunk=chunk)


def overlap_align_batch(
    pairs: _Pairs, model: SubstitutionModel | None = None, chunk: int = 64
) -> list[Alignment]:
    """Batched overlap alignment with table-free traceback.

    ``a_interval`` is (a_start, n) and ``b_interval`` is (0, b_end):
    the overlap aligns ``a[a_start:]`` against ``b[:b_end]``.
    """
    return _batch("align", pairs, model, "overlap", chunk=chunk)


def banded_scores_batch(
    pairs: _Pairs, band: int, model: SubstitutionModel | None = None, chunk: int = 64
) -> np.ndarray:
    """Banded Needleman–Wunsch scores (|i - j| <= band) for a batch.

    Exact when the optimal path stays inside the band (always true if
    band >= |len(a) - len(b)| + number of indels); a cheap surrogate
    otherwise.  The vectorized diagonal-offset sweep costs O(n * band)
    per pair instead of O(n * m).
    """
    return _batch("score", pairs, model, "banded", band, chunk=chunk)


def banded_align_batch(
    pairs: _Pairs, band: int, model: SubstitutionModel | None = None, chunk: int = 64
) -> list[Alignment]:
    """Batched banded global alignment with table-free traceback."""
    return _batch("align", pairs, model, "banded", band, chunk=chunk)


def affine_scores_batch(
    pairs: _Pairs,
    model: SubstitutionModel | None = None,
    gap_open: float = -4.0,
    gap_extend: float = -1.0,
    chunk: int = 64,
) -> np.ndarray:
    """Batched Gotoh global scores (affine gaps) for a batch of pairs."""
    return _batch("score", pairs, model, "global", gaps=(gap_open, gap_extend), chunk=chunk)


def affine_align_batch(
    pairs: _Pairs,
    model: SubstitutionModel | None = None,
    gap_open: float = -4.0,
    gap_extend: float = -1.0,
    chunk: int = 64,
) -> list[Alignment]:
    """Batched Gotoh global alignment with table-free traceback."""
    return _batch("align", pairs, model, "global", gaps=(gap_open, gap_extend), chunk=chunk)


def affine_local_scores_batch(
    pairs: _Pairs,
    model: SubstitutionModel | None = None,
    gap_open: float = -4.0,
    gap_extend: float = -1.0,
    chunk: int = 64,
) -> np.ndarray:
    """Batched affine Smith–Waterman scores for a batch of pairs."""
    return _batch("score", pairs, model, "local", gaps=(gap_open, gap_extend), chunk=chunk)


def affine_local_align_batch(
    pairs: _Pairs,
    model: SubstitutionModel | None = None,
    gap_open: float = -4.0,
    gap_extend: float = -1.0,
    chunk: int = 64,
) -> list[Alignment]:
    """Batched affine Smith–Waterman with table-free traceback."""
    return _batch("align", pairs, model, "local", gaps=(gap_open, gap_extend), chunk=chunk)


def affine_overlap_scores_batch(
    pairs: _Pairs,
    model: SubstitutionModel | None = None,
    gap_open: float = -4.0,
    gap_extend: float = -1.0,
    chunk: int = 64,
) -> np.ndarray:
    """Batched affine suffix(a)–prefix(b) overlap scores."""
    return _batch("score", pairs, model, "overlap", gaps=(gap_open, gap_extend), chunk=chunk)


def affine_overlap_align_batch(
    pairs: _Pairs,
    model: SubstitutionModel | None = None,
    gap_open: float = -4.0,
    gap_extend: float = -1.0,
    chunk: int = 64,
) -> list[Alignment]:
    """Batched affine overlap alignment with table-free traceback."""
    return _batch("align", pairs, model, "overlap", gaps=(gap_open, gap_extend), chunk=chunk)


def affine_banded_scores_batch(
    pairs: _Pairs,
    band: int,
    model: SubstitutionModel | None = None,
    gap_open: float = -4.0,
    gap_extend: float = -1.0,
    chunk: int = 64,
) -> np.ndarray:
    """Banded Gotoh scores (|i - j| <= band) for a batch of pairs."""
    return _batch("score", pairs, model, "banded", band, (gap_open, gap_extend), chunk)


def affine_banded_align_batch(
    pairs: _Pairs,
    band: int,
    model: SubstitutionModel | None = None,
    gap_open: float = -4.0,
    gap_extend: float = -1.0,
    chunk: int = 64,
) -> list[Alignment]:
    """Batched banded Gotoh alignment with table-free traceback."""
    return _batch("align", pairs, model, "banded", band, (gap_open, gap_extend), chunk)


def global_score(a: str, b: str, model: SubstitutionModel | None = None) -> float:
    """Needleman–Wunsch score, row-vectorized (score only)."""
    return float(_batch("score", [(a, b)], model, "global", chunk=1)[0])


def global_align(a: str, b: str, model: SubstitutionModel | None = None) -> Alignment:
    """Needleman–Wunsch with traceback (via the direction-code walk)."""
    return _batch("align", [(a, b)], model, "global", chunk=1)[0]


def local_score(a: str, b: str, model: SubstitutionModel | None = None) -> float:
    """Smith–Waterman score, row-vectorized (score only)."""
    return float(_batch("score", [(a, b)], model, "local", chunk=1)[0])


def local_align(a: str, b: str, model: SubstitutionModel | None = None) -> Alignment:
    """Smith–Waterman with traceback; returns the best local alignment."""
    return _batch("align", [(a, b)], model, "local", chunk=1)[0]


def overlap_align(a: str, b: str, model: SubstitutionModel | None = None) -> Alignment:
    """Best suffix(a)–prefix(b) overlap alignment with traceback."""
    return _batch("align", [(a, b)], model, "overlap", chunk=1)[0]


def overlap_score(a: str, b: str, model: SubstitutionModel | None = None) -> tuple[float, int, int]:
    """Best suffix(a)–prefix(b) overlap alignment.

    Free leading gaps in ``a`` and free trailing gaps in ``b``: start
    anywhere in ``a``, must start at b[0]; end at a[-1], anywhere in
    ``b``.  Returns (score, a_start, b_end) — the overlap aligns
    a[a_start:] with b[:b_end].  This is the assembler's overlap
    detector.
    """
    aln = overlap_align(a, b, model)
    return aln.score, aln.a_interval[0], aln.b_interval[1]


def banded_global_score(
    a: str, b: str, band: int, model: SubstitutionModel | None = None
) -> float:
    """Needleman–Wunsch restricted to |i - j| <= band.

    The vectorized diagonal-offset kernel (the scalar dict DP it
    replaced survives as :func:`banded_global_score_reference`, the
    parity oracle).  ``band`` is validated once up front.
    """
    return float(_batch("score", [(a, b)], model, "banded", band, chunk=1)[0])


def banded_align(
    a: str, b: str, band: int, model: SubstitutionModel | None = None
) -> Alignment:
    """Banded global alignment with traceback."""
    return _batch("align", [(a, b)], model, "banded", band, chunk=1)[0]
