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
lockstep chunks of up to ``chunk`` pairs, so every DP row costs one set
of NumPy ops for the whole chunk.  Pairs may differ in shape.  A
linear or affine chunk is **packed** (:class:`_Pack`): its pairs lie
end to end in one DP row of Σ(mₖ + 1) cells, pair k's column 0 its
boundary cell, written from a per-row table after the diagonal and up
moves.  The sweeps **retire rows**: a pair leaves the sweep after its
own last row nₖ, so a chunk sweeps exactly Σnₖ · (mₖ + 1) cells, its
pairs' own, and :func:`_chunks` plans it as a run of ``chunk`` pairs
that closes early only where its direction tensor would walk in linear
memory.  The rows are laid out as [local pairs by nₖ ascending | global
and overlap pairs by nₖ descending], so at DP row i the pairs still
inside their own rows are one contiguous column range, local pairs
leaving from its front and the others from its back, and the local
ones among them — whose clamp and best tracking cost each row fixed
NumPy calls — are one sub-range.  Global and overlap differ only in
their boundary and their readout.  One ``np.maximum.accumulate`` over
the live range serves every pair because pair k's values carry the
offset k · span (:func:`_span`), more than twice any pair's value
range: the recurrences only add and take maxima, so the offset, written
once into row 0 and the boundary table, costs nothing a row, and no
pair's prefix max carries into the next; the readouts subtract it.
Where an offset could round, no offset is written and each run of pairs
of one width takes its own prefix max (:meth:`_Pack.scans`).
The row loop runs over :func:`_packed_runs`, the runs of rows sharing
one live range (:func:`_segments`), which also gathers each block of
rows' substitution scores with one row-copy ``take`` per pair; it
builds its views once a run, so a one-pair or uniform chunk is one run
of whole-row ops.  Once a batch's local pairs and its other pairs each
fill a chunk, the two classes are planned apart.  A banded chunk keeps
the diagonal layout: it is padded to its longest pair with the pad
code :data:`_PAD`, whose row and column in the gather table are
``_NEG``, runs every row of every pair and is planned in row order
under a padding bound.  The driver reads each pair's own end cell,
score and affine end state, and walks the direction codes.
The scalar entry points (:func:`global_align`, :func:`local_align`,
...) are the batch kernels at batch size 1, so *every* traceback in
the system goes through the direction-code walk.  That holds for
banded calls too: one sweep per gap model serves a banded call of any
size, one pair included (see the banded kernels' comment).  The
``*_reference`` functions are independent per-cell Python oracles for
the parity tests.

The linear and affine sweeps compute in one of two dtypes, which
:func:`_sweep_dtype` picks once per call from the model, the gaps, the
longest sides and the most pairs a chunk holds.  When the matrix, the
linear gap and the affine gaps are finite integers and B · (n + m + 2)
times their largest magnitude stays under 2**26
(:data:`_INT_HEADROOM`), every cell, offset included, is an exact
integer under 2**28 in magnitude and the sweep runs in int32, where a
row's adds, maxima and prefix max cost 0.5-0.7x of float64's; -2**28
(:data:`_INT_NEG`) stands for both -inf and ``_NEG``.  Otherwise it runs
in float64.  Both dtypes compute the same integers and the same
direction codes, and scores return to float64 at the readout, so an
answer's bytes do not depend on the dtype.  Values that are not
integers would round under an offset, so they take none.  Banded sweeps
stay float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

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
_PAD = 5  # pads a banded chunk past a pair's own end; encode() emits only 0-4

_F64, _I32 = np.dtype(np.float64), np.dtype(np.int32)
#: An int32 sweep's stand-in for both -inf and ``_NEG``.
_INT_NEG = -(1 << 28)
#: Sweeps of B packed pairs run in int32 while B · (n + m + 2) times the
#: largest per-cell step stays under this, so every cell, offset
#: included, stays under 2**28 in magnitude, no real cell falls below
#: -2**27, and a sentinel plus a cell stays far inside int32.
_INT_HEADROOM = 1 << 26
#: Each sweep dtype's (-inf, ``_NEG``).
_LOW = {_F64: (-np.inf, _NEG), _I32: (_INT_NEG, _INT_NEG)}

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


def _step(model: SubstitutionModel, gaps: tuple[float, float] | None) -> float | None:
    """The largest magnitude of the matrix, the gap and ``gaps`` when all
    are finite integers, else ``None``."""
    if not model.integral or not all(float(x).is_integer() for x in gaps or ()):
        return None
    return max(np.abs(model.matrix).max(), abs(model.gap), *map(abs, gaps or ()))


def _sweep_dtype(
    model: SubstitutionModel, gaps: tuple[float, float] | None, n: int, m: int, B: int = 1
) -> np.dtype:
    """int32 when every cell of a packed sweep of B pairs of at most (n,
    m), offsets included, is an exact small integer: the matrix, the gap
    and ``gaps`` are integers and B · (n + m + 2) times the largest of
    their magnitudes is under :data:`_INT_HEADROOM`.  float64 otherwise."""
    step = _step(model, gaps)
    return _I32 if step is not None and B * (n + m + 2) * step < _INT_HEADROOM else _F64


def _span(
    model: SubstitutionModel, gaps: tuple[float, float] | None, n: int, m: int, B: int
) -> int | None:
    """The offset between adjacent pairs' values in a packed row of up to
    B pairs of at most (n, m): 4 · (n + m + 2) · step.  Every value of a
    pair, its cells and the affine prefix terms alike, lies strictly
    within ±2 · (n + m + 2) · step of its offset, so each pair's values
    all lie above the last pair's.  ``None`` when an offset could round:
    the values are not integers, or B offsets would pass 2**52."""
    step = _step(model, gaps)
    if step is None or 4 * B * (n + m + 2) * step >= 1 << 52:
        return None
    return int(4 * (n + m + 2) * step)


def _padded(table: np.ndarray) -> np.ndarray:
    """A 5 x 5 substitution table grown by the :data:`_PAD` row and
    column, both ``_NEG``: a diagonal move into padding never wins."""
    out = np.full((table.shape[0] + 1, table.shape[1] + 1), _LOW[table.dtype][1], table.dtype)
    out[:-1, :-1] = table
    return out


class _Ends:
    """Each pair's frontier rows, saved when a padded sweep ends the pair's
    own last row nₖ (``nk`` ``None``: the final rows are every pair's)."""

    def __init__(self, nk: np.ndarray | None, B: int, M: int, count: int) -> None:
        self.stops = {} if nk is None else {int(r): np.flatnonzero(nk == r) for r in np.unique(nk)}
        self.rows = [np.empty((B, M)) for _ in range(count if self.stops else 0)]

    def save(self, i: int, *rows: np.ndarray) -> None:
        """Keep the pairs whose last row is ``i``."""
        ks = self.stops.get(i)
        if ks is not None:
            for out, row in zip(self.rows, rows):
                out[ks] = row[ks]

    def result(self, *final: np.ndarray) -> list[np.ndarray]:
        return self.rows if self.stops else list(final)


class _Pack:
    """A linear or affine chunk's pairs laid end to end in one DP row of
    W = Σ(mₖ + 1) cells, in :func:`_layout`'s row order.  Pair k owns
    columns c[k] .. c[k] + mₖ, the first its j = 0 boundary cell, and
    when ``span`` is given its values carry the offset k · span."""

    __slots__ = ("a", "nk", "c", "W", "n", "bcodes", "span", "off")

    def __init__(
        self, pairs: Sequence[tuple[np.ndarray, np.ndarray]], span: int | None = 0
    ) -> None:
        self.a = [a for a, _ in pairs]
        self.nk = np.array([a.size for a in self.a])
        self.c = np.r_[0, np.cumsum([b.size + 1 for _, b in pairs])]
        self.W, self.n = int(self.c[-1]), int(self.nk.max())
        self.bcodes = np.zeros(self.W, np.uint8)  # b's codes, one column right of each boundary
        for k, (_, b) in enumerate(pairs):
            self.bcodes[self.c[k] + 1 : self.c[k + 1]] = b
        self.span = span if len(pairs) > 1 else 0
        self.off = np.arange(len(pairs)) * (self.span or 0)

    def columns(self, dt: np.dtype) -> tuple[np.ndarray, np.ndarray]:
        """Each cell's column j in its pair, and its pair's offset, in ``dt``."""
        mk1 = np.diff(self.c)
        js = np.arange(self.W) - np.repeat(self.c[:-1], mk1)
        return js.astype(dt), np.repeat(self.off, mk1).astype(dt)

    def scans(self, lo: int, hi: int) -> list[tuple[int, int, tuple[int, int]]]:
        """The runs of one width among pairs lo..hi-1, as (first column,
        column past the last, (pairs, width)): with no offsets to part the
        pairs, each run takes its own prefix max, a row a pair."""
        c, w = self.c, np.diff(self.c[lo : hi + 1])
        cut = np.r_[lo, lo + 1 + np.flatnonzero(w[1:] != w[:-1]), hi].tolist()
        return [(int(c[a]), int(c[b]), (b - a, int(w[a - lo]))) for a, b in zip(cut, cut[1:])]


def _layout(mode: str | Sequence[str], B: int) -> tuple[int, np.ndarray]:
    """A chunk's local pair count L and which of its B pairs are global.
    ``mode`` is every pair's mode, or each pair's own with the local
    pairs first (the order :func:`_batch` lays a chunk out in)."""
    modes = [mode] * B if isinstance(mode, str) else list(mode)
    return modes.count("local"), np.array([md == "global" for md in modes])


def _segments(nk: np.ndarray, L: int) -> list[tuple[int, ...]]:
    """The runs of DP rows that share one set of live pairs, as (first
    row, row past the last, lo, hi): pairs lo..hi-1 are still inside
    their own rows.  Pairs [0, L) are local by nₖ ascending and the rest
    global and overlap by nₖ descending, so pairs leave from both ends."""
    stops = np.unique(nk)
    starts = np.r_[1, stops[:-1] + 1]
    lo = np.searchsorted(nk[:L], starts)
    hi = L + np.searchsorted(-nk[L:], -starts, side="right")
    return list(zip(starts.tolist(), (stops + 1).tolist(), lo.tolist(), hi.tolist()))


def _check_band(n, m, band) -> int:
    """Validate ``band`` once, up front, for one pair's or a batch's lengths."""
    if not isinstance(band, (int, np.integer)) or isinstance(band, bool):
        raise ValueError(f"band must be an integer, got {band!r}")
    if band < 0:
        raise ValueError("band must be non-negative")
    if band < np.max(np.abs(np.subtract(n, m))):
        raise ValueError("band too narrow to connect the corners")
    return int(band)


#: A packed sweep gathers its rows' substitution scores in blocks of at
#: most this many bytes (rows · W · itemsize), so a block stays small
#: beside the direction tensor and the walks' copies of it.
_PACK_GATHER_BYTES = 3 << 20


def _packed_runs(
    pk: _Pack, L: int, T: np.ndarray
) -> Iterator[tuple[int, int, int, int, np.ndarray]]:
    """Yield the runs of a packed sweep's DP rows 1..n as (first row, row
    past the last, lo, hi, S): pairs lo..hi-1 are still inside their own
    rows (see :func:`_segments`), and S holds the run's rows' substitution
    scores, (rows, W).  They are gathered from the per-code table ``T``
    ((5, W)) a block of rows at a time under :data:`_PACK_GATHER_BYTES`,
    one row-copy ``take`` per live pair, so a run also ends at each
    block's end."""
    c, n = pk.c, pk.n
    block = max(1, _PACK_GATHER_BYTES // (pk.W * T.itemsize))
    S = np.empty((min(block, n), pk.W), T.dtype)
    base = 1
    for s, e, lo, hi in _segments(pk.nk, L):
        while s < e:
            if (s - 1) % block == 0:  # a block's first run gathers the block
                base = s
                for k in range(lo, hi):
                    rows = pk.a[k][s - 1 : s - 1 + block]
                    cols = slice(c[k], c[k + 1])
                    np.take(T[:, cols], rows, axis=0, out=S[: rows.size, cols], mode="clip")
            stop = min(e, base + block)
            yield s, stop, lo, hi, S[s - base : stop - base]
            s = stop


def _track_best(row, starts, bounds, best, bi, bj, i: int) -> None:
    """Move each live local pair's best cell to row ``i`` if the pair's H
    cells in ``row`` (from ``bounds[k]``; ``starts`` is ``bounds[:-1]``)
    beat it, at their first maximum, as ``np.argmax`` over its table."""
    rowmax = np.maximum.reduceat(row, starts)
    better = rowmax > best
    if better.any():
        best[better] = rowmax[better]
        bi[better] = i
        for k in np.flatnonzero(better).tolist():
            bj[k] = row[bounds[k] : bounds[k + 1]].argmax()


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
    pk: _Pack,
    model: SubstitutionModel,
    mode: str | Sequence[str],
    D: np.ndarray | None = None,
    F0: np.ndarray | None = None,
    i0: int = 0,
    dt: np.dtype = _F64,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forward linear-gap sweep of a packed chunk in global/overlap/local:
    ``mode`` is every pair's, or each pair's own in :func:`_layout`'s row
    order.  It computes in ``dt`` (see :func:`_sweep_dtype`), and so do
    the rows and bests it returns.

    Returns (last, best, best_i, best_j): ``last`` is the (W,) f-space
    row holding each pair's own last row nₖ, offsets included; a pair
    leaves the sweep after that row.  In local rows ``best*`` are each
    pair's best cell (earliest row, then earliest column on ties, as
    ``np.argmax`` over its table; ``best_i`` counts rows within this
    sweep); in the other rows they are zeros.  Emits direction codes
    into ``D`` ((n, W) uint8) on each pair's own rows when given; a
    pair's boundary column holds no code.

    ``F0`` is an optional initial frontier of one pair (f-space, shape
    (m+1,)) — the checkpoint row a linear-memory walk restarts from;
    ``i0`` is that row's absolute index (the overlap boundary and the
    local zero-cell clamp depend on it).  Defaults reproduce a sweep from
    row 0.
    """
    g = dt.type(model.gap)
    B, W, c = len(pk.a), pk.W, pk.c
    L, glob = _layout(mode, B)  # pairs [0, L) local, the rest global or overlap
    cl = int(c[L])  # the local pairs' columns end here
    T = (model.matrix.astype(dt) - 2 * g)[:, pk.bcodes]  # per-code diag scores, pre-shifted
    js, offc = pk.columns(dt)
    negjs = -g * js
    # Each row's j = 0 boundary: 0 on global pairs; overlap's is local's zero cell.
    edge = np.where(glob, 0, -g * (i0 + np.arange(pk.n + 1))[:, None]).astype(dt)
    if pk.span:
        negjs += offc
        edge += pk.off.astype(dt)
    bufs = [np.empty(W, dt), np.empty(W, dt)]  # take turns as the previous row and this one
    if F0 is not None:
        bufs[0][:] = F0
    else:
        bufs[0][:cl] = negjs[:cl]
        bufs[0][cl:] = offc[cl:]
    cur, t1, cv, hv, last = (np.empty(x, dt) for x in (W, W, cl, cl, W))
    best = np.zeros(B, dt)
    bi = np.zeros(B, dtype=np.int64)
    bj = np.zeros(B, dtype=np.int64)
    if D is not None:
        up = np.empty(W, dtype=bool)
        left = np.empty(W, dtype=bool)
        tmp8 = np.empty(W, dtype=np.uint8)
    p = 0
    for s, e, lo, hi, S in _packed_runs(pk, L, T):
        # This run's views: the live pairs' columns a0..b1-1, their cells
        # j >= 1 within a1..b1-1, the first nl columns local.
        a0, b1 = int(c[lo]), int(c[hi])
        a1, nl = a0 + 1, cl - a0
        views = [(x[a0 : b1 - 1], x[a1:b1], y[a0:b1], y[a1:b1]) for x, y in (bufs, bufs[::-1])]
        curv, cur1, t1v, Ss = cur[a0:b1], cur[a1:b1], t1[a1:b1], S[:, a1:b1]
        scans = [[(curv, v[2])] for v in views] if pk.span is not None else [
            [(cur[a:b].reshape(sh), y[a:b].reshape(sh)) for a, b, sh in pk.scans(lo, hi)]
            for y in bufs[::-1]
        ]
        bnd, edges = c[lo:hi] - a0, edge[:, lo:hi]
        lcur, lnegjs, cvl, hvl, starts = cur[a0:cl], negjs[a0:cl], cv[a0:], hv[a0:], c[lo:L] - a0
        bounds = (c[lo : L + 1] - a0).tolist()
        lbest, lbi, lbj = best[lo:L], bi[lo:L], bj[lo:L]
        if D is not None:
            Ds, ups, lefts, tmps = D[:, a1:b1], up[a1:b1], left[a1:b1], tmp8[a1:b1]
            stops, ltmp = up[a1:cl], tmp8[a1:cl]  # up is spent when the stop bits are set
            up8, left8, stop8 = (x.view(np.uint8) for x in (ups, lefts, stops))
        for i, Si in zip(range(s, e), Ss):
            pd, pu, acc, acc1 = views[p]
            np.add(pd, Si, out=t1v)
            if D is not None:
                np.greater(pu, t1v, out=ups)
            np.maximum(t1v, pu, out=cur1)
            curv[bnd] = edges[i]
            if nl:
                np.add(lnegjs, -g * (i0 + i), out=cvl)  # F-value of a zero cell, this row
                np.maximum(lcur, cvl, out=lcur)  # the 0-clamp
            for x, y in scans[p]:
                np.maximum.accumulate(x, axis=-1, out=y)
            if nl:
                # H never drops below its own clamped V, so no second clamp;
                # read the H row back out for the running best.
                np.subtract(acc[:nl], cvl, out=hvl)
                _track_best(hvl, starts, bounds, lbest, lbi, lbj, i)
            if D is not None:
                np.greater(acc1, cur1, out=lefts)
                np.multiply(left8, 2, out=tmps)
                np.add(tmps, up8, out=Ds[i - 1])
                if nl:
                    np.equal(acc1[: nl - 1], cvl[1:], out=stops)  # H == 0: clamp won
                    np.multiply(stop8, 4, out=ltmp)
                    dl = Ds[i - 1, : nl - 1]
                    np.add(dl, ltmp, out=dl)
            p ^= 1
        last[a0:b1] = bufs[p][a0:b1]  # the pairs whose last row ends this run keep it
    return last, best, bi, bj


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
#
# Both banded sweeps (this one and the affine one below) run their rows
# in the runs :func:`_band_runs` plans.  Only the <= 2*band edge rows
# reach past the matrix, so only they are masked; a block of rows'
# substitution scores is gathered in one fancy-index call; the rotating
# frontiers' views are built once, and their up-shift sentinel is
# written once.  A one-pair chunk sweeps 1-D row views, where a NumPy
# call costs least.
# ---------------------------------------------------------------------------

#: A banded sweep gathers its rows' substitution scores in blocks of at
#: most this many bytes (B · rows · w · 8): one block but for huge chunks.
_GATHER_MAX_BYTES = 64 << 20


def _band_runs(
    P: np.ndarray, A: np.ndarray, Bm: np.ndarray, band: int, nk: np.ndarray | None
) -> Iterator[tuple[int, int, bool, np.ndarray]]:
    """Yield the runs of a banded sweep's DP rows 1..n as (first row, row
    past the last, edge, W), W holding each row's substitution scores
    along the band from the padded table ``P``: (rows, B, w), or (rows,
    w) for one pair.  Rows up to ``band`` reach left of column 1 and rows
    past ``m - band`` right of column m: an edge run holds only such rows
    and masks them, an interior run none.  A run also ends at each pair's
    last row nₖ (``nk`` ``None``: every pair's is n), where the sweep
    saves its end rows, and at the end of each block of rows gathered in
    one fancy-index call of at most :data:`_GATHER_MAX_BYTES`."""
    B, n = A.shape
    m = Bm.shape[1]
    w = 2 * band + 1
    block = max(1, _GATHER_MAX_BYTES // (B * w * 8))
    cuts = {band + 1, m - band + 1, n + 1, *range(1, n + 1, block)}
    if nk is not None:
        cuts.update((nk + 1).tolist())
    cuts = sorted(c for c in cuts if 1 <= c <= n + 1)
    # Each row's column j - 1 per diagonal, clipped into the matrix (the
    # clipped cells lie outside it and are masked).
    jm1 = np.clip(np.arange(n)[:, None] - band + np.arange(w), 0, max(m - 1, 0))
    for s, e in zip(cuts, cuts[1:]):
        if (s - 1) % block == 0:  # a block's first run gathers the block
            rows = slice(s - 1, s - 1 + block)
            a = np.ascontiguousarray(A[:, rows].T)[:, :, None]
            W = P[a, np.ascontiguousarray(Bm[:, jm1[rows]].transpose(1, 0, 2))]
            W, base = (W[:, 0] if B == 1 else W), s
        yield s, e, s <= band or s > m - band, W[s - base : e - base]


def _sweep_banded(
    A: np.ndarray,
    Bm: np.ndarray,
    band: int,
    model: SubstitutionModel,
    D: np.ndarray | None = None,
    nk: np.ndarray | None = None,
) -> np.ndarray:
    """Forward banded sweep; returns each pair's f-space row at its own
    last row (``nk`` in a padded chunk).  Emits direction codes into
    ``D`` ((n, B, w) uint8) when given."""
    g = model.gap
    B, n = A.shape
    m = Bm.shape[1]
    w = 2 * band + 1
    P2m = _padded(model.matrix - 2.0 * g)
    ks = np.arange(w)
    boundary = -g * band
    # Two (B, w + 1) frontiers take turns as the previous row and this
    # one.  Slot w is the -inf sentinel feeding the up-shift; the row ops
    # write slots 0..w-1 only, so it is written once, here.
    fronts = [np.full((B, w + 1), -np.inf) for _ in range(2)]
    fronts[0][:, :w][:, (ks >= band) & (ks - band <= m)] = boundary  # row 0: H = g*j -> F = -g*band
    rows = [f[0] if B == 1 else f for f in fronts]
    shape = (w,) if B == 1 else (B, w)
    t1 = np.empty(shape)
    # An align sweep keeps this row before its prefix max in ``cur`` to
    # code the left moves; a score sweep takes the prefix max in place.
    cur = None if D is None else np.empty(shape)
    # Per parity: the previous row, its up-shift, this row before and
    # after its prefix max (one view object when in place: NumPy copies
    # an input that merely overlaps its output).
    views = []
    for prev, this in (rows, rows[::-1]):
        fw = this[..., :w]
        views.append((prev[..., :w], prev[..., 1:], fw if cur is None else cur, fw))
    if D is not None:
        up = np.empty(shape, dtype=bool)
        left = np.empty(shape, dtype=bool)
        tmp8 = np.empty(shape, dtype=np.uint8)
        up8, left8 = up.view(np.uint8), left.view(np.uint8)
        Dv = D[:, 0] if B == 1 else D
    ends = _Ends(nk, B, w + 1, 1)
    add, maximum, accum = np.add, np.maximum, np.maximum.accumulate
    p = 0
    for s, e, edge, W in _band_runs(P2m, A, Bm, band, nk):
        for i, Wi in zip(range(s, e), W):
            pw, pu, cw, fw = views[p]
            add(pw, Wi, out=t1)
            if D is not None:
                np.greater(pu, t1, out=up)
            maximum(t1, pu, out=cw)
            if edge:
                # Mask cells outside the matrix; plant the j == 0 boundary.
                klo, khi = band - i + 1, m - i + band  # first k with j >= 1, last with j <= m
                if klo > 0:
                    cw[..., :klo] = -np.inf
                    if klo <= w:
                        cw[..., klo - 1] = boundary
                if khi < w - 1:
                    cw[..., max(khi + 1, 0) :] = -np.inf
            accum(cw, axis=-1, out=fw)
            if D is not None:
                np.greater(fw, cw, out=left)
                np.multiply(left8, 2, out=tmp8)
                np.add(tmp8, up8, out=Dv[i - 1])
            p ^= 1
        ends.save(e - 1, fronts[p])  # the pairs whose last row ends this run
    return ends.result(fronts[p])[0]


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


def _sweep_affine(
    pk: _Pack,
    model: SubstitutionModel,
    open_: float,
    ext: float,
    mode: str | Sequence[str],
    D: np.ndarray | None = None,
    dt: np.dtype = _F64,
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Forward Gotoh sweep of a packed chunk in global/overlap/local:
    ``mode`` is every pair's, or each pair's own in :func:`_layout`'s row
    order.  It computes in ``dt`` (see :func:`_sweep_dtype`), and so do
    the rows and bests it returns.

    Returns (last, best, best_i, best_j): ``last`` is the (W,) [M, X, Y]
    rows holding each pair's own last row nₖ, offsets included; a pair
    leaves the sweep after that row.  In local rows ``best*`` track the
    running best M cell; in the other rows they are zeros.  Emits packed
    direction codes into ``D`` ((n, W) uint8) on each pair's own rows
    when given; a pair's boundary column holds no code.
    """
    B, W, c = len(pk.a), pk.W, pk.c
    L, glob = _layout(mode, B)  # pairs [0, L) local, the rest global or overlap
    cl = int(c[L])  # the local pairs' columns end here
    T = model.matrix.astype(dt)[:, pk.bcodes]  # per-code substitution scores, (5, W)
    open_, ext, low = dt.type(open_), dt.type(ext), _LOW[dt][0]
    js, offc = pk.columns(dt)
    extjs = ext * js
    src_shift = open_ - ext * (js + 1)
    off = pk.off.astype(dt)
    # Each row's j = 0 boundary: on global pairs M is -inf and X a gap
    # down a; on the others M is 0 (a free start) and X is -inf.
    medge = np.where(glob, low, 0).astype(dt)
    xedge = np.where(glob, open_ + np.arange(-1, pk.n)[:, None] * ext, low).astype(dt)
    # Row 0: M[0][0] = 0 and the leading gaps in b live in Y; a local
    # pair restarts at 0 everywhere.
    rows = [[np.full(W, low, dt) for _ in range(3)] for _ in range(2)]  # two [M, X, Y] trios
    Mp, _, Yp = rows[0]
    ygap = (js > 0) & (np.arange(W) >= cl)
    Mp[:cl] = 0
    Mp[c[L:-1]] = 0
    Yp[ygap] = open_ + (js[ygap] - 1) * ext
    best = np.zeros(B, dt)
    if pk.span:
        medge[~glob] += off[~glob]
        xedge[:, glob] += off[glob]
        Mp[:cl] += offc[:cl]
        Mp[c[L:-1]] += off[L:]
        Yp[ygap] += offc[ygap]
        best += off  # a local M cell clamps to its pair's offset
    bi = np.zeros(B, dtype=np.int64)
    bj = np.zeros(B, dtype=np.int64)
    bp, osrc, run, t = (np.zeros(W, dt) for _ in range(4))
    last = [np.empty(W, dt) for _ in range(3)]
    if D is not None:
        e_x, e_y, bits = (np.empty(W, dtype=bool) for _ in range(3))
        u8a, u8b = np.empty(W, dtype=np.uint8), np.empty(W, dtype=np.uint8)
    p = 0
    for s, e, lo, hi, S in _packed_runs(pk, L, T):
        # This run's views: the live pairs' columns a0..b1-1 (``f``), their
        # cells j >= 1 within a1..b1-1 (``1``) and the column left of each
        # such cell, a0..b1-2 (``0``); the first nl columns are local.
        a0, b1 = int(c[lo]), int(c[hi])
        a1, nl = a0 + 1, cl - a0
        f, v1, v0 = slice(a0, b1), slice(a1, b1), slice(a0, b1 - 1)
        views = [
            (*(x[f] for x in prev), *(x[v0] for x in prev), prev[0][v1], prev[2][v1],
             *(x[f] for x in this), this[0][v1], this[0][v0], this[1][v0], this[2][v1], this[2][v0])
            for prev, this in (rows, rows[::-1])
        ]
        bpf, bp0, osf, os1, os0 = bp[f], bp[v0], osrc[f], osrc[v1], osrc[v0]
        run1, run0, tf, t1, t0 = run[v1], run[v0], t[f], t[v1], t[v0]
        shift, extj1, Ss = src_shift[f], extjs[v1], S[:, v1]
        scans = [(t0, run1)] if pk.span is not None else [
            (t[a:b].reshape(sh)[:, :-1], run[a:b].reshape(sh)[:, 1:])
            for a, b, sh in pk.scans(lo, hi)
        ]
        bnd, medges, xedges = c[lo:hi] - a0, medge[lo:hi], xedge[:, lo:hi]
        zl, starts = offc[a0:cl], c[lo:L] - a0
        bounds = (c[lo : L + 1] - a0).tolist()
        lbest, lbi, lbj = best[lo:L], bi[lo:L], bj[lo:L]
        if D is not None:
            Ds, ex, ey, bb, ua, ub = D[:, v1], e_x[v1], e_y[v1], bits[v1], u8a[v1], u8b[v1]
            lb1, lua, lub = bits[a1:cl], u8a[a1:cl], u8b[a1:cl]
            ey8, bb8, lb8 = (x.view(np.uint8) for x in (ey, bb, lb1))
        for i, Si in zip(range(s, e), Ss):
            Mp, Xp, Yp, Mp0, Xp0, Yp0, Mp1, Yp1, Mc, Xc, Yc, Mc1, Mc0, Xc0, Yc1, Yc0 = views[p]
            # M: best previous state, one diagonal step back.
            np.maximum(Mp, Xp, out=bpf)
            if D is not None:
                # bits 0-1: M's diag source (ties M > X > Y), from the
                # previous row's column left of each cell.
                np.greater(Xp0, Mp0, out=ex)
                np.greater(Yp0, bp0, out=ey)
                np.multiply(ey8, 2, out=ua)
                np.logical_and(ex, ~ey, out=bb)
                np.add(ua, bb8, out=ua)  # ua = msrc
            np.maximum(bpf, Yp, out=bpf)
            np.add(bp0, Si, out=Mc1)
            Mc[bnd] = medges
            if nl:
                lM = Mc[:nl]
                if D is not None:
                    # bit 6: the clamp won (cell value 0) — stop.
                    np.less_equal(lM[1:], zl[1:], out=lb1)
                    np.multiply(lb8, 64, out=lub)
                    np.add(lua, lub, out=lua)
                np.maximum(lM, zl, out=lM)
            # X: open from M/Y above, or extend the running gap.
            np.maximum(Mp, Yp, out=osf)
            if D is not None:
                np.greater(Yp1, Mp1, out=bb)  # bit 3
                np.multiply(bb8, 8, out=ub)
                np.add(ua, ub, out=ua)
            np.add(osf, open_, out=osf)
            np.add(Xp, ext, out=tf)
            if D is not None:
                np.greater(t1, os1, out=bb)  # bit 2
                np.multiply(bb8, 4, out=ub)
                np.add(ua, ub, out=ua)
            np.maximum(osf, tf, out=Xc)
            Xc[bnd] = xedges[i]
            # Y: prefix max over max(M, X)[j'] + open - ext*(j'+1).
            np.maximum(Mc, Xc, out=osf)
            if D is not None:
                np.greater(Xc0, Mc0, out=bb)  # bit 5
                np.multiply(bb8, 32, out=ub)
                np.add(ua, ub, out=ua)
            np.add(osf, shift, out=tf)
            for x, y in scans:
                np.maximum.accumulate(x, axis=-1, out=y)
            np.add(run1, extj1, out=Yc1)
            Yc[bnd] = low
            if D is not None:
                # bit 4: Y extended — the gap ran past the previous column.
                np.add(Yc0, ext, out=t0)
                np.add(os0, open_, out=run0)
                np.greater(t0, run0, out=bb)
                np.multiply(bb8, 16, out=ub)
                np.add(ua, ub, out=Ds[i - 1])
            if nl:
                _track_best(lM, starts, bounds, lbest, lbi, lbj, i)
            p ^= 1
        for out, row in zip(last, rows[p]):  # the pairs whose last row ends this run keep it
            out[f] = row[f]
    return last, best - off, bi, bj


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
    at its own last row (``nk`` in a padded chunk).  Emits packed
    direction codes into ``D`` ((n, B, w) uint8) when given."""
    B, n = A.shape
    m = Bm.shape[1]
    w = 2 * band + 1
    ks = np.arange(w)
    extks = ext * ks
    src_shift = open_ - ext * (ks + 1.0)
    Pm = _padded(model.matrix)
    # Two trios of (B, w + 1) [M, X, Y] frontiers take turns as the
    # previous row and this one.  Slot w is the -inf sentinel feeding the
    # X up-shift; the row ops write slots 0..w-1 only, so it is written
    # once, here.
    trios = [[np.full((B, w + 1), -np.inf) for _ in range(3)] for _ in range(2)]
    # Row 0: j = k - band in [0, m]; M[0][0] = 0, Y[0][j] carries the
    # leading gap in b.
    j0s = ks - band
    valid0 = (j0s >= 0) & (j0s <= m)
    trios[0][0][:, :w][:, valid0 & (j0s == 0)] = 0.0
    ypos = valid0 & (j0s >= 1)
    trios[0][2][:, :w][:, ypos] = open_ + (j0s[ypos] - 1) * ext
    rows = [[f[0] if B == 1 else f for f in trio] for trio in trios]
    # Per parity: the previous row's [M, X, Y] and their up-shifts, then
    # this row's and their first w - 1 slots.
    views = [
        (*(f[..., :w] for f in prev), *(f[..., 1:] for f in prev),
         *(f[..., :w] for f in this), *(f[..., : w - 1] for f in this))
        for prev, this in (rows, rows[::-1])
    ]
    shape = (w,) if B == 1 else (B, w)
    bp, t, run = (np.empty(shape) for _ in range(3))
    run[..., 0] = -np.inf  # Y at k = 0 has no in-row predecessor: -inf
    th, runt, bph = t[..., : w - 1], run[..., 1:], bp[..., : w - 1]
    if D is not None:
        e_x, e_y, b1, b2 = (np.empty(shape, dtype=bool) for _ in range(4))
        b2[..., 0] = False  # the Y bits at k = 0, which has no in-row predecessor
        u8a, u8b = (np.empty(shape, dtype=np.uint8) for _ in range(2))
        ey8, b18, b28, b2t = e_y.view(np.uint8), b1.view(np.uint8), b2.view(np.uint8), b2[..., 1:]
        Dv = D[:, 0] if B == 1 else D
    ends = _Ends(nk, B, w + 1, 3)
    add, maximum, accum = np.add, np.maximum, np.maximum.accumulate
    p = 0
    for s, e, edge, W in _band_runs(Pm, A, Bm, band, nk):
        for i, Wi in zip(range(s, e), W):
            Mp, Xp, Yp, Mu, Xu, Yu, Mc, Xc, Yc, Mh, Xh, Yh = views[p]
            # M: diagonal move is in-place in this layout.
            maximum(Mp, Xp, out=bp)
            if D is not None:
                np.greater(Xp, Mp, out=e_x)
                np.greater(Yp, bp, out=e_y)
                np.multiply(ey8, 2, out=u8a)
                np.greater(e_x, e_y, out=b1)  # e_x and not e_y
                np.add(u8a, b18, out=u8a)
            maximum(bp, Yp, out=bp)
            add(bp, Wi, out=Mc)
            # X: open/extend from k+1 of the previous row.
            maximum(Mu, Yu, out=bp)
            if D is not None:
                np.greater(Yu, Mu, out=b1)  # bit 3
                np.multiply(b18, 8, out=u8b)
                np.add(u8a, u8b, out=u8a)
            add(bp, open_, out=bp)
            add(Xu, ext, out=t)
            if D is not None:
                np.greater(t, bp, out=b1)  # bit 2
                np.multiply(b18, 4, out=u8b)
                np.add(u8a, u8b, out=u8a)
            maximum(bp, t, out=Xc)
            if edge:
                # Mask cells outside the matrix; plant the j == 0 boundary.
                klo, khi = band - i + 1, m - i + band  # first k with j >= 1, last with j <= m
                if klo > 0:
                    Mc[..., :klo] = -np.inf
                    Xc[..., :klo] = -np.inf
                    if klo <= w:
                        Xc[..., klo - 1] = open_ + (i - 1) * ext
                if khi < w - 1:
                    Mc[..., max(khi + 1, 0) :] = -np.inf
                    Xc[..., max(khi + 1, 0) :] = -np.inf
            # Y: in-row prefix max along k.  The in-row predecessor of cell
            # k is k-1, so the Y bits compare one slot to the left (the
            # unbanded kernel's column slices do this implicitly).
            maximum(Mc, Xc, out=bp)
            if D is not None:
                np.greater(Xh, Mh, out=b2t)  # bit 5
                np.multiply(b28, 32, out=u8b)
                np.add(u8a, u8b, out=u8a)
            add(bp, src_shift, out=t)
            accum(th, axis=-1, out=runt)
            add(run, extks, out=Yc)
            if edge:
                if khi < w - 1:
                    Yc[..., max(khi + 1, 0) :] = -np.inf
                if klo > 0:
                    Yc[..., :klo] = -np.inf
            if D is not None:
                # bit 4: Y extended, the gap ran past the previous slot
                # (t and bp are free now, so they take the two sides).
                np.add(Yh, ext, out=th)
                np.add(bph, open_, out=bph)
                np.greater(th, bph, out=b2t)
                np.multiply(b28, 16, out=u8b)
                np.add(u8a, u8b, out=Dv[i - 1])
            p ^= 1
        ends.save(e - 1, *trios[p])  # the pairs whose last row ends this run
    return ends.result(*trios[p])


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


#: A banded chunk closes before a pair that would pad the chunk's pairs
#: to more than ``_PAD_RATIO`` times their own DP cells plus
#: ``_ROW_CELLS`` a row, about what a row's fixed NumPy calls cost in
#: cells (0.7-2.2 k on a 2-vCPU host): padding buys fewer sweeps, never a
#: long pair's table for many short ones.
_PAD_RATIO = 2
_ROW_CELLS = 2048


def _chunks(
    nk: np.ndarray, mk: np.ndarray, band: int | None, chunk: int, linear: Callable | None = None
) -> list:
    """(pair indices, rows, columns) of each chunk of at most ``chunk``
    pairs with two non-empty sides, taken by nₖ.  A linear or affine
    chunk lays its pairs end to end and sweeps only their own cells,
    Σnₖ · (mₖ + 1), so it is a run of ``chunk`` pairs, closed early only
    before a pair whose rows would make its direction tensor, n · Σ(mₖ +
    1) cells, walk in linear memory (``linear``): a pair walks so only
    when its own tensor is that big.  A banded one runs every row of
    every pair, B · n · (2·band + 1) cells, and closes before a pair that
    would pad the chunk's pairs past the bound."""
    live = np.flatnonzero((nk > 0) & (mk > 0))
    order = live[np.lexsort((mk[live], nk[live]))].tolist()
    w, rows, cols = None if band is None else 2 * band + 1, nk.tolist(), (mk + 1).tolist()
    plan, n, own = [[]], 0, 0  # the chunk's rows, and its pairs' cells (banded) or columns
    for k in order:
        size = len(plan[-1])
        if w is None:  # the chunk's tensor with this pair's rows and columns
            full = linear is not None and linear(rows[k] * (own + cols[k]))
        else:  # the chunk's pairs padded to this pair's rows
            full = size * rows[k] * w > _PAD_RATIO * own + _ROW_CELLS * n
        if size and (size == chunk or full):
            plan.append([])
            n = own = 0
        plan[-1].append(k)
        n, own = rows[k], own + (cols[k] if w is None else rows[k] * w)
    return [(i, int(nk[i].max()), int(mk[i].max())) for i in map(np.array, plan) if i.size]


def _affine_end(ends: list[np.ndarray], at) -> tuple[np.ndarray, np.ndarray]:
    """Each pair's best score over its [M, X, Y] ends at the cells ``at``
    indexes, and the state it is in (0 = M, 1 = X, 2 = Y, ties in that
    order)."""
    mv, xv, yv = (f[at] for f in ends)
    score = np.maximum(np.maximum(mv, xv), yv)
    return score, np.where(mv == score, 0, np.where(xv == score, 1, 2))


def _sweep_ends(
    pk: _Pack,
    model: SubstitutionModel,
    mode: str | Sequence[str],
    gaps: tuple[float, float] | None = None,
    D: np.ndarray | None = None,
    dt: np.dtype = _F64,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sweep one packed chunk in ``mode``s as the sweeps take them, in
    ``dt``; returns each pair's (score, end_i, end_j, state), the scores
    in float64.

    (end_i, end_j) is the cell the alignment ends in, where its walk
    starts: (nₖ, mₖ), or a best cell of the pair's own.  ``state`` is the
    affine end state (0 = M, 1 = X, 2 = Y, ties in that order); it is 0
    for linear gaps and for local, whose best cell is an M cell.
    """
    B, c = len(pk.a), pk.c
    g = model.gap
    ei, ej = pk.nk.copy(), np.diff(c) - 1
    state = np.zeros(B, dtype=np.int64)
    # Each mode reads its own pairs: local [0, L), global and overlap after.
    L, glob = _layout(mode, B)
    gl, ov = np.flatnonzero(glob), (L + np.flatnonzero(~glob[L:])).tolist()
    score = np.empty(B)
    js, offc = pk.columns(dt)
    if gaps is None:
        F, best, bi, bj = _sweep_linear(pk, model, mode, D=D, dt=dt)
        if pk.span:
            F -= offc
        score[gl] = F[c[gl] + ej[gl]] + g * (ej[gl] + ei[gl])
        for k in ov:
            # Overlap: H[n][j] = F[j] + g*j + n*g; the free end in b
            # takes the first maximum.
            hrow = F[c[k] : c[k + 1]] + g * js[c[k] : c[k + 1]]
            ej[k] = hrow.argmax()
            score[k] = hrow[ej[k]] + ei[k] * g
    else:
        ends, best, bi, bj = _sweep_affine(pk, model, *gaps, mode, D=D, dt=dt)
        if pk.span:
            ends = [f - offc for f in ends]
        if ov:  # overlap: the free end in b takes the row's first maximum
            top = np.maximum(np.maximum(*ends[:2]), ends[2])
            ej[ov] = [top[c[k] : c[k + 1]].argmax() for k in ov]
        score[L:], state[L:] = _affine_end(ends, c[L:-1] + ej[L:])
    score[:L], ei[:L], ej[:L] = best[:L], bi[:L], bj[:L]
    return score, ei, ej, state


def _banded_ends(
    A: np.ndarray,
    Bm: np.ndarray,
    model: SubstitutionModel,
    band: int,
    gaps: tuple[float, float] | None = None,
    D: np.ndarray | None = None,
    nk: np.ndarray | None = None,
    mk: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sweep one banded chunk, padded with :data:`_PAD` (``nk``/``mk``
    ``None``: every pair fills it); returns each pair's (score, end_i,
    end_j, state) as :func:`_sweep_ends` does, the end cell (nₖ, mₖ)."""
    B, n = A.shape
    rows = np.arange(B)
    ei = np.full(B, n) if nk is None else nk.copy()
    ej = np.full(B, Bm.shape[1]) if mk is None else mk.copy()
    col = ej - ei + band  # each end cell (nₖ, mₖ) in the diagonal layout
    if gaps is None:
        g = model.gap
        F = _sweep_banded(A, Bm, band, model, D=D, nk=nk)
        return F[rows, col] + (g * col + 2.0 * g * ei), ei, ej, np.zeros(B, dtype=np.int64)
    ends = _sweep_affine_banded(A, Bm, band, model, *gaps, D=D, nk=nk)
    score, state = _affine_end(ends, (rows, col))
    return score, ei, ej, state


def _batch(
    kind: str,
    pairs: _Pairs,
    model: SubstitutionModel | None,
    mode: str | Sequence[str],
    band: int | None = None,
    gaps: tuple[float, float] | None = None,
    chunk: int = 64,
    linear: Callable[[int], bool] | None = None,
) -> np.ndarray | list[Alignment]:
    """The one driver behind every batch kernel.

    ``kind`` is ``"score"`` (returns an array of scores) or ``"align"``
    (a list of :class:`Alignment`); ``mode`` is global, local, overlap
    or banded for every pair, or a sequence of each pair's own (banded
    never mixes with the other three); ``band`` is read in banded mode
    only; ``gaps`` is ``(gap_open, gap_extend)`` for affine (Gotoh)
    costs, ``None`` for the model's linear gap.  Pairs may have any
    shapes: they sweep in the chunks :func:`_chunks` plans (local pairs
    apart from the others once each class fills a chunk), at most
    ``chunk`` pairs each (the working set).  A linear or affine chunk
    lays its pairs end to end (:class:`_Pack`) in the order [local by nₖ
    ascending | global and overlap by nₖ descending], so each pair
    leaves the sweep after its own last row, all in the one dtype
    :func:`_sweep_dtype` picks for the longest sides and the most pairs a
    chunk holds, offset by :func:`_span` where no offset rounds.  A
    banded chunk is padded to its longest pair.  ``linear`` (align only)
    says whether a chunk whose direction tensor holds that many cells
    walks in linear memory instead; a packed chunk closes before it would.
    """
    model = model or unit_dna()
    if gaps is not None:
        gaps = check_affine_gaps(*gaps)
    align = kind == "align"
    linear = linear if align else None
    if not pairs:
        return [] if align else np.zeros(0)
    modes = [mode] * len(pairs) if isinstance(mode, str) else list(mode)
    mixed = modes.count(modes[0]) < len(modes)
    if mixed and "banded" in modes:
        raise ValueError("banded pairs cannot share a batch with other modes")
    codes = [(_as_codes(a), _as_codes(b)) for a, b in pairs]
    nk = np.array([len(a) for a, _ in codes], dtype=np.int64)
    mk = np.array([len(b) for _, b in codes], dtype=np.int64)
    band = _check_band(nk, mk, band) if modes[0] == "banded" else None
    span = None if band is not None else _span(model, gaps, nk.max(), mk.max(), chunk)
    scores = np.empty(len(codes))
    alns: list = [None] * len(codes)
    for k in np.flatnonzero((nk == 0) | (mk == 0)):
        score, a_iv, b_iv = _empty_side(int(nk[k]), int(mk[k]), modes[k], model, gaps)
        scores[k] = score
        alns[k] = Alignment(score, (), a_iv, b_iv)
    local = np.array([md == "local" for md in modes])
    # Local pairs cost every row of a chunk the clamp's and the best
    # tracking's calls: once they fill chunks of their own, they sweep apart.
    parts = (local, ~local) if min(local.sum(), (~local).sum()) >= chunk else (True,)
    w = None if band is None else 2 * band + 1  # a banded row's width
    # Each chunk with its direction tensor's cells: n rows of Σ(mₖ + 1)
    # packed, of B · w banded.
    plan = [
        (idx, n, m, n * (int(mk[idx].sum()) + idx.size if w is None else idx.size * w))
        for part in parts for idx, n, m in _chunks(nk * part, mk, band, chunk, linear)
    ]
    if linear is not None:
        from fragalign.align.hirschberg import linear_align  # it imports this module

        walks = [linear(cells) for *_, cells in plan]
        for k in (k for (idx, *_), walk in zip(plan, walks) if walk for k in idx):
            alns[k] = linear_align(*codes[k], model, mode=modes[k])
        plan = [c for c, walk in zip(plan, walks) if not walk]
    if plan:
        Dbuf = np.empty(max(cells for *_, cells in plan), dtype=np.uint8) if align else None
        B = max(idx.size for idx, *_ in plan)
        dt = _F64 if band is not None else _sweep_dtype(model, gaps, nk.max(), mk.max(), B)
        if band is not None:  # a banded chunk's padded codes
            Abuf = np.empty(max(idx.size * n for idx, n, *_ in plan), dtype=np.uint8)
            Bbuf = np.empty(max(idx.size * m for idx, _, m, _ in plan), dtype=np.uint8)
    for idx, n, m, cells in plan:
        B = idx.size
        D = None if Dbuf is None else Dbuf[:cells]
        if band is None:  # pairs: local by nₖ ascending | the rest by nₖ descending
            idx = idx[np.lexsort((np.where(local[idx], nk[idx], -nk[idx]), ~local[idx]))]
            cmode = [modes[k] for k in idx] if mixed else modes[0]
            pk = _Pack([codes[k] for k in idx], span)
            D = None if D is None else D.reshape(n, pk.W)
            score, ei, ej, state = _sweep_ends(pk, model, cmode, gaps, D, dt)
        else:
            A = Abuf[: B * n].reshape(B, n)
            Bm = Bbuf[: B * m].reshape(B, m)
            A.fill(_PAD)
            Bm.fill(_PAD)
            for r, k in enumerate(idx):
                A[r, : nk[k]] = codes[k][0]
                Bm[r, : mk[k]] = codes[k][1]
            ragged = nk[idx].min() < n or mk[idx].min() < m
            lens = (nk[idx], mk[idx]) if ragged else (None, None)
            D = None if D is None else D.reshape(n, B, w)
            score, ei, ej, state = _banded_ends(A, Bm, model, band, gaps, D, *lens)
        if D is None:
            scores[idx] = score
            continue
        for r, k in enumerate(idx):
            i, j = int(ei[r]), int(ej[r])
            # The pair's code rows down to its end row (a walk reads no row
            # below it), as bytes: the fastest per-step read Python offers.
            if band is None:
                db, width = D[:i, pk.c[r] + 1 : pk.c[r + 1]].tobytes(), int(mk[k])
            else:
                db, width = D[:i, r, :].tobytes(), w
            if gaps is None:
                walked, i0, j0 = _walk(db, width, i, j, band)
            else:
                walked, i0, j0 = _walk_affine(db, width, i, j, int(state[r]), band)
            a_iv = (i0 if modes[k] in ("local", "overlap") else 0, i)
            b_iv = (j0 if modes[k] == "local" else 0, j)
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
    lengths: each chunk lays its pairs end to end.  Exact on
    integer-valued models: they sweep in int32 while B · (n + m + 2)
    times the largest |matrix entry| or |gap| stays under 2**26, else in
    float64, where every operation stays integral; ``chunk`` bounds how
    many pairs sweep together (working set).
    """
    return _batch("score", pairs, model, "global", chunk=chunk)


def global_align_batch(
    pairs: _Pairs, model: SubstitutionModel | None = None, chunk: int = 64
) -> list[Alignment]:
    """Batched Needleman–Wunsch with table-free traceback.

    One forward sweep per chunk emits the packed direction tensor
    ((n, Σ(mₖ + 1)) uint8 — ~8x smaller than the float H table it
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
