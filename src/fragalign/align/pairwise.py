"""Pairwise nucleotide alignment: global, local, overlap, banded.

Kernel design
-------------
Every kernel sweeps the DP row by row with NumPy; two tricks carry the
throughput:

* **Shifted frontier ("f-space").**  A DP row is stored as
  ``F[j] = H[i][j] - g*j - i*g`` (the banded kernel shifts
  per-diagonal).  Under this change of variables the up-move
  ``H[i-1][j] + g`` becomes a plain *view* of the previous frontier,
  the diagonal move folds its constants into a pre-shifted
  substitution gather (``W - 2g``), the ``j = 0`` boundary becomes a
  per-row constant, and the in-row left-extension becomes an
  *unweighted* running maximum — a score row costs one add, one max,
  and one prefix-max.

* **Prefix max behind a switch.**  The left-extension
  ``H[j] = max(V[j], H[j-1] + g)`` collapses to a prefix maximum of
  the shifted frontier.  Two parity-tested implementations sit behind
  :func:`set_prefix_max_mode`: ``"scan"`` (``np.maximum.accumulate``,
  sequential per batch row) and ``"blocked"`` (a two-pass block-local
  accumulate plus a broadcast carry, which turns the scan into
  elementwise maxima that vectorize *across the batch* and wins for
  wide batches).  ``"auto"`` (the default) picks per shape.  Both are
  exact — ``max`` is associative — so results are bit-identical.

Traceback is **table-free**: the align kernels emit one packed uint8
direction code per cell during the forward sweep (2 bits — bit0 "up
beat diag", bit1 "left beat both"; local adds bit2 "stop, cell is 0")
and each pair is recovered by an exact O(n+m) walk over the codes.
No float H table is kept and no float equality is re-tested during
the walk, which removes both the 8x memory cost of the old float
table and the tie-breaking fragility of recompute walks.  Tie order
everywhere: diagonal, then up, then left (then stop).

The ``*_batch`` kernels sweep a whole batch of same-shape pairs in
lockstep: the frontier is a (batch, m+1) matrix and every DP row
costs one set of NumPy ops for the entire batch.  The scalar entry
points (:func:`global_align`, :func:`local_align`, ...) are the batch
kernels at batch size 1, so *every* traceback in the system goes
through the direction-code walk.  The ``*_reference`` functions are
independent per-cell Python oracles for the parity tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    "set_prefix_max_mode",
    "get_prefix_max_mode",
]

_NEG = -1e30  # effectively -inf while staying finite for arithmetic


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


def _batch_codes(
    pairs: Sequence[tuple[str | np.ndarray, str | np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Stack a batch of same-length pairs into code matrices (B, n), (B, m)."""
    A = np.stack([_as_codes(a) for a, _ in pairs])
    B = np.stack([_as_codes(b) for _, b in pairs])
    return A, B


def _check_uniform(
    pairs: Sequence[tuple[str | np.ndarray, str | np.ndarray]]
) -> tuple[int, int]:
    n, m = len(pairs[0][0]), len(pairs[0][1])
    for a, b in pairs:
        if len(a) != n or len(b) != m:
            raise ValueError(
                "batch kernels need uniform lengths; bucket by shape first "
                "(AlignmentEngine does this automatically)"
            )
    return n, m


def _check_band(n: int, m: int, band) -> int:
    """Validate ``band`` once, up front, for an (n, m)-shaped pair."""
    if not isinstance(band, (int, np.integer)) or isinstance(band, bool):
        raise ValueError(f"band must be an integer, got {band!r}")
    if band < 0:
        raise ValueError("band must be non-negative")
    if band < abs(n - m):
        raise ValueError("band too narrow to connect the corners")
    return int(band)


# ---------------------------------------------------------------------------
# Prefix-max switch and the rotating frontier buffers.
# ---------------------------------------------------------------------------

_PREFIX_MAX_MODES = ("auto", "scan", "blocked")
_prefix_max_mode = "auto"
_PM_BLOCK = 8  # block width of the two-pass formulation
_PM_MIN_BATCH = 192  # "auto": blocked only pays off for wide batches


def set_prefix_max_mode(mode: str) -> str:
    """Select the row prefix-max implementation; returns the old mode.

    ``"scan"`` is the sequential ``np.maximum.accumulate``;
    ``"blocked"`` is the two-pass block-local accumulate + broadcast
    carry; ``"auto"`` (default) uses blocked only where measurement
    says it wins — sweeps at least ~200 pairs wide, which the default
    ``chunk=64`` never reaches, so auto engages blocked only when a
    caller also raises the kernel ``chunk``.  The two produce
    bit-identical results (``max`` is associative) — a standing test
    invariant.
    """
    global _prefix_max_mode
    if mode not in _PREFIX_MAX_MODES:
        raise ValueError(
            f"unknown prefix-max mode {mode!r} (expected one of {_PREFIX_MAX_MODES})"
        )
    old, _prefix_max_mode = _prefix_max_mode, mode
    return old


def get_prefix_max_mode() -> str:
    """The currently selected prefix-max mode."""
    return _prefix_max_mode


class _Frontier:
    """Rotating padded row buffers plus the prefix-max strategy.

    Three (B, P) float buffers — ``prev`` (last finished row), ``cur``
    (this row before left-extension), ``acc`` (this row after) — whose
    first ``M`` columns are live; any pad beyond ``M`` exists only for
    the blocked prefix-max and starts at -inf (pad positions sit after
    the live data inside the final block, so block-local maxima never
    leak pad values into live columns, and the final block's carry is
    never consumed).
    """

    __slots__ = ("M", "blocked", "prev", "cur", "acc", "_views", "_tot", "_carry")

    def __init__(self, B: int, M: int) -> None:
        mode = _prefix_max_mode
        self.M = M
        self.blocked = mode == "blocked" or (
            mode == "auto" and B >= _PM_MIN_BATCH and M > 2 * _PM_BLOCK
        )
        if self.blocked:
            nb = -(-M // _PM_BLOCK)
            P = nb * _PM_BLOCK
        else:
            nb, P = 1, M
        self.prev = np.full((B, P), -np.inf)
        self.cur = np.full((B, P), -np.inf)
        self.acc = np.full((B, P), -np.inf)
        if self.blocked:
            self._views = {
                id(buf): buf.reshape(B, nb, _PM_BLOCK)
                for buf in (self.prev, self.cur, self.acc)
            }
            self._tot = np.empty((B, nb))
            self._carry = np.empty((B, nb))

    def prefix_max(self) -> None:
        """``acc[:, :M]`` <- running maxima of ``cur[:, :M]`` (axis 1)."""
        if not self.blocked:
            np.maximum.accumulate(
                self.cur[:, : self.M], axis=1, out=self.acc[:, : self.M]
            )
            return
        cur_v = self._views[id(self.cur)]
        acc_v = self._views[id(self.acc)]
        # Pass 1: block-local running maxima.  Each of the K-1 steps is
        # one elementwise max over the whole (batch, n_blocks) grid —
        # vectorized across the batch, unlike the sequential scan.
        np.copyto(acc_v[:, :, 0], cur_v[:, :, 0])
        for k in range(1, _PM_BLOCK):
            np.maximum(acc_v[:, :, k - 1], cur_v[:, :, k], out=acc_v[:, :, k])
        # Pass 2: carry every block's total into all later blocks.
        np.maximum.accumulate(acc_v[:, :, _PM_BLOCK - 1], axis=1, out=self._tot)
        self._carry[:, 0] = -np.inf
        self._carry[:, 1:] = self._tot[:, :-1]
        np.maximum(acc_v, self._carry[:, :, None], out=acc_v)

    def advance(self) -> None:
        """The accumulated row becomes ``prev``; old ``prev`` is scratch."""
        self.prev, self.acc = self.acc, self.prev


# ---------------------------------------------------------------------------
# Direction codes and the table-free walks.
#
# bit0 (value 1): the up-move strictly beat the diagonal.
# bit1 (value 2): the left-extension strictly beat both.
# bit2 (value 4): local only — the cell was clamped to 0 (stop).
#
# Checking high bits first on the walk reproduces the tie order
# diagonal > up > left (> stop overrides all, matching the scalar
# local walk's ``H > 0`` guard).
# ---------------------------------------------------------------------------


def _walk_global(db: bytes, m: int, i: int, j: int) -> tuple[list[tuple[int, int]], int, int]:
    """Walk direction codes from (i, j) toward the origin.

    ``db`` is the row-major bytes of the (n, m) code matrix for one
    pair.  Returns (pairs in forward order, stop_i, stop_j); the walk
    stops at the first row/column (remaining moves are forced gaps).
    """
    rev: list[tuple[int, int]] = []
    while i > 0 and j > 0:
        c = db[(i - 1) * m + (j - 1)]
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


def _walk_local(db: bytes, m: int, i: int, j: int) -> tuple[list[tuple[int, int]], int, int]:
    """Like :func:`_walk_global` but a stop code (bit2) ends the walk."""
    rev: list[tuple[int, int]] = []
    while i > 0 and j > 0:
        c = db[(i - 1) * m + (j - 1)]
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
# Global (Needleman–Wunsch) and overlap kernels.
#
# f-space: F[j] = H[i][j] - g*j - i*g.  Then
#   diag  H[i-1][j-1] + W  ->  F_prev[j-1] + (W - 2g)
#   up    H[i-1][j] + g    ->  F_prev[j]            (free: a view)
#   left  H[i][j-1] + g    ->  F_cur[j-1]           (unweighted prefix max)
#   H[i][0] = i*g          ->  F[0] = 0             (global)
#   H[i][0] = 0            ->  F[0] = -i*g          (overlap: free start in a)
#   row 0 (H = g*j)        ->  F = 0 everywhere
# ---------------------------------------------------------------------------


def _sweep_global(
    A: np.ndarray,
    Bm: np.ndarray,
    model: SubstitutionModel,
    overlap: bool = False,
    D: np.ndarray | None = None,
    F0: np.ndarray | None = None,
    i0: int = 0,
) -> _Frontier:
    """Forward sweep; final frontier in ``fr.prev``.  Emits direction
    codes into ``D`` ((n, B, m) uint8) when given.

    ``F0`` is an optional initial frontier (f-space, shape (B, m+1)) —
    the checkpoint row a linear-memory walk restarts from; ``i0`` is
    that row's absolute index (the overlap boundary depends on it).
    Defaults reproduce a sweep from row 0.
    """
    g = model.gap
    B, n = A.shape
    m = Bm.shape[1]
    M = m + 1
    P2 = (model.matrix - 2.0 * g)[:, Bm]  # per-code diag rows, pre-shifted
    bidx = np.arange(B)
    fr = _Frontier(B, M)
    fr.prev[:, :M] = 0.0 if F0 is None else F0
    t1 = np.empty((B, m))
    if D is not None:
        up = np.empty((B, m), dtype=bool)
        left = np.empty((B, m), dtype=bool)
        tmp8 = np.empty((B, m), dtype=np.uint8)
    for i in range(1, n + 1):
        prev, cur = fr.prev, fr.cur
        np.add(prev[:, :m], P2[A[:, i - 1], bidx], out=t1)
        up_from = prev[:, 1:M]
        if D is not None:
            np.greater(up_from, t1, out=up)
        cur[:, 0] = -(i0 + i) * g if overlap else 0.0
        np.maximum(t1, up_from, out=cur[:, 1:M])
        fr.prefix_max()
        if D is not None:
            np.greater(fr.acc[:, 1:M], cur[:, 1:M], out=left)
            np.multiply(left.view(np.uint8), 2, out=tmp8)
            np.add(tmp8, up.view(np.uint8), out=D[i - 1])
        fr.advance()
    return fr


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


def global_scores_batch(
    pairs: Sequence[tuple[str | np.ndarray, str | np.ndarray]],
    model: SubstitutionModel | None = None,
    chunk: int = 64,
) -> np.ndarray:
    """Needleman–Wunsch scores for a batch of same-shape pairs.

    Each pair is (a, b) as strings or pre-encoded uint8 codes; all
    ``a`` must share one length and all ``b`` another.  Exact on
    integer-valued models (every operation stays integral in float64);
    ``chunk`` bounds how many pairs sweep together (working set).
    """
    model = model or unit_dna()
    if not pairs:
        return np.zeros(0)
    n, m = _check_uniform(pairs)
    if n == 0 or m == 0:
        return np.full(len(pairs), (n + m) * model.gap)
    g = model.gap
    shift = g * (m + n)
    out = np.empty(len(pairs))
    for lo in range(0, len(pairs), chunk):
        A, B = _batch_codes(pairs[lo : lo + chunk])
        fr = _sweep_global(A, B, model)
        out[lo : lo + A.shape[0]] = fr.prev[:, m] + shift
    return out


def global_score(a: str, b: str, model: SubstitutionModel | None = None) -> float:
    """Needleman–Wunsch score, row-vectorized (score only)."""
    return float(global_scores_batch([(a, b)], model, chunk=1)[0])


def global_align_batch(
    pairs: Sequence[tuple[str | np.ndarray, str | np.ndarray]],
    model: SubstitutionModel | None = None,
    chunk: int = 64,
) -> list[Alignment]:
    """Batched Needleman–Wunsch with table-free traceback.

    One forward sweep per chunk emits the packed direction tensor
    ((n, B, m) uint8 — ~8x smaller than the float H table it
    replaces); each pair is then an exact O(n+m) code walk.  Equals a
    loop of :func:`global_align` — same scores, same tie-breaking.
    """
    model = model or unit_dna()
    if not pairs:
        return []
    n, m = _check_uniform(pairs)
    g = model.gap
    if n == 0 or m == 0:
        return [Alignment((n + m) * g, (), (0, n), (0, m)) for _ in pairs]
    shift = g * (m + n)
    out: list[Alignment] = []
    Dbuf = np.empty((n, min(chunk, len(pairs)), m), dtype=np.uint8)
    for lo in range(0, len(pairs), chunk):
        A, Bm = _batch_codes(pairs[lo : lo + chunk])
        B = A.shape[0]
        D = Dbuf[:, :B]
        fr = _sweep_global(A, Bm, model, D=D)
        scores = fr.prev[:, m] + shift
        for k in range(B):
            walked, _, _ = _walk_global(_pair_bytes(D, k), m, n, m)
            out.append(Alignment(float(scores[k]), tuple(walked), (0, n), (0, m)))
    return out


def global_align(a: str, b: str, model: SubstitutionModel | None = None) -> Alignment:
    """Needleman–Wunsch with traceback (via the direction-code walk)."""
    return global_align_batch([(a, b)], model, chunk=1)[0]


# ---------------------------------------------------------------------------
# Overlap: free leading gaps in a, free trailing gaps in b.
# ---------------------------------------------------------------------------


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


def overlap_scores_batch(
    pairs: Sequence[tuple[str | np.ndarray, str | np.ndarray]],
    model: SubstitutionModel | None = None,
    chunk: int = 64,
) -> np.ndarray:
    """Best suffix(a)–prefix(b) overlap scores for same-shape pairs."""
    model = model or unit_dna()
    if not pairs:
        return np.zeros(0)
    n, m = _check_uniform(pairs)
    if n == 0 or m == 0:
        return np.zeros(len(pairs))
    g = model.gap
    gjs = g * np.arange(m + 1)
    out = np.empty(len(pairs))
    for lo in range(0, len(pairs), chunk):
        A, B = _batch_codes(pairs[lo : lo + chunk])
        fr = _sweep_global(A, B, model, overlap=True)
        # H[n][j] = F[j] + g*j + n*g; the free end in b takes the max.
        out[lo : lo + A.shape[0]] = (fr.prev[:, : m + 1] + gjs).max(axis=1) + n * g
    return out


def overlap_align_batch(
    pairs: Sequence[tuple[str | np.ndarray, str | np.ndarray]],
    model: SubstitutionModel | None = None,
    chunk: int = 64,
) -> list[Alignment]:
    """Batched overlap alignment with table-free traceback.

    ``a_interval`` is (a_start, n) and ``b_interval`` is (0, b_end):
    the overlap aligns ``a[a_start:]`` against ``b[:b_end]``.
    """
    model = model or unit_dna()
    if not pairs:
        return []
    n, m = _check_uniform(pairs)
    if n == 0 or m == 0:
        return [Alignment(0.0, (), (n, n), (0, 0)) for _ in pairs]
    g = model.gap
    gjs = g * np.arange(m + 1)
    out: list[Alignment] = []
    Dbuf = np.empty((n, min(chunk, len(pairs)), m), dtype=np.uint8)
    for lo in range(0, len(pairs), chunk):
        A, Bm = _batch_codes(pairs[lo : lo + chunk])
        B = A.shape[0]
        D = Dbuf[:, :B]
        fr = _sweep_global(A, Bm, model, overlap=True, D=D)
        hrow = fr.prev[:, : m + 1] + gjs
        ends = np.argmax(hrow, axis=1)  # first maximum, like np.argmax
        for k in range(B):
            b_end = int(ends[k])
            score = float(hrow[k, b_end] + n * g)
            walked, a_start, _ = _walk_global(_pair_bytes(D, k), m, n, b_end)
            out.append(
                Alignment(score, tuple(walked), (a_start, n), (0, b_end))
            )
    return out


def overlap_align(a: str, b: str, model: SubstitutionModel | None = None) -> Alignment:
    """Best suffix(a)–prefix(b) overlap alignment with traceback."""
    return overlap_align_batch([(a, b)], model, chunk=1)[0]


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


# ---------------------------------------------------------------------------
# Local (Smith–Waterman) kernels.
#
# f-space again (F = H - g*j - i*g); the 0-clamp becomes a clamp
# against the per-row vector cv[j] = -g*j - i*g (the F-value of a
# zero cell), and the running best needs one subtract per row to read
# the H values back out.
# ---------------------------------------------------------------------------


def _sweep_local(
    A: np.ndarray,
    Bm: np.ndarray,
    model: SubstitutionModel,
    D: np.ndarray | None = None,
    F0: np.ndarray | None = None,
    i0: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, _Frontier]:
    """Forward local sweep; returns (best, best_i, best_j, frontier)
    per pair (``best_i`` counts rows within this sweep).

    ``F0``/``i0`` restart the sweep from a checkpoint frontier, as in
    :func:`_sweep_global`; the local f-space depends on the absolute
    row index, so ``i0`` shifts the zero-cell clamp accordingly.
    """
    g = model.gap
    B, n = A.shape
    m = Bm.shape[1]
    M = m + 1
    P2 = (model.matrix - 2.0 * g)[:, Bm]
    bidx = np.arange(B)
    negjs = -g * np.arange(M)
    fr = _Frontier(B, M)
    if F0 is None:
        fr.prev[:, :M] = negjs  # row 0: H = 0  ->  F = -g*j
    else:
        fr.prev[:, :M] = F0
    t1 = np.empty((B, m))
    cv = np.empty(M)
    hrow = np.empty((B, M))
    best = np.zeros(B)
    bi = np.zeros(B, dtype=np.int64)
    bj = np.zeros(B, dtype=np.int64)
    if D is not None:
        up = np.empty((B, m), dtype=bool)
        left = np.empty((B, m), dtype=bool)
        stop = np.empty((B, m), dtype=bool)
        tmp8 = np.empty((B, m), dtype=np.uint8)
    for i in range(1, n + 1):
        prev, cur = fr.prev, fr.cur
        np.add(prev[:, :m], P2[A[:, i - 1], bidx], out=t1)
        up_from = prev[:, 1:M]
        if D is not None:
            np.greater(up_from, t1, out=up)
        np.add(negjs, -g * (i0 + i), out=cv)  # F-value of a zero cell, this row
        cur[:, 0] = cv[0]
        np.maximum(t1, up_from, out=cur[:, 1:M])
        np.maximum(cur[:, :M], cv, out=cur[:, :M])  # the 0-clamp
        fr.prefix_max()
        acc = fr.acc
        # H never drops below its own clamped V, so no second clamp;
        # read the H row back out for the running best.
        np.subtract(acc[:, :M], cv, out=hrow)
        rowmax = hrow.max(axis=1)
        better = rowmax > best
        if better.any():
            best[better] = rowmax[better]
            bi[better] = i
            bj[better] = np.argmax(hrow[better], axis=1)
        if D is not None:
            np.greater(acc[:, 1:M], cur[:, 1:M], out=left)
            np.equal(acc[:, 1:M], cv[1:M], out=stop)  # H == 0: clamp won
            np.multiply(left.view(np.uint8), 2, out=tmp8)
            np.add(tmp8, up.view(np.uint8), out=D[i - 1])
            np.multiply(stop.view(np.uint8), 4, out=tmp8)
            np.add(D[i - 1], tmp8, out=D[i - 1])
        fr.advance()
    return best, bi, bj, fr


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


def local_scores_batch(
    pairs: Sequence[tuple[str | np.ndarray, str | np.ndarray]],
    model: SubstitutionModel | None = None,
    chunk: int = 64,
) -> np.ndarray:
    """Smith–Waterman scores for a batch of same-shape pairs."""
    model = model or unit_dna()
    if not pairs:
        return np.zeros(0)
    n, m = _check_uniform(pairs)
    if n == 0 or m == 0:
        return np.zeros(len(pairs))
    out = np.empty(len(pairs))
    for lo in range(0, len(pairs), chunk):
        A, B = _batch_codes(pairs[lo : lo + chunk])
        best, _, _, _ = _sweep_local(A, B, model)
        out[lo : lo + A.shape[0]] = best
    return out


def local_score(a: str, b: str, model: SubstitutionModel | None = None) -> float:
    """Smith–Waterman score, row-vectorized (score only)."""
    return float(local_scores_batch([(a, b)], model, chunk=1)[0])


def local_align_batch(
    pairs: Sequence[tuple[str | np.ndarray, str | np.ndarray]],
    model: SubstitutionModel | None = None,
    chunk: int = 64,
) -> list[Alignment]:
    """Batched Smith–Waterman with table-free traceback.

    The best cell per pair is tracked during the sweep (earliest row,
    then earliest column on ties — matching ``np.argmax`` over the
    full table) and the walk runs back over the direction codes until
    a stop code (a zero cell) or the table edge.
    """
    model = model or unit_dna()
    if not pairs:
        return []
    n, m = _check_uniform(pairs)
    if n == 0 or m == 0:
        return [Alignment(0.0, (), (0, 0), (0, 0)) for _ in pairs]
    out: list[Alignment] = []
    Dbuf = np.empty((n, min(chunk, len(pairs)), m), dtype=np.uint8)
    for lo in range(0, len(pairs), chunk):
        A, Bm = _batch_codes(pairs[lo : lo + chunk])
        B = A.shape[0]
        D = Dbuf[:, :B]
        best, bi, bj, _ = _sweep_local(A, Bm, model, D=D)
        for k in range(B):
            ei, ej = int(bi[k]), int(bj[k])
            walked, i0, j0 = _walk_local(_pair_bytes(D, k), m, ei, ej)
            out.append(
                Alignment(float(best[k]), tuple(walked), (i0, ei), (j0, ej))
            )
    return out


def local_align(a: str, b: str, model: SubstitutionModel | None = None) -> Alignment:
    """Smith–Waterman with traceback; returns the best local alignment."""
    return local_align_batch([(a, b)], model, chunk=1)[0]


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
) -> _Frontier:
    g = model.gap
    B, n = A.shape
    m = Bm.shape[1]
    w = 2 * band + 1
    M = w + 1  # slot w is the -inf sentinel feeding the up-shift
    P2m = model.matrix - 2.0 * g
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
        fr.advance()
        fr.prev[:, w] = -np.inf  # re-pin the sentinel after rotation
    return fr


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


def banded_scores_batch(
    pairs: Sequence[tuple[str | np.ndarray, str | np.ndarray]],
    band: int,
    model: SubstitutionModel | None = None,
    chunk: int = 64,
) -> np.ndarray:
    """Banded Needleman–Wunsch scores (|i - j| <= band) for a batch.

    Exact when the optimal path stays inside the band (always true if
    band >= |len(a) - len(b)| + number of indels); a cheap surrogate
    otherwise.  The vectorized diagonal-offset sweep costs O(n * band)
    per pair instead of O(n * m).
    """
    model = model or unit_dna()
    if not pairs:
        return np.zeros(0)
    n, m = _check_uniform(pairs)
    band = _check_band(n, m, band)
    if n == 0 or m == 0:
        return np.full(len(pairs), (n + m) * model.gap)
    g = model.gap
    k_end = m - n + band
    shift = g * k_end + 2.0 * g * n
    out = np.empty(len(pairs))
    w = 2 * band + 1
    if min(len(pairs), chunk) == 1 and n * w * 8 <= _BANDED_SINGLE_MAX_BYTES:
        # Batch-of-one sweeps are dispatch-bound; take the trimmed
        # single-pair path (identical scores, ~2x fewer NumPy calls).
        for k, (a, b) in enumerate(pairs):
            final = _sweep_banded_single(_as_codes(a), _as_codes(b), band, model)
            out[k] = final[k_end] + shift
        return out
    for lo in range(0, len(pairs), chunk):
        A, B = _batch_codes(pairs[lo : lo + chunk])
        fr = _sweep_banded(A, B, band, model)
        out[lo : lo + A.shape[0]] = fr.prev[:, k_end] + shift
    return out


def banded_align_batch(
    pairs: Sequence[tuple[str | np.ndarray, str | np.ndarray]],
    band: int,
    model: SubstitutionModel | None = None,
    chunk: int = 64,
) -> list[Alignment]:
    """Batched banded global alignment with table-free traceback."""
    model = model or unit_dna()
    if not pairs:
        return []
    n, m = _check_uniform(pairs)
    band = _check_band(n, m, band)
    g = model.gap
    if n == 0 or m == 0:
        return [Alignment((n + m) * g, (), (0, n), (0, m)) for _ in pairs]
    w = 2 * band + 1
    k_end = m - n + band
    shift = g * k_end + 2.0 * g * n

    def walk_codes(db: bytes, score: float) -> Alignment:
        i, j = n, m
        rev: list[tuple[int, int]] = []
        while i > 0 and j > 0:
            c = db[(i - 1) * w + (j - i + band)]
            if c >= 2:
                j -= 1
            elif c == 1:
                i -= 1
            else:
                rev.append((i - 1, j - 1))
                i -= 1
                j -= 1
        rev.reverse()
        return Alignment(score, tuple(rev), (0, n), (0, m))

    out: list[Alignment] = []
    if min(len(pairs), chunk) == 1 and n * w * 9 <= _BANDED_SINGLE_MAX_BYTES:
        D1 = np.empty((n, w), dtype=np.uint8)
        for a, b in pairs:
            final = _sweep_banded_single(_as_codes(a), _as_codes(b), band, model, D=D1)
            out.append(walk_codes(D1.tobytes(), float(final[k_end] + shift)))
        return out
    Dbuf = np.empty((n, min(chunk, len(pairs)), w), dtype=np.uint8)
    for lo in range(0, len(pairs), chunk):
        A, Bm = _batch_codes(pairs[lo : lo + chunk])
        B = A.shape[0]
        D = Dbuf[:, :B]
        fr = _sweep_banded(A, Bm, band, model, D=D)
        scores = fr.prev[:, k_end] + shift
        for k in range(B):
            out.append(walk_codes(_pair_bytes(D, k), float(scores[k])))
    return out


def banded_align(
    a: str, b: str, band: int, model: SubstitutionModel | None = None
) -> Alignment:
    """Banded global alignment with traceback."""
    return banded_align_batch([(a, b)], band, model, chunk=1)[0]


def banded_global_score(
    a: str, b: str, band: int, model: SubstitutionModel | None = None
) -> float:
    """Needleman–Wunsch restricted to |i - j| <= band.

    The vectorized diagonal-offset kernel (the scalar dict DP it
    replaced survives as :func:`banded_global_score_reference`, the
    parity oracle).  ``band`` is validated once up front.
    """
    return float(banded_scores_batch([(a, b)], band, model, chunk=1)[0])


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


def _affine_empty(
    n: int, m: int, open_: float, ext: float, mode: str
) -> tuple[float, tuple[int, int], tuple[int, int]]:
    """Score and intervals for a degenerate (n==0 or m==0) affine pair."""
    if mode in ("local", "overlap"):
        score = 0.0
    elif n == 0 and m == 0:
        score = 0.0
    else:
        score = open_ + (max(n, m) - 1) * ext
    if mode == "local":
        return score, (0, 0), (0, 0)
    if mode == "overlap":
        return score, (n, n), (0, 0)
    return score, (0, n), (0, m)


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
) -> tuple[_AffineRows, np.ndarray, np.ndarray, np.ndarray]:
    """Forward Gotoh sweep for ``mode`` in global/overlap/local.

    Returns (rows, best, best_i, best_j); the final frontiers are in
    ``rows.Mp/Xp/Yp``.  ``best*`` track the running best M cell (used
    by local; zeros otherwise).  Emits packed direction codes into
    ``D`` ((n, B, m) uint8) when given.
    """
    B, n = A.shape
    m = Bm.shape[1]
    M = m + 1
    P = model.matrix[:, Bm]  # per-code substitution rows, (5, B, m)
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
        r.advance()
    return r, best, bi, bj


def _end_state(mv: float, xv: float, yv: float) -> int:
    """Best end state with tie order M > X > Y."""
    best = max(mv, xv, yv)
    if mv == best:
        return 0
    if xv == best:
        return 1
    return 2


def _walk_affine(
    db: bytes, m: int, i: int, j: int, state: int, band: int | None = None
) -> tuple[list[tuple[int, int]], int, int]:
    """Walk affine direction codes from (i, j) in ``state`` toward the
    origin; returns (pairs in forward order, stop_i, stop_j).

    ``db`` is the row-major bytes of one pair's code matrix: (n, m)
    cell-indexed, or — when ``band`` is given — the (n, 2*band+1)
    diagonal-offset layout, where ``m`` is the band width and a cell
    (i, j) lives at offset ``j - i + band``.  The walk ends at the
    first row/column or at a local stop code.
    """
    rev: list[tuple[int, int]] = []
    while i > 0 and j > 0:
        col = (j - 1) if band is None else (j - i + band)
        c = db[(i - 1) * m + col]
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


def _affine_batch(
    pairs: Sequence[tuple[str | np.ndarray, str | np.ndarray]],
    model: SubstitutionModel | None,
    gap_open,
    gap_extend,
    chunk: int,
    mode: str,
    kind: str,
):
    """Shared driver for the unbanded affine score/align kernels."""
    model = model or unit_dna()
    open_, ext = check_affine_gaps(gap_open, gap_extend)
    if not pairs:
        return np.zeros(0) if kind == "score" else []
    n, m = _check_uniform(pairs)
    if n == 0 or m == 0:
        score, ai, bi_ = _affine_empty(n, m, open_, ext, mode)
        if kind == "score":
            return np.full(len(pairs), score)
        return [Alignment(score, (), ai, bi_) for _ in pairs]
    out_scores = np.empty(len(pairs))
    out_alns: list[Alignment] = []
    cap = min(chunk, len(pairs))
    rows = np.arange(cap)
    Dbuf = np.empty((n, cap, m), dtype=np.uint8) if kind == "align" else None
    for lo in range(0, len(pairs), chunk):
        A, Bm = _batch_codes(pairs[lo : lo + chunk])
        B = A.shape[0]
        D = Dbuf[:, :B] if Dbuf is not None else None
        r, best, bi, bj = _sweep_affine(A, Bm, model, open_, ext, mode, D=D)
        if mode == "global":
            mv, xv, yv = r.Mp[:, m], r.Xp[:, m], r.Yp[:, m]
            scores = np.maximum(np.maximum(mv, xv), yv)
        elif mode == "overlap":
            hrow = np.maximum(np.maximum(r.Mp, r.Xp), r.Yp)
            ends = np.argmax(hrow, axis=1)
            scores = hrow[rows[:B], ends]
        else:  # local
            scores = best
        if kind == "score":
            out_scores[lo : lo + B] = scores
            continue
        for k in range(B):
            db = _pair_bytes(D, k)
            if mode == "global":
                state = _end_state(float(r.Mp[k, m]), float(r.Xp[k, m]), float(r.Yp[k, m]))
                walked, _, _ = _walk_affine(db, m, n, m, state)
                out_alns.append(
                    Alignment(float(scores[k]), tuple(walked), (0, n), (0, m))
                )
            elif mode == "overlap":
                b_end = int(ends[k])
                state = _end_state(
                    float(r.Mp[k, b_end]), float(r.Xp[k, b_end]), float(r.Yp[k, b_end])
                )
                walked, a_start, _ = _walk_affine(db, m, n, b_end, state)
                out_alns.append(
                    Alignment(float(scores[k]), tuple(walked), (a_start, n), (0, b_end))
                )
            else:  # local: best cell is always an M cell
                ei, ej = int(bi[k]), int(bj[k])
                walked, i0, j0 = _walk_affine(db, m, ei, ej, 0)
                out_alns.append(
                    Alignment(float(scores[k]), tuple(walked), (i0, ei), (j0, ej))
                )
    return out_scores if kind == "score" else out_alns


def affine_scores_batch(
    pairs: Sequence[tuple[str | np.ndarray, str | np.ndarray]],
    model: SubstitutionModel | None = None,
    gap_open: float = -4.0,
    gap_extend: float = -1.0,
    chunk: int = 64,
) -> np.ndarray:
    """Batched Gotoh global scores (affine gaps) for same-shape pairs."""
    return _affine_batch(pairs, model, gap_open, gap_extend, chunk, "global", "score")


def affine_align_batch(
    pairs: Sequence[tuple[str | np.ndarray, str | np.ndarray]],
    model: SubstitutionModel | None = None,
    gap_open: float = -4.0,
    gap_extend: float = -1.0,
    chunk: int = 64,
) -> list[Alignment]:
    """Batched Gotoh global alignment with table-free traceback."""
    return _affine_batch(pairs, model, gap_open, gap_extend, chunk, "global", "align")


def affine_local_scores_batch(
    pairs: Sequence[tuple[str | np.ndarray, str | np.ndarray]],
    model: SubstitutionModel | None = None,
    gap_open: float = -4.0,
    gap_extend: float = -1.0,
    chunk: int = 64,
) -> np.ndarray:
    """Batched affine Smith–Waterman scores for same-shape pairs."""
    return _affine_batch(pairs, model, gap_open, gap_extend, chunk, "local", "score")


def affine_local_align_batch(
    pairs: Sequence[tuple[str | np.ndarray, str | np.ndarray]],
    model: SubstitutionModel | None = None,
    gap_open: float = -4.0,
    gap_extend: float = -1.0,
    chunk: int = 64,
) -> list[Alignment]:
    """Batched affine Smith–Waterman with table-free traceback."""
    return _affine_batch(pairs, model, gap_open, gap_extend, chunk, "local", "align")


def affine_overlap_scores_batch(
    pairs: Sequence[tuple[str | np.ndarray, str | np.ndarray]],
    model: SubstitutionModel | None = None,
    gap_open: float = -4.0,
    gap_extend: float = -1.0,
    chunk: int = 64,
) -> np.ndarray:
    """Batched affine suffix(a)–prefix(b) overlap scores."""
    return _affine_batch(pairs, model, gap_open, gap_extend, chunk, "overlap", "score")


def affine_overlap_align_batch(
    pairs: Sequence[tuple[str | np.ndarray, str | np.ndarray]],
    model: SubstitutionModel | None = None,
    gap_open: float = -4.0,
    gap_extend: float = -1.0,
    chunk: int = 64,
) -> list[Alignment]:
    """Batched affine overlap alignment with table-free traceback."""
    return _affine_batch(pairs, model, gap_open, gap_extend, chunk, "overlap", "align")


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
) -> _AffineRows:
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
    Pm = model.matrix
    if B * n * w * 8 <= (64 << 20):
        W_all = Pm[A[:, :, None], Bm[:, jm1_all]]  # (B, n, w)
    r = _AffineRows(B, M)
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
        r.advance()
    return r


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


def affine_banded_scores_batch(
    pairs: Sequence[tuple[str | np.ndarray, str | np.ndarray]],
    band: int,
    model: SubstitutionModel | None = None,
    gap_open: float = -4.0,
    gap_extend: float = -1.0,
    chunk: int = 64,
) -> np.ndarray:
    """Banded Gotoh scores (|i - j| <= band) for same-shape pairs."""
    model = model or unit_dna()
    open_, ext = check_affine_gaps(gap_open, gap_extend)
    if not pairs:
        return np.zeros(0)
    n, m = _check_uniform(pairs)
    band = _check_band(n, m, band)
    if n == 0 or m == 0:
        return np.full(len(pairs), _affine_empty(n, m, open_, ext, "global")[0])
    k_end = m - n + band
    out = np.empty(len(pairs))
    w = 2 * band + 1
    if min(len(pairs), chunk) == 1 and n * w * 8 <= _BANDED_SINGLE_MAX_BYTES:
        # Batch-of-one sweeps are dispatch-bound; take the trimmed
        # single-pair path (identical scores, fewer NumPy calls).
        for k, (a, b) in enumerate(pairs):
            Mf, Xf, Yf = _sweep_affine_banded_single(
                _as_codes(a), _as_codes(b), band, model, open_, ext
            )
            out[k] = max(float(Mf[k_end]), float(Xf[k_end]), float(Yf[k_end]))
        return out
    for lo in range(0, len(pairs), chunk):
        A, B = _batch_codes(pairs[lo : lo + chunk])
        r = _sweep_affine_banded(A, B, band, model, open_, ext)
        out[lo : lo + A.shape[0]] = np.maximum(
            np.maximum(r.Mp[:, k_end], r.Xp[:, k_end]), r.Yp[:, k_end]
        )
    return out


def affine_banded_align_batch(
    pairs: Sequence[tuple[str | np.ndarray, str | np.ndarray]],
    band: int,
    model: SubstitutionModel | None = None,
    gap_open: float = -4.0,
    gap_extend: float = -1.0,
    chunk: int = 64,
) -> list[Alignment]:
    """Batched banded Gotoh alignment with table-free traceback."""
    model = model or unit_dna()
    open_, ext = check_affine_gaps(gap_open, gap_extend)
    if not pairs:
        return []
    n, m = _check_uniform(pairs)
    band = _check_band(n, m, band)
    if n == 0 or m == 0:
        score, ai, bi_ = _affine_empty(n, m, open_, ext, "global")
        return [Alignment(score, (), ai, bi_) for _ in pairs]
    w = 2 * band + 1
    k_end = m - n + band
    out: list[Alignment] = []
    if min(len(pairs), chunk) == 1 and n * w * 9 <= _BANDED_SINGLE_MAX_BYTES:
        D1 = np.empty((n, w), dtype=np.uint8)
        for a, b in pairs:
            Mf, Xf, Yf = _sweep_affine_banded_single(
                _as_codes(a), _as_codes(b), band, model, open_, ext, D=D1
            )
            state = _end_state(float(Mf[k_end]), float(Xf[k_end]), float(Yf[k_end]))
            score = (Mf[k_end], Xf[k_end], Yf[k_end])[state]
            walked, _, _ = _walk_affine(D1.tobytes(), w, n, m, state, band=band)
            out.append(Alignment(float(score), tuple(walked), (0, n), (0, m)))
        return out
    Dbuf = np.empty((n, min(chunk, len(pairs)), w), dtype=np.uint8)
    for lo in range(0, len(pairs), chunk):
        A, Bm = _batch_codes(pairs[lo : lo + chunk])
        B = A.shape[0]
        D = Dbuf[:, :B]
        r = _sweep_affine_banded(A, Bm, band, model, open_, ext, D=D)
        for k in range(B):
            state = _end_state(
                float(r.Mp[k, k_end]), float(r.Xp[k, k_end]), float(r.Yp[k, k_end])
            )
            score = (r.Mp[k, k_end], r.Xp[k, k_end], r.Yp[k, k_end])[state]
            walked, _, _ = _walk_affine(_pair_bytes(D, k), w, n, m, state, band=band)
            out.append(Alignment(float(score), tuple(walked), (0, n), (0, m)))
    return out
