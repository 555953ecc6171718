"""Linear-memory alignment with *exact* traceback reproduction.

The direction-tensor traceback of the batched kernels holds one packed
byte per DP cell — an ``(n, Σ(mₖ + 1))`` tensor.  At 32k x 32k that is a
gigabyte per pair, which caps pair length long before the hardware
does.  This module recovers the **byte-identical** alignment in
near-linear memory with a Hirschberg-style divide and conquer:

* split the rows in half and recompute the frontier at the middle row
  with a *score-only* half sweep (O(m) memory — the same kernels, no
  direction codes);
* recurse on the **bottom** half first: its backward walk reveals the
  exact column where the canonical traceback crosses the middle row;
* recurse on the top half with the columns truncated to that crossing
  column (the walk can never move right of it);
* at small sub-problems, emit direction codes for just that block
  (bounded by ``block_cells``) and walk them with the standard code
  walk.

Because every block sweep restarts from a checkpoint frontier computed
by the *same* kernel operations, the block's direction codes — and
therefore the walk — are bit-identical to what the full tensor sweep
would have produced.  The result is *equal by construction* to
``global_align`` / ``overlap_align`` / ``local_align``, not merely
co-optimal: a standing test invariant.

Memory is O(m·log n) (one checkpoint frontier per recursion level)
plus the constant ``block_cells`` code block — versus O(n·m) for the
tensor.  Time is ~2-3x a score-only sweep for typical inputs (the
bottom-half chain re-sweeps full-width rows; truncated top halves
shrink geometrically), degrading toward O(n·m·log n) only when the
optimal path hugs the top-right corner.

The classic score-splitting Hirschberg (which returns *a* co-optimal
alignment, not the canonical one) survives as
:func:`hirschberg_align_reference`, the score-parity oracle.
"""

from __future__ import annotations

import numpy as np

from fragalign.align.pairwise import (
    Alignment,
    _empty_side,
    _Pack,
    _sweep_dtype,
    _sweep_ends,
    _sweep_linear,
    _walk,
    global_align,
)
from fragalign.align.scoring_matrices import SubstitutionModel, encode, unit_dna

__all__ = ["hirschberg_align", "hirschberg_align_reference", "linear_align"]

#: Direction-code cells a base-case block may hold (bytes); 4 MiB of
#: codes per block keeps the walk's working set small while making the
#: per-block Python overhead negligible.
DEFAULT_BLOCK_CELLS = 1 << 22

LINEAR_MODES = ("global", "overlap", "local")


class _LinearWalk:
    """One linear-memory walk: mode-specific sweeps + the recursion."""

    def __init__(
        self,
        a_codes: np.ndarray,
        b_codes: np.ndarray,
        model: SubstitutionModel,
        mode: str,
        block_cells: int,
        dt: np.dtype,
    ) -> None:
        self.ac = a_codes
        self.bc = b_codes
        self.model = model
        self.mode = mode
        self.block_cells = max(1, block_cells)
        self.dt = dt  # the sweeps' and checkpoint rows' dtype
        self.segments: list[list[tuple[int, int]]] = []  # bottom-first
        self.stop: tuple[int, int] | None = None  # where the walk ended
        self.corner: float | None = None  # f-space F at (len(ac), je_root)

    # -- kernel plumbing ----------------------------------------------

    def _sweep(self, lo: int, hi: int, F_lo: np.ndarray, je: int, D=None):
        """Sweep rows (lo, hi] over columns 0..je from checkpoint
        ``F_lo``; returns the new frontier row (f-space, length je+1)."""
        pk = _Pack([(self.ac[lo:hi], self.bc[:je])])
        F0 = F_lo[: je + 1]
        return _sweep_linear(pk, self.model, self.mode, D=D, F0=F0, i0=lo, dt=self.dt)[0]

    # -- the recursion ------------------------------------------------

    def run(self, lo: int, hi: int, F_lo: np.ndarray, je: int) -> int | None:
        """Walk rows (lo, hi] backward from (hi, je).

        Appends this range's aligned pairs (forward order, absolute
        indices) as one segment per block, bottom blocks first.
        Returns the crossing column at row ``lo``, or ``None`` when the
        walk terminated inside the range (column 0 reached, or a local
        stop code) — ``self.stop`` then holds the terminal cell.
        """
        if je == 0:
            # Already pinned to column 0: the remaining rows are forced
            # gaps, no pairs.  (self.stop was set when j first hit 0.)
            return 0
        rows = hi - lo
        if rows == 0:
            return je
        if rows * je <= self.block_cells or rows <= 1:
            D = np.empty((rows, je + 1), dtype=np.uint8)
            F_hi = self._sweep(lo, hi, F_lo, je, D=D)
            if hi == len(self.ac) and self.corner is None:
                # The first base case is always the bottom-right block
                # (the bottom chain never shrinks rows or columns), so
                # its frontier carries the corner value for the score.
                self.corner = float(F_hi[je])
            walked, i_rel, j_stop = _walk(D[:, 1:].tobytes(), je, rows, je)
            if walked:
                self.segments.append([(lo + ri, cj) for ri, cj in walked])
            if i_rel == 0 and j_stop > 0:
                return j_stop  # crossed row lo
            self.stop = (lo + i_rel, j_stop)
            return None
        mid = (lo + hi) // 2
        F_mid = self._sweep(lo, mid, F_lo, je)
        j_mid = self.run(mid, hi, F_mid, je)
        if j_mid is None:
            return None
        return self.run(lo, mid, F_lo, j_mid)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        out: list[tuple[int, int]] = []
        for segment in reversed(self.segments):
            out.extend(segment)
        return tuple(out)


def linear_align(  # parity-oracle: hirschberg_align_reference
    a: str | np.ndarray,
    b: str | np.ndarray,
    model: SubstitutionModel | None = None,
    mode: str = "global",
    block_cells: int = DEFAULT_BLOCK_CELLS,
) -> Alignment:
    """Optimal alignment in near-linear memory, byte-identical to the
    direction-tensor kernels.

    ``mode`` is ``"global"``, ``"overlap"`` or ``"local"`` (banded
    traceback is already O(n·band) and affine gaps keep their tensor
    path — the engine rejects ``memory="linear"`` for those).  Equal —
    score *and* aligned pairs — to :func:`~fragalign.align.pairwise.
    global_align` / ``overlap_align`` / ``local_align`` on the same
    inputs, while peak traceback memory stays O(m·log n) + one
    ``block_cells`` code block instead of the (n, m) byte tensor.
    """
    model = model or unit_dna()
    if mode not in LINEAR_MODES:
        raise ValueError(
            f"linear-memory alignment supports modes {LINEAR_MODES}, got {mode!r}"
        )
    ac = a if isinstance(a, np.ndarray) else encode(a)
    bc = b if isinstance(b, np.ndarray) else encode(b)
    n, m = len(ac), len(bc)
    g = model.gap
    if n == 0 or m == 0:
        score, a_iv, b_iv = _empty_side(n, m, mode, model, None)
        return Alignment(score, (), a_iv, b_iv)
    dt = _sweep_dtype(model, None, n, m)

    if mode == "global":
        walk = _LinearWalk(ac, bc, model, mode, block_cells, dt)
        walk.run(0, n, np.zeros(m + 1, dt), m)
        # f-space: H(n, m) = F(n, m) + g*m + n*g.
        score = walk.corner + g * (m + n)
        return Alignment(score, walk.pairs(), (0, n), (0, m))

    # Overlap and local: a score sweep finds the end cell (overlap ends
    # in row n), then the walk runs back from it.
    score, ends_i, ends_j, _ = _sweep_ends(_Pack([(ac, bc)]), model, mode, dt=dt)
    score, ei, ej = float(score[0]), int(ends_i[0]), int(ends_j[0])
    if ei == 0 or ej == 0:  # empty alignment: the walk starts and ends here
        return Alignment(score, (), (ei, ei), (ej, ej))
    walk = _LinearWalk(ac, bc, model, mode, block_cells, dt)
    # Row 0 in f-space: H = 0 (local) -> F = -g*j; H = g*j (overlap) -> F = 0.
    F0 = -dt.type(g) * np.arange(ej + 1, dtype=dt) if mode == "local" else np.zeros(ej + 1, dt)
    crossed = walk.run(0, ei, F0, ej)
    # stop records where the walk ended; otherwise it crossed row 0 at
    # column ``crossed``.
    i0, j0 = walk.stop or (0, crossed)
    return Alignment(score, walk.pairs(), (i0, ei), (j0 if mode == "local" else 0, ej))


def hirschberg_align(
    a: str, b: str, model: SubstitutionModel | None = None
) -> Alignment:
    """Optimal global alignment in near-linear memory.

    Byte-identical to :func:`~fragalign.align.pairwise.global_align`
    (score *and* pairs — a standing test invariant), via the
    canonical-walk divide and conquer of :func:`linear_align`.
    """
    return linear_align(a, b, model, mode="global")


# ---------------------------------------------------------------------------
# The classic score-splitting Hirschberg — kept as the parity oracle.
# ---------------------------------------------------------------------------


def _score_last_row(
    a_codes: np.ndarray, b_codes: np.ndarray, model: SubstitutionModel
) -> np.ndarray:
    """Final NW DP row for a vs b (linear gap), O(m) memory."""
    g = model.gap
    m = len(b_codes)
    js = np.arange(m + 1)
    prev = js * g
    for i in range(1, len(a_codes) + 1):
        W_row = model.matrix[a_codes[i - 1]][b_codes] if m else None
        V = np.empty(m + 1)
        V[0] = i * g
        if m:
            np.maximum(prev[:-1] + W_row, prev[1:] + g, out=V[1:])
        t = V - g * js
        np.maximum.accumulate(t, out=t)
        prev = t + g * js
    return prev


def _recurse(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    a_off: int,
    b_off: int,
    model: SubstitutionModel,
    pairs: list[tuple[int, int]],
) -> None:
    n, m = len(a_codes), len(b_codes)
    if n == 0 or m == 0:
        return
    if n == 1 or m == 1:
        # Small base case: quadratic memory is O(n + m) here anyway.
        a_str = "ACGTN"
        base = global_align(
            "".join(a_str[c] for c in a_codes),
            "".join(a_str[c] for c in b_codes),
            model,
        )
        pairs.extend((a_off + i, b_off + j) for i, j in base.pairs)
        return
    mid = n // 2
    upper = _score_last_row(a_codes[:mid], b_codes, model)
    lower = _score_last_row(a_codes[mid:][::-1], b_codes[::-1], model)
    split = int(np.argmax(upper + lower[::-1]))
    _recurse(a_codes[:mid], b_codes[:split], a_off, b_off, model, pairs)
    _recurse(
        a_codes[mid:], b_codes[split:], a_off + mid, b_off + split, model, pairs
    )


def hirschberg_align_reference(
    a: str, b: str, model: SubstitutionModel | None = None
) -> Alignment:
    """The classic forward+backward score-splitting Hirschberg.

    Returns *a* co-optimal global alignment in linear space — equal in
    score to :func:`hirschberg_align` but free to pick a different
    co-optimal pair list.  Kept as the score-parity oracle for the
    canonical walker.
    """
    model = model or unit_dna()
    pairs: list[tuple[int, int]] = []
    _recurse(encode(a), encode(b), 0, 0, model, pairs)
    from fragalign.align.pairwise import global_score

    return Alignment(
        score=global_score(a, b, model),
        pairs=tuple(pairs),
        a_interval=(0, len(a)),
        b_interval=(0, len(b)),
    )
