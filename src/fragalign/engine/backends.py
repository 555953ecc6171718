"""Alignment backends: the naive per-cell foil and the NumPy kernels.

A backend is an execution strategy for the same mathematical DP; all
backends produce identical scores and (for integer-valued models)
identical tracebacks, which the cross-backend parity tests pin down.
``score_many``/``align_many`` receive a whole dispatch group, whatever
its pairs' shapes: the numpy kernels pad each chunk to its longest
pair, and a backend whose kernels need one shape buckets the group
itself.

Every hook takes ``(…, model, spec)``: a resolved
:class:`~fragalign.job.JobSpec` already validated at the edge.  Four
modes are first-class: ``global`` (Needleman–Wunsch), ``local``
(Smith–Waterman), ``overlap`` (suffix–prefix, the assembler's overlap
detector) and ``banded`` (global restricted to ``|i - j| <= band``).
``spec.gap_open``/``spec.gap_extend`` switch any mode to **affine
(Gotoh) gap costs** (a k-gap costs ``open + (k-1)·extend``; unset keeps
the model's linear gap).  ``spec.memory`` selects the align-verb
traceback strategy: ``"tensor"`` (the packed (n, B, m) direction
tensor), ``"linear"`` (the Hirschberg-style canonical walker —
byte-identical alignments in near-linear memory) or ``"auto"`` (linear
above ``linear_auto_cells`` DP cells per chunk, tensor below).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from fragalign.align.affine import (
    affine_align_reference,
    affine_score_reference,
)
from fragalign.align.pairwise import (
    _NEG,
    _batch,
    _check_band,
    Alignment,
    banded_global_score_reference,
    global_score_reference,
    local_score_reference,
    overlap_score_reference,
)
from fragalign.align.scoring_matrices import SubstitutionModel
from fragalign.job import JobSpec

__all__ = [
    "PreparedPair",
    "AlignmentBackend",
    "NaiveBackend",
    "NumpyBackend",
    "LINEAR_AUTO_CELLS",
]

#: Pairs one kernel sweep holds at once: bounds the sweep buffers and
#: the (n, CHUNK, m) direction tensor of a batch.
CHUNK = 64

#: ``memory="auto"`` switches the align verbs to the linear-memory
#: walker above this many DP cells per *chunk* — the point where the
#: (n, B, m) uint8 direction tensor starts to dominate peak memory
#: (16M cells = a 16 MB tensor allocation).  A batch sweeps up to
#: ``CHUNK`` pairs per tensor, padded to its longest pair, so each
#: chunk resolves on its padded cells: one too big walks in linear
#: memory while the rest of its batch keeps the tensor.
LINEAR_AUTO_CELLS = 1 << 24


@dataclass(frozen=True)
class PreparedPair:
    """One alignment job after memoized preparation (encoded codes)."""

    a: str
    b: str
    a_codes: np.ndarray
    b_codes: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.a_codes), len(self.b_codes)


class AlignmentBackend:
    """Base class: per-pair hooks plus looping batch defaults.

    Subclasses must implement :meth:`score` and :meth:`align`; they
    *should* override the batch methods when they can do better than a
    Python loop (the whole point of the NumPy and native backends).
    """

    name = "?"

    def accelerates(self, op: str, model: SubstitutionModel, spec: JobSpec) -> bool:
        """Does this backend natively cover the (op, model, spec) combo?

        The facade consults this before dispatching: a ``False`` means
        the request falls through to the numpy backend instead (same
        scores — capability, not correctness).  Full-coverage backends
        keep the default ``True``; partial backends like ``native``
        report only the combos their kernels accelerate.
        """
        return True

    def score(self, p: PreparedPair, model: SubstitutionModel, spec: JobSpec) -> float:
        raise NotImplementedError

    def align(self, p: PreparedPair, model: SubstitutionModel, spec: JobSpec) -> Alignment:
        raise NotImplementedError

    def score_many(
        self, batch: list[PreparedPair], model: SubstitutionModel, spec: JobSpec
    ) -> np.ndarray:
        return np.array([self.score(p, model, spec) for p in batch])

    def align_many(
        self, batch: list[PreparedPair], model: SubstitutionModel, spec: JobSpec
    ) -> list[Alignment]:
        return [self.align(p, model, spec) for p in batch]

    def close(self) -> None:
        """Release any held resources (device handles, worker pools) —
        a hook for registered third-party backends; the built-ins hold
        none."""


class NaiveBackend(AlignmentBackend):
    """Transparent per-cell Python DP — the correctness oracle.

    Every cell is a Python ``max`` over the legal moves; tracebacks
    prefer diagonal, then up, then left, exactly like the NumPy
    kernels' direction codes, so the two backends agree
    alignment-for-alignment on integer models.  Affine modes delegate
    to the per-cell Gotoh oracles in :mod:`fragalign.align.affine`
    (same recurrences and tie orders as the batched kernels).
    ``spec.memory`` is ignored — the oracle holds the full table
    regardless.
    """

    name = "naive"

    @staticmethod
    def _w_rows(p: PreparedPair, model: SubstitutionModel) -> list[list[float]]:
        return model.pair_matrix(p.a_codes, p.b_codes).tolist()

    def score(self, p, model, spec) -> float:
        mode = spec.mode
        if spec.gap_open is not None:
            return affine_score_reference(
                p.a, p.b, model, spec.gap_open, spec.gap_extend, mode=mode, band=spec.band
            )
        if mode == "local":
            return local_score_reference(p.a, p.b, model)
        if mode == "overlap":
            return overlap_score_reference(p.a, p.b, model)
        if mode == "banded":
            return banded_global_score_reference(p.a, p.b, spec.band, model)
        return global_score_reference(p.a, p.b, model)

    def align(self, p, model, spec) -> Alignment:
        mode = spec.mode
        if spec.gap_open is not None:
            return affine_align_reference(
                p.a, p.b, model, spec.gap_open, spec.gap_extend, mode=mode, band=spec.band
            )
        if mode == "local":
            return self._align_local(p, model)
        if mode == "overlap":
            return self._align_overlap(p, model)
        if mode == "banded":
            return self._align_banded(p, model, spec.band)
        return self._align_global(p, model)

    def _align_global(self, p: PreparedPair, model: SubstitutionModel) -> Alignment:
        n, m = p.shape
        g = model.gap
        if n == 0 or m == 0:
            return Alignment((n + m) * g, (), (0, n), (0, m))
        W = self._w_rows(p, model)
        H = [[j * g for j in range(m + 1)]]
        for i in range(1, n + 1):
            row = [i * g] + [0.0] * m
            prev, w = H[i - 1], W[i - 1]
            for j in range(1, m + 1):
                row[j] = max(prev[j - 1] + w[j - 1], prev[j] + g, row[j - 1] + g)
            H.append(row)
        i, j = n, m
        pairs: list[tuple[int, int]] = []
        while i > 0 and j > 0:
            if H[i][j] == H[i - 1][j - 1] + W[i - 1][j - 1]:
                pairs.append((i - 1, j - 1))
                i -= 1
                j -= 1
            elif H[i][j] == H[i - 1][j] + g:
                i -= 1
            else:
                j -= 1
        pairs.reverse()
        return Alignment(float(H[n][m]), tuple(pairs), (0, n), (0, m))

    def _align_local(self, p: PreparedPair, model: SubstitutionModel) -> Alignment:
        n, m = p.shape
        g = model.gap
        if n == 0 or m == 0:
            return Alignment(0.0, (), (0, 0), (0, 0))
        W = self._w_rows(p, model)
        H = [[0.0] * (m + 1) for _ in range(n + 1)]
        best, bi, bj = 0.0, 0, 0
        for i in range(1, n + 1):
            w = W[i - 1]
            hp, hc = H[i - 1], H[i]
            for j in range(1, m + 1):
                v = max(0.0, hp[j - 1] + w[j - 1], hp[j] + g, hc[j - 1] + g)
                hc[j] = v
                if v > best:
                    best, bi, bj = v, i, j
        i, j = bi, bj
        pairs: list[tuple[int, int]] = []
        while i > 0 and j > 0 and H[i][j] > 0:
            if H[i][j] == H[i - 1][j - 1] + W[i - 1][j - 1]:
                pairs.append((i - 1, j - 1))
                i -= 1
                j -= 1
            elif H[i][j] == H[i - 1][j] + g:
                i -= 1
            else:
                j -= 1
        pairs.reverse()
        return Alignment(best, tuple(pairs), (i, bi), (j, bj))

    def _align_overlap(self, p: PreparedPair, model: SubstitutionModel) -> Alignment:
        n, m = p.shape
        g = model.gap
        if n == 0 or m == 0:
            return Alignment(0.0, (), (n, n), (0, 0))
        W = self._w_rows(p, model)
        H = [[j * g for j in range(m + 1)]]
        for i in range(1, n + 1):
            row = [0.0] * (m + 1)
            prev, w = H[i - 1], W[i - 1]
            for j in range(1, m + 1):
                row[j] = max(prev[j - 1] + w[j - 1], prev[j] + g, row[j - 1] + g)
            H.append(row)
        b_end = max(range(m + 1), key=lambda j: (H[n][j], -j))
        score = H[n][b_end]
        i, j = n, b_end
        pairs: list[tuple[int, int]] = []
        while j > 0:
            if i > 0 and H[i][j] == H[i - 1][j - 1] + W[i - 1][j - 1]:
                pairs.append((i - 1, j - 1))
                i -= 1
                j -= 1
            elif i > 0 and H[i][j] == H[i - 1][j] + g:
                i -= 1
            else:
                j -= 1
        pairs.reverse()
        return Alignment(float(score), tuple(pairs), (i, n), (0, b_end))

    def _align_banded(self, p: PreparedPair, model: SubstitutionModel, band) -> Alignment:
        n, m = p.shape
        g = model.gap
        band = _check_band(n, m, band)
        if n == 0 or m == 0:
            return Alignment((n + m) * g, (), (0, n), (0, m))
        W = self._w_rows(p, model)
        rows: list[dict[int, float]] = [
            {j: j * g for j in range(0, min(m, band) + 1)}
        ]
        for i in range(1, n + 1):
            lo = max(0, i - band)
            hi = min(m, i + band)
            prev = rows[i - 1]
            cur: dict[int, float] = {}
            for j in range(lo, hi + 1):
                best = _NEG
                if j == 0:
                    best = i * g
                if j - 1 in prev:
                    best = max(best, prev[j - 1] + W[i - 1][j - 1])
                if j in prev:
                    best = max(best, prev[j] + g)
                if j - 1 in cur:
                    best = max(best, cur[j - 1] + g)
                cur[j] = best
            rows.append(cur)
        i, j = n, m
        pairs: list[tuple[int, int]] = []
        while i > 0 and j > 0:
            h = rows[i][j]
            if j - 1 in rows[i - 1] and h == rows[i - 1][j - 1] + W[i - 1][j - 1]:
                pairs.append((i - 1, j - 1))
                i -= 1
                j -= 1
            elif j in rows[i - 1] and h == rows[i - 1][j] + g:
                i -= 1
            else:
                j -= 1
        pairs.reverse()
        return Alignment(float(rows[n][m]), tuple(pairs), (0, n), (0, m))


class NumpyBackend(AlignmentBackend):
    """Row-vectorized kernels; batches share one sweep per DP row.

    Every verb runs the kernels' one driver, sweeping up to
    :data:`CHUNK` pairs of any shapes at a time; ``linear_auto_cells``
    is the padded per-chunk DP-cell count from which a ``memory="auto"``
    align chunk takes the linear-memory walker instead of the direction
    tensor.
    """

    name = "numpy"

    def __init__(self, linear_auto_cells: int = LINEAR_AUTO_CELLS) -> None:
        self.linear_auto_cells = linear_auto_cells

    def _run(self, codes, model, spec: JobSpec, kind: str):
        gaps = None if spec.gap_open is None else (spec.gap_open, spec.gap_extend)
        linear = partial(spec.linear_traceback, auto_cells=self.linear_auto_cells)
        return _batch(kind, codes, model, spec.mode, spec.band, gaps, CHUNK, linear)

    def score(self, p, model, spec) -> float:
        return float(self._run([(p.a_codes, p.b_codes)], model, spec, "score")[0])

    def align(self, p, model, spec) -> Alignment:
        return self._run([(p.a_codes, p.b_codes)], model, spec, "align")[0]

    def score_many(self, batch, model, spec) -> np.ndarray:
        codes = [(p.a_codes, p.b_codes) for p in batch]
        return self._run(codes, model, spec, "score")

    def align_many(self, batch, model, spec) -> list[Alignment]:
        codes = [(p.a_codes, p.b_codes) for p in batch]
        return self._run(codes, model, spec, "align")
