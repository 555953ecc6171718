"""The ``native`` backend: bit-parallel + striped-SIMD score kernels.

Two kernel families, one capability-probed backend:

* **Myers/BitPAl bit-parallel** — score-only ``global``/``overlap``
  for *flat* models (see
  :func:`fragalign.align.bitparallel.flat_model_family`): 64 DP cells
  per uint64 word, implemented twice.  The C extension
  (:mod:`fragalign._native`) runs when built; the pure-numpy uint64
  kernels in :mod:`fragalign.align.bitparallel` serve as both the
  no-compiler fallback and the parity oracle.
* **Farrar striped Smith-Waterman** — score-only ``local`` for
  integer substitution models with an integer linear gap.  C only;
  without the extension this combo reports unaccelerated.

The backend is deliberately *partial*: :meth:`accelerates` tells the
:class:`fragalign.engine.AlignmentEngine` facade exactly which
(op, model, spec) combos the kernels cover, and the facade falls
through to the numpy backend for everything else (align verbs, affine
gaps, banded mode, non-flat models).  Called directly, the unsupported
verbs delegate to an internal :class:`NumpyBackend` so the backend is
still total — capability probing is an optimization contract, not a
correctness one.

The C kernels sweep one shape in one mode per call, so
:meth:`NativeBackend.score_many` buckets its batch by mode and shape,
and hands the pairs of any mode it does not cover to the internal numpy
backend in one call.  Pairs whose sequences contain ``N`` (code
4) are split out of the bit-parallel path per bucket — the 2-bit Eq
tables cover A/C/G/T only — and scored by the internal numpy backend;
the striped-SW kernel handles ``N`` natively through its 5x5 profile.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from fragalign._native import (
    HAVE_NATIVE,
    NATIVE_ERROR,
    bitparallel_scores_native,
    striped_local_scores_native,
)
from fragalign.align.bitparallel import bitparallel_scores_batch
from fragalign.align.scoring_matrices import SubstitutionModel
from fragalign.engine.backends import (
    AlignmentBackend,
    NumpyBackend,
    PreparedPair,
)

__all__ = ["NativeBackend", "HAVE_NATIVE", "NATIVE_ERROR", "INLINE_CELLS"]

_SCORE_OPS = ("score", "score_many")
_BITPARALLEL_MODES = ("global", "overlap")

#: The most DP cells a batch may sum for :meth:`NativeBackend.inline`
#: (64 pairs of 128 × 128): under a millisecond in the C bit-parallel
#: kernel, so the serving batcher runs it on its event loop.
INLINE_CELLS = 1 << 20

# int32 headroom limits mirrored from the C entry point's guard: the
# striped kernel refuses batches whose scores could approach the lane
# dtype's range, and the backend routes those to numpy instead of
# tripping the kernel's ValueError.
_SW_MAX_SCORE = 1 << 27
_SW_MAX_DECAY = 1 << 29


def _striped_params(
    model: SubstitutionModel,
) -> tuple[np.ndarray, int] | None:
    """(int32 matrix, positive gap penalty) when the striped-SW kernel
    covers this model — finite integral matrix and gap, the gap
    negative — else ``None``."""
    if not model.integral or model.gap >= 0:
        return None
    return model.matrix.astype(np.int32), int(-model.gap)


class NativeBackend(AlignmentBackend):
    """Score-only bit-parallel / striped-SIMD kernels with fallback.

    Parameters
    ----------
    force_fallback:
        Pretend the C extension is absent — the bit-parallel path uses
        the numpy uint64 kernels and ``local`` reports unaccelerated.
        The no-compiler CI job and the A/B benchmarks use this.
    require_native:
        Raise at construction when the C extension is unavailable
        (the native-build CI job asserts the compiled path is live).

    The unaccelerated verbs and the N-carrying bit-parallel pairs run
    on an internal default :class:`NumpyBackend`.  The accelerated
    score batches run one kernel call per (mode, shape) bucket.
    """

    name = "native"

    def __init__(self, force_fallback: bool = False, require_native: bool = False) -> None:
        if require_native and not HAVE_NATIVE:
            raise RuntimeError(
                f"native kernels required but unavailable: {NATIVE_ERROR}"
            )
        self.use_c = HAVE_NATIVE and not force_fallback
        self._numpy = NumpyBackend()

    # -- capability probe --------------------------------------------

    def accelerates(self, op, model, spec) -> bool:
        if op not in _SCORE_OPS or spec.gap_open is not None:
            return False
        if spec.mode in _BITPARALLEL_MODES:
            return model.flat is not None
        if spec.mode == "local":
            return self.use_c and _striped_params(model) is not None
        return False

    def inline(self, op, batch, model, specs) -> bool:
        """Whether ``score_many`` sends every pair whole to the C
        bit-parallel kernel (``global``/``overlap``, a flat model, no
        ``N``) and the batch sums at most :data:`INLINE_CELLS` cells;
        the striped, numpy and fallback kernels are slower."""
        if not (self.use_c and op == "score" and model.flat is not None):
            return False
        if any(spec.mode not in _BITPARALLEL_MODES or spec.gap_open is not None for spec in specs):
            return False
        cells, codes = 0, []
        for p in batch:
            cells += len(p.a_codes) * len(p.b_codes)
            if cells > INLINE_CELLS:
                return False
            codes += (p.a_codes, p.b_codes)
        return not codes or np.concatenate(codes).max(initial=0) <= 3

    # -- score verbs --------------------------------------------------

    def score(self, p, model, spec) -> float:
        return float(self.score_many([p], model, [spec])[0])

    def score_many(self, batch, model, specs) -> np.ndarray:
        buckets: dict[tuple[str, tuple[int, int]], list[int]] = defaultdict(list)
        for k, (p, spec) in enumerate(zip(batch, specs)):
            buckets[spec.mode, p.shape].append(k)
        out = np.empty(len(batch))
        rest: list[int] = []  # pairs in a mode the kernels do not cover
        for (mode, (n, m)), idxs in buckets.items():
            spec = specs[idxs[0]]
            if not self.accelerates("score_many", model, spec):
                rest += idxs
                continue
            many = self._local_many if mode == "local" else self._bitparallel_many
            out[idxs] = many([batch[k] for k in idxs], model, spec, n, m)
        if rest:
            sub = [batch[k] for k in rest]
            out[rest] = self._numpy.score_many(sub, model, [specs[k] for k in rest])
        return out

    def _bitparallel_many(self, batch, model, spec, n: int, m: int) -> np.ndarray:
        family = model.flat[0]
        mode = spec.mode
        B = len(batch)
        if family == "lev" and mode == "overlap":
            # H[i][0] = 0 and every move is <= 0, so 0 is always
            # attainable and never beatable.
            return np.zeros(B)
        if n == 0 or m == 0:
            if mode == "overlap":
                return np.zeros(B)
            return np.full(B, (n + m) * float(model.gap))
        acodes = np.stack([p.a_codes for p in batch])
        bcodes = np.stack([p.b_codes for p in batch])
        if max(acodes.max(), bcodes.max()) <= 3:  # no N: no split
            return self._bitparallel_kernel(acodes, bcodes, model, mode)
        has_n = (acodes.max(axis=1) > 3) | (bcodes.max(axis=1) > 3)
        out = np.empty(B)
        clean = ~has_n
        if clean.any():
            out[clean] = self._bitparallel_kernel(acodes[clean], bcodes[clean], model, mode)
        sub = [p for p, bad in zip(batch, has_n) if bad]
        out[has_n] = self._numpy.score_many(sub, model, [spec] * len(sub))
        return out

    def _bitparallel_kernel(self, acodes, bcodes, model, mode: str) -> np.ndarray:
        """Scores of N-free same-shape code rows: C, else numpy uint64."""
        if self.use_c:
            family, c = model.flat
            return bitparallel_scores_native(acodes, bcodes, family, mode) * c
        return bitparallel_scores_batch(list(zip(acodes, bcodes)), model=model, mode=mode)

    def _local_many(self, batch, model, spec, n: int, m: int) -> np.ndarray:
        if n == 0 or m == 0:
            return np.zeros(len(batch))
        mat, pen = _striped_params(model)
        maxabs = int(np.abs(model.matrix).max())  # mat may have wrapped
        if (
            (min(n, m) + 1) * max(maxabs, 1) >= _SW_MAX_SCORE
            or (n + 8) * pen >= _SW_MAX_DECAY
        ):
            return self._numpy.score_many(batch, model, [spec] * len(batch))
        acodes = np.stack([p.a_codes for p in batch])
        bcodes = np.stack([p.b_codes for p in batch])
        return striped_local_scores_native(
            acodes, bcodes, mat, pen
        ).astype(np.float64)

    # -- everything else delegates ------------------------------------

    def align(self, p, model, spec):
        return self._numpy.align(p, model, spec)

    def align_many(self, batch, model, specs):
        return self._numpy.align_many(batch, model, specs)
