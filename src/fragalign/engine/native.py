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

The C kernels sweep one shape per call, so :meth:`NativeBackend.score_many`
buckets its batch by shape.  Pairs whose sequences contain ``N`` (code
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
from fragalign.align.bitparallel import (
    bitparallel_scores_batch,
    flat_model_family,
)
from fragalign.align.scoring_matrices import SubstitutionModel
from fragalign.engine.backends import (
    AlignmentBackend,
    NumpyBackend,
    PreparedPair,
)

__all__ = ["NativeBackend", "HAVE_NATIVE", "NATIVE_ERROR"]

_SCORE_OPS = ("score", "score_many")

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
    covers this model — integral 5x5 matrix, integral negative linear
    gap — else ``None``."""
    mat = np.asarray(model.matrix, dtype=np.float64)
    if mat.shape != (5, 5):
        return None
    rounded = np.rint(mat)
    if not np.array_equal(rounded, mat):
        return None
    gap = float(model.gap)
    if gap >= 0 or gap != int(gap):
        return None
    return rounded.astype(np.int32), int(-gap)


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
    score batches run one kernel call per shape bucket.
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
        if spec.mode in ("global", "overlap"):
            return flat_model_family(model) is not None
        if spec.mode == "local":
            return self.use_c and _striped_params(model) is not None
        return False

    # -- score verbs --------------------------------------------------

    def score(self, p, model, spec) -> float:
        return float(self.score_many([p], model, spec)[0])

    def score_many(self, batch, model, spec) -> np.ndarray:
        if not self.accelerates("score_many", model, spec):
            return self._numpy.score_many(batch, model, spec)
        by_shape: dict[tuple[int, int], list[int]] = defaultdict(list)
        for k, p in enumerate(batch):
            by_shape[p.shape].append(k)
        many = self._local_many if spec.mode == "local" else self._bitparallel_many
        out = np.empty(len(batch))
        for (n, m), idxs in by_shape.items():
            out[idxs] = many([batch[k] for k in idxs], model, spec, n, m)
        return out

    def _bitparallel_many(self, batch, model, spec, n: int, m: int) -> np.ndarray:
        family, c = flat_model_family(model)
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
        has_n = (acodes.max(axis=1) > 3) | (bcodes.max(axis=1) > 3)
        out = np.empty(B)
        clean = ~has_n
        if clean.any():
            ac, bc = acodes[clean], bcodes[clean]
            if self.use_c:
                out[clean] = bitparallel_scores_native(
                    ac, bc, family, mode
                ) * c
            else:
                out[clean] = bitparallel_scores_batch(
                    list(zip(ac, bc)), model=model, mode=mode
                )
        if has_n.any():
            sub = [p for p, bad in zip(batch, has_n) if bad]
            out[has_n] = self._numpy.score_many(sub, model, spec)
        return out

    def _local_many(self, batch, model, spec, n: int, m: int) -> np.ndarray:
        if n == 0 or m == 0:
            return np.zeros(len(batch))
        mat, pen = _striped_params(model)
        maxabs = int(np.abs(mat).max())
        if (
            (min(n, m) + 1) * max(maxabs, 1) >= _SW_MAX_SCORE
            or (n + 8) * pen >= _SW_MAX_DECAY
        ):
            return self._numpy.score_many(batch, model, spec)
        acodes = np.stack([p.a_codes for p in batch])
        bcodes = np.stack([p.b_codes for p in batch])
        return striped_local_scores_native(
            acodes, bcodes, mat, pen
        ).astype(np.float64)

    # -- everything else delegates ------------------------------------

    def align(self, p, model, spec):
        return self._numpy.align(p, model, spec)

    def align_many(self, batch, model, spec):
        return self._numpy.align_many(batch, model, spec)
